// Source-batched execution of the leveled query schedule (Section 3.2,
// amortized over sources as in Corollary 5.2's s-source bounds).
//
// LeveledQuery::run streams the full bucketed edge set once per source,
// so a many-source workload (distances_batch / all_pairs) is bound by
// memory bandwidth: every source re-loads E u E+. BatchedLeveledQuery
// runs the *same* phase schedule once for a block of `lanes` sources
// over a lane-major distance matrix dist[v * lanes + lane]: each edge is
// loaded once per phase and relaxes every lane in one dispatched bucket
// sweep (semiring/simd.hpp), whose lane count is a run-time value. Lanes
// are independent — no values ever cross lanes — so every lane's
// distance trajectory is identical to a scalar LeveledQuery::run of that
// lane's source (bit-identical, including for floating-point semirings:
// same edges, same order, same arithmetic).
//
// Per-lane semantics preserved exactly:
//   * E-pass early exit: a lane stops accruing scans/phases after its
//     first no-change pass (the pass itself still counts, as in the
//     scalar kernel); converged lanes keep riding along as no-ops.
//   * negative-cycle flags, edges_scanned and phases are tracked per
//     lane and reported in each lane's QueryResult.
//   * multi-source seeding (LeveledQuery::run_multi) is a degenerate
//     lane: run_seeded() plants any number of one()-seeds per lane.
//
// PRAM accounting: work is charged per lane (every lane's updates really
// happen), depth once per block (the lanes share the physical phases).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/query.hpp"
#include "pram/thread_pool.hpp"
#include "semiring/simd.hpp"
#include "util/aligned.hpp"

namespace sepsp {

/// The block widths the many-source entry points accept
/// (Options::Query::batch_lanes, BatchPolicy::lanes,
/// ServiceOptions::lanes): the powers of two 1, 2, 4, 8, 16, 32. The
/// sweep kernels take any width up to BatchedLeveledQuery::kMaxLanes;
/// powers of two keep a lane-major row a whole number of vectors once
/// the width reaches the vector width, and 32 bounds a block's distance
/// matrix at 32 n values.
constexpr bool valid_lane_width(std::size_t lanes) {
  return lanes == 1 || lanes == 2 || lanes == 4 || lanes == 8 ||
         lanes == 16 || lanes == 32;
}

/// Runs the leveled schedule for up to `lanes` sources at once against
/// the buckets of an existing LeveledQuery (which must outlive this
/// view).
template <Semiring S>
class BatchedLeveledQuery {
 public:
  using Value = typename S::Value;
  /// The widest block the bucket-sweep kernels relax (semiring/simd.hpp).
  static constexpr std::size_t kMaxLanes = 64;

  BatchedLeveledQuery(const LeveledQuery<S>& query, std::size_t lanes)
      : q_(&query), lanes_(lanes) {
    SEPSP_CHECK(lanes >= 1 && lanes <= kMaxLanes);
  }

  std::size_t lanes() const { return lanes_; }

  /// One source per lane; `sources.size()` may be short of lanes()
  /// (ragged last block) — unused lanes are left unseeded and skipped in
  /// the output. Returns one QueryResult per source, in order.
  std::vector<QueryResult<S>> run_block(
      std::span<const Vertex> sources) const {
    return run_lanes(sources.size(), one_per_lane(sources), false);
  }

  /// run_block() followed by the fixpoint polish of
  /// LeveledQuery::run_into_converged, batched: after the two sweeps,
  /// passes over E u E+ repeat until no lane improves (per-lane change
  /// tracking; converged lanes stop accruing counters and ride along as
  /// no-ops). Each lane matches a scalar run_into_converged of its
  /// source bit-identically — same edges, same order, same arithmetic.
  std::vector<QueryResult<S>> run_block_converged(
      std::span<const Vertex> sources) const {
    return run_lanes(sources.size(), one_per_lane(sources), true);
  }

  /// Generalized block: lane `i` starts with every vertex of
  /// `lane_seeds[i]` at one() — LeveledQuery::run_multi per lane.
  std::vector<QueryResult<S>> run_seeded(
      std::span<const std::vector<Vertex>> lane_seeds) const {
    return run_lanes(
        lane_seeds.size(),
        [&](std::size_t lane) { return std::span(lane_seeds[lane]); },
        false);
  }

  /// Any number of sources: blocks of lanes() sources (the last one
  /// ragged) run in parallel on the thread pool, one block per task.
  /// `converge` selects run_block_converged over run_block. Returns one
  /// QueryResult per source, in order.
  std::vector<QueryResult<S>> run_all(std::span<const Vertex> sources,
                                      bool converge = false) const {
    std::vector<QueryResult<S>> results(sources.size());
    pram::ThreadPool::global().parallel_for(
        0, (sources.size() + lanes_ - 1) / lanes_,
        [&](std::size_t blk) {
          const std::size_t lo = blk * lanes_;
          const std::span<const Vertex> block =
              sources.subspan(lo, std::min(lanes_, sources.size() - lo));
          auto out = run_lanes(block.size(), one_per_lane(block), converge);
          std::move(out.begin(), out.end(), results.begin() + lo);
        },
        /*grain=*/1);
    return results;
  }

 private:
  /// Per-lane accounting mirror of QueryResult's counters.
  struct Acct {
    std::size_t lanes = 0;
    std::array<std::uint64_t, kMaxLanes> edges_scanned{};
    std::array<std::uint32_t, kMaxLanes> phases{};
    std::array<std::uint8_t, kMaxLanes> negative_cycle{};
  };

  /// Lane i's seeds as a one-vertex span: sources[i].
  static auto one_per_lane(std::span<const Vertex> sources) {
    return [sources](std::size_t lane) { return sources.subspan(lane, 1); };
  }

  /// Seeds lane i of a fresh lane-major matrix at every vertex of
  /// seeds(i), for i < used, and runs the schedule over it.
  template <typename LaneSeeds>
  std::vector<QueryResult<S>> run_lanes(std::size_t used,
                                        const LaneSeeds& seeds,
                                        bool converge) const {
    SEPSP_CHECK(used >= 1 && used <= lanes_);
    const std::size_t n = q_->graph().num_vertices();
    AlignedVector<Value> dist(padded_size<Value>(n * lanes_), S::zero());
    for (std::size_t lane = 0; lane < used; ++lane) {
      for (const Vertex s : seeds(lane)) {
        SEPSP_CHECK(s < n);
        dist[static_cast<std::size_t>(s) * lanes_ + lane] = S::one();
      }
    }
    return run_schedule(dist, used, converge);
  }

  std::vector<QueryResult<S>> run_schedule(AlignedVector<Value>& dist,
                                           std::size_t lanes,
                                           bool converge) const {
    SEPSP_TRACE_SPAN("query.batch_block");
    Acct acct;
    acct.lanes = lanes;
    Value* d = dist.data();
    tracked_passes({&q_->base_edges()}, q_->ell(), d, acct);
    const auto same = q_->same_buckets();
    const auto down = q_->down_buckets();
    const auto up = q_->up_buckets();
    for (std::uint32_t l = q_->height() + 1; l-- > 0;) {
      relax_counted(same[l], d, acct);
      relax_counted(down[l], d, acct);
      // Per-level scan accounting matches the scalar schedule: every
      // live lane is charged the bucket scan.
      q_->note_level_scan(l, (same[l].size() + down[l].size()) * lanes);
    }
    for (std::uint32_t l = 0; l <= q_->height(); ++l) {
      relax_counted(same[l], d, acct);
      relax_counted(up[l], d, acct);
      q_->note_level_scan(l, (same[l].size() + up[l].size()) * lanes);
    }
    if (converge) {
      // Fixpoint polish over E u E+ (LeveledQuery::run_into_converged);
      // replaces (and subsumes) the trailing E passes.
      const std::size_t cap = q_->graph().num_vertices() + 1;
      SEPSP_CHECK_MSG(
          tracked_passes({&q_->base_edges(), &q_->shortcut_edges()}, cap, d,
                         acct) < cap,
          "batched converge diverged (negative cycle?)");
    } else {
      tracked_passes({&q_->base_edges()}, q_->ell(), d, acct);
    }
    detect_negative_cycles(d, acct);
    return extract(dist, acct);
  }

  /// Relax every edge of the bucket across all lanes: one dispatched
  /// bucket sweep per value run (semiring/simd.hpp; the scalar tier is
  /// simd_scalar.cpp), recording into changed[0..lanes_) which lanes
  /// improved when `changed` is given. combine() is a branch-free select
  /// and relax_extend() is the semiring's unguarded extend where one
  /// exists (bucket values are never zero(): no-path entries are dropped
  /// when the buckets are built); unseeded lanes stay at zero()
  /// (extend() from zero() never improves anything).
  void sweep(const EdgeBucket<S>& b, Value* dist,
             std::uint8_t* changed = nullptr) const {
    const Vertex* from = b.from_data();
    const Vertex* to = b.to_data();
    // Values stream run by run (a value slab, or a pinned chunk of a
    // mapped image segment): each run is a flat array, so the
    // dispatched kernels see the same layout either way — one sweep
    // call per run instead of one per bucket.
    b.for_each_values_run(
        [&](std::size_t lo, std::size_t len, const Value* value) {
          if (changed == nullptr) {
            simd::bucket_sweep<S>(dist, from + lo, to + lo, value, len,
                                  lanes_);
          } else {
            simd::bucket_sweep_tracked<S>(dist, from + lo, to + lo, value,
                                          len, lanes_, changed);
          }
        });
    note_simd_cells(b.size());
  }

  /// Cells (edge x lane relaxations) run on a vector tier, charged per
  /// bucket pass. No-op on the scalar tier.
  void note_simd_cells(std::size_t edges) const {
#if SEPSP_OBS_ENABLED
    if (simd::active_tier() != simd::Tier::kScalar) {
      static obs::Counter& cells = obs::counter("simd.cells");
      cells.add(edges * lanes_);
    }
#else
    (void)edges;
#endif
  }

  /// One leveled-sweep bucket pass: every live lane is charged the scan
  /// (the scalar schedule scans these buckets unconditionally).
  void relax_counted(const EdgeBucket<S>& b, Value* dist, Acct& acct) const {
    sweep(b, dist);
    for (std::size_t lane = 0; lane < acct.lanes; ++lane) {
      acct.edges_scanned[lane] += b.size();
      ++acct.phases[lane];
    }
  }

  /// Up to `max_rounds` rounds, each one pass over every bucket in
  /// order, with per-lane early exit: a lane's counters freeze after its
  /// first round that changes nothing, matching the scalar kernel's
  /// break-after-counting behavior; its distances are already at the
  /// fixpoint of these buckets, so the remaining joint passes cannot
  /// move them. Returns the rounds run (max_rounds only if some lane
  /// still changed in the last one).
  std::size_t tracked_passes(
      std::initializer_list<const EdgeBucket<S>*> buckets,
      std::size_t max_rounds, Value* dist, Acct& acct) const {
    std::array<std::uint8_t, kMaxLanes> active{};
    std::fill_n(active.begin(), acct.lanes, std::uint8_t{1});
    std::size_t live = acct.lanes;
    std::size_t round = 0;
    for (; round < max_rounds && live > 0; ++round) {
      std::array<std::uint8_t, kMaxLanes> changed{};
      std::size_t scanned = 0;
      for (const EdgeBucket<S>* b : buckets) {
        sweep(*b, dist, changed.data());
        scanned += b->size();
      }
      for (std::size_t lane = 0; lane < acct.lanes; ++lane) {
        if (!active[lane]) continue;
        acct.edges_scanned[lane] += scanned;
        acct.phases[lane] += static_cast<std::uint32_t>(buckets.size());
        if (!changed[lane]) {
          active[lane] = 0;
          --live;
        }
      }
    }
    return round;
  }

  /// Final verification pass, per lane (see LeveledQuery's fixpoint
  /// argument): any significant improvement certifies a reachable
  /// negative cycle in that lane. Shortcut values come from the query
  /// engine's own store (shortcut_edges()), never the augmentation —
  /// on a forked engine the latter may be mutating under a live
  /// IncrementalEngine.
  void detect_negative_cycles(const Value* dist, Acct& acct) const {
    if (!q_->detects_negative_cycles()) return;
    if constexpr (S::kDetectNegativeCycles) {
      auto scan = [&](const EdgeBucket<S>& edges) {
        const Vertex* from = edges.from_data();
        const Vertex* to = edges.to_data();
        edges.for_each_values_run(
            [&](std::size_t lo, std::size_t len, const Value* value) {
              for (std::size_t i = 0; i < len; ++i) {
                const Value* du =
                    dist + static_cast<std::size_t>(from[lo + i]) * lanes_;
                const Value* dw =
                    dist + static_cast<std::size_t>(to[lo + i]) * lanes_;
                for (std::size_t lane = 0; lane < acct.lanes; ++lane) {
                  if (acct.negative_cycle[lane]) continue;
                  if (!S::improves(S::zero(), du[lane])) continue;
                  if (S::detect_improves(dw[lane],
                                         S::extend(du[lane], value[i]))) {
                    acct.negative_cycle[lane] = 1;
                  }
                }
              }
            });
      };
      const EdgeBucket<S>& base = q_->base_edges();
      const EdgeBucket<S>& shortcut = q_->shortcut_edges();
      scan(base);
      scan(shortcut);
      for (std::size_t lane = 0; lane < acct.lanes; ++lane) {
        acct.edges_scanned[lane] += base.size() + shortcut.size();
        ++acct.phases[lane];
      }
    }
  }

  std::vector<QueryResult<S>> extract(const AlignedVector<Value>& dist,
                                      const Acct& acct) const {
    const std::size_t n = q_->graph().num_vertices();
    std::vector<QueryResult<S>> out(acct.lanes);
    std::uint32_t max_phases = 0;
    for (std::size_t lane = 0; lane < acct.lanes; ++lane) {
      QueryResult<S>& r = out[lane];
      r.dist.resize(n);
      for (std::size_t v = 0; v < n; ++v) r.dist[v] = dist[v * lanes_ + lane];
      r.negative_cycle = acct.negative_cycle[lane] != 0;
      r.edges_scanned = acct.edges_scanned[lane];
      r.phases = acct.phases[lane];
      pram::CostMeter::charge_work(r.edges_scanned);
      q_->note_run(QueryStats{r.negative_cycle, r.edges_scanned, r.phases});
      max_phases = std::max(max_phases, r.phases);
    }
    pram::CostMeter::charge_depth(max_phases);
    return out;
  }

  const LeveledQuery<S>* q_;
  std::size_t lanes_;  ///< block width = lane-major row stride
};

}  // namespace sepsp
