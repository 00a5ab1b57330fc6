// Source-batched execution of the leveled query schedule (Section 3.2,
// amortized over sources as in Corollary 5.2's s-source bounds).
//
// LeveledQuery::run streams the full bucketed edge set once per source,
// so a many-source workload (distances_batch / all_pairs) is bound by
// memory bandwidth: every source re-loads E u E+. BatchedLeveledQuery
// runs the *same* phase schedule once for a block of B sources over a
// lane-major distance matrix dist[v * B + lane]: each edge is loaded
// once per phase and relaxes all B lanes in one dispatched bucket sweep
// (semiring/simd.hpp). Lanes are independent — no values ever cross
// lanes — so every lane's distance trajectory is identical to a scalar
// LeveledQuery::run of that lane's source (bit-identical, including for
// floating-point semirings: same edges, same order, same arithmetic).
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
// PRAM accounting: work is charged per lane (B lanes of updates really
// happen), depth once per block (the lanes share the physical phases).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/query.hpp"
#include "semiring/simd.hpp"
#include "util/aligned.hpp"

namespace sepsp {

/// Runs the leveled schedule for up to B sources at once against the
/// buckets of an existing LeveledQuery (which must outlive this view).
/// B is a compile-time lane count; 4–16 lanes cover the sweet spot
/// between register pressure and bandwidth amortization.
template <Semiring S, std::size_t B>
class BatchedLeveledQuery {
  static_assert(B >= 1 && B <= 64, "lane count out of range");

 public:
  using Value = typename S::Value;
  static constexpr std::size_t kLanes = B;

  explicit BatchedLeveledQuery(const LeveledQuery<S>& query)
      : q_(&query) {}

  /// One source per lane; `sources.size()` may be short of B (ragged
  /// last block) — unused lanes are left unseeded and skipped in the
  /// output. Returns one QueryResult per source, in order.
  std::vector<QueryResult<S>> run_block(
      std::span<const Vertex> sources) const {
    SEPSP_CHECK(!sources.empty() && sources.size() <= B);
    const std::size_t n = q_->graph().num_vertices();
    AlignedVector<Value> dist(padded_size<Value>(n * B), S::zero());
    for (std::size_t lane = 0; lane < sources.size(); ++lane) {
      SEPSP_CHECK(sources[lane] < n);
      dist[static_cast<std::size_t>(sources[lane]) * B + lane] = S::one();
    }
    return run_schedule(dist, sources.size());
  }

  /// run_block() followed by the fixpoint polish of
  /// LeveledQuery::run_into_converged, batched: after the two sweeps,
  /// passes over E u E+ repeat until no lane improves (per-lane change
  /// tracking; converged lanes stop accruing counters and ride along as
  /// no-ops). Each lane matches a scalar run_into_converged of its
  /// source bit-identically — same edges, same order, same arithmetic.
  std::vector<QueryResult<S>> run_block_converged(
      std::span<const Vertex> sources) const {
    SEPSP_CHECK(!sources.empty() && sources.size() <= B);
    const std::size_t n = q_->graph().num_vertices();
    AlignedVector<Value> dist(padded_size<Value>(n * B), S::zero());
    for (std::size_t lane = 0; lane < sources.size(); ++lane) {
      SEPSP_CHECK(sources[lane] < n);
      dist[static_cast<std::size_t>(sources[lane]) * B + lane] = S::one();
    }
    return run_schedule(dist, sources.size(), /*converge=*/true);
  }

  /// Generalized block: lane `i` starts with every vertex of
  /// `lane_seeds[i]` at one() — LeveledQuery::run_multi per lane.
  std::vector<QueryResult<S>> run_seeded(
      std::span<const std::vector<Vertex>> lane_seeds) const {
    SEPSP_CHECK(!lane_seeds.empty() && lane_seeds.size() <= B);
    const std::size_t n = q_->graph().num_vertices();
    AlignedVector<Value> dist(padded_size<Value>(n * B), S::zero());
    for (std::size_t lane = 0; lane < lane_seeds.size(); ++lane) {
      for (const Vertex s : lane_seeds[lane]) {
        SEPSP_CHECK(s < n);
        dist[static_cast<std::size_t>(s) * B + lane] = S::one();
      }
    }
    return run_schedule(dist, lane_seeds.size());
  }

 private:
  /// Per-lane accounting mirror of QueryResult's counters.
  struct Acct {
    std::size_t lanes = 0;
    std::array<std::uint64_t, B> edges_scanned{};
    std::array<std::uint32_t, B> phases{};
    std::array<std::uint8_t, B> negative_cycle{};
  };

  std::vector<QueryResult<S>> run_schedule(AlignedVector<Value>& dist,
                                           std::size_t lanes,
                                           bool converge = false) const {
    SEPSP_TRACE_SPAN("query.batch_block");
    Acct acct;
    acct.lanes = lanes;
    Value* d = dist.data();
    scan_e_passes(d, acct);
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
      polish(d, acct);
    } else {
      scan_e_passes(d, acct);
    }
    detect_negative_cycles(d, acct);
    return extract(dist, acct);
  }

  /// Fixpoint polish over E u E+ (see LeveledQuery::run_into_converged):
  /// full passes until no lane improves, per-lane early exit as in
  /// scan_e_passes. Replaces (and subsumes) the trailing E passes.
  void polish(Value* dist, Acct& acct) const {
    const EdgeBucket<S>& base = q_->base_edges();
    const EdgeBucket<S>& shortcut = q_->shortcut_edges();
    const std::size_t cap = q_->graph().num_vertices() + 1;
    std::array<std::uint8_t, B> active{};
    for (std::size_t lane = 0; lane < acct.lanes; ++lane) active[lane] = 1;
    std::size_t round = 0;
    for (; round < cap; ++round) {
      bool any = false;
      for (std::size_t lane = 0; lane < acct.lanes; ++lane) {
        any = any || active[lane] != 0;
      }
      if (!any) break;
      std::array<std::uint8_t, B> changed{};
      relax_lanes_tracked(base, dist, changed);
      relax_lanes_tracked(shortcut, dist, changed);
      note_simd_cells(base.size() + shortcut.size());
      for (std::size_t lane = 0; lane < acct.lanes; ++lane) {
        if (!active[lane]) continue;
        acct.edges_scanned[lane] += base.size() + shortcut.size();
        acct.phases[lane] += 2;
        if (!changed[lane]) active[lane] = 0;
      }
    }
    SEPSP_CHECK_MSG(round < cap,
                    "batched converge diverged (negative cycle?)");
  }

  /// Relax every edge of the bucket across all B lanes: one dispatched
  /// bucket sweep per value run (semiring/simd.hpp; the scalar tier is
  /// simd_scalar.cpp). combine() is a branch-free select and
  /// relax_extend() is the semiring's unguarded extend where one exists
  /// (bucket values are never zero(): no-path entries are dropped when
  /// the buckets are built); unseeded lanes stay at zero() (extend()
  /// from zero() never improves anything).
  void relax_lanes(const EdgeBucket<S>& b, Value* dist) const {
    const Vertex* from = b.from_data();
    const Vertex* to = b.to_data();
    // Values stream run by run (a value slab, or a pinned chunk of a
    // mapped image segment): each run is a flat array, so the
    // dispatched kernels see the same layout either way — one sweep
    // call per run instead of one per bucket.
    b.for_each_values_run(
        [&](std::size_t lo, std::size_t len, const Value* value) {
          simd::bucket_sweep<S>(dist, from + lo, to + lo, value, len, B);
        });
  }

  /// Like relax_lanes, but records which lanes improved (drives the
  /// per-lane E-pass early exit).
  void relax_lanes_tracked(const EdgeBucket<S>& b, Value* dist,
                           std::array<std::uint8_t, B>& changed) const {
    const Vertex* from = b.from_data();
    const Vertex* to = b.to_data();
    b.for_each_values_run(
        [&](std::size_t lo, std::size_t len, const Value* value) {
          simd::bucket_sweep_tracked<S>(dist, from + lo, to + lo, value, len,
                                        B, changed.data());
        });
  }

  /// Cells (edge x lane relaxations) run on a vector tier, charged per
  /// bucket pass. No-op on the scalar tier.
  void note_simd_cells(std::size_t edges) const {
#if SEPSP_OBS_ENABLED
    if (simd::active_tier() != simd::Tier::kScalar) {
      static obs::Counter& cells = obs::counter("simd.cells");
      cells.add(edges * B);
    }
#else
    (void)edges;
#endif
  }

  /// One leveled-sweep bucket pass: every live lane is charged the scan
  /// (the scalar schedule scans these buckets unconditionally).
  void relax_counted(const EdgeBucket<S>& b, Value* dist, Acct& acct) const {
    relax_lanes(b, dist);
    note_simd_cells(b.size());
    for (std::size_t lane = 0; lane < acct.lanes; ++lane) {
      acct.edges_scanned[lane] += b.size();
      ++acct.phases[lane];
    }
  }

  /// Up to ell passes over E with per-lane early exit: a lane's counters
  /// freeze after its first no-change pass, matching the scalar kernel's
  /// break-after-counting behavior; its distances are already at the
  /// base-edge fixpoint, so the remaining joint passes cannot move them.
  void scan_e_passes(Value* dist, Acct& acct) const {
    const EdgeBucket<S>& base = q_->base_edges();
    std::array<std::uint8_t, B> active{};
    for (std::size_t lane = 0; lane < acct.lanes; ++lane) active[lane] = 1;
    for (std::size_t p = 0; p < q_->ell(); ++p) {
      bool any = false;
      for (std::size_t lane = 0; lane < acct.lanes; ++lane) {
        any = any || active[lane] != 0;
      }
      if (!any) break;
      std::array<std::uint8_t, B> changed{};
      relax_lanes_tracked(base, dist, changed);
      note_simd_cells(base.size());
      for (std::size_t lane = 0; lane < acct.lanes; ++lane) {
        if (!active[lane]) continue;
        acct.edges_scanned[lane] += base.size();
        ++acct.phases[lane];
        if (!changed[lane]) active[lane] = 0;
      }
    }
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
                    dist + static_cast<std::size_t>(from[lo + i]) * B;
                const Value* dw =
                    dist + static_cast<std::size_t>(to[lo + i]) * B;
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
      for (std::size_t v = 0; v < n; ++v) r.dist[v] = dist[v * B + lane];
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
};

}  // namespace sepsp
