// Eps-pruned Algorithm 4.1: the emission policy that sparsifies E+.
//
// The exact builder (core/builder_recursive.hpp) emits, per node, the
// *complete* shortcut graph on its separator and boundary sets.
// Completeness is what makes E+ large: most of those k(k-1) pairs are
// nearly the composition of two other pairs through some well-connected
// "pivot" vertex of the same set. build_augmentation_sparsified runs the
// same node step (core/node_step.hpp) under the same leaves-up loop,
// so the recursion stays exact; only PrunedEmission, the policy that
// turns each node's matrices into shortcut edges, differs:
//
//   * Per emission set (leaf B x B, internal S x S, internal B x B) a
//     handful of pivot vertices is chosen by connectivity score; every
//     pair touching a pivot is always emitted (the pivot "star").
//   * A non-pivot pair (i, j) of value v is dropped iff some pivot p
//     witnesses it within the certified slack:
//         extend(m[i][p], m[p][j]) <= v + floor(delta * v)
//     where delta is the pruning budget.
//   * Budgets below kMinPruneDelta disable pruning outright. The floor
//     on the slack alone is not enough for a clean exact limit: scaled
//     values grow like 1/eps, so floor(delta * v) converges to
//     dist/w_min — not to 0 — and exactly-witnessed pairs would keep
//     being dropped at every budget. With the delta floor, the eps -> 0
//     limit reproduces the exact builder bit-for-bit.
//   * Hop compression: an internal node whose B -> S / S -> B
//     rectangles are smaller than its B x B square (2|B||S| <
//     |B|(|B|-1)) emits the rectangles instead. The square's
//     "cross the separator" component is exactly the three-hop
//     composition rectangle (x) S x S closure (x) rectangle — all three
//     emitted — and its "stay in one child" component is already
//     covered by that child's own emissions, so the square adds edges
//     but no information. Compression is exact and consumes no error
//     budget; it costs extra query hops, which the converged query
//     path absorbs. Like pruning it is enabled only when delta > 0, so
//     the exact limit stays bit-for-bit.
//
// Error composition — why one budget serves every level: the boundary
// matrices handed to the parent are the *exact* child distances
// (pruning touches only the emitted copy), so every retained witness
// pair carries an exact value. A query path decomposes into consecutive
// shortcut segments; replacing one dropped segment (i, j) by its
// witness (i, p), (p, j) costs at most a (1 + delta) factor on that
// segment alone, and both replacement edges are themselves
// retained-and-exact, never re-inflated by another level's budget.
// Summing segment bounds, a path is stretched by at most (1 + delta)
// end to end. Tapering the budget on some level would only shrink its
// pruning power without buying the other levels anything.
//
// Query-side caveat the engine must honor: a witness pair (i, p),
// (p, j) lives on the *same* tree level as the dropped pair, so a
// pruned path can need two consecutive same-level hops — one more than
// the bitonic witness structure the fixed leveled schedule is built
// for — and a hop-compressed B x B pair needs the three-hop rectangle
// composition. LeveledQuery::run_into_converged() (the approx query
// path) closes both gaps with a fixpoint polish after the sweeps.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/augment.hpp"
#include "core/builder_recursive.hpp"
#include "core/node_step.hpp"
#include "obs/obs.hpp"
#include "semiring/matrix.hpp"

namespace sepsp {

/// Outcome counters of one sparsified build. kept counts the finite
/// shortcuts actually emitted (including rectangle entries the exact
/// builder has no counterpart for); dropped + hop_compressed counts the
/// finite pairs elided relative to the exact builder. Unreachable pairs
/// are compacted away before dedup (as in the exact builder's dedup)
/// and counted in neither.
struct SparsifyStats {
  std::uint64_t kept = 0;     ///< finite shortcuts emitted
  std::uint64_t dropped = 0;  ///< finite shortcuts pruned under a witness
  /// Finite internal B x B pairs elided by hop compression: the node
  /// emitted its B->S / S->B rectangles instead of the B x B square,
  /// so these pairs are recovered *exactly* at query time as the
  /// three-hop composition through the (emitted) S x S closure. They
  /// consume no error budget.
  std::uint64_t hop_compressed = 0;
  double delta = 0.0;  ///< pruning budget (relative slack)
  /// The factor the build certifies: delta when something was pruned,
  /// else 0.
  double delta_used = 0.0;
};

namespace detail {

/// Pivots per emission set. More pivots widen the witness net (more
/// drops) but enlarge the always-kept star; 4 is a good trade on the
/// mesh/grid families.
inline constexpr std::size_t kSparsifyPivots = 4;
/// Sets smaller than this are emitted verbatim: with k(k-1) pairs near
/// the star size there is nothing to win.
inline constexpr std::size_t kSparsifyMinSet = 2 * kSparsifyPivots;
/// Budgets below this floor disable pruning outright (see the header
/// comment): in the scaled integer domain the per-pair slack
/// floor(delta * v) does not vanish with delta, so without the floor a
/// minuscule budget would still strip exactly-witnessed pairs and the
/// eps -> 0 limit would never reach the exact build.
inline constexpr double kMinPruneDelta = 1e-4;

struct PruneCounters {
  std::atomic<std::uint64_t> kept{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> hop_compressed{0};
};

/// Whether an internal node's B x B square should be replaced by its
/// B -> S / S -> B rectangles. Purely size-driven, so the decision is
/// re-derivable anywhere from the node alone.
inline bool hop_compress_node(const DecompNode& t, double delta) {
  const std::size_t b = t.boundary.size();
  const std::size_t s = t.separator.size();
  return delta > 0.0 && b != 0 && s != 0 && 2 * b * s < pair_count(b);
}

/// Chooses up to kSparsifyPivots pivot indices over a k-element set with
/// values at(i, j). Candidates are ranked by how widely they reach and
/// are reached: fewest unreachable partners first, then smallest summed
/// distance (sums accumulate in double so kInf-free totals cannot
/// overflow Value). Returns the number chosen: 0 when the set is below
/// kSparsifyMinSet (nothing to win over the star size).
template <typename At>
std::size_t select_pivots(std::size_t k, const At& at,
                          std::array<std::size_t, kSparsifyPivots>& pivots) {
  using S = TropicalI;
  using Value = S::Value;
  if (k < kSparsifyMinSet) return 0;
  struct Rank {
    std::uint32_t inf = 0;
    double sum = 0.0;
    std::uint32_t idx = 0;
  };
  std::vector<Rank> rank(k);
  for (std::size_t i = 0; i < k; ++i) rank[i].idx = static_cast<std::uint32_t>(i);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      const Value v = at(i, j);
      if (v >= S::kInf) {
        ++rank[i].inf;
        ++rank[j].inf;
      } else {
        rank[i].sum += static_cast<double>(v);
        rank[j].sum += static_cast<double>(v);
      }
    }
  }
  std::partial_sort(rank.begin(), rank.begin() + kSparsifyPivots, rank.end(),
                    [](const Rank& a, const Rank& b) {
                      if (a.inf != b.inf) return a.inf < b.inf;
                      if (a.sum != b.sum) return a.sum < b.sum;
                      return a.idx < b.idx;
                    });
  for (std::size_t p = 0; p < kSparsifyPivots; ++p) pivots[p] = rank[p].idx;
  return kSparsifyPivots;
}

/// Emits the complete ordered-pair set over `verts` (values from
/// at(i, j), indices into `verts`) into `out`, dropping witnessed
/// non-pivot pairs as described above. Returns past-the-end of the
/// emitted entries; the caller pads the slice. Emission order matches
/// FullEmission's (i-major), so a zero-drop run is bit-identical.
template <typename At>
Shortcut<TropicalI>* emit_pruned(std::span<const Vertex> verts, const At& at,
                                 double delta, Shortcut<TropicalI>* out,
                                 PruneCounters& counters) {
  using S = TropicalI;
  using Value = S::Value;
  const std::size_t k = verts.size();

  std::array<std::size_t, kSparsifyPivots> pivots{};
  std::size_t num_pivots = 0;
  if (delta > 0.0) num_pivots = select_pivots(k, at, pivots);

  std::uint64_t kept = 0, dropped = 0;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      const Value v = at(i, j);
      if (v >= S::kInf) {
        *out++ = {verts[i], verts[j], v};  // dedup removes it either way
        continue;
      }
      bool drop = false;
      if (num_pivots != 0) {
        bool star = false;
        for (std::size_t p = 0; p < num_pivots; ++p) {
          star = star || pivots[p] == i || pivots[p] == j;
        }
        // floor(delta v): the slack the level's budget certifies. A
        // slack of 0 keeps the pair, so delta -> 0 never drops (exact
        // parity) and witnesses are never accepted on a tie alone.
        const Value slack = static_cast<Value>(delta * static_cast<double>(v));
        if (!star && slack >= 1) {
          const Value bound = v + slack;
          for (std::size_t p = 0; p < num_pivots && !drop; ++p) {
            const std::size_t pv = pivots[p];
            drop = S::extend(at(i, pv), at(pv, j)) <= bound;
          }
        }
      }
      if (drop) {
        ++dropped;
      } else {
        ++kept;
        *out++ = {verts[i], verts[j], v};
      }
    }
  }
  counters.kept.fetch_add(kept, std::memory_order_relaxed);
  counters.dropped.fetch_add(dropped, std::memory_order_relaxed);
  return out;
}

/// Emission policy of the sparsified builder (see the header comment).
/// One instance serves every node task of a build; its counters are
/// atomics.
struct PrunedEmission {
  using S = TropicalI;

  double delta = 0.0;
  PruneCounters counters;

  std::size_t slice(const DecompNode& t) const {
    if (hop_compress_node(t, delta)) {
      return pair_count(t.separator.size()) +
             2 * t.boundary.size() * t.separator.size();
    }
    return FullEmission::slice(t);
  }

  template <typename M>
  Shortcut<S>* square(std::span<const Vertex> verts, const M& m,
                      Shortcut<S>* out) {
    return emit_pruned(
        verts, [&](std::size_t i, std::size_t j) { return m.at(i, j); },
        delta, out, counters);
  }

  Shortcut<S>* boundary(const DecompNode& t, const NodeScratch<S>& sc,
                        Shortcut<S>* out) {
    if (!hop_compress_node(t, delta)) {
      return square(t.boundary, sc.boundary, out);
    }
    // The square is elided: emit the two rectangles the through product
    // was built from (exact child distances; finite entries only — the
    // padded tail covers the rest) and account the square's finite
    // pairs as hop-compressed. The rectangles are witness-pruned with
    // the S-side pivots of the hs closure: a witness hop rides a pivot
    // column of the rectangle (always kept) and an hs star edge (always
    // kept, exact), so dropped entries keep the one-level exact-witness
    // invariant the error bound rests on.
    const std::span<const Vertex> st = t.separator;
    const std::span<const Vertex> bt = t.boundary;
    const Matrix<S>& hs = sc.hs;
    const Matrix<S>& b_to_s = sc.b_to_s;
    const Matrix<S>& s_to_b = sc.s_to_b;
    std::array<std::size_t, kSparsifyPivots> spiv{};
    const std::size_t nsp = select_pivots(
        st.size(), [&](std::size_t i, std::size_t j) { return hs.at(i, j); },
        spiv);
    auto is_pivot = [&](std::size_t q) {
      for (std::size_t p = 0; p < nsp; ++p) {
        if (spiv[p] == q) return true;
      }
      return false;
    };
    // Whether a rectangle entry of value v is witnessed within the
    // slack by some pivot hop, hop(sp) being the pivot route's value.
    auto witnessed = [&](S::Value v, std::size_t q, const auto& hop) {
      const S::Value slack =
          static_cast<S::Value>(delta * static_cast<double>(v));
      if (nsp == 0 || slack < 1 || is_pivot(q)) return false;
      for (std::size_t sp = 0; sp < nsp; ++sp) {
        if (hop(spiv[sp]) <= v + slack) return true;
      }
      return false;
    };
    std::uint64_t rect_kept = 0, rect_dropped = 0, compressed = 0;
    for (std::size_t p = 0; p < bt.size(); ++p) {
      for (std::size_t q = 0; q < st.size(); ++q) {
        const S::Value to_s = b_to_s.at(p, q);
        if (to_s < S::kInf) {
          if (witnessed(to_s, q, [&](std::size_t piv) {
                return S::extend(b_to_s.at(p, piv), hs.at(piv, q));
              })) {
            ++rect_dropped;
          } else {
            *out++ = {bt[p], st[q], to_s};
            ++rect_kept;
          }
        }
        const S::Value from_s = s_to_b.at(q, p);
        if (from_s < S::kInf) {
          if (witnessed(from_s, q, [&](std::size_t piv) {
                return S::extend(hs.at(q, piv), s_to_b.at(piv, p));
              })) {
            ++rect_dropped;
          } else {
            *out++ = {st[q], bt[p], from_s};
            ++rect_kept;
          }
        }
      }
    }
    for (std::size_t p = 0; p < bt.size(); ++p) {
      for (std::size_t q = 0; q < bt.size(); ++q) {
        if (p != q && sc.boundary.at(p, q) < S::kInf) ++compressed;
      }
    }
    counters.kept.fetch_add(rect_kept, std::memory_order_relaxed);
    counters.dropped.fetch_add(rect_dropped, std::memory_order_relaxed);
    counters.hop_compressed.fetch_add(compressed, std::memory_order_relaxed);
    return out;
  }
};

}  // namespace detail

/// Algorithm 4.1 with eps-pruned emission, for the rounded-integer
/// semiring: the leaves-up loop of build_augmentation_recursive with
/// PrunedEmission in place of the full squares. `delta` is the pruning
/// budget (relative slack); `delta < kMinPruneDelta` (in particular 0)
/// reproduces build_augmentation_recursive<TropicalI> bit-for-bit.
inline Augmentation<TropicalI> build_augmentation_sparsified(
    const Digraph& g, const SeparatorTree& tree, ClosureKind closure,
    double delta, SparsifyStats* stats = nullptr) {
  SEPSP_TRACE_SPAN("build.sparsified");
  if (delta < detail::kMinPruneDelta) delta = 0.0;
  detail::PrunedEmission policy;
  policy.delta = delta;
  Augmentation<TropicalI> aug =
      detail::build_leaves_up<TropicalI, Matrix<TropicalI>>(g, tree, closure,
                                                            policy);
  const std::uint64_t dropped =
      policy.counters.dropped.load(std::memory_order_relaxed);
  if (stats != nullptr) {
    stats->kept = policy.counters.kept.load(std::memory_order_relaxed);
    stats->dropped = dropped;
    stats->hop_compressed =
        policy.counters.hop_compressed.load(std::memory_order_relaxed);
    stats->delta = delta;
    stats->delta_used = dropped > 0 ? delta : 0.0;
  }
  SEPSP_OBS_ONLY(obs::counter("approx.eplus_dropped").add(dropped);)
  return aug;
}

}  // namespace sepsp
