// Algorithm 4.1: computing E+ leaves-up.
//
// Nodes are processed level by level from the deepest level to the root;
// within a level all nodes are processed in parallel, each running the
// node step of core/node_step.hpp on its children's boundary matrices.
// build_leaves_up is that level loop, shared by the exact builder below,
// the eps-pruned builder (approx/sparsify.hpp) and the Boolean
// reachability builder (core/reachability.cpp); they differ only in the
// matrix kernel and the emission policy they hand it.
//
// Node tasks lease a scratch arena (NodeScratch): intermediate matrices
// reuse storage across nodes, vertex->index lookups are O(1) dense-map
// probes instead of per-arc binary searches, and shortcut edges are
// written straight into their pre-computed slice of the final array (no
// per-node vectors, no concat pass). Only the cross-level boundary
// matrices (`bnd`) own long-lived storage.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/augment.hpp"
#include "core/builder_scratch.hpp"
#include "core/node_step.hpp"
#include "obs/obs.hpp"
#include "pram/thread_pool.hpp"
#include "semiring/matrix.hpp"
#include "util/vertex_index.hpp"  // detail::index_of / kNpos

namespace sepsp {

namespace detail {

/// The leaves-up loop: runs node_step over every node of `tree`,
/// deepest level first, and returns the deduplicated E+. `policy` sizes
/// each node's slice (slice(t), an upper bound on what it emits) and
/// emits into it; unused slice tails are padded with zero() entries,
/// which the final compaction drops along with unreachable pairs.
template <Semiring S, typename M, typename Policy>
Augmentation<S> build_leaves_up(const Digraph& g, const SeparatorTree& tree,
                                ClosureKind closure, Policy& policy) {
  const pram::CostScope scope;
  Augmentation<S> aug;
  aug.levels = compute_levels(tree);
  aug.height = tree.height();
  aug.ell = leaf_diameter_bound(tree);

  const std::size_t num_nodes = tree.num_nodes();
  // Per-node boundary distance matrix (row/col i = i-th boundary vertex).
  std::vector<M> bnd(num_nodes);

  // Every node's slice is known up front, so the output array is sized
  // once and node tasks write disjoint slices.
  std::vector<std::size_t> offsets(num_nodes);
  for (std::size_t id = 0; id < num_nodes; ++id) {
    offsets[id] = policy.slice(tree.node(id));
  }
  aug.shortcuts.resize(offsets_from_counts(offsets));

  ScratchPool<NodeScratch<S, M>> scratch_pool([&] {
    return std::make_unique<NodeScratch<S, M>>(g.num_vertices());
  });
  const auto weight_of = [&](std::size_t arc) { return g.arcs()[arc].weight; };

  auto process = [&](std::size_t id) {
    const DecompNode& t = tree.node(id);
    // Merged by name: calls = leaf / internal node count.
    SEPSP_TRACE_SPAN(t.is_leaf() ? "build.leaf" : "build.internal");
    auto sc = scratch_pool.acquire();
    sc->index.fill(g, tree, id, sc->map);
    Shortcut<S>* out =
        node_step<S>(tree, id, sc->index, bnd, closure, weight_of, *sc, policy,
                     aug.shortcuts.data() + offsets[id]);
    Shortcut<S>* const end = aug.shortcuts.data() + offsets[id + 1];
    SEPSP_DCHECK(out <= end);
    while (out != end) *out++ = {0, 0, S::zero()};
    bnd[id] = std::move(sc->boundary);
    if (!t.is_leaf()) {  // the children's matrices are no longer needed
      bnd[static_cast<std::size_t>(t.child[0])].clear();
      bnd[static_cast<std::size_t>(t.child[1])].clear();
    }
  };

  const auto by_level = tree.ids_by_level();
  for (std::size_t lvl = by_level.size(); lvl-- > 0;) {
    SEPSP_TRACE_SPAN("build.level");  // merged: calls = processed levels
    const auto& ids = by_level[lvl];
    pram::ThreadPool::global().parallel_for(
        0, ids.size(), [&](std::size_t k) { process(ids[k]); });
    // Critical path of this level = the largest node's kernel depth:
    // closure on |S| plus two rectangular products, or a leaf's FW.
    std::uint64_t level_depth = 1;
    for (const std::size_t id : ids) {
      const DecompNode& t = tree.node(id);
      std::uint64_t d = 0;
      if (t.is_leaf()) {
        d = t.vertices.size();  // leaf Floyd–Warshall
      } else {
        const std::uint64_t s = t.separator.size();
        const std::uint64_t log_s = s < 2 ? 1 : std::bit_width(s - 1);
        d = closure == ClosureKind::kSquaring ? log_s * (log_s + 2) : s;
        d += 2 * (log_s + 1);  // the two 3-limited products
      }
      level_depth = std::max(level_depth, d);
    }
    aug.critical_depth += level_depth;
  }

  // Padding and unreachable pairs carry zero(); compact them out first
  // so the dedup sort is proportional to the finite emission.
  std::erase_if(aug.shortcuts, [](const Shortcut<S>& e) {
    return !S::improves(S::zero(), e.value);
  });
  dedup_shortcuts<S>(aug.shortcuts);
  aug.build_cost = scope.cost();
  SEPSP_OBS_ONLY(obs::counter("build.shortcuts").add(aug.shortcuts.size());)
  return aug;
}

}  // namespace detail

/// Builds E+ with Algorithm 4.1. The tree must decompose g's skeleton.
template <Semiring S>
Augmentation<S> build_augmentation_recursive(
    const Digraph& g, const SeparatorTree& tree,
    ClosureKind closure = ClosureKind::kSquaring) {
  SEPSP_TRACE_SPAN("build.recursive");
  detail::FullEmission full;
  Augmentation<S> aug =
      detail::build_leaves_up<S, Matrix<S>>(g, tree, closure, full);
  SEPSP_OBS_ONLY(obs::histogram("build.node_count").record(tree.num_nodes());)
  return aug;
}

}  // namespace sepsp
