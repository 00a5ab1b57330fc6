// Reachability (transitive closure) via the separator decomposition.
//
// The paper's reachability bounds replace the per-node APSP kernels with
// Boolean matrix multiplication M(r). This module is the concrete
// realization: Algorithm 4.1's node step (core/node_step.hpp) runs on
// word-packed BitMatrix kernels (our M(r) = r^3/64 substitute —
// DESIGN.md substitution 2) under the exact builder's leaves-up loop,
// yielding a Boolean Augmentation that the generic
// LeveledQuery<BooleanSR> answers per-source reachability on in
// O(ell |E| + |E+|) scans.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/augment.hpp"
#include "core/query.hpp"
#include "graph/digraph.hpp"
#include "separator/decomposition.hpp"

namespace sepsp {

/// Builds the Boolean E+ with bit-packed kernels (Algorithm 4.1 shape).
Augmentation<BooleanSR> build_reachability_augmentation(
    const Digraph& g, const SeparatorTree& tree);

/// Preprocess-once, query-many facade for reachability.
class ReachabilityEngine {
 public:
  static ReachabilityEngine build(const Digraph& g, const SeparatorTree& tree);

  const Augmentation<BooleanSR>& augmentation() const { return *aug_; }

  /// reachable[v] == 1 iff v is reachable from source (source included).
  std::vector<std::uint8_t> reachable_from(Vertex source) const;

  /// Access to the underlying leveled query (for diagnostics / custom
  /// multi-source runs).
  const LeveledQuery<BooleanSR>& query() const { return *query_; }

 private:
  ReachabilityEngine() = default;
  const Digraph* g_ = nullptr;
  // Stable addresses so the engine is safely movable (the query holds a
  // pointer to the augmentation).
  std::unique_ptr<Augmentation<BooleanSR>> aug_;
  std::unique_ptr<LeveledQuery<BooleanSR>> query_;
};

}  // namespace sepsp
