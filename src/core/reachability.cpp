#include "core/reachability.hpp"

#include "core/builder_recursive.hpp"
#include "semiring/bitmatrix.hpp"

namespace sepsp {

Augmentation<BooleanSR> build_reachability_augmentation(
    const Digraph& g, const SeparatorTree& tree) {
  detail::FullEmission full;
  return detail::build_leaves_up<BooleanSR, BitMatrix>(
      g, tree, ClosureKind::kSquaring, full);
}

ReachabilityEngine ReachabilityEngine::build(const Digraph& g,
                                             const SeparatorTree& tree) {
  SEPSP_CHECK(tree.num_graph_vertices() == g.num_vertices());
  ReachabilityEngine engine;
  engine.g_ = &g;
  engine.aug_ = std::make_unique<Augmentation<BooleanSR>>(
      build_reachability_augmentation(g, tree));
  engine.query_ = std::make_unique<LeveledQuery<BooleanSR>>(g, *engine.aug_);
  return engine;
}

std::vector<std::uint8_t> ReachabilityEngine::reachable_from(
    Vertex source) const {
  const QueryResult<BooleanSR> r = query_->run(source);
  std::vector<std::uint8_t> out(r.dist.size(), 0);
  for (std::size_t v = 0; v < r.dist.size(); ++v) out[v] = r.dist[v] ? 1 : 0;
  return out;
}

}  // namespace sepsp
