// Cross-builder parity: every E+ builder that implements Algorithm 4.1
// must emit exactly the shortcut set of build_augmentation_recursive
// over the same semiring. E+ is compared as sorted (from, to, value
// bytes) triples, so a single flipped bit in any value fails the test.
//   * IncrementalEngine vs the recursive TropicalD build with the
//     Floyd–Warshall closure — fresh, and after rounds of reweights
//     (against a fresh recursive build on the reweighted graph).
//   * build_reachability_augmentation vs the recursive BooleanSR build.
//   * build_augmentation_sparsified at delta = 0 vs the recursive
//     TropicalI build, for both closure kinds, plus critical_depth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

#include "approx/sparsify.hpp"
#include "core/builder_recursive.hpp"
#include "core/incremental.hpp"
#include "core/reachability.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"

namespace sepsp {
namespace {

struct Instance {
  GeneratedGraph gg;
  SeparatorTree tree;
};

Instance make_instance(const std::vector<std::size_t>& dims,
                       std::uint64_t seed) {
  Rng rng(seed);
  Instance inst{make_grid(dims, WeightModel::uniform(1, 9), rng), {}};
  inst.tree =
      build_separator_tree(Skeleton(inst.gg.graph), make_grid_finder(dims));
  return inst;
}

std::vector<std::vector<std::size_t>> shapes() {
  return {{6, 6}, {11, 11}, {17, 17}, {6, 6, 6}, {11, 11, 11}};
}

using Triple = std::tuple<Vertex, Vertex, std::vector<unsigned char>>;

/// E+ as sorted (from, to, value bytes) triples, keeping only entries
/// that can matter to a query: finite values off the diagonal.
template <Semiring S>
std::vector<Triple> triples(const std::vector<Shortcut<S>>& edges) {
  std::vector<Triple> out;
  for (const Shortcut<S>& e : edges) {
    if (e.from == e.to || !S::improves(S::zero(), e.value)) continue;
    std::vector<unsigned char> bytes(sizeof(e.value));
    std::memcpy(bytes.data(), &e.value, sizeof(e.value));
    out.emplace_back(e.from, e.to, std::move(bytes));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Digraph reweighted(const Digraph& g, const std::vector<EdgeTriple>& updates) {
  GraphBuilder b(g.num_vertices());
  for (EdgeTriple e : g.edge_list()) {
    for (const EdgeTriple& u : updates) {
      if (u.from == e.from && u.to == e.to) e.weight = u.weight;
    }
    b.add_edge(e.from, e.to, e.weight);
  }
  return std::move(b).build(/*dedup_min=*/false);
}

TEST(BuilderParity, IncrementalFreshMatchesRecursiveFloydWarshall) {
  std::uint64_t seed = 1;
  for (const auto& dims : shapes()) {
    const Instance inst = make_instance(dims, seed++);
    const IncrementalEngine engine =
        IncrementalEngine::build(inst.gg.graph, inst.tree);
    const auto want = build_augmentation_recursive<TropicalD>(
        inst.gg.graph, inst.tree, ClosureKind::kFloydWarshall);
    EXPECT_EQ(triples(engine.augmentation().shortcuts),
              triples(want.shortcuts))
        << "grid of dimension " << dims.size() << ", side " << dims[0];
  }
}

TEST(BuilderParity, IncrementalAfterReweightsMatchesRebuild) {
  for (const std::size_t side : {9u, 16u}) {
    const Instance inst = make_instance({side, side}, 100 + side);
    IncrementalEngine engine =
        IncrementalEngine::build(inst.gg.graph, inst.tree);
    Rng rng(side);
    std::vector<EdgeTriple> updates;
    const std::vector<EdgeTriple> edges = inst.gg.graph.edge_list();
    for (int round = 0; round < 3; ++round) {
      for (int k = 0; k < 15; ++k) {
        const EdgeTriple e = edges[rng.next_below(edges.size())];
        const double w = static_cast<double>(1 + rng.next_below(20));
        engine.update_edge(e.from, e.to, w);
        std::erase_if(updates, [&](const EdgeTriple& u) {
          return u.from == e.from && u.to == e.to;
        });
        updates.push_back({e.from, e.to, w});
      }
      engine.apply();
      const Digraph g2 = reweighted(inst.gg.graph, updates);
      const auto want = build_augmentation_recursive<TropicalD>(
          g2, inst.tree, ClosureKind::kFloydWarshall);
      EXPECT_EQ(triples(engine.augmentation().shortcuts),
                triples(want.shortcuts))
          << "side " << side << ", round " << round;
    }
  }
}

TEST(BuilderParity, ReachabilityMatchesRecursiveBoolean) {
  std::uint64_t seed = 20;
  for (const auto& dims : shapes()) {
    const Instance inst = make_instance(dims, seed++);
    const auto got = build_reachability_augmentation(inst.gg.graph, inst.tree);
    const auto want =
        build_augmentation_recursive<BooleanSR>(inst.gg.graph, inst.tree);
    EXPECT_EQ(triples(got.shortcuts), triples(want.shortcuts))
        << "grid of dimension " << dims.size() << ", side " << dims[0];
  }
}

TEST(BuilderParity, SparsifiedAtZeroDeltaMatchesRecursiveInteger) {
  std::uint64_t seed = 40;
  for (const auto& dims : shapes()) {
    const Instance inst = make_instance(dims, seed++);
    for (const ClosureKind kind :
         {ClosureKind::kSquaring, ClosureKind::kFloydWarshall}) {
      const auto got = build_augmentation_sparsified(inst.gg.graph, inst.tree,
                                                     kind, /*delta=*/0.0);
      const auto want = build_augmentation_recursive<TropicalI>(
          inst.gg.graph, inst.tree, kind);
      EXPECT_EQ(triples(got.shortcuts), triples(want.shortcuts))
          << "grid of dimension " << dims.size() << ", side " << dims[0];
      EXPECT_EQ(got.critical_depth, want.critical_depth);
    }
  }
}

}  // namespace
}  // namespace sepsp
