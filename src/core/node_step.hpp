// Algorithm 4.1's node step, written once.
//
// A tree node t keeps a |B(t)| x |B(t)| matrix of exact distances in
// G(t) between its boundary vertices. A leaf computes it directly:
//
//   leaf. closure of the induced subgraph G(t)    -> B x B shortcuts
//
// and an internal node combines its two children's matrices:
//
//   i.   H_S: complete graph on S(t), entry = best child distance
//   ii.  APSP closure of H_S                      -> S x S shortcuts
//   iii. H: B->S and S->B entries from children
//   iv.  3-limited composition  B->S (x) H_S* (x) S->B
//   v.   boundary matrix = min(3-limited, direct child distance)
//                                                 -> B x B shortcuts
//
// Work per node: O(|S|^3 log|S| + |B|^2 |S| + |B| |S|^2) with the
// polylog-depth squaring closure (the paper's Table-1 bound); the
// sequential-k Floyd–Warshall closure saves the log factor of work at
// depth |S| (ablated in bench S4).
//
// The step is a template over two things:
//   * the matrix kernel M: Matrix<S>, or the word-packed BitMatrix for
//     reachability (our M(r) substitute). Both spell reset / at / merge
//     / multiply_into / floyd_warshall / closure_by_squaring_inplace.
//   * the emission policy that turns the S x S and B x B results into
//     shortcut edges: FullEmission below writes the complete squares
//     (the paper's E+); the eps-pruned policy (approx/sparsify.hpp)
//     drops witnessed pairs and may emit a node's B->S / S->B
//     rectangles instead of its B x B square.
//
// Two loops run it: the leaves-up level loop (core/builder_recursive.hpp)
// behind the exact, sparsified and Boolean builders, and the dirty
// worklist of the incremental engine (core/incremental.cpp), which
// keeps every node's NodeIndex and boundary matrix between batches.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/augment.hpp"
#include "core/builder_scratch.hpp"
#include "semiring/matrix.hpp"

namespace sepsp {

/// APSP kernel used inside the builders.
enum class ClosureKind {
  kSquaring,       ///< repeated squaring: polylog depth, +log work
  kFloydWarshall,  ///< sequential-in-k: minimal work, linear depth
};

namespace detail {

template <typename M>
void run_closure(M& m, ClosureKind kind, M& scratch) {
  if (kind == ClosureKind::kSquaring) {
    closure_by_squaring_inplace(m, scratch);
  } else {
    floyd_warshall(m);
  }
}

/// Turns per-node shortcut counts into exclusive-prefix-sum offsets and
/// returns the total; node i then owns slice [offsets[i], offsets[i+1]).
inline std::size_t offsets_from_counts(std::vector<std::size_t>& counts) {
  std::size_t total = 0;
  for (auto& c : counts) {
    const std::size_t here = c;
    c = total;
    total += here;
  }
  counts.push_back(total);
  return total;
}

/// Shortcuts a group of k mutually-connected vertices emits: all ordered
/// pairs minus the diagonal.
inline std::size_t pair_count(std::size_t k) { return k * (k - 1); }

/// Where a node's vertex lists sit in the lists its step reads: a leaf's
/// arcs and boundary as positions in t.vertices, an internal node's
/// separator and boundary as positions in each child's boundary. It
/// depends on the tree and the arcs, never on weights, so a caller may
/// fill it once per node and keep it.
struct NodeIndex {
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  /// Leaf: (row, col, flat arc index) per arc of the induced subgraph.
  std::vector<std::array<std::uint32_t, 3>> arcs;
  /// Leaf: position of each boundary vertex in t.vertices.
  std::vector<std::uint32_t> boundary_pos;
  /// Internal: position of each separator vertex in child c's boundary.
  std::array<std::vector<std::uint32_t>, 2> s_pos;
  /// Internal: position of each boundary vertex in child c's boundary,
  /// kAbsent when the vertex is not in that child.
  std::array<std::vector<std::uint32_t>, 2> b_pos;

  void fill(const Digraph& g, const SeparatorTree& tree, std::size_t id,
            VertexIndexMap& map) {
    const DecompNode& t = tree.node(id);
    if (t.is_leaf()) {
      const std::span<const Vertex> verts = t.vertices;
      map.bind(verts);
      arcs.clear();
      for (std::size_t i = 0; i < verts.size(); ++i) {
        for (const Arc& a : g.out(verts[i])) {
          const std::size_t j = map.find(a.to);
          if (j == VertexIndexMap::kNpos) continue;
          arcs.push_back({static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(j),
                          static_cast<std::uint32_t>(&a - g.arcs().data())});
        }
      }
      boundary_pos.clear();
      for (const Vertex v : t.boundary) {
        const std::size_t i = map.find(v);
        SEPSP_CHECK(i != VertexIndexMap::kNpos);
        boundary_pos.push_back(static_cast<std::uint32_t>(i));
      }
      return;
    }
    for (int c = 0; c < 2; ++c) {
      map.bind(tree.node(static_cast<std::size_t>(t.child[c])).boundary);
      s_pos[c].clear();
      for (const Vertex v : t.separator) {
        const std::size_t i = map.find(v);
        SEPSP_CHECK_MSG(i != VertexIndexMap::kNpos,
                        "separator vertex missing from child boundary");
        s_pos[c].push_back(static_cast<std::uint32_t>(i));
      }
      b_pos[c].clear();
      for (const Vertex v : t.boundary) {
        const std::size_t i = map.find(v);
        b_pos[c].push_back(i == VertexIndexMap::kNpos
                               ? kAbsent
                               : static_cast<std::uint32_t>(i));
      }
    }
  }
};

/// Scratch of one node task, leased from a ScratchPool (never
/// thread_local: the pool's help-first joins can re-enter a worker
/// mid-task). Matrices reuse their high-water storage across leases.
template <Semiring S, typename M = Matrix<S>>
struct NodeScratch {
  explicit NodeScratch(std::size_t num_vertices) : map(num_vertices) {}

  VertexIndexMap map;  // fills `index` when the caller does not keep it
  NodeIndex index;
  M local;             // leaf: closure of the induced subgraph
  M hs;                // H_S and its closure
  M b_to_s, s_to_b;
  M tmp;               // b_to_s (x) hs
  M through;           // tmp (x) s_to_b
  M square;            // squaring-closure product buffer
  M boundary;          // the step's result: the node's boundary matrix
  std::vector<Shortcut<S>> edges;  // emission buffer of callers that
                                   // keep per-node edge lists
};

/// Emission policy of the exact builders: the complete ordered-pair
/// squares over S(t) and B(t), i-major, diagonal skipped. Unreachable
/// pairs are emitted with value zero(); the callers decide whether to
/// keep them.
struct FullEmission {
  /// Shortcuts node t emits (a leaf's separator is empty).
  static std::size_t slice(const DecompNode& t) {
    return pair_count(t.separator.size()) + pair_count(t.boundary.size());
  }

  template <Semiring S, typename M>
  Shortcut<S>* square(std::span<const Vertex> verts, const M& m,
                      Shortcut<S>* out) const {
    for (std::size_t i = 0; i < verts.size(); ++i) {
      for (std::size_t j = 0; j < verts.size(); ++j) {
        if (i != j) {
          *out++ = {verts[i], verts[j],
                    static_cast<typename S::Value>(m.at(i, j))};
        }
      }
    }
    return out;
  }

  /// An internal node's B x B emission (steps iii-v are in `sc`).
  template <Semiring S, typename M>
  Shortcut<S>* boundary(const DecompNode& t, const NodeScratch<S, M>& sc,
                        Shortcut<S>* out) const {
    return square(t.boundary, sc.boundary, out);
  }
};

/// Runs Algorithm 4.1 at node `id`: leaves sc.boundary holding the
/// node's boundary matrix and returns past-the-end of what `policy`
/// emitted at `out`. Reads the children's matrices from bnd and, at a
/// leaf, each arc's weight as weight_of(flat arc index).
template <Semiring S, typename M, typename Policy, typename WeightOf>
Shortcut<S>* node_step(const SeparatorTree& tree, std::size_t id,
                       const NodeIndex& ix, const std::vector<M>& bnd,
                       ClosureKind closure, const WeightOf& weight_of,
                       NodeScratch<S, M>& sc, Policy& policy,
                       Shortcut<S>* out) {
  const DecompNode& t = tree.node(id);
  M& bm = sc.boundary;

  if (t.is_leaf()) {
    M& local = sc.local;
    local.reset(t.vertices.size());
    for (std::size_t i = 0; i < t.vertices.size(); ++i) {
      local.merge(i, i, S::one());
    }
    for (const auto& [i, j, arc] : ix.arcs) {
      local.merge(i, j, S::from_weight(weight_of(arc)));
    }
    floyd_warshall(local);  // leaves are O(1)-sized; any kernel is fine
    const std::vector<std::uint32_t>& bp = ix.boundary_pos;
    bm.reset(bp.size());
    for (std::size_t p = 0; p < bp.size(); ++p) {
      for (std::size_t q = 0; q < bp.size(); ++q) {
        bm.merge(p, q, local.at(bp[p], bp[q]));
      }
    }
    return policy.square(t.boundary, bm, out);
  }

  const std::span<const Vertex> st = t.separator;
  const std::span<const Vertex> bt = t.boundary;
  const std::array<std::size_t, 2> kids = {
      static_cast<std::size_t>(t.child[0]),
      static_cast<std::size_t>(t.child[1])};

  // Step i: H_S from the children's boundary distances.
  M& hs = sc.hs;
  hs.reset(st.size());
  for (int c = 0; c < 2; ++c) {
    const M& cm = bnd[kids[c]];
    const std::vector<std::uint32_t>& sp = ix.s_pos[c];
    for (std::size_t i = 0; i < st.size(); ++i) {
      for (std::size_t j = 0; j < st.size(); ++j) {
        hs.merge(i, j, cm.at(sp[i], sp[j]));
      }
    }
  }
  // Step ii: closure -> exact S x S distances in G(t).
  run_closure(hs, closure, sc.square);
  out = policy.square(st, hs, out);
  if (bt.empty()) {
    bm.reset(0);
    return out;
  }

  // Step iii: B->S and S->B entries of H from the children.
  sc.b_to_s.reset(bt.size(), st.size());
  sc.s_to_b.reset(st.size(), bt.size());
  for (int c = 0; c < 2; ++c) {
    const M& cm = bnd[kids[c]];
    const std::vector<std::uint32_t>& sp = ix.s_pos[c];
    for (std::size_t p = 0; p < bt.size(); ++p) {
      const std::uint32_t b = ix.b_pos[c][p];
      if (b == NodeIndex::kAbsent) continue;
      for (std::size_t q = 0; q < st.size(); ++q) {
        sc.b_to_s.merge(p, q, cm.at(b, sp[q]));
        sc.s_to_b.merge(q, p, cm.at(sp[q], b));
      }
    }
  }
  // Step iv: 3-limited paths B -> S -> S -> B (H_S* includes the
  // diagonal, so 1- and 2-hop crossings are covered too).
  multiply_into(sc.b_to_s, hs, sc.tmp);
  multiply_into(sc.tmp, sc.s_to_b, sc.through);
  // Step v: best of the separator crossing and staying in one child.
  bm.reset(bt.size());
  for (std::size_t p = 0; p < bt.size(); ++p) bm.merge(p, p, S::one());
  for (std::size_t p = 0; p < bt.size(); ++p) {
    for (std::size_t q = 0; q < bt.size(); ++q) {
      bm.merge(p, q, sc.through.at(p, q));
    }
  }
  for (int c = 0; c < 2; ++c) {
    const M& cm = bnd[kids[c]];
    const std::vector<std::uint32_t>& b_pos = ix.b_pos[c];
    for (std::size_t p = 0; p < bt.size(); ++p) {
      if (b_pos[p] == NodeIndex::kAbsent) continue;
      for (std::size_t q = 0; q < bt.size(); ++q) {
        if (b_pos[q] == NodeIndex::kAbsent) continue;
        bm.merge(p, q, cm.at(b_pos[p], b_pos[q]));
      }
    }
  }
  return policy.boundary(t, sc, out);
}

}  // namespace detail
}  // namespace sepsp
