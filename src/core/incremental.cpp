#include "core/incremental.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <unordered_map>

#include "core/builder_scratch.hpp"  // detail::ScratchPool
#include "core/node_step.hpp"
#include "obs/obs.hpp"
#include "pram/thread_pool.hpp"
#include "semiring/matrix.hpp"

namespace sepsp {

using S = TropicalD;
using Scratch = detail::NodeScratch<S>;

struct IncrementalEngine::State {
  const Digraph* g = nullptr;
  const SeparatorTree* tree = nullptr;

  /// Effective weight per flat arc index (indexes g->arcs()).
  std::vector<double> weights;

  /// Retained Algorithm-4.1 state: per-node boundary matrices and the
  /// shortcut edges each node contributes (pair structure is fixed; only
  /// values change under reweighting).
  std::vector<Matrix<S>> bnd;
  std::vector<std::vector<Shortcut<S>>> per_node_edges;

  /// E+ with one stable slot per distinct (from, to) pair — including
  /// currently-unreachable pairs (value +inf), which reweighting may
  /// activate. slot_of mirrors per_node_edges; owners is a CSR from slot
  /// to its contributing (node, index-in-node) entries.
  std::vector<std::vector<std::uint32_t>> slot_of;
  std::vector<std::size_t> owner_offset;        // size slots+1
  std::vector<std::pair<std::uint32_t, std::uint32_t>> owner_entries;

  /// Staged changes. dirty_seen doubles as apply()'s queued flag (set
  /// for every node on the recompute worklist, cleared when the batch
  /// finishes); arc_staged dedupes updated_arcs.
  std::vector<std::size_t> dirty_leaves;
  std::vector<std::uint8_t> dirty_seen;    // per tree node
  std::vector<std::size_t> updated_arcs;   // flat arc indices
  std::vector<std::uint8_t> arc_staged;    // per flat arc

  /// Memoized arc -> containing leaves, keyed by the first arc of the
  /// (u, v) parallel range (parallel arcs share endpoints, hence leaf
  /// sets). An empty list is a legitimate value (both-endpoint leaves
  /// may not exist), so presence is tracked separately.
  std::vector<std::vector<std::uint32_t>> arc_leaves;
  std::vector<std::uint8_t> arc_leaves_known;

  /// Per-node index of the Algorithm 4.1 step, filled once at build:
  /// the tree and the arcs never change, only weights do.
  std::vector<detail::NodeIndex> index;

  /// Per-entry change flags of the latest recompute, CSR-flat beside
  /// slot_of (entry_off is the prefix sum of slot_of sizes). Empty
  /// during the initial build, which needs no re-minimization.
  std::vector<std::size_t> entry_off;
  std::vector<std::uint8_t> entry_changed;

  /// Epoch-stamped slot marks: the touched-slot worklist of apply()
  /// dedupes via mark_token instead of clearing a bitmap per batch.
  std::vector<std::uint64_t> slot_mark;
  std::uint64_t mark_token = 0;

  /// Staging buffers for the pooled re-minimize combines (high-water
  /// storage reused across batches).
  std::vector<S::Value> remin_values;
  std::vector<std::uint8_t> remin_changed;

  /// Applied update batches (the version tag snapshots carry).
  std::uint64_t epoch = 0;

  bool run_parallel = true;
  ApplyStats last_stats;

  Augmentation<S> aug;
  std::optional<LeveledQuery<S>> query;
  std::optional<detail::ScratchPool<Scratch>> scratch;

  /// Recomputes node `id` into leased scratch and, when the boundary
  /// matrix changed, copy-assigns it into bnd[id] (capacity reuse).
  /// Writes only this node's rows (per_node_edges[id], bnd[id], its
  /// entry_changed range) — safe to run concurrently for distinct nodes
  /// of one tree level. Two distinct change signals come back: `matrix`
  /// (the boundary matrix — drives upward propagation) and `edges` (the
  /// contributed shortcut values — drives slot re-minimization; an
  /// internal node's S x S closure entries can change while its
  /// boundary matrix does not, and vice versa). The per-entry diff is
  /// recorded in entry_changed so apply() re-minimizes only slots whose
  /// contributed value actually moved, not every slot of a changed
  /// node.
  struct Recomputed {
    bool matrix = false;
    bool edges = false;
  };
  Recomputed recompute_node(std::size_t id, Scratch& sc) {
    std::vector<Shortcut<S>>& now = sc.edges;
    now.resize(detail::FullEmission::slice(tree->node(id)));
    detail::FullEmission full;
    [[maybe_unused]] const Shortcut<S>* end = detail::node_step<S>(
        *tree, id, index[id], bnd, ClosureKind::kFloydWarshall,
        [&](std::size_t arc) { return weights[arc]; }, sc, full, now.data());
    SEPSP_DCHECK(end == now.data() + now.size());
    Recomputed r;
    r.matrix = !(sc.boundary == bnd[id]);
    if (r.matrix) bnd[id] = sc.boundary;
    const std::vector<Shortcut<S>>& old = per_node_edges[id];
    if (old.size() != now.size()) {
      // Initial build (old list empty): every entry is new. The pair
      // structure is fixed afterwards, so sizes never diverge again.
      r.edges = true;
      if (!entry_changed.empty()) {
        std::fill_n(entry_changed.begin() +
                        static_cast<std::ptrdiff_t>(entry_off[id]),
                    now.size(), std::uint8_t{1});
      }
    } else {
      std::uint8_t* flags =
          entry_changed.empty() ? nullptr : entry_changed.data() + entry_off[id];
      bool any = false;
      for (std::size_t j = 0; j < now.size(); ++j) {
        const bool moved = std::memcmp(&old[j].value, &now[j].value,
                                       sizeof(S::Value)) != 0;
        if (flags) flags[j] = moved ? 1 : 0;
        any = any || moved;
      }
      r.edges = any;
    }
    per_node_edges[id].swap(now);
    return r;
  }

  /// Recomputes the nodes `ids` of one tree level into changed[k].
  /// Nodes of a level are independent (each reads its children — a
  /// strictly deeper, already-final level — and writes only its own
  /// rows), so they run on the work-stealing pool.
  void recompute_level(const std::vector<std::size_t>& ids,
                       std::vector<Recomputed>& changed) {
    changed.assign(ids.size(), {});
    // One scratch lease per block, not per node: the lease comes off a
    // mutex-guarded pool, and a wide level would otherwise serialize on
    // it.
    auto run_block = [&](std::size_t lo, std::size_t hi) {
      auto sc = scratch->acquire();
      for (std::size_t k = lo; k < hi; ++k) {
        changed[k] = recompute_node(ids[k], *sc);
      }
    };
    if (run_parallel && ids.size() > 1) {
      pram::ThreadPool::global().parallel_blocks(0, ids.size(), run_block,
                                                 /*grain=*/2);
    } else {
      run_block(0, ids.size());
    }
  }
};

IncrementalEngine IncrementalEngine::build(const Digraph& g,
                                           const SeparatorTree& tree) {
  SEPSP_CHECK(tree.num_graph_vertices() == g.num_vertices());
  IncrementalEngine engine;
  engine.state_ = std::make_shared<State>();
  State& s = *engine.state_;
  s.g = &g;
  s.tree = &tree;
  s.weights.reserve(g.num_edges());
  for (const Arc& a : g.arcs()) s.weights.push_back(a.weight);
  s.bnd.resize(tree.num_nodes());
  s.per_node_edges.resize(tree.num_nodes());
  s.dirty_seen.assign(tree.num_nodes(), 0);
  s.arc_staged.assign(g.num_edges(), 0);
  s.arc_leaves.resize(g.num_edges());
  s.arc_leaves_known.assign(g.num_edges(), 0);
  s.scratch.emplace([] { return std::make_unique<Scratch>(0); });

  s.aug.levels = compute_levels(tree);
  s.aug.height = tree.height();
  s.aug.ell = leaf_diameter_bound(tree);

  // The step's index maps depend only on the tree and the arcs, so they
  // are derived once: every recompute of the same node reuses them.
  s.index.resize(tree.num_nodes());
  {
    detail::VertexIndexMap map(g.num_vertices());
    for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
      s.index[id].fill(g, tree, id, map);
    }
  }

  // The initial build is the dirty worklist with every node dirty.
  std::vector<State::Recomputed> changed;
  const auto by_level = tree.ids_by_level();
  for (std::size_t lvl = by_level.size(); lvl-- > 0;) {
    s.recompute_level(by_level[lvl], changed);
  }

  // Stable slot layout: one aug shortcut per distinct (from, to) pair
  // (unreachable pairs kept at +inf so reweighting can activate them),
  // plus the owner CSR for value re-minimization.
  auto pack = [](Vertex a, Vertex b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  };
  std::unordered_map<std::uint64_t, std::uint32_t> slot_index;
  s.slot_of.resize(tree.num_nodes());
  for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
    s.slot_of[id].reserve(s.per_node_edges[id].size());
    for (const auto& e : s.per_node_edges[id]) {
      const auto [it, inserted] = slot_index.try_emplace(
          pack(e.from, e.to),
          static_cast<std::uint32_t>(s.aug.shortcuts.size()));
      if (inserted) s.aug.shortcuts.push_back({e.from, e.to, S::zero()});
      s.slot_of[id].push_back(it->second);
    }
  }
  // Owner CSR + initial values.
  std::vector<std::size_t> counts(s.aug.shortcuts.size(), 0);
  for (const auto& slots : s.slot_of) {
    for (const std::uint32_t slot : slots) ++counts[slot];
  }
  s.owner_offset.assign(s.aug.shortcuts.size() + 1, 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    s.owner_offset[i + 1] = s.owner_offset[i] + counts[i];
  }
  s.owner_entries.resize(s.owner_offset.back());
  std::vector<std::size_t> cursor(s.owner_offset.begin(),
                                  s.owner_offset.end() - 1);
  for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
    for (std::size_t k = 0; k < s.slot_of[id].size(); ++k) {
      const std::uint32_t slot = s.slot_of[id][k];
      s.owner_entries[cursor[slot]++] = {static_cast<std::uint32_t>(id),
                                         static_cast<std::uint32_t>(k)};
      s.aug.shortcuts[slot].value = S::combine(
          s.aug.shortcuts[slot].value, s.per_node_edges[id][k].value);
    }
  }
  s.slot_mark.assign(s.aug.shortcuts.size(), 0);
  s.entry_off.assign(tree.num_nodes() + 1, 0);
  for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
    s.entry_off[id + 1] = s.entry_off[id] + s.slot_of[id].size();
  }
  s.entry_changed.assign(s.entry_off.back(), 0);

  s.query.emplace(g, s.aug);
  return engine;
}

void IncrementalEngine::update_edge(Vertex u, Vertex v, double weight) {
  State& s = *state_;
  SEPSP_CHECK(u < s.g->num_vertices() && v < s.g->num_vertices());
  // out(u) is sorted by target, so the parallel (u, v) arcs form one
  // contiguous range found by binary search — no per-call scan of the
  // whole adjacency list.
  const auto arcs = s.g->out(u);
  const auto lo = std::lower_bound(
      arcs.begin(), arcs.end(), v,
      [](const Arc& a, Vertex target) { return a.to < target; });
  const auto hi = std::upper_bound(
      lo, arcs.end(), v,
      [](Vertex target, const Arc& a) { return target < a.to; });
  SEPSP_CHECK_MSG(lo != hi, "update_edge: arc does not exist");
  const std::size_t base =
      static_cast<std::size_t>(arcs.data() - s.g->arcs().data());
  const std::size_t first =
      base + static_cast<std::size_t>(lo - arcs.begin());
  for (auto it = lo; it != hi; ++it) {
    const std::size_t arc =
        base + static_cast<std::size_t>(it - arcs.begin());
    s.weights[arc] = weight;
    if (!s.arc_staged[arc]) {
      s.arc_staged[arc] = 1;
      s.updated_arcs.push_back(arc);
    }
  }

  // Only leaves read edge weights directly (internal nodes consume
  // their children's matrices), so seed dirtiness at the leaves whose
  // subgraph contains the arc; apply() propagates upward exactly as far
  // as matrices actually change. The containing-leaf set depends only
  // on the endpoints, so it is memoized per parallel-arc range: a
  // streaming workload walks the subtree once per arc, ever.
  if (!s.arc_leaves_known[first]) {
    std::vector<std::uint32_t> leaves;
    std::vector<std::size_t> pending{0};
    while (!pending.empty()) {
      const std::size_t id = pending.back();
      pending.pop_back();
      const DecompNode& t = s.tree->node(id);
      if (t.is_leaf()) {
        leaves.push_back(static_cast<std::uint32_t>(id));
        continue;
      }
      for (const std::int32_t child : t.child) {
        const DecompNode& c = s.tree->node(static_cast<std::size_t>(child));
        if (std::binary_search(c.vertices.begin(), c.vertices.end(), u) &&
            std::binary_search(c.vertices.begin(), c.vertices.end(), v)) {
          pending.push_back(static_cast<std::size_t>(child));
        }
      }
    }
    s.arc_leaves[first] = std::move(leaves);
    s.arc_leaves_known[first] = 1;
  }
  for (const std::uint32_t id : s.arc_leaves[first]) {
    if (!s.dirty_seen[id]) {
      s.dirty_seen[id] = 1;
      s.dirty_leaves.push_back(id);
    }
  }
}

std::size_t IncrementalEngine::apply() {
  State& s = *state_;
  if (s.dirty_leaves.empty() && s.updated_arcs.empty()) return 0;
  SEPSP_TRACE_SPAN("incremental.apply");
  // Recompute bottom-up, level by level. A node is recomputed when a
  // weight it reads changed (leaves) or when a child's boundary matrix
  // changed; propagation stops as soon as a recomputation reproduces the
  // old matrix, so local updates rarely climb far. Within a level the
  // dirty nodes are independent (each reads its children — a strictly
  // deeper, already-final level — and writes only its own rows), so
  // they run on the work-stealing pool; the change flags are then
  // folded serially in worklist order, which makes the recomputed list
  // and parent enqueue order — hence the whole batch — bit-identical to
  // the serial path.
  std::vector<std::vector<std::size_t>> by_level(s.tree->height() + 1);
  for (const std::size_t id : s.dirty_leaves) {
    by_level[s.tree->node(id).level].push_back(id);  // dirty_seen already 1
  }
  ++s.mark_token;
  std::vector<std::size_t> recomputed;
  std::vector<std::uint32_t> touched;
  std::vector<State::Recomputed> changed;
  for (std::size_t lvl = by_level.size(); lvl-- > 0;) {
    // The level worklist can grow while deeper levels run (parent
    // enqueue), but never once its own level starts.
    const std::vector<std::size_t>& ids = by_level[lvl];
    if (ids.empty()) continue;
    s.recompute_level(ids, changed);
    // Serial fold in worklist order: bit-identical to the serial path.
    // Only slots whose contributed value actually moved (the per-entry
    // diff recompute_node recorded) are marked for re-minimization — an
    // entry that kept its value cannot move its slot's minimum, and on
    // big nodes most entries sit far from any dirty leaf.
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const std::size_t id = ids[k];
      recomputed.push_back(id);
      if (changed[k].edges) {
        const std::uint8_t* flags = s.entry_changed.data() + s.entry_off[id];
        const std::vector<std::uint32_t>& slots = s.slot_of[id];
        for (std::size_t j = 0; j < slots.size(); ++j) {
          if (!flags[j]) continue;
          const std::uint32_t slot = slots[j];
          if (s.slot_mark[slot] != s.mark_token) {
            s.slot_mark[slot] = s.mark_token;
            touched.push_back(slot);
          }
        }
      }
      const std::int32_t parent = s.tree->node(id).parent;
      if (parent >= 0 && changed[k].matrix) {
        const auto pid = static_cast<std::size_t>(parent);
        if (!s.dirty_seen[pid]) {
          s.dirty_seen[pid] = 1;
          by_level[s.tree->node(pid).level].push_back(pid);
        }
      }
    }
  }

  // Re-minimize only the touched slots — O(touched x owners) instead of
  // a full O(|E+|) scan per batch. Each slot's minimum depends only on
  // its own owner entries, so the combines (and the did-it-change
  // checks) run on the pool into staging buffers; the refreshes — the
  // only writes into shared bucket storage — then run serially in
  // worklist order, identical to the serial path. Most touched slots
  // re-minimize to their old value (the owner that changed was not the
  // minimum): the bucket already holds it, so the refresh — and its
  // slab detach — is skipped. Bitwise comparison keeps the skip exactly
  // as strict as the parity contract.
  s.remin_values.resize(touched.size());
  s.remin_changed.assign(touched.size(), 0);
  const auto combine_one = [&](std::size_t i) {
    const std::uint32_t slot = touched[i];
    auto value = S::zero();
    for (std::size_t o = s.owner_offset[slot]; o < s.owner_offset[slot + 1];
         ++o) {
      const auto [node, k] = s.owner_entries[o];
      value = S::combine(value, s.per_node_edges[node][k].value);
    }
    s.remin_values[i] = value;
    s.remin_changed[i] =
        std::memcmp(&value, &s.aug.shortcuts[slot].value, sizeof(value)) != 0;
  };
  if (s.run_parallel && touched.size() > 4096) {
    pram::ThreadPool::global().parallel_for(0, touched.size(), combine_one,
                                            /*grain=*/512);
  } else {
    for (std::size_t i = 0; i < touched.size(); ++i) combine_one(i);
  }
  std::size_t slabs_copied = 0;
  for (std::size_t i = 0; i < touched.size(); ++i) {
    if (!s.remin_changed[i]) continue;
    const std::uint32_t slot = touched[i];
    const S::Value value = s.remin_values[i];
    s.aug.shortcuts[slot].value = value;
    slabs_copied += s.query->refresh_shortcut(slot, value);
  }
  for (const std::size_t arc : s.updated_arcs) {
    slabs_copied += s.query->refresh_base(arc, S::from_weight(s.weights[arc]));
  }

  s.last_stats = {recomputed.size(), touched.size(), slabs_copied};
  SEPSP_OBS_ONLY({
    obs::counter("incr.nodes_recomputed").add(recomputed.size());
    obs::counter("incr.slots_touched").add(touched.size());
    obs::counter("incr.slabs_copied").add(slabs_copied);
  })

  for (const std::size_t id : recomputed) s.dirty_seen[id] = 0;
  s.dirty_leaves.clear();
  for (const std::size_t arc : s.updated_arcs) s.arc_staged[arc] = 0;
  s.updated_arcs.clear();
  ++s.epoch;
  return recomputed.size();
}

void IncrementalEngine::set_parallel_apply(bool enabled) {
  state_->run_parallel = enabled;
}

bool IncrementalEngine::parallel_apply() const { return state_->run_parallel; }

IncrementalEngine::ApplyStats IncrementalEngine::last_apply_stats() const {
  return state_->last_stats;
}

std::uint64_t IncrementalEngine::epoch() const { return state_->epoch; }

const Digraph& IncrementalEngine::graph() const { return *state_->g; }

const SeparatorTree& IncrementalEngine::tree() const { return *state_->tree; }

std::span<const double> IncrementalEngine::weights() const {
  return state_->weights;
}

IncrementalEngine::Snapshot IncrementalEngine::snapshot(
    const SeparatorShortestPaths<TropicalD>::Options& options) const {
  State& s = *state_;
  SEPSP_CHECK_MSG(s.dirty_leaves.empty() && s.updated_arcs.empty(),
                  "staged updates pending — call apply() before snapshot()");
  // Structural fork: the snapshot aliases every value slab of the live
  // query engine (future refreshes detach only touched slabs) and keeps
  // this engine's whole state alive through an aliasing handle to the
  // augmentation — no copies proportional to the structure. The aug
  // values may keep mutating under later apply() calls; the snapshot
  // never reads them (its query resolves values from its own forked
  // slabs).
  std::shared_ptr<const Augmentation<S>> aug_alias(state_, &s.aug);
  Snapshot snap;
  snap.epoch = s.epoch;
  snap.engine = SeparatorShortestPaths<S>::freeze(
      SeparatorShortestPaths<S>::from_forked_query(
          *s.g, std::move(aug_alias),
          s.query->fork_shared(options.query.detect_negative_cycles),
          options));
  return snap;
}

double IncrementalEngine::weight(Vertex u, Vertex v) const {
  const State& s = *state_;
  const auto arcs = s.g->out(u);
  const auto lo = std::lower_bound(
      arcs.begin(), arcs.end(), v,
      [](const Arc& a, Vertex target) { return a.to < target; });
  const auto hi = std::upper_bound(
      lo, arcs.end(), v,
      [](Vertex target, const Arc& a) { return target < a.to; });
  const std::size_t base =
      static_cast<std::size_t>(arcs.data() - s.g->arcs().data());
  double best = std::numeric_limits<double>::infinity();
  for (auto it = lo; it != hi; ++it) {
    const std::size_t arc =
        base + static_cast<std::size_t>(it - arcs.begin());
    best = std::min(best, s.weights[arc]);
  }
  return best;
}

QueryResult<TropicalD> IncrementalEngine::distances(Vertex source) const {
  SEPSP_CHECK_MSG(state_->dirty_leaves.empty() && state_->updated_arcs.empty(),
                  "staged updates pending — call apply() first");
  return state_->query->run(source);
}

const Augmentation<TropicalD>& IncrementalEngine::augmentation() const {
  return state_->aug;
}

const LeveledQuery<TropicalD>& IncrementalEngine::query_engine() const {
  return *state_->query;
}

}  // namespace sepsp
