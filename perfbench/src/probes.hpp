// Per-layer probes: direct calls into the public functions of the layers
// the serving front doors hide, made on the workload's own graph and
// engine after its timed window (traced runs only). Each probe adds its
// metrics to the report under the layer's module name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "graph/digraph.hpp"
#include "harness.hpp"
#include "separator/decomposition.hpp"

namespace perfbench {

using Engine = sepsp::SeparatorShortestPaths<sepsp::TropicalD>;

/// `count` vertices drawn uniformly (with repetition) from [0, n).
std::vector<sepsp::Vertex> pick_vertices(std::size_t n, std::size_t count,
                                         std::uint64_t seed);

/// Current value of a process-wide obs counter (0 when SEPSP_OBS=OFF).
std::uint64_t counter_value(const char* name);

/// The builder's stats of an engine whose build set-up timed.
void report_build(Report& r, const Engine& engine, double build_s,
                  std::uint64_t kernel_cells);

/// p50 of distances_into over 16 sources drawn from `seed`, in us; the
/// scan count of each call goes to `scans` when given.
double into_p50_us(const Engine& engine, std::uint64_t seed,
                   std::vector<double>* scans);

/// Query layer on `engine`: core.into_us and its scan breakdown,
/// baseline.dijkstra_us, the lane-group kernel (core.batch*) and the
/// pool's parallel efficiency; with `stream_gbps` > 0 also the sweep's
/// computed bytes per scan against it. Returns core.into_us.
double probe_query(Report& r, const Engine& engine, const sepsp::Digraph& g,
                   std::uint64_t seed, double stream_gbps);

/// Min-plus multiply_into at the top-separator size of the 20^3 grid.
void probe_semiring(Report& r, std::uint64_t seed);
/// obs counter add from one and two threads, and one library span.
void probe_obs(Report& r);
/// STREAM triad on arrays far above the last-level cache; returns GB/s.
double probe_memory(Report& r);
/// IncrementalEngine apply() and snapshot() on small reweight batches.
void probe_incremental(Report& r, const sepsp::Digraph& g,
                       const sepsp::SeparatorTree& tree, std::uint64_t seed);
/// Hub labels and routing tables built from scratch, then queried.
void probe_labels(Report& r, const sepsp::Digraph& g,
                  const sepsp::SeparatorTree& tree, std::uint64_t seed);
/// (1 + eps)-approximate engine build and query.
void probe_approx(Report& r, const sepsp::Digraph& g,
                  const sepsp::SeparatorTree& tree, std::uint64_t seed);
/// v3 image write and open of `heap`, then distances_into through a pool
/// budget of image/8 against the heap engine.
void probe_store(Report& r, const Engine& heap, const std::string& workdir,
                 std::uint64_t seed);

}  // namespace perfbench
