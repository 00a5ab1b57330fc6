#include "probes.hpp"

#include <cstdio>
#include <filesystem>
#include <thread>

#include "approx/approx.hpp"
#include "baseline/dijkstra.hpp"
#include "core/incremental.hpp"
#include "core/labeling.hpp"
#include "core/routing.hpp"
#include "obs/obs.hpp"
#include "pram/thread_pool.hpp"
#include "semiring/matrix.hpp"
#include "store/stored_engine.hpp"
#include "store/writer.hpp"
#include "util/random.hpp"

namespace perfbench {

using sepsp::Digraph;
using sepsp::SeparatorTree;
using sepsp::Vertex;

namespace {

double us_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e3;
}

// Bytes one scanned E u E+ bucket entry streams: its two endpoints and
// its value (core/query.hpp EdgeBucket). Computed from the layout, not
// measured.
constexpr double kBytesPerScan = 2 * sizeof(Vertex) + sizeof(double);

}  // namespace

std::uint64_t counter_value(const char* name) {
#if SEPSP_OBS_ENABLED
  return sepsp::obs::counter(name).value();
#else
  (void)name;
  return 0;
#endif
}

std::vector<Vertex> pick_vertices(std::size_t n, std::size_t count,
                                  std::uint64_t seed) {
  sepsp::Rng rng(sepsp::splitmix64(seed));
  std::vector<Vertex> out(count);
  for (Vertex& v : out) v = static_cast<Vertex>(rng.next_below(n));
  return out;
}

void report_build(Report& r, const Engine& engine, double build_s,
                  std::uint64_t kernel_cells) {
  const sepsp::EngineStats st = engine.stats();
  r.per_layer("core.build_s", build_s, "s");
  r.per_layer("core.eplus_edges", static_cast<double>(st.eplus_edges),
              "count");
  // A service's engine is an IncrementalEngine snapshot, whose stats do
  // not carry the build's PRAM work.
  if (st.build_work != 0) {
    r.per_layer("core.build_work", static_cast<double>(st.build_work),
                "count");
  }
  r.per_layer("semiring.kernel_cells", static_cast<double>(kernel_cells),
              "count");
}

double into_p50_us(const Engine& engine, std::uint64_t seed,
                   std::vector<double>* scans) {
  const std::size_t n = engine.graph().num_vertices();
  std::vector<double> out(n), us;
  Span span("probe.core.distances_into");
  for (Vertex s : pick_vertices(n, 16, seed ^ 0x71)) {
    const std::int64_t t0 = now_ns();
    const sepsp::QueryStats qs = engine.distances_into(s, out);
    us.push_back(us_since(t0));
    if (scans) scans->push_back(static_cast<double>(qs.edges_scanned));
  }
  return median(us);
}

double probe_query(Report& r, const Engine& engine, const Digraph& g,
                   std::uint64_t seed, double stream_gbps) {
  const std::size_t n = g.num_vertices();
  const std::vector<Vertex> sources = pick_vertices(n, 16, seed ^ 0x71);
  std::vector<double> scans, dij_us, b1_us;
  const double into = into_p50_us(engine, seed, &scans);
  {
    Span span("probe.baseline.dijkstra");
    for (Vertex s : sources) {
      const std::int64_t t0 = now_ns();
      const sepsp::DijkstraResult d = sepsp::dijkstra(g, s);
      dij_us.push_back(us_since(t0));
    }
  }
  {
    Span span("probe.core.batch1");
    for (Vertex s : sources) {
      const std::int64_t t0 = now_ns();
      engine.distances_batch(std::span<const Vertex>(&s, 1));
      b1_us.push_back(us_since(t0));
    }
  }
  // One lane block (8 sources) runs on one thread; four blocks spread
  // over the pool. Their ratio is the pool's parallel efficiency.
  std::vector<double> b8_us;
  {
    Span span("probe.core.batch8");
    for (int rep = 0; rep < 3; ++rep) {
      const std::int64_t t0 = now_ns();
      engine.distances_batch(std::span<const Vertex>(sources.data(), 8));
      b8_us.push_back(us_since(t0));
    }
  }
  const std::vector<Vertex> wide = pick_vertices(n, 32, seed ^ 0x72);
  std::vector<double> wall_us;
  const std::uint64_t steals0 = counter_value("pool.steals");
  {
    Span span("probe.pram.parallel_for");
    for (int rep = 0; rep < 3; ++rep) {
      const std::int64_t t0 = now_ns();
      engine.distances_batch(wide);
      wall_us.push_back(us_since(t0));
    }
  }
  const double steals =
      static_cast<double>(counter_value("pool.steals") - steals0) / 3.0;
  const double threads =
      static_cast<double>(sepsp::pram::ThreadPool::global().concurrency());
  const double scans_per = median(scans);
  const double ns_per_scan = into * 1e3 / scans_per;
  const double block = median(b8_us);
  r.per_layer("core.into_us", into, "us");
  r.per_layer("core.scans_per_source", scans_per, "count");
  r.per_layer("core.ns_per_scan", ns_per_scan, "ns");
  if (stream_gbps > 0) {
    r.per_layer("core.bytes_per_scan_computed", kBytesPerScan, "B");
    r.per_layer("core.sweep_over_stream",
                kBytesPerScan / ns_per_scan / stream_gbps, "ratio");
  }
  r.per_layer("baseline.dijkstra_us", median(dij_us), "us");
  r.per_layer("core.into_over_dijkstra", into / median(dij_us), "ratio");
  r.per_layer("core.batch1_us", median(b1_us), "us");
  r.per_layer("core.batch8_us_per_source", block / 8.0, "us");
  r.per_layer("core.batch1_over_into", median(b1_us) / into, "ratio");
  r.per_layer("pram.parallel_eff", 4.0 * block / (median(wall_us) * threads),
              "ratio");
  r.per_layer("pram.steals", steals, "count");
  return into;
}

void probe_semiring(Report& r, std::uint64_t seed) {
  // The 20^3 grid's top separator is one 20 x 20 plane.
  constexpr std::size_t k = 400;
  using M = sepsp::Matrix<sepsp::TropicalD>;
  M a(k), b(k), out;
  sepsp::Rng rng(sepsp::splitmix64(seed ^ 0x5e));
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      a.at(i, j) = rng.next_double(1.0, 100.0);
      b.at(i, j) = rng.next_double(1.0, 100.0);
    }
  }
  std::vector<double> secs;
  Span span("probe.semiring.multiply_into");
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    sepsp::multiply_into(a, b, out);
    secs.push_back(us_since(t0) / 1e6);
  }
  r.per_layer("semiring.tile_gcells_s",
              static_cast<double>(k * k * k) / median(secs) / 1e9, "Gcell/s");
}

void probe_obs(Report& r) {
#if SEPSP_OBS_ENABLED
  Span span("probe.obs");
  constexpr int kAdds = 2'000'000;
  sepsp::obs::Counter& c = sepsp::obs::counter("perfbench.probe");
  std::int64_t t0 = now_ns();
  for (int i = 0; i < kAdds; ++i) c.add(1);
  r.per_layer("obs.counter_add_ns_1t",
              static_cast<double>(now_ns() - t0) / kAdds, "ns");
  t0 = now_ns();
  std::thread other([&] {
    for (int i = 0; i < kAdds; ++i) c.add(1);
  });
  for (int i = 0; i < kAdds; ++i) c.add(1);
  other.join();
  r.per_layer("obs.counter_add_ns_2t",
              static_cast<double>(now_ns() - t0) / kAdds, "ns");
  constexpr int kSpans = 200'000;
  t0 = now_ns();
  for (int i = 0; i < kSpans; ++i) {
    sepsp::obs::TraceSpan s("perfbench.probe");
  }
  r.per_layer("obs.span_ns", static_cast<double>(now_ns() - t0) / kSpans,
              "ns");
#else
  (void)r;
#endif
}

double probe_memory(Report& r) {
  // Arrays of at least 4x the reported last-level cache, capped so the
  // probe stays a bounded share of a shared machine's memory.
  constexpr std::size_t kCap = std::size_t{512} << 20;
  const std::size_t llc = llc_bytes();
  const std::size_t want = llc == 0 ? (std::size_t{256} << 20) : 4 * llc;
  const std::size_t bytes = std::min(want, kCap);
  Span span("probe.mem.stream_triad");
  const double gbps = stream_triad_gbps(bytes, 4);
  char line[200];
  std::snprintf(line, sizeof line,
                "stream triad: %.0f MiB per array (LLC %.0f MiB%s), %.2f GB/s "
                "on one thread",
                static_cast<double>(bytes) / (1 << 20),
                static_cast<double>(llc) / (1 << 20),
                bytes < want ? ", capped below 4x LLC" : "", gbps);
  r.note(line);
  r.per_layer("mem.stream_gbps", gbps, "GB/s");
  return gbps;
}

void probe_incremental(Report& r, const Digraph& g, const SeparatorTree& tree,
                       std::uint64_t seed) {
  Span span("probe.core.incremental");
  sepsp::IncrementalEngine inc = sepsp::IncrementalEngine::build(g, tree);
  const auto edges = g.edge_list();
  sepsp::Rng rng(sepsp::splitmix64(seed ^ 0x1c));
  std::vector<double> apply_ms, snap_ms, nodes, slabs;
  for (int rep = 0; rep < 8; ++rep) {
    for (int k = 0; k < 4; ++k) {
      const auto& e = edges[rng.next_below(edges.size())];
      inc.update_edge(e.from, e.to, rng.next_double(1.0, 10.0));
    }
    std::int64_t t0 = now_ns();
    inc.apply();
    apply_ms.push_back(us_since(t0) / 1e3);
    t0 = now_ns();
    const auto snap = inc.snapshot();
    snap_ms.push_back(us_since(t0) / 1e3);
    const auto st = inc.last_apply_stats();
    nodes.push_back(static_cast<double>(st.nodes_recomputed));
    slabs.push_back(static_cast<double>(st.slabs_copied));
  }
  r.per_layer("core.apply_ms", median(apply_ms), "ms");
  r.per_layer("core.snapshot_ms", median(snap_ms), "ms");
  r.per_layer("core.nodes_recomputed", median(nodes), "count");
  r.per_layer("core.slabs_copied", median(slabs), "count");
}

void probe_labels(Report& r, const Digraph& g, const SeparatorTree& tree,
                  std::uint64_t seed) {
  std::int64_t t0 = now_ns();
  const sepsp::DistanceLabeling labels = [&] {
    Span span("probe.core.labels_build");
    return sepsp::DistanceLabeling::build(g, tree);
  }();
  r.per_layer("core.labels_build_s", us_since(t0) / 1e6, "s");
  t0 = now_ns();
  const sepsp::RoutingScheme routing = [&] {
    Span span("probe.core.routing_build");
    return sepsp::RoutingScheme::build(g, tree);
  }();
  r.per_layer("core.routing_build_s", us_since(t0) / 1e6, "s");
  const std::size_t n = g.num_vertices();
  const std::vector<Vertex> a = pick_vertices(n, 4096, seed ^ 0xa1);
  const std::vector<Vertex> b = pick_vertices(n, 4096, seed ^ 0xa2);
  double sink = 0;
  {
    Span span("probe.core.label_merge");
    t0 = now_ns();
    for (std::size_t i = 0; i < a.size(); ++i) {
      sink += labels.distance(a[i], b[i]);
    }
    r.per_layer("core.label_merge_ns",
                static_cast<double>(now_ns() - t0) /
                    static_cast<double>(a.size()),
                "ns");
  }
  {
    Span span("probe.core.route_unpack");
    constexpr std::size_t kRoutes = 256;
    t0 = now_ns();
    for (std::size_t i = 0; i < kRoutes; ++i) {
      sink += static_cast<double>(routing.route(a[i], b[i]).size());
    }
    r.per_layer("core.route_unpack_ns",
                static_cast<double>(now_ns() - t0) / kRoutes, "ns");
  }
  r.per_layer("core.label_entries",
              static_cast<double>(labels.total_label_entries()), "count");
  if (sink < 0) r.note("unreachable");
}

void probe_approx(Report& r, const Digraph& g, const SeparatorTree& tree,
                  std::uint64_t seed) {
  sepsp::ApproxEngine::Options opts;
  opts.build.approx_eps = 0.1;  // the service's default budget
  const std::int64_t t0 = now_ns();
  const sepsp::ApproxEngine approx = [&] {
    Span span("probe.approx.build");
    return sepsp::ApproxEngine::build(g, tree, opts);
  }();
  r.per_layer("approx.build_s", us_since(t0) / 1e6, "s");
  const double kept = static_cast<double>(approx.eplus_kept());
  r.per_layer("approx.eplus_kept_ratio",
              kept / (kept + static_cast<double>(approx.eplus_dropped())),
              "ratio");
  std::vector<double> out(g.num_vertices()), us;
  Span span("probe.approx.distances_into");
  for (Vertex s : pick_vertices(g.num_vertices(), 16, seed ^ 0xa3)) {
    const std::int64_t t1 = now_ns();
    approx.distances_into(s, out);
    us.push_back(us_since(t1));
  }
  r.per_layer("approx.into_us", median(us), "us");
}

namespace {

/// The v3 image's pool budget: image/8, rounded up to whole pages.
std::size_t paged_budget(std::size_t image_bytes) {
  const std::size_t page = 4096;
  return (image_bytes / 8 + page - 1) / page * page;
}

}  // namespace

void probe_store(Report& r, const Engine& heap, const std::string& workdir,
                 std::uint64_t seed) {
  const std::string path = workdir + "/probe-" + std::to_string(seed) + ".img";
  std::int64_t t0 = now_ns();
  {
    Span span("probe.store.write");
    std::string error;
    if (!sepsp::store::write_engine_image(path, heap, &error)) {
      r.note("store probe: write failed: " + error);
      ++r.wrong;
      return;
    }
  }
  r.per_layer("store.write_s", us_since(t0) / 1e6, "s");
  sepsp::store::StoredEngine<sepsp::TropicalD>::OpenOptions opts;
  opts.pool.budget_bytes = paged_budget(std::filesystem::file_size(path));
  t0 = now_ns();
  auto stored = [&] {
    Span span("probe.store.open");
    return sepsp::store::StoredEngine<sepsp::TropicalD>::open(path, opts);
  }();
  if (!stored) {
    r.note("store probe: open failed");
    ++r.wrong;
    std::filesystem::remove(path);
    return;
  }
  r.per_layer("store.open_s", us_since(t0) / 1e6, "s");
  const double heap_us = into_p50_us(heap, seed, nullptr);
  const auto before = stored->pool().stats();
  const double stored_us = into_p50_us(stored->engine(), seed, nullptr);
  const auto after = stored->pool().stats();
  r.per_layer("store.faults_per_req",
              static_cast<double>(after.faults - before.faults) / 16.0,
              "count");
  r.per_layer("store.evictions_per_req",
              static_cast<double>(after.evictions - before.evictions) / 16.0,
              "count");
  r.per_layer("store.into_over_heap", stored_us / heap_us, "ratio");
  stored.reset();
  std::filesystem::remove(path);
}

}  // namespace perfbench
