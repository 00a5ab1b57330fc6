#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "baseline/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/skeleton.hpp"
#include "probes.hpp"
#include "separator/finders.hpp"
#include "service/service.hpp"
#include "service/sharded.hpp"
#include "util/random.hpp"

namespace perfbench {

using sepsp::Digraph;
using sepsp::Rng;
using sepsp::SeparatorTree;
using sepsp::Vertex;
using sepsp::service::EdgeUpdate;
using sepsp::service::Reply;
using sepsp::service::ServiceStats;
using sepsp::service::ShardedService;

namespace {

// sssp-live: a 65 x 65 grid (n = 4225). 60 qps is about
// a fifth of the single dispatcher's capacity (the ladder's max_qps reads
// 300-400 on a 4-vCPU box that sustains about one core), so lane groups
// hold about one request and p50 is one lone request's latency.
const std::vector<std::size_t> kLiveDims = {65, 65};
constexpr double kLiveRate = 60;
// One 4-arc reweight batch per 32 requests sent: pacing by count keeps
// the invalidation rate independent of the program's speed.
constexpr std::size_t kWriteEvery = 32;
constexpr std::size_t kBatchArcs = 4;
// p99 needs at least 1000 samples to have 10 beyond it.
constexpr std::size_t kMinSamples = 1000;
// sssp-live's ladder for max_qps and its p99 limit.
const std::vector<double> kLadder = {200, 300, 400, 500, 650, 800};
constexpr double kLadderP99LimitMs = 30;

// nav-mix: a 33 x 33 grid (n = 1089), one update batch per 5 s of
// window. One sender, spinning between sends and reaping its own replies:
// its requests resolve inside submit() in a few microseconds, and a
// sender that slept between them doubled that p50 with the cost of waking
// its core, which the host makes faster or slower from run to run.
const std::vector<std::size_t> kNavDims = {33, 33};
constexpr double kNavRate = 1000;
constexpr unsigned kNavSenders = 1;
constexpr auto kNavPacing = OpenLoop::Pacing::kSpin;
constexpr std::size_t kNavPairs = 8192;
constexpr std::size_t kNavHot = 64;
constexpr double kZipfTheta = 0.99;
constexpr double kNavUpdateEveryS = 5;

// batch-3d: a 20^3 grid (n = 8000); each call resolves 32 sources, one
// lane block per pool thread.
const std::vector<std::size_t> kBatchDims = {20, 20, 20};
constexpr std::size_t kBatchCall = 32;

// Set-up is repeated and its median reported.
constexpr int kSetupRepsCheap = 9;
constexpr int kSetupRepsHeavy = 3;

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

Digraph make_graph(const std::vector<std::size_t>& dims, std::uint64_t seed) {
  Rng rng(sepsp::splitmix64(seed));
  return sepsp::make_grid(dims, sepsp::WeightModel::uniform(1, 10), rng).graph;
}

std::unique_ptr<SeparatorTree> build_tree(
    const Digraph& g, const std::vector<std::size_t>& dims) {
  Span span("setup.separator");
  return std::make_unique<SeparatorTree>(sepsp::build_separator_tree(
      sepsp::Skeleton(g), sepsp::make_grid_finder(dims)));
}

/// Zipf ranks in [0, n): P(k) ~ 1/(k+1)^theta (Gray et al., SIGMOD '94).
/// The benchmark's own copy: it builds against the library's headers
/// only, so reworking bench/ cannot change what it measures.
class Zipf {
 public:
  Zipf(std::size_t n, double theta, std::uint64_t seed)
      : n_(n), theta_(theta), rng_(sepsp::splitmix64(seed)) {
    for (std::size_t i = 1; i <= n; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }
  std::size_t next() {
    const double u = rng_.next_double();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto k = static_cast<std::size_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(k, n_ - 1);
  }

 private:
  std::size_t n_;
  double theta_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0;
  Rng rng_;
};

/// The benchmark's own update log: the weights in force at any epoch,
/// for the oracle.
class WeightLog {
 public:
  explicit WeightLog(const Digraph& g)
      : n_(g.num_vertices()), edges_(g.edge_list()) {}

  const std::vector<sepsp::EdgeTriple>& edges() const { return edges_; }

  void record(std::uint64_t epoch, std::vector<EdgeUpdate> batch) {
    std::lock_guard<std::mutex> lock(mutex_);
    log_[epoch] = std::move(batch);
  }

  /// The graph with every batch up to and including `epoch` applied.
  Digraph at(std::uint64_t epoch) const {
    std::map<std::pair<Vertex, Vertex>, double> w;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& [e, batch] : log_) {
        if (e > epoch) break;
        for (const EdgeUpdate& u : batch) w[{u.from, u.to}] = u.weight;
      }
    }
    sepsp::GraphBuilder b(n_);
    for (const sepsp::EdgeTriple& e : edges_) {
      auto it = w.find({e.from, e.to});
      b.add_edge(e.from, e.to, it == w.end() ? e.weight : it->second);
    }
    return std::move(b).build();
  }

 private:
  std::size_t n_;
  std::vector<sepsp::EdgeTriple> edges_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::vector<EdgeUpdate>> log_;  // guarded
};

/// Dijkstra distances per source at one epoch at a time; callers visit
/// replies in epoch order so only one epoch's answers are held.
class Oracle {
 public:
  explicit Oracle(const WeightLog& log) : log_(log) {}
  const std::vector<double>& dist(std::uint64_t epoch, Vertex s) {
    const Digraph& g = graph(epoch);
    auto it = memo_.find(s);
    if (it != memo_.end()) return it->second;
    return memo_[s] = sepsp::dijkstra(g, s).dist;
  }
  const Digraph& graph(std::uint64_t epoch) {
    if (!graph_ || epoch != epoch_) {
      graph_.emplace(log_.at(epoch));
      epoch_ = epoch;
      memo_.clear();
    }
    return *graph_;
  }

 private:
  const WeightLog& log_;
  std::uint64_t epoch_ = 0;
  std::optional<Digraph> graph_;
  std::map<Vertex, std::vector<double>> memo_;
};

/// Indices of the kept (payload-carrying) ok replies, in epoch order.
std::vector<std::size_t> kept_by_epoch(OpenLoop& loop) {
  std::vector<std::size_t> idx;
  const auto& samples = loop.samples();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Reply& rep = samples[i].reply;
    if (rep.ok() && (rep.value != nullptr || rep.st != nullptr)) {
      idx.push_back(i);
    }
  }
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return samples[a].reply.epoch < samples[b].reply.epoch;
  });
  return idx;
}

bool close(double got, double want) {
  if (std::isinf(want) || std::isinf(got)) return got == want;
  return std::fabs(got - want) <= 1e-8 * std::max(1.0, std::fabs(want));
}

bool same_vector(const std::vector<double>& got,
                 const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (!close(got[v], want[v])) return false;
  }
  return true;
}

/// Applies one reweight batch per signal on its own thread and times
/// apply_updates() from the call to the new epoch being served.
class Writer {
 public:
  Writer(ShardedService& svc, WeightLog& log, std::uint64_t seed)
      : svc_(svc), log_(log), rng_(sepsp::splitmix64(seed ^ 0x3a11)) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Writer() { stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void signal() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
    cv_.notify_one();
  }
  /// Applies what is still pending, then joins.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& latencies_ms() const { return lat_ms_; }

 private:
  void loop() {
    const auto& edges = log_.edges();
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return pending_ > 0 || stopping_; });
        if (pending_ == 0) return;
        --pending_;
      }
      std::vector<EdgeUpdate> batch(kBatchArcs);
      for (EdgeUpdate& u : batch) {
        const sepsp::EdgeTriple& e = edges[rng_.next_below(edges.size())];
        u = {e.from, e.to, rng_.next_double(1.0, 10.0)};
      }
      const std::int64_t t0 = now_ns();
      std::uint64_t epoch = 0;
      {
        Span span("apply_updates");
        epoch = svc_.apply_updates(batch);
      }
      lat_ms_.push_back(ms_between(t0, now_ns()));
      log_.record(epoch, std::move(batch));
    }
  }

  ShardedService& svc_;
  WeightLog& log_;
  Rng rng_;
  std::vector<double> lat_ms_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t pending_ = 0;  // guarded by mutex_
  bool stopping_ = false;    // guarded by mutex_
  std::thread thread_;       // last: uses everything above
};

/// Latency and harness figures of one open-loop window.
struct Window {
  std::vector<double> lat_ms;      ///< ok replies, scheduled send -> reply
  std::vector<double> submit_us;   ///< time inside submit()
  std::vector<double> resolve_ms;  ///< submit return -> reply, queued only
  std::vector<double> lag_us;      ///< actual send - scheduled send
  std::uint64_t attempted = 0;
  std::uint64_t not_ok = 0;  ///< shed or stopped
};

Window summarize(OpenLoop& loop) {
  Window w;
  for (const RequestSample& s : loop.samples()) {
    ++w.attempted;
    w.submit_us.push_back(static_cast<double>(s.returned_ns - s.sent_ns) / 1e3);
    w.lag_us.push_back(static_cast<double>(s.sent_ns - s.scheduled_ns) / 1e3);
    if (!s.reply.ok()) {
      ++w.not_ok;
      continue;
    }
    w.lat_ms.push_back(ms_between(s.scheduled_ns, s.done_ns));
    if (s.done_ns > s.returned_ns) {
      w.resolve_ms.push_back(ms_between(s.returned_ns, s.done_ns));
    }
  }
  return w;
}

/// The highest percentile, up to p99, with at least 10 samples beyond it.
double tail_quantile(std::size_t n) {
  if (n >= kMinSamples) return 0.99;
  if (n <= 10) return 0.5;
  return std::floor((1.0 - 10.0 / static_cast<double>(n)) * 1000.0) / 1000.0;
}

void report_latency(Report& r, std::vector<double> lat_ms, const char* what) {
  const double q = tail_quantile(lat_ms.size());
  const double p50 = quantile(lat_ms, 0.5);
  const double tail = quantile(lat_ms, q);
  r.e2e("p50_ms", p50, "ms");
  // The tail is measured in every run but carries no bound: on a box
  // whose host grants between one and four cores from second to second
  // its run-to-run spread (0.2-0.6 of its median) exceeds any bound the
  // benchmark may set.
  r.per_layer("e2e.tail_ms", tail, "ms");
  char line[200];
  std::snprintf(line, sizeof line,
                "latency of %s: p50 %.3f ms, tail = p%.1f %.3f ms over %zu "
                "samples (%zu beyond)",
                what, p50, q * 100, tail, lat_ms.size(),
                beyond(lat_ms.size(), q));
  r.note(line);
  std::snprintf(line, sizeof line, "latency p90 %.3f ms, p95 %.3f ms",
                quantile(lat_ms, 0.90), quantile(lat_ms, 0.95));
  r.note(line);
}

/// setup_s, and setup_rss_mb: the median over set-ups of the VmHWM each
/// one reached, counted from the resident set it started from.
void report_setup(Report& r, const std::vector<double>& setup_s,
                  const std::vector<double>& setup_mb) {
  r.e2e("setup_s", median(setup_s), "s");
  r.e2e("setup_rss_mb", median(setup_mb), "MiB");
  char buf[100];
  std::snprintf(buf, sizeof buf,
                "set-up: median of %zu: %.4f s; VmHWM of each (MiB):",
                setup_s.size(), median(setup_s));
  std::string line = buf;
  for (double mb : setup_mb) {
    std::snprintf(buf, sizeof buf, " %.1f", mb);
    line += buf;
  }
  r.note(line);
}

/// VmHWM after the timed window, counted from the start of the last
/// set-up. Per-layer: with glibc's dynamic mmap threshold the lane
/// kernel's per-group scratch fragments the heap by a different amount in
/// every run (68-262 MiB over 20 runs of a paged 65 x 65 workload), so no
/// bound can hold it.
void report_peak_rss(Report& r) {
  const double rss = peak_rss_mib();
  r.per_layer("e2e.peak_rss_mb", rss, "MiB");
  char line[200];
  std::snprintf(line, sizeof line, "VmHWM after the window %.1f MiB", rss);
  r.note(line);
}

void report_service(Report& r, const ServiceStats& a, const ServiceStats& b) {
  auto ratio = [](double num, double den) { return den == 0 ? 0 : num / den; };
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  r.per_layer("service.occupancy",
              ratio(d(a.batch_lanes_used, b.batch_lanes_used),
                    d(a.batch_lane_capacity, b.batch_lane_capacity)),
              "ratio");
  r.per_layer("service.coalesce_us",
              ratio(d(a.coalesce_ns_sum, b.coalesce_ns_sum) / 1e3,
                    d(a.batch_lanes_used, b.batch_lanes_used)),
              "us");
  r.per_layer("service.hit_rate",
              ratio(d(a.cache_hits, b.cache_hits),
                    d(a.cache_hits, b.cache_hits) +
                        d(a.cache_misses, b.cache_misses)),
              "ratio");
  r.per_layer("service.st_hit_rate",
              ratio(d(a.st_cache_hits, b.st_cache_hits),
                    d(a.st_cache_hits, b.st_cache_hits) +
                        d(a.st_cache_misses, b.st_cache_misses)),
              "ratio");
  r.per_layer("service.shed", d(a.shed, b.shed), "count");
  r.per_layer("service.swap_us",
              ratio(d(a.swap_ns_sum, b.swap_ns_sum) / 1e3,
                    d(a.epoch_swaps, b.epoch_swaps)),
              "us");
}

/// Flags the run invalid when the generator's median send lag (actual
/// minus scheduled send) reaches a tenth of the median latency: p50_ms is
/// timed from the scheduled send, so such a run would measure the
/// generator rather than the program. The tail of the lag is reported
/// but not judged; it only moves the tail, which carries no bound.
void check_generator(Report& r, Window& w) {
  const double p50_us = median(w.lat_ms) * 1e3;
  const double lag_p50 = quantile(w.lag_us, 0.5);
  const double lag_p99 = quantile(w.lag_us, 0.99);
  r.generator_late = lag_p50 * 10 >= p50_us;
  char line[200];
  std::snprintf(line, sizeof line,
                "send lag p50 %.1f us, p99 %.1f us against latency p50 %.1f "
                "us: %s",
                lag_p50, lag_p99, p50_us,
                r.generator_late ? "INVALID, the generator ran late" : "valid");
  r.note(line);
}

/// Per-layer figures the window itself yields.
void report_window(Report& r, Window& w) {
  r.per_layer("service.submit_us_p50", quantile(w.submit_us, 0.5), "us");
  r.per_layer("service.submit_us_p99", quantile(w.submit_us, 0.99), "us");
  r.per_layer("service.resolve_ms", median(w.resolve_ms), "ms");
  r.per_layer("harness.send_lag_p50_us", quantile(w.lag_us, 0.5), "us");
  r.per_layer("harness.send_lag_p99_us", quantile(w.lag_us, 0.99), "us");
}

void count_window(Report& r, const Window& w) {
  r.attempted += w.attempted;
  r.failed += w.not_ok;
}

void note_updates(Report& r, const std::vector<double>& lat_ms) {
  char line[200];
  std::snprintf(line, sizeof line,
                "update_p50_ms %.3f over %zu apply_updates() calls",
                median(lat_ms), lat_ms.size());
  r.note(line);
  r.per_layer("e2e.update_p50_ms", median(lat_ms), "ms");
}

void note_fail_ratio(Report& r) {
  const double ratio = r.attempted == 0
                           ? 0
                           : static_cast<double>(r.failed) /
                                 static_cast<double>(r.attempted);
  r.per_layer("e2e.fail_ratio", ratio, "ratio");
  char line[200];
  std::snprintf(line, sizeof line,
                "fail_ratio %.6f (%llu failed of %llu attempted, %llu wrong)",
                ratio, static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.wrong));
  r.note(line);
}

/// Drives `loop` with single-source requests against `svc`; every 16th
/// reply keeps its payload for the oracle.
void drive_single_source(OpenLoop& loop, ShardedService& svc,
                         const std::vector<Vertex>& sources,
                         Writer* writer) {
  loop.run(
      [&](std::size_t i) {
        return svc.submit(sepsp::service::SingleSource{sources[i]});
      },
      [&](std::size_t i) {
        if (writer != nullptr && (i + 1) % kWriteEvery == 0) writer->signal();
      },
      [](std::size_t i) { return i % 16 == 0; });
}

}  // namespace

// --- sssp-live -----------------------------------------------------------

Report run_sssp_live(const RunConfig& cfg) {
  using sepsp::service::ShardedOptions;
  Report r;
  const Digraph g = make_graph(kLiveDims, cfg.seed);
  ShardedOptions opts;  // default shard count (auto), cache on
  opts.shard.point_to_point = false;

  std::unique_ptr<ShardedService> svc;
  std::unique_ptr<SeparatorTree> tree;
  std::vector<double> setup_s, setup_mb, tree_s, service_s;
  std::uint64_t kernel_cells = 0;
  for (int rep = 0; rep < kSetupRepsCheap; ++rep) {
    svc.reset();
    tree.reset();
    reset_peak_rss();
    Span span("setup");
    const std::int64_t t0 = now_ns();
    tree = build_tree(g, kLiveDims);
    const std::int64_t t1 = now_ns();
    tree_s.push_back(ms_between(t0, t1) / 1e3);
    const std::uint64_t cells0 = counter_value("kernel.cells");
    {
      Span s("setup.service");
      svc = std::make_unique<ShardedService>(g, *tree, opts);
    }
    kernel_cells = counter_value("kernel.cells") - cells0;
    service_s.push_back(ms_between(t1, now_ns()) / 1e3);
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    setup_mb.push_back(peak_rss_mib());
  }
  report_setup(r, setup_s, setup_mb);

  const std::size_t count = std::max(
      kMinSamples + kMinSamples / 10,
      static_cast<std::size_t>(kLiveRate * cfg.seconds));
  const std::vector<Vertex> sources =
      pick_vertices(g.num_vertices(), count, cfg.seed ^ 0x11);
  WeightLog log(g);
  const ServiceStats before = svc->stats().total;
  OpenLoop loop(poisson_schedule(count, kLiveRate, cfg.seed), 1);
  std::vector<double> update_ms;
  {
    Writer writer(*svc, log, cfg.seed);
    drive_single_source(loop, *svc, sources, &writer);
    writer.stop();
    update_ms = writer.latencies_ms();
  }
  Window w = summarize(loop);
  const ServiceStats after = svc->stats().total;
  count_window(r, w);
  report_latency(r, w.lat_ms, "SingleSource at the fixed rate");
  check_generator(r, w);
  note_updates(r, update_ms);

  const auto snap = svc->shard(0).current_snapshot();
  report_peak_rss(r);

  // Oracle: every kept reply against Dijkstra on its epoch's weights.
  Oracle oracle(log);
  for (std::size_t i : kept_by_epoch(loop)) {
    Reply& reply = loop.samples()[i].reply;
    if (!same_vector(reply.dist(), oracle.dist(reply.epoch, sources[i]))) {
      ++r.wrong;
      ++r.failed;
    }
    reply.value.reset();
  }

  if (cfg.trace) {
    report_window(r, w);
    report_service(r, before, after);
    {
      // The first half of the window again, untraced, on a fresh service
      // so the cache starts as cold as it did.
      Tracer::get().set_enabled(false);
      ShardedService fresh(g, *tree, opts);
      WeightLog fresh_log(g);
      OpenLoop ref(poisson_schedule(count / 2, kLiveRate, cfg.seed), 1);
      {
        Writer writer(fresh, fresh_log, cfg.seed);
        drive_single_source(ref, fresh, sources, &writer);
      }
      Tracer::get().set_enabled(true);
      Window rw = summarize(ref);
      count_window(r, rw);
      r.per_layer("harness.trace_overhead",
                  median(w.lat_ms) / median(rw.lat_ms), "ratio");
    }
    // max_qps: the highest ladder rate whose p99 meets the limit with no
    // failure and no growing backlog (last-fifth p50 within 2x of the
    // first fifth's), writes paced as in the window.
    double max_qps = 0;
    {
      Span span("ladder");
      for (double rate : kLadder) {
        const std::size_t n = kMinSamples;
        const auto src = pick_vertices(
            g.num_vertices(), n, cfg.seed ^ static_cast<std::uint64_t>(rate));
        WeightLog ladder_log(g);
        OpenLoop loop(poisson_schedule(n, rate, cfg.seed ^ 0x44), 1);
        {
          Writer writer(*svc, ladder_log, cfg.seed ^ 0x33);
          drive_single_source(loop, *svc, src, &writer);
        }
        Window lw = summarize(loop);
        const std::vector<RequestSample>& ls = loop.samples();
        std::vector<double> first, last;
        for (std::size_t i = 0; i < ls.size(); ++i) {
          if (!ls[i].reply.ok()) continue;
          const double ms = ms_between(ls[i].scheduled_ns, ls[i].done_ns);
          if (i < n / 5) first.push_back(ms);
          if (i >= n - n / 5) last.push_back(ms);
        }
        const double p99 = quantile(lw.lat_ms, 0.99);
        const bool growing = median(last) > 2 * median(first);
        const bool pass =
            lw.not_ok == 0 && p99 <= kLadderP99LimitMs && !growing;
        char line[200];
        std::snprintf(line, sizeof line,
                      "ladder %5.0f qps: p50 %.3f ms p99 %.3f ms shed %llu "
                      "backlog %s -> %s",
                      rate, median(lw.lat_ms), p99,
                      static_cast<unsigned long long>(lw.not_ok),
                      growing ? "growing" : "steady", pass ? "pass" : "fail");
        r.note(line);
        if (!pass) break;
        max_qps = rate;
      }
    }
    r.per_layer("e2e.max_qps", max_qps, "1/s");

    Span span("probes");
    r.per_layer("separator.tree_s", median(tree_s), "s");
    // With point_to_point and approx off, constructing the service is
    // building its engine.
    report_build(r, *snap.engine, median(service_s), kernel_cells);
    const double into = probe_query(r, *snap.engine, g, cfg.seed, 0);
    probe_incremental(r, g, *tree, cfg.seed);
    r.per_layer("service.overhead_ratio", median(w.lat_ms) * 1e3 / into,
                "ratio");
    // Share of the lone-request p50 the layer numbers account for:
    // time inside submit(), the coalescing wait, and the one-source
    // kernel call the dispatcher makes.
    double submit = 0, coalesce = 0, batch1 = 0;
    for (const Metric& m : r.layer) {
      if (m.name == "service.submit_us_p50") submit = m.value;
      if (m.name == "service.coalesce_us") coalesce = m.value;
      if (m.name == "core.batch1_us") batch1 = m.value;
    }
    const double share =
        (submit + coalesce + batch1) / (median(w.lat_ms) * 1e3);
    r.per_layer("harness.accounted_share", share, "ratio");
    char line[200];
    std::snprintf(line, sizeof line,
                  "accounted share of p50: (submit %.1f + coalesce %.1f + "
                  "batch1 %.1f) us / p50 %.1f us = %.3f",
                  submit, coalesce, batch1, median(w.lat_ms) * 1e3, share);
    r.note(line);
  }
  note_fail_ratio(r);
  return r;
}

// --- nav-mix -------------------------------------------------------------

Report run_nav_mix(const RunConfig& cfg) {
  using sepsp::service::ShardedOptions;
  using sepsp::service::SingleSource;
  using sepsp::service::StDistance;
  using sepsp::service::StPath;
  Report r;
  const Digraph g = make_graph(kNavDims, cfg.seed);
  const std::size_t n = g.num_vertices();
  ShardedOptions opts;
  opts.shard.point_to_point = true;
  opts.shard.approx.enabled = true;

  std::unique_ptr<ShardedService> svc;
  std::unique_ptr<SeparatorTree> tree;
  std::vector<double> setup_s, setup_mb, tree_s;
  for (int rep = 0; rep < kSetupRepsHeavy; ++rep) {
    svc.reset();
    tree.reset();
    reset_peak_rss();
    Span span("setup");
    const std::int64_t t0 = now_ns();
    tree = build_tree(g, kNavDims);
    tree_s.push_back(ms_between(t0, now_ns()) / 1e3);
    {
      Span s("setup.service");
      svc = std::make_unique<ShardedService>(g, *tree, opts);
    }
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    setup_mb.push_back(peak_rss_mib());
  }
  report_setup(r, setup_s, setup_mb);

  // The request mix, drawn from the seed: 60% StDistance, 20% StPath,
  // 10% approximate StDistance over Zipf-popular pairs, 10% SingleSource
  // over a Zipf-popular hot set.
  enum Kind { kSt, kPath, kApproxSt, kSingle };
  struct NavRequest {
    Kind kind;
    Vertex s, t;
  };
  const std::size_t count = std::max(
      kMinSamples, static_cast<std::size_t>(kNavRate * cfg.seconds));
  std::vector<std::pair<Vertex, Vertex>> pairs(kNavPairs);
  {
    Rng rng(sepsp::splitmix64(cfg.seed ^ 0x55));
    for (auto& [a, b] : pairs) {
      a = static_cast<Vertex>(rng.next_below(n));
      do {
        b = static_cast<Vertex>(rng.next_below(n));
      } while (b == a);
    }
  }
  const std::vector<Vertex> hot = pick_vertices(n, kNavHot, cfg.seed ^ 0x56);
  std::vector<NavRequest> reqs(count);
  {
    Rng rng(sepsp::splitmix64(cfg.seed ^ 0x59));
    Zipf pair_rank(kNavPairs, kZipfTheta, cfg.seed ^ 0x57);
    Zipf hot_rank(kNavHot, kZipfTheta, cfg.seed ^ 0x58);
    for (NavRequest& q : reqs) {
      const double u = rng.next_double();
      if (u >= 0.9) {
        q = {kSingle, hot[hot_rank.next()], 0};
        continue;
      }
      const auto [a, b] = pairs[pair_rank.next()];
      q = {u < 0.6 ? kSt : u < 0.8 ? kPath : kApproxSt, a, b};
    }
  }

  // Drives `loop` against the current service with a handful of update
  // batches, one in the middle of each 5 s of requests; each rebuilds
  // labels, routing and the approx engine. Returns the update latencies.
  auto drive = [&](OpenLoop& loop, WeightLog& log,
                   const std::function<bool(std::size_t)>& keep) {
    Writer writer(*svc, log, cfg.seed);
    const auto every = static_cast<std::size_t>(kNavRate * kNavUpdateEveryS);
    loop.run(
        [&](std::size_t i) {
          const NavRequest& q = reqs[i];
          switch (q.kind) {
            case kSt:
              return svc->submit(StDistance{q.s, q.t});
            case kPath:
              return svc->submit(StPath{q.s, q.t});
            case kApproxSt:
              return svc->submit(StDistance{q.s, q.t, true});
            default:
              return svc->submit(SingleSource{q.s});
          }
        },
        [&](std::size_t i) {
          if (i % every == every / 2) writer.signal();
        },
        keep);
    writer.stop();
    return writer.latencies_ms();
  };
  WeightLog log(g);
  const ServiceStats before = svc->stats().total;
  OpenLoop loop(poisson_schedule(count, kNavRate, cfg.seed), kNavSenders,
                kNavPacing);
  const std::vector<double> update_ms =
      drive(loop, log, [](std::size_t i) { return i % 4 == 0; });
  Window w = summarize(loop);
  const ServiceStats after = svc->stats().total;
  count_window(r, w);
  report_latency(r, w.lat_ms, "the nav mix at 1000 qps");
  check_generator(r, w);
  note_updates(r, update_ms);

  const auto snap = svc->shard(0).current_snapshot();
  report_peak_rss(r);

  // Oracle: exact kinds exactly, approximate ones inside the sandwich
  // dist <= v <= (1 + error_bound) dist, paths arc by arc.
  Oracle oracle(log);
  for (std::size_t i : kept_by_epoch(loop)) {
    Reply& reply = loop.samples()[i].reply;
    const NavRequest& q = reqs[i];
    const std::vector<double>& d = oracle.dist(reply.epoch, q.s);
    bool good = true;
    switch (q.kind) {
      case kSt:
        good = close(reply.distance(), d[q.t]);
        break;
      case kApproxSt: {
        const double v = reply.distance();
        good = std::isinf(d[q.t])
                   ? std::isinf(v)
                   : v >= d[q.t] * (1 - 1e-12) &&
                         v <= (1 + reply.error_bound) * d[q.t] * (1 + 1e-12);
        break;
      }
      case kPath: {
        const std::vector<Vertex>& path = reply.path();
        good = close(reply.distance(), d[q.t]);
        if (std::isinf(d[q.t])) {
          good = good && path.empty();
          break;
        }
        good = good && !path.empty() && path.front() == q.s &&
               path.back() == q.t;
        double sum = 0;
        const Digraph& eg = oracle.graph(reply.epoch);
        for (std::size_t k = 0; good && k + 1 < path.size(); ++k) {
          double wt = 0;
          good = eg.find_arc(path[k], path[k + 1], &wt);
          sum += wt;
        }
        good = good && close(sum, d[q.t]);
        break;
      }
      case kSingle:
        good = same_vector(reply.dist(), d);
        break;
    }
    if (!good) {
      ++r.wrong;
      ++r.failed;
    }
    reply.value.reset();
    reply.st.reset();
  }

  if (cfg.trace) {
    report_window(r, w);
    report_service(r, before, after);
    {
      // The first half of the window again, untraced, on a fresh service.
      Tracer::get().set_enabled(false);
      svc = std::make_unique<ShardedService>(g, *tree, opts);
      WeightLog fresh_log(g);
      OpenLoop ref(poisson_schedule(count / 2, kNavRate, cfg.seed),
                   kNavSenders, kNavPacing);
      drive(ref, fresh_log, [](std::size_t) { return false; });
      Tracer::get().set_enabled(true);
      Window rw = summarize(ref);
      count_window(r, rw);
      r.per_layer("harness.trace_overhead",
                  median(w.lat_ms) / median(rw.lat_ms), "ratio");
    }
    // The service's constructor builds the engine, labels, routing and
    // the approx engine in one call, so the core builder's figures come
    // from the workloads whose set-up times the build alone.
    Span span("probes");
    r.per_layer("separator.tree_s", median(tree_s), "s");
    probe_query(r, *snap.engine, g, cfg.seed, 0);
    probe_obs(r);
    probe_incremental(r, g, *tree, cfg.seed);
    probe_labels(r, g, *tree, cfg.seed);
    probe_approx(r, g, *tree, cfg.seed);
  }
  note_fail_ratio(r);
  return r;
}

// --- batch-3d ------------------------------------------------------------

Report run_batch_3d(const RunConfig& cfg) {
  Report r;
  const Digraph g = make_graph(kBatchDims, cfg.seed);
  const std::size_t n = g.num_vertices();

  std::optional<Engine> engine;
  std::unique_ptr<SeparatorTree> tree;
  std::vector<double> setup_s, setup_mb, tree_s, build_s;
  std::uint64_t kernel_cells = 0;
  for (int rep = 0; rep < kSetupRepsHeavy; ++rep) {
    engine.reset();
    tree.reset();
    reset_peak_rss();
    Span span("setup");
    const std::int64_t t0 = now_ns();
    tree = build_tree(g, kBatchDims);
    const std::int64_t t1 = now_ns();
    tree_s.push_back(ms_between(t0, t1) / 1e3);
    const std::uint64_t cells0 = counter_value("kernel.cells");
    {
      Span s("setup.engine");
      engine.emplace(Engine::build(g, *tree));
    }
    kernel_cells = counter_value("kernel.cells") - cells0;
    build_s.push_back(ms_between(t1, now_ns()) / 1e3);
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    setup_mb.push_back(peak_rss_mib());
  }
  report_setup(r, setup_s, setup_mb);

  // Back-to-back distances_batch calls over a fixed source set, 32
  // sources (four lane blocks, one per pool thread) per call; one source
  // of every call is checked against Dijkstra outside the timed call.
  constexpr std::size_t kSlices = 256;
  const std::vector<Vertex> set =
      pick_vertices(n, kBatchCall * kSlices, cfg.seed ^ 0x66);
  auto window = [&](double seconds, std::size_t min_calls) {
    std::vector<double> call_ms;
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t k = 0; call_ms.size() < min_calls || now_ns() < end;
         ++k) {
      const std::span<const Vertex> sources(
          set.data() + (k % kSlices) * kBatchCall, kBatchCall);
      const std::int64_t t0 = now_ns();
      const auto results = [&] {
        Span s("distances_batch");
        return engine->distances_batch(sources);
      }();
      call_ms.push_back(ms_between(t0, now_ns()));
      r.attempted += kBatchCall;
      const std::size_t j = k % kBatchCall;
      if (!same_vector(results[j].dist, sepsp::dijkstra(g, sources[j]).dist)) {
        ++r.wrong;
        ++r.failed;
      }
    }
    return call_ms;
  };
  const std::vector<double> call_ms = window(cfg.seconds, 12);
  report_latency(r, call_ms, "distances_batch calls of 32 sources");
  // Throughput is the same samples read the other way, so it is a
  // per-layer figure: p50_ms already carries it end to end.
  r.per_layer("e2e.sources_per_s", kBatchCall / (median(call_ms) / 1e3),
              "1/s");
  report_peak_rss(r);

  if (cfg.trace) {
    Tracer::get().set_enabled(false);
    const std::vector<double> ref_ms = window(0, 8);
    Tracer::get().set_enabled(true);
    r.per_layer("harness.trace_overhead", median(call_ms) / median(ref_ms),
                "ratio");
    Span span("probes");
    r.per_layer("separator.tree_s", median(tree_s), "s");
    report_build(r, *engine, median(build_s), kernel_cells);
    const double stream = probe_memory(r);
    probe_query(r, *engine, g, cfg.seed, stream);
    probe_semiring(r, cfg.seed);
    probe_store(r, *engine, cfg.workdir, cfg.seed);
  }
  note_fail_ratio(r);
  return r;
}

}  // namespace perfbench
