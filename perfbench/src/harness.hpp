// Shared measurement machinery of the perfbench harness: clocks and
// pacing, sample statistics, the in-memory span recorder, the open-loop
// request generator, memory probes and the result report.
//
// Nothing here instruments the library: every span wraps a call the
// harness itself makes into a public entry point.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/reply.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Waits until `deadline_ns` (now_ns() clock). Sleeps while far away and
/// spins the final stretch: a plain sleep_until overshoots by tens of
/// microseconds, which would show up as latency of requests that take a
/// few microseconds.
void spin_until(std::int64_t deadline_ns);

/// Nearest-rank q-quantile of `v` (sorted in place). 0 when empty.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Samples beyond the q-quantile of an n-sample set; the tail metric is
/// reported only where this is at least 10.
inline std::size_t beyond(std::size_t n, double q) {
  return n - static_cast<std::size_t>(q * static_cast<double>(n));
}

// --- spans ---------------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;  ///< 0 = not tied to one request
};

/// Process-wide span recorder. Disabled (the default) it records nothing
/// and Span costs one branch. Spans are kept in memory and written once,
/// at exit, by write_json().
class Tracer {
 public:
  static Tracer& get();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  std::uint32_t next_id() { return next_id_.fetch_add(1); }
  void record(const SpanRecord& r);
  /// Adds a finished span whose start and end were observed on different
  /// threads (a request: submit on the sender, reply on the reaper).
  std::uint32_t record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint32_t parent,
                       std::uint64_t request);

  std::vector<SpanRecord> spans() const;
  void write_json(const std::string& path) const;

  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0;  ///< summed span durations
    double self_ms = 0;   ///< durations minus child coverage
  };
  /// Per span name: duration and self time (span minus the union of its
  /// children's intervals clipped to it).
  std::vector<SelfTime> self_times() const;

  /// Parent for spans opened on this thread.
  static std::uint32_t& current();

 private:
  bool enabled_ = false;
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call the harness makes.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0) {
    Tracer& t = Tracer::get();
    if (!t.enabled()) return;
    rec_.name = name;
    rec_.request = request;
    rec_.id = t.next_id();
    rec_.parent = Tracer::current();
    Tracer::current() = rec_.id;
    rec_.start_ns = now_ns();
  }
  ~Span() {
    if (rec_.id == 0) return;
    rec_.end_ns = now_ns();
    Tracer::current() = rec_.parent;
    Tracer::get().record(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord rec_;
};

// --- open-loop generator --------------------------------------------------

/// Per-request outcome of an open-loop run. Times are now_ns() values.
struct RequestSample {
  std::int64_t scheduled_ns = 0;
  std::int64_t sent_ns = 0;      ///< submit() entered
  std::int64_t returned_ns = 0;  ///< submit() returned
  std::int64_t done_ns = 0;      ///< reply first observable
  sepsp::service::Reply reply;
};

/// Drives one open loop. `schedule` holds each request's send time
/// relative to the start; sender t of `senders` sends requests i with
/// i % senders == t. `submit(i)` issues request i and returns its
/// future; it must not block on the reply. Replies that are ready when
/// submit returns are timestamped by the sender; the rest are handed to
/// one reaper thread that timestamps each as soon as it can observe it.
/// Sends never wait on replies. With Pacing::kSpin there is no reaper:
/// each sender spins through the gap between sends, polling its own
/// replies, so a request that resolves inside submit() runs on a core
/// that is already awake, and a reply is timestamped without the host
/// having to wake a thread to see it. `on_sent(i)` runs on the sender after
/// each submit (update pacing by count). Replies for which `keep(i)` is
/// false drop their payload once observed, so only the ones the oracle
/// will check stay in memory.
class OpenLoop {
 public:
  using Submit = std::function<std::future<sepsp::service::Reply>(std::size_t)>;

  enum class Pacing { kSleep, kSpin };

  OpenLoop(std::vector<std::int64_t> schedule, unsigned senders,
           Pacing pacing = Pacing::kSleep);
  void run(const Submit& submit,
           const std::function<void(std::size_t)>& on_sent,
           const std::function<bool(std::size_t)>& keep);

  std::vector<RequestSample>& samples() { return samples_; }

 private:
  struct InFlight {
    std::size_t index;
    std::future<sepsp::service::Reply> future;
  };
  /// Observes every reply in `in_flight` that is ready now.
  void poll(std::deque<InFlight>& in_flight);
  void reap();
  void observe(std::size_t i, std::future<sepsp::service::Reply>& f,
               std::int64_t at_ns);

  std::vector<std::int64_t> schedule_;
  unsigned senders_;
  Pacing pacing_;
  std::vector<RequestSample> samples_;
  const std::function<bool(std::size_t)>* keep_ = nullptr;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<InFlight> handoff_;  // guarded by mutex_
  bool senders_done_ = false;     // guarded by mutex_
};

/// Poisson arrival offsets (ns from start) of `count` requests at
/// `rate_qps`, drawn from `seed`.
std::vector<std::int64_t> poisson_schedule(std::size_t count, double rate_qps,
                                           std::uint64_t seed);

// --- memory ---------------------------------------------------------------

/// VmHWM of this process in MiB.
double peak_rss_mib();
/// Hands the heap's free memory back to the system (malloc_trim), then
/// resets VmHWM to the resident set that is left, so the next
/// peak_rss_mib() reads the peak since this call. A repeated set-up then
/// starts as the first did, without the heap its predecessor freed.
void reset_peak_rss();
/// Largest cache size sysfs reports for cpu0, in bytes (0 if unknown).
std::size_t llc_bytes();
/// Best-of-`reps` STREAM triad bandwidth a[i] = b[i] + s * c[i] over
/// arrays of `array_bytes` each, counting 3 arrays moved per pass
/// (24 bytes per element), in GB/s.
double stream_triad_gbps(std::size_t array_bytes, int reps);

// --- report ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< shed + stopped + wrong answers
  std::uint64_t wrong = 0;   ///< oracle mismatches (also in failed)
  /// The open-loop generator sent late by a share of p50 (invalid run).
  bool generator_late = false;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layer;
  std::vector<std::string> notes;  ///< human-readable lines

  void e2e(const std::string& name, double v, const std::string& unit) {
    end_to_end.push_back({name, v, unit});
  }
  void per_layer(const std::string& name, double v, const std::string& unit) {
    layer.push_back({name, v, unit});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  bool correct() const { return wrong == 0; }
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";  ///< scratch files (the v3 image) go here
  std::string spans_path;     ///< traced runs write their spans here
};

}  // namespace perfbench
