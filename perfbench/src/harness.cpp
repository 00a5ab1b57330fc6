#include "harness.hpp"

#include <cmath>
#include <fstream>
#include <malloc.h>
#include <map>
#include <sstream>

#include "util/random.hpp"

namespace perfbench {

void spin_until(std::int64_t deadline_ns) {
  constexpr std::int64_t kSpinNs = 100'000;
  const std::int64_t left = deadline_ns - now_ns();
  if (left > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
  }
  while (now_ns() < deadline_ns) {
  }
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

// --- spans ---------------------------------------------------------------

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t& Tracer::current() {
  thread_local std::uint32_t parent = 0;
  return parent;
}

void Tracer::record(const SpanRecord& r) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(r);
}

std::uint32_t Tracer::record(const char* name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint32_t parent,
                             std::uint64_t request) {
  SpanRecord r;
  r.name = name;
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  r.id = next_id();
  r.parent = parent;
  r.request = request;
  record(r);
  return r.id;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::ofstream out(path);
  out << "[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}";
  }
  out << "\n]\n";
}

std::vector<Tracer::SelfTime> Tracer::self_times() const {
  const std::vector<SpanRecord> all = spans();
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const SpanRecord& s : all) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, SelfTime> by_name;
  for (const SpanRecord& s : all) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t lo = 0, hi = 0;
      bool open = false;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (open && a <= hi) {
          hi = std::max(hi, b);
        } else {
          if (open) covered += hi - lo;
          lo = a;
          hi = b;
          open = true;
        }
      }
      if (open) covered += hi - lo;
    }
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    t.count += 1;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    t.total_ms += dur;
    t.self_ms += dur - static_cast<double>(covered) / 1e6;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

// --- open-loop generator --------------------------------------------------

OpenLoop::OpenLoop(std::vector<std::int64_t> schedule, unsigned senders,
                   Pacing pacing)
    : schedule_(std::move(schedule)),
      senders_(std::max(1u, senders)),
      pacing_(pacing),
      samples_(schedule_.size()) {}

void OpenLoop::observe(std::size_t i, std::future<sepsp::service::Reply>& f,
                       std::int64_t at_ns) {
  RequestSample& s = samples_[i];
  s.done_ns = at_ns;
  s.reply = f.get();
  if (!(*keep_)(i)) {
    s.reply.value.reset();
    s.reply.st.reset();
  }
}

void OpenLoop::run(const Submit& submit,
                   const std::function<void(std::size_t)>& on_sent,
                   const std::function<bool(std::size_t)>& keep) {
  keep_ = &keep;
  // Sends start a little after set-up so the first request is not late.
  const std::int64_t start_ns = now_ns() + 2'000'000;
  const bool traced = Tracer::get().enabled();
  const bool spin = pacing_ == Pacing::kSpin;
  auto send = [&](unsigned t) {
    std::deque<InFlight> mine;  // Pacing::kSpin: replies this sender reaps
    for (std::size_t i = t; i < schedule_.size(); i += senders_) {
      RequestSample& s = samples_[i];
      s.scheduled_ns = start_ns + schedule_[i];
      if (spin) {
        while (now_ns() < s.scheduled_ns) poll(mine);
      } else {
        spin_until(s.scheduled_ns);
      }
      s.sent_ns = now_ns();
      std::future<sepsp::service::Reply> f = submit(i);
      s.returned_ns = now_ns();
      if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        observe(i, f, s.returned_ns);
      } else if (spin) {
        mine.push_back({i, std::move(f)});
      } else {
        std::lock_guard<std::mutex> lock(mutex_);
        handoff_.push_back({i, std::move(f)});
        cv_.notify_one();
      }
      if (on_sent) on_sent(i);
    }
    while (!mine.empty()) poll(mine);
  };
  std::thread reaper;
  if (!spin) reaper = std::thread([this] { reap(); });
  std::vector<std::thread> others;
  for (unsigned t = 1; t < senders_; ++t) others.emplace_back(send, t);
  send(0);
  for (std::thread& th : others) th.join();
  if (reaper.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      senders_done_ = true;
    }
    cv_.notify_one();
    reaper.join();
  }
  if (traced) {
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      const RequestSample& s = samples_[i];
      const std::uint32_t id = Tracer::get().record(
          "request", s.sent_ns, s.done_ns, Tracer::current(), i + 1);
      Tracer::get().record("request.submit", s.sent_ns, s.returned_ns, id,
                           i + 1);
    }
  }
}

void OpenLoop::poll(std::deque<InFlight>& in_flight) {
  for (auto it = in_flight.begin(); it != in_flight.end();) {
    if (it->future.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      observe(it->index, it->future, now_ns());
      it = in_flight.erase(it);
    } else {
      ++it;
    }
  }
}

void OpenLoop::reap() {
  std::deque<InFlight> local;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (local.empty()) {
        cv_.wait(lock, [&] { return !handoff_.empty() || senders_done_; });
      }
      while (!handoff_.empty()) {
        local.push_back(std::move(handoff_.front()));
        handoff_.pop_front();
      }
      if (local.empty() && senders_done_) return;
    }
    const std::size_t before = local.size();
    poll(local);
    // Block on the oldest reply; the bound keeps later replies (and new
    // hand-offs) from waiting long behind it.
    if (local.size() == before && !local.empty()) {
      local.front().future.wait_for(std::chrono::microseconds(200));
    }
  }
}

std::vector<std::int64_t> poisson_schedule(std::size_t count, double rate_qps,
                                           std::uint64_t seed) {
  sepsp::Rng rng(sepsp::splitmix64(seed ^ 0x51ed270b27a4e5c1ULL));
  std::vector<std::int64_t> at(count);
  double t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.next_double()) / rate_qps;
    at[i] = static_cast<std::int64_t>(t * 1e9);
  }
  return at;
}

// --- memory ---------------------------------------------------------------

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kib = 0;
      is >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

std::size_t llc_bytes() {
  std::size_t best = 0;
  for (int i = 0; i < 8; ++i) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(i) + "/size");
    std::string s;
    if (!(in >> s) || s.empty()) continue;
    std::size_t mult = 1;
    const char unit = s.back();
    if (unit == 'K') mult = std::size_t{1} << 10;
    if (unit == 'M') mult = std::size_t{1} << 20;
    if (unit == 'G') mult = std::size_t{1} << 30;
    best = std::max(best, std::stoul(s) * mult);
  }
  return best;
}

double stream_triad_gbps(std::size_t array_bytes, int reps) {
  const std::size_t n = array_bytes / sizeof(double);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double scalar = 3.0;
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    double* pa = a.data();
    const double* pb = b.data();
    const double* pc = c.data();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + scalar * pc[i];
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    best = std::max(best, 3.0 * static_cast<double>(n * sizeof(double)) / s /
                              1e9);
  }
  // Keep the stores observable.
  volatile double sink = a[n / 2];
  (void)sink;
  return best;
}

}  // namespace perfbench
