// perfbench: the repository benchmark's harness binary.
//
//   perfbench --workload <sssp-live|nav-mix|batch-3d>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--spans <file>]
//
// Prints human-readable notes, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// when --trace 0, the per-layer metrics when --trace 1. Exits 1 when any
// answer disagrees with its oracle, and 3 when the open-loop generator
// ran so late that the latency figures describe it rather than the
// program.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>] [--spans <file>]\n";
  return 2;
}

void print_json(const perfbench::Report& r,
                const std::vector<perfbench::Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_trace = false;
  if (argc % 2 == 0) return usage();
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i], val = argv[i + 1];
      if (key == "--workload") {
        cfg.workload = val;
      } else if (key == "--seed") {
        cfg.seed = std::stoull(val);
      } else if (key == "--seconds") {
        cfg.seconds = std::stod(val);
      } else if (key == "--trace") {
        cfg.trace = val == "1";
        have_trace = val == "0" || val == "1";
      } else if (key == "--workdir") {
        cfg.workdir = val;
      } else if (key == "--spans") {
        cfg.spans_path = val;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (cfg.workload.empty() || !have_trace || !(cfg.seconds > 0)) {
    return usage();
  }
  perfbench::Tracer::get().set_enabled(cfg.trace);

  perfbench::Report r;
  try {
    if (cfg.workload == "sssp-live") {
      r = perfbench::run_sssp_live(cfg);
    } else if (cfg.workload == "nav-mix") {
      r = perfbench::run_nav_mix(cfg);
    } else if (cfg.workload == "batch-3d") {
      r = perfbench::run_batch_3d(cfg);
    } else {
      std::cerr << "unknown workload '" << cfg.workload << "'\n";
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << cfg.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  for (const std::string& line : r.notes) std::printf("  %s\n", line.c_str());
  for (const perfbench::Metric& m : r.end_to_end) {
    std::printf("  e2e   %-28s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (cfg.trace) {
    for (const perfbench::Tracer::SelfTime& t :
         perfbench::Tracer::get().self_times()) {
      std::printf("  self  %-28s n=%-7llu total %11.3f ms  self %11.3f ms\n",
                  t.name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_ms, t.self_ms);
    }
    for (const perfbench::Metric& m : r.layer) {
      std::printf("  layer %-28s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    if (!cfg.spans_path.empty()) {
      perfbench::Tracer::get().write_json(cfg.spans_path);
    }
  }
  print_json(r, cfg.trace ? r.layer : r.end_to_end);
  std::fflush(stdout);
  if (!r.correct()) return 1;
  return r.generator_late ? 3 : 0;
}
