// The three benchmark workloads. Each builds its inputs from the seed,
// sets up the program several times, drives its timed window, checks
// the answers against an oracle and, in traced runs, probes the layers
// beneath the front door it used.
#pragma once

#include "harness.hpp"

namespace perfbench {

Report run_sssp_live(const RunConfig& cfg);
Report run_nav_mix(const RunConfig& cfg);
Report run_batch_3d(const RunConfig& cfg);

}  // namespace perfbench
