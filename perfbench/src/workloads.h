// The benchmark's workloads. Each fills `report` with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run), plus
// details, and returns the oracle's verdict.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct Outcome {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
};

/// line3-tcp, fig6-inproc, churn-inproc; false when `name` is none of them.
bool is_broker_workload(const std::string& name);
Outcome run_broker_workload(const Args& args, Report& report);

/// sim-fig6.
Outcome run_sim_workload(const Args& args, Report& report);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRuns = 3;

/// An open-loop run is invalid when the generator ends its phase further
/// behind schedule than this (mean lateness of the last 1% of operations):
/// it could not hold the offered rate. In-proc workloads publish and pump
/// on one thread, so there lateness also includes queueing behind earlier
/// operations; only a backlog that keeps growing crosses this bound.
inline constexpr double kMaxBacklogUs = 5000.0;

}  // namespace perfbench
