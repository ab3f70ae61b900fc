// Shared helpers for the chart-reproduction benchmark harnesses.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "sim/simulation.h"

namespace gryphon::bench {

/// Wall-clock stopwatch in seconds.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// The paper's simulation workload (Section 4.1) as a declarative spec:
/// random equality subscriptions over the synthetic schema, with per-region
/// locality of interest on the Figure 6 topology, and zipf-valued events.
inline SimSpec paper_spec(std::size_t attributes, std::size_t values, double decay,
                          std::size_t n_subscriptions, std::size_t n_events,
                          std::uint64_t seed) {
  SimSpec spec;
  spec.seed = seed;
  spec.attributes = attributes;
  spec.values_per_attribute = values;
  spec.topology.kind = TopologyKind::kFigure6;
  spec.workload.subscriptions = n_subscriptions;
  spec.workload.events = n_events;
  spec.workload.subscription_config = SubscriptionWorkloadConfig{0.98, decay, 1.0};
  return spec;
}

/// Resident set size of this process now, in MiB (0 when unreadable).
inline double current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long total = 0;
  unsigned long long resident = 0;
  const int read = std::fscanf(f, "%llu %llu", &total, &resident);
  std::fclose(f);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// Peak resident set size of this process so far, in MiB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace gryphon::bench
