// Shared helpers of the perfbench program: clocks, quantiles, the metric
// report and the run's command-line arguments.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (steady_clock), the one time base of every span,
/// schedule and delivery stamp.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Sleeps until `deadline_ns`, spinning through the last stretch so an
/// open-loop generator lands within a few microseconds of its schedule.
void wait_until(std::int64_t deadline_ns);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// The benchmark's robust statistics. A measured phase is cut into
/// kWindows consecutive windows of equal length, a figure is computed per
/// window, and the reported value is the figure of the quieter windows: the
/// kQuietRank quantile of per-window latencies, or the (1 - kQuietRank)
/// quantile of per-window rates. The host's speed swings up to 2x within
/// seconds when neighbours are busy; a change to the program moves every
/// window, so it still shows, while a neighbour's burst moves only some.
inline constexpr std::size_t kWindows = 20;
inline constexpr double kQuietRank = 0.25;

/// Quantile q of each of kWindows consecutive slices of a time-ordered
/// sample, then the kQuietRank quantile of those.
double windowed_quantile(const std::vector<double>& ordered, double q);

/// Completions per second of a closed loop over kWindows equal windows;
/// rate() is the (1 - kQuietRank) quantile of the per-window rates.
class WindowedRate {
 public:
  WindowedRate(std::int64_t start_ns, double seconds);
  /// Records the cumulative completion count; call often, at least once at
  /// or after the end of the last window.
  void observe(std::uint64_t completed, std::int64_t at_ns);
  [[nodiscard]] double rate() const;

 private:
  std::int64_t start_ns_;
  double window_ns_;
  std::vector<std::uint64_t> marks_;  // completions at each window boundary
};

/// Peak resident set size of this process, in MiB (getrusage).
double peak_rss_mb();

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Directory for the result details and the span dump.
  std::string out_dir{".bench_build/perfbench-out"};
};

/// Named metrics with units, printed as the run's result.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const { return metrics_.contains(name); }
  [[nodiscard]] std::size_t metric_count() const { return metrics_.size(); }
  /// Free-form details (provenance, sample counts, paper-named figures).
  void detail(const std::string& name, double value);
  void detail(const std::string& name, const std::string& value);

  [[nodiscard]] std::string metrics_json() const;
  [[nodiscard]] std::string details_json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> details_;  // pre-rendered JSON values
};

/// JSON number with full precision (finite values only; NaN/inf become 0).
std::string json_number(double value);
std::string json_string(const std::string& value);

}  // namespace perfbench
