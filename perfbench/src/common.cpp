#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

void wait_until(std::int64_t deadline_ns) {
  constexpr std::int64_t kSpinNs = 200'000;
  for (;;) {
    const std::int64_t left = deadline_ns - now_ns();
    if (left <= 0) return;
    if (left > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
    }
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double windowed_quantile(const std::vector<double>& ordered, double q) {
  if (ordered.size() < kWindows) return quantile(ordered, q);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const auto begin = ordered.begin() + static_cast<std::ptrdiff_t>(w * ordered.size() / kWindows);
    const auto end =
        ordered.begin() + static_cast<std::ptrdiff_t>((w + 1) * ordered.size() / kWindows);
    per_window.push_back(quantile(std::vector<double>(begin, end), q));
  }
  return quantile(std::move(per_window), kQuietRank);
}

WindowedRate::WindowedRate(std::int64_t start_ns, double seconds)
    : start_ns_(start_ns), window_ns_(seconds * 1e9 / static_cast<double>(kWindows)),
      marks_{0} {}

void WindowedRate::observe(std::uint64_t completed, std::int64_t at_ns) {
  while (marks_.size() <= kWindows &&
         static_cast<double>(at_ns - start_ns_) >=
             window_ns_ * static_cast<double>(marks_.size())) {
    marks_.push_back(completed);
  }
}

double WindowedRate::rate() const {
  std::vector<double> rates;
  for (std::size_t w = 1; w < marks_.size(); ++w) {
    rates.push_back(static_cast<double>(marks_[w] - marks_[w - 1]) / (window_ns_ * 1e-9));
  }
  return quantile(std::move(rates), 1.0 - kQuietRank);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::detail(const std::string& name, double value) {
  details_[name] = json_number(value);
}

void Report::detail(const std::string& name, const std::string& value) {
  details_[name] = json_string(value);
}

std::string Report::metrics_json() const {
  std::string out = "{";
  for (const auto& [name, metric] : metrics_) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}";
}

std::string Report::details_json() const {
  std::string out = "{";
  for (const auto& [name, value] : details_) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": " + value;
  }
  return out + "}";
}

}  // namespace perfbench
