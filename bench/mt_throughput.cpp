// Multithreaded matching throughput: N threads dispatching event batches
// against one BrokerCore snapshot concurrently, sweeping the thread count.
//
// The dispatch path shares no mutable state — each batch pins an immutable
// snapshot (one pointer copy under a tiny lock) whose bucket table holds
// the compiled flat kernel (matching/compiled_pst.h), and every
// DispatchBatch owns its MatchScratch — so throughput should scale
// linearly until the machine runs out of cores. The schema is factored
// (factoring_levels = 2), as a production broker's would be. One core is
// built once and every point runs against it, so the thread count is the
// only thing that varies across the sweep.
//
// Each thread count is measured over kWindows windows, visiting the thread
// counts in alternating order (ascending, then descending, ...) so slow
// drift on a shared host does not land on one end of the curve. Each point
// reports the median window and the min/max spread; speedups are ratios
// of medians.
//
// Honesty contract: scaling numbers are only claims about parallel
// hardware. When hardware_concurrency < threads the point is
// oversubscribed timeslicing, and on a 1-core (or unknown-concurrency)
// host no point is parallel at all, so the JSON carries
// "scaling_valid": false plus a human-readable "results_invalid_reason",
// speedup columns are suppressed, and downstream tooling (ci.sh perf leg)
// skips regression comparison entirely.
//
// Writes BENCH_mt_throughput.json to the working directory.
//
// Usage: mt_throughput [subscriptions] [duration_ms_per_window] [max_threads]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "broker/broker_core.h"
#include "topology/builders.h"

namespace gryphon {
namespace {

constexpr std::size_t kBatchSize = 32;
constexpr int kWindows = 5;  // per thread count

struct Point {
  std::size_t threads;
  std::uint64_t events{0};
  std::vector<double> windows;  // events/sec of each window

  [[nodiscard]] double median() const {
    std::vector<double> sorted = windows;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
  }
  [[nodiscard]] double min() const { return *std::min_element(windows.begin(), windows.end()); }
  [[nodiscard]] double max() const { return *std::max_element(windows.begin(), windows.end()); }
};

/// Builds the factored core every point dispatches against, loaded with a
/// deterministic subscription set.
std::unique_ptr<BrokerCore> make_core(const SchemaPtr& schema, const BrokerNetwork& topo,
                                      std::size_t n_subs) {
  PstMatcherOptions matcher;
  matcher.factoring_levels = 2;
  auto core = std::make_unique<BrokerCore>(BrokerId{1}, topo,
                                           std::vector<SchemaPtr>{schema}, matcher);
  core->control_plane().assert_serialized();  // single-threaded load
  Rng rng(4242);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.95, 0.85, 1.0});
  for (std::size_t i = 0; i < n_subs; ++i) {
    const BrokerId owner{static_cast<BrokerId::rep_type>(rng.below(3))};
    core->add_subscription(SpaceId{0}, SubscriptionId{static_cast<std::int64_t>(i)},
                           gen.generate(rng), owner);
  }
  return core;
}

/// One measurement window: `n_threads` threads drain batches for
/// `duration_ms`; adds the window's rate and event count to `point`.
void run_window(const BrokerCore& core, const std::vector<Event>& pool, std::size_t n_threads,
                int duration_ms, Point& point) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  bench::Stopwatch watch;
  for (std::size_t t = 0; t < n_threads; ++t) {
    threads.emplace_back([&, t] {
      DispatchBatch batch;  // owns the per-thread memoization arena
      std::uint64_t local = 0;
      std::size_t i = t * 7919;  // decorrelate the event streams
      while (!stop.load(std::memory_order_relaxed)) {
        batch.clear();
        for (std::size_t b = 0; b < kBatchSize; ++b) {
          batch.add(SpaceId{0}, pool[i++ % pool.size()], BrokerId{0});
        }
        const std::span<const Decision> decisions = core.dispatch(batch);
        for (const Decision& d : decisions) {
          if (d.steps == 0 && !d.forward.empty()) std::abort();  // keep `d` live
        }
        local += decisions.size();
      }
      total.fetch_add(local, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();
  const double seconds = watch.seconds();
  point.events += total.load();
  point.windows.push_back(static_cast<double>(total.load()) / seconds);
}

}  // namespace
}  // namespace gryphon

int main(int argc, char** argv) {
  using namespace gryphon;
  const std::size_t n_subs =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 10000;
  const int duration_ms = argc > 2 ? std::atoi(argv[2]) : 1000;
  const std::size_t max_threads =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 16;

  const auto schema = make_synthetic_schema(8, 4);
  const BrokerNetwork topo = make_line(3, 10, 0, 1);

  Rng rng(99);
  EventGenerator events(schema);
  std::vector<Event> pool;
  pool.reserve(4096);
  for (std::size_t i = 0; i < 4096; ++i) pool.push_back(events.generate(rng));

  const unsigned hw = std::thread::hardware_concurrency();
  // With a single core (or when hardware_concurrency is unknown, reported
  // as 0) every multi-thread point is pure timeslicing, so no scaling
  // claim is published at all; on real multi-core hosts, only points with
  // threads <= hardware_concurrency carry a speedup.
  const bool scaling_valid = hw > 1;
  const char* invalid_reason =
      hw == 0 ? "hardware_concurrency unknown (reported 0): parallelism unmeasurable"
              : "single hardware thread: multi-thread points are timeslicing, not scaling";
  bench::print_header("Multithreaded batch dispatch throughput");
  std::printf(
      "subscriptions=%zu  hardware_concurrency=%u  window=%dms  windows/point=%d  "
      "batch=%zu\n",
      n_subs, hw, duration_ms, kWindows, kBatchSize);

  const auto core = make_core(schema, topo, n_subs);
  std::vector<Point> points;
  for (const std::size_t t : {1u, 2u, 4u, 8u, 16u}) {
    if (t <= max_threads) points.push_back(Point{t});
  }
  for (int w = 0; w < kWindows; ++w) {
    // Alternate the visiting order so drift averages out across points.
    for (std::size_t k = 0; k < points.size(); ++k) {
      Point& p = points[w % 2 == 0 ? k : points.size() - 1 - k];
      run_window(*core, pool, p.threads, duration_ms, p);
    }
  }

  if (!scaling_valid) std::printf("%s (scaling_valid=false)\n", invalid_reason);
  std::printf("%8s %16s %14s %14s %14s %10s\n", "threads", "events", "median ev/s",
              "min ev/s", "max ev/s", "speedup");
  const double base = points.empty() ? 0.0 : points.front().median();
  for (const Point& p : points) {
    char speedup[32] = "-";
    if (scaling_valid && p.threads <= hw) {
      std::snprintf(speedup, sizeof speedup, "%.2fx", p.median() / base);
    } else if (scaling_valid) {
      std::snprintf(speedup, sizeof speedup, "oversub");
    }
    std::printf("%8zu %16llu %14.0f %14.0f %14.0f %10s\n", p.threads,
                static_cast<unsigned long long>(p.events), p.median(), p.min(), p.max(),
                speedup);
  }

  std::FILE* out = std::fopen("BENCH_mt_throughput.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "mt_throughput: cannot write BENCH_mt_throughput.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"mt_throughput\",\n"
               "  \"kernel\": \"compiled\",\n"
               "  \"dispatch\": \"batch\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"scaling_valid\": %s,\n",
               hw, scaling_valid ? "true" : "false");
  if (!scaling_valid) {
    std::fprintf(out, "  \"results_invalid_reason\": \"%s\",\n", invalid_reason);
  }
  std::fprintf(out,
               "  \"subscriptions\": %zu,\n"
               "  \"duration_ms_per_window\": %d,\n"
               "  \"windows_per_point\": %d,\n"
               "  \"batch_size\": %zu,\n"
               "  \"results\": [\n",
               n_subs, duration_ms, kWindows, kBatchSize);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(out,
                 "    {\"threads\": %zu, \"events\": %llu, \"events_per_sec_median\": %.1f, "
                 "\"events_per_sec_min\": %.1f, \"events_per_sec_max\": %.1f",
                 p.threads, static_cast<unsigned long long>(p.events), p.median(), p.min(),
                 p.max());
    // A speedup is a parallel-hardware claim: emitted only when this host
    // can actually run the point's threads simultaneously.
    if (scaling_valid && p.threads <= hw) {
      std::fprintf(out, ", \"speedup_vs_1\": %.3f", p.median() / base);
    }
    std::fprintf(out, "}%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_mt_throughput.json\n");
  return 0;
}
