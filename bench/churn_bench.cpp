// Control-plane churn benchmark: covering aggregation + delta compilation.
//
// Measures what the covering-aware control plane buys under subscription
// churn, at 10k / 100k / 1M live subscriptions:
//
//   * full-recompile vs delta-compile publish latency (p50/p99 over the
//     same op sequence — "full" pins the space to a single delta segment,
//     so every frontier mutation refreezes the whole space; "delta" slices
//     the frontier so a mutation refreezes ~1/64th),
//   * the covering aggregation ratio (parked / total) the workload yields,
//   * sustained churn ops/sec while reader threads dispatch events against
//     the live snapshots (reported with the same honesty contract as
//     mt_throughput: claims need real cores, so `concurrent.valid` is
//     false on single-core hosts and carries an invalid_reason).
//
// Workload: a "churn" schema with a 1024-value key attribute (always an
// equality test, so the frontier stays wide and compile work is honest
// even at 1M subscriptions) plus seven small-domain attributes tested with
// decaying probability (so covering has real containment to find). Owners
// are remote brokers only: locally-owned subscriptions bypass covering by
// design (they always compile, for client delivery), and the population
// the mechanism targets is the propagated remote table of a transit
// broker. Both modes replay the identical subscription sequence from the
// same seed.
//
//   churn_bench [max_subs] [churn_pairs] [concurrent_seconds]
//
// Defaults: 1000000 150 2.0. CI runs a trimmed point (see tools/ci.sh);
// run with no arguments for the full acceptance measurement. Writes
// BENCH_churn.json into the current directory.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "broker/broker_core.h"
#include "common/rng.h"
#include "event/subscription.h"
#include "topology/builders.h"
#include "workload/generators.h"

namespace gryphon::bench {
namespace {

constexpr SpaceId kSpace0{0};
constexpr std::size_t kKeyDomain = 1024;
constexpr std::size_t kSmallDomain = 4;
constexpr std::size_t kSmallAttributes = 7;
constexpr std::uint64_t kSeed = 20260809;

SchemaPtr make_churn_schema() {
  std::vector<Attribute> attrs;
  Attribute key{"k0", AttributeType::kInt, {}};
  for (std::size_t v = 0; v < kKeyDomain; ++v) {
    key.domain.emplace_back(static_cast<std::int64_t>(v));
  }
  attrs.push_back(std::move(key));
  for (std::size_t a = 1; a <= kSmallAttributes; ++a) {
    Attribute attr{"a" + std::to_string(a), AttributeType::kInt, {}};
    for (std::size_t v = 0; v < kSmallDomain; ++v) {
      attr.domain.emplace_back(static_cast<std::int64_t>(v));
    }
    attrs.push_back(std::move(attr));
  }
  return make_schema("churn", std::move(attrs));
}

/// Key equality always; small attributes tested with decaying probability
/// (0.9, x0.85 per level) so later attributes go don't-care often enough
/// for subsumption to park a healthy fraction of the load.
Subscription generate_subscription(Rng& rng, const SchemaPtr& schema) {
  std::vector<AttributeTest> tests;
  tests.reserve(schema->attribute_count());
  tests.push_back(
      AttributeTest::equals(Value(static_cast<std::int64_t>(rng.below(kKeyDomain)))));
  double p = 0.9;
  for (std::size_t a = 1; a < schema->attribute_count(); ++a) {
    if (rng.chance(p)) {
      tests.push_back(
          AttributeTest::equals(Value(static_cast<std::int64_t>(rng.below(kSmallDomain)))));
    } else {
      tests.push_back(AttributeTest::dont_care());
    }
    p *= 0.85;
  }
  return Subscription(schema, tests);
}

/// A neighbor of the self broker (BrokerId{1} on the 3-line): covering
/// parks only remote-owned subscriptions, so the churn population is
/// drawn entirely from the two remote brokers.
BrokerId remote_owner(Rng& rng) {
  return BrokerId{static_cast<BrokerId::rep_type>(rng.below(2) * 2)};
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double percentile_us(std::vector<std::uint64_t> ns, double p) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(ns.size() - 1) + 0.5);
  return static_cast<double>(ns[std::min(idx, ns.size() - 1)]) / 1000.0;
}

struct ModeResult {
  std::size_t segments{0};
  std::size_t frontier{0};
  std::size_t covered{0};
  double load_seconds{0};
  double bulk_publish_seconds{0};
  double churn_seconds{0};
  std::size_t ops{0};
  std::size_t compile_ops{0};
  std::vector<std::uint64_t> op_ns;
  std::vector<std::uint64_t> compile_ns;
  ControlPlaneStats stats;
};

/// Bulk-loads `n_subs` subscriptions (deferred, one publish), then replays
/// `churn_pairs` add+remove pairs with per-op latency sampling. Ops whose
/// publish froze at least one tree are classified as compile ops via the
/// compile_publishes counter (read outside the timed window). When dense
/// covering makes compile ops rare (most churn parks without touching a
/// tree), a trimmed pair budget can draw zero compile samples and the
/// full-vs-delta comparison goes vacuous — so the loop keeps replaying
/// pairs (up to `max_pairs`) until it holds `min_compile_samples` of them.
ModeResult run_mode(const SchemaPtr& schema, const BrokerNetwork& topo, std::size_t n_subs,
                    std::size_t churn_pairs, const ControlPlaneOptions& control,
                    std::size_t min_compile_samples = 0, std::size_t max_pairs = 0) {
  if (max_pairs < churn_pairs) max_pairs = churn_pairs;
  BrokerCore core(BrokerId{1}, topo, {schema}, PstMatcherOptions(), control);
  core.control_plane().assert_serialized();
  Rng rng(kSeed);

  ModeResult r;
  Stopwatch load;
  for (std::size_t i = 0; i < n_subs; ++i) {
    core.add_subscription(kSpace0, SubscriptionId{static_cast<std::int64_t>(i)},
                          generate_subscription(rng, schema),
                          remote_owner(rng),
                          SnapshotPolicy::kDefer);
  }
  r.load_seconds = load.seconds();
  Stopwatch publish;
  core.publish_space(kSpace0);
  r.bulk_publish_seconds = publish.seconds();

  const auto timed_op = [&](auto&& op) {
    const std::uint64_t before = core.control_plane_stats().compile_publishes;
    const std::uint64_t t0 = now_ns();
    op();
    const std::uint64_t elapsed = now_ns() - t0;
    const bool compiled = core.control_plane_stats().compile_publishes > before;
    r.op_ns.push_back(elapsed);
    if (compiled) r.compile_ns.push_back(elapsed);
    ++r.ops;
    if (compiled) ++r.compile_ops;
  };

  Stopwatch churn;
  for (std::size_t pair = 0;
       pair < churn_pairs || (r.compile_ops < min_compile_samples && pair < max_pairs);
       ++pair) {
    const SubscriptionId id{static_cast<std::int64_t>(n_subs + pair)};
    const Subscription s = generate_subscription(rng, schema);
    const BrokerId owner = remote_owner(rng);
    timed_op([&] { core.add_subscription(kSpace0, id, s, owner); });
    timed_op([&] { core.remove_subscription(id); });
  }
  r.churn_seconds = churn.seconds();

  r.segments = core.segment_count(kSpace0);
  r.frontier = core.frontier_count(kSpace0);
  r.covered = core.covered_count(kSpace0);
  r.stats = core.control_plane_stats();
  return r;
}

struct ConcurrentResult {
  bool valid{false};
  std::string invalid_reason;
  std::size_t subscriptions{0};
  unsigned readers{0};
  double seconds{0};
  std::uint64_t churn_ops{0};
  std::uint64_t events_dispatched{0};
  std::uint64_t local_matches{0};
};

/// Sustained churn absorption while the data plane stays under load:
/// reader threads dispatch events against the live snapshots (pin /
/// match / release, no locks) while the control plane replays add+remove
/// pairs for `duration_seconds`.
ConcurrentResult run_concurrent(const SchemaPtr& schema, const BrokerNetwork& topo,
                                std::size_t n_subs, const ControlPlaneOptions& control,
                                double duration_seconds) {
  ConcurrentResult r;
  r.subscriptions = n_subs;
  r.readers = 2;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 2) {
    r.valid = true;
  } else {
    r.invalid_reason =
        "hardware_concurrency < 2: readers and the churn writer time-slice one "
        "core, so the sustained-churn-under-load figure measures scheduling, "
        "not concurrency";
  }

  BrokerCore core(BrokerId{1}, topo, {schema}, PstMatcherOptions(), control);
  core.control_plane().assert_serialized();
  Rng rng(kSeed + 1);
  for (std::size_t i = 0; i < n_subs; ++i) {
    core.add_subscription(kSpace0, SubscriptionId{static_cast<std::int64_t>(i)},
                          generate_subscription(rng, schema),
                          remote_owner(rng),
                          SnapshotPolicy::kDefer);
  }
  core.publish_space(kSpace0);

  std::vector<Event> pool;
  {
    EventGenerator events(schema);
    for (int i = 0; i < 256; ++i) pool.push_back(events.generate(rng));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> dispatched{0};
  std::atomic<std::uint64_t> matched{0};
  std::vector<std::thread> readers;
  readers.reserve(r.readers);
  for (unsigned t = 0; t < r.readers; ++t) {
    readers.emplace_back([&, t] {
      MatchScratch scratch;
      std::uint64_t local_dispatched = 0;
      std::uint64_t local_matched = 0;
      for (std::size_t i = t; !stop.load(std::memory_order_relaxed); ++i) {
        const Decision d =
            core.dispatch(kSpace0, pool[i % pool.size()], BrokerId{0}, scratch);
        ++local_dispatched;
        local_matched += d.local_matches.size();
      }
      dispatched.fetch_add(local_dispatched, std::memory_order_relaxed);
      matched.fetch_add(local_matched, std::memory_order_relaxed);
    });
  }

  Stopwatch clock;
  std::int64_t next_id = static_cast<std::int64_t>(n_subs);
  while (clock.seconds() < duration_seconds) {
    const SubscriptionId id{next_id++};
    core.add_subscription(kSpace0, id, generate_subscription(rng, schema),
                          remote_owner(rng));
    core.remove_subscription(id);
    r.churn_ops += 2;
  }
  r.seconds = clock.seconds();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  r.events_dispatched = dispatched.load();
  r.local_matches = matched.load();
  return r;
}

void print_mode(const char* mode, const ModeResult& r) {
  std::printf(
      "  %-5s segments=%zu frontier=%zu covered=%zu load=%.2fs bulk_publish=%.3fs\n"
      "        churn ops=%zu (compile=%zu) op p50/p99=%.1f/%.1f us "
      "compile p50/p99=%.1f/%.1f us\n",
      mode, r.segments, r.frontier, r.covered, r.load_seconds, r.bulk_publish_seconds,
      r.ops, r.compile_ops, percentile_us(r.op_ns, 0.50), percentile_us(r.op_ns, 0.99),
      percentile_us(r.compile_ns, 0.50), percentile_us(r.compile_ns, 0.99));
}

void write_mode_json(std::FILE* out, const char* mode, const ModeResult& r) {
  std::fprintf(out,
               "      \"%s\": {\n"
               "        \"segments\": %zu,\n"
               "        \"load_seconds\": %.4f,\n"
               "        \"bulk_publish_seconds\": %.6f,\n"
               "        \"churn_ops\": %zu,\n"
               "        \"compile_ops\": %zu,\n"
               "        \"churn_ops_per_sec\": %.1f,\n"
               "        \"op_p50_us\": %.2f,\n"
               "        \"op_p99_us\": %.2f,\n"
               "        \"compile_p50_us\": %.2f,\n"
               "        \"compile_p99_us\": %.2f,\n"
               "        \"delta_publishes\": %llu,\n"
               "        \"full_publishes\": %llu,\n"
               "        \"segments_compiled\": %llu,\n"
               "        \"segments_reused\": %llu\n"
               "      }",
               mode, r.segments, r.load_seconds, r.bulk_publish_seconds, r.ops,
               r.compile_ops,
               r.churn_seconds > 0 ? static_cast<double>(r.ops) / r.churn_seconds : 0.0,
               percentile_us(r.op_ns, 0.50), percentile_us(r.op_ns, 0.99),
               percentile_us(r.compile_ns, 0.50), percentile_us(r.compile_ns, 0.99),
               static_cast<unsigned long long>(r.stats.delta_publishes),
               static_cast<unsigned long long>(r.stats.full_publishes),
               static_cast<unsigned long long>(r.stats.segments_compiled),
               static_cast<unsigned long long>(r.stats.segments_reused));
}

int run(int argc, char** argv) {
  const std::size_t max_subs =
      argc > 1 ? static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10)) : 1000000;
  const std::size_t churn_pairs =
      argc > 2 ? static_cast<std::size_t>(std::strtoull(argv[2], nullptr, 10)) : 150;
  const double concurrent_seconds = argc > 3 ? std::strtod(argv[3], nullptr) : 2.0;
  if (max_subs == 0 || churn_pairs == 0) {
    std::fprintf(stderr, "usage: churn_bench [max_subs] [churn_pairs] [concurrent_seconds]\n");
    return 2;
  }

  std::vector<std::size_t> sizes;
  for (const std::size_t n : {std::size_t{10000}, std::size_t{100000}, std::size_t{1000000}}) {
    if (n <= max_subs) sizes.push_back(n);
  }
  if (sizes.empty()) sizes.push_back(max_subs);

  const SchemaPtr schema = make_churn_schema();
  const BrokerNetwork topo = make_line(3, 10, 0, 1);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("churn_bench: sizes up to %zu, %zu churn pairs, hw=%u\n", sizes.back(),
              churn_pairs, hw);

  struct SizePoint {
    std::size_t n;
    ModeResult full;
    ModeResult delta;
  };
  std::vector<SizePoint> points;
  for (const std::size_t n : sizes) {
    print_header("churn @ " + std::to_string(n) + " subscriptions");

    // Full-recompile baseline: the slice layout is pinned to one segment,
    // so every frontier mutation refreezes the whole space. Trim the pair
    // count at 1M — each compile op is a whole-frontier freeze — but keep
    // replaying (up to the untrimmed budget) until at least 8 ops actually
    // compiled: dense covering parks most churn, and a fixed trim can
    // otherwise sample zero compiles.
    ControlPlaneOptions full_control;
    full_control.delta_segment_target = n + 1;
    full_control.max_delta_segments = 1;
    const std::size_t full_pairs = n >= 1000000 ? std::min<std::size_t>(churn_pairs, 10)
                                                : churn_pairs;
    SizePoint point;
    point.n = n;
    point.full = run_mode(schema, topo, n, full_pairs, full_control,
                          full_pairs < churn_pairs ? 8 : 0, churn_pairs);
    print_mode("full", point.full);

    // Delta mode: target sized so the frontier spreads over ~64 slices.
    ControlPlaneOptions delta_control;
    delta_control.delta_segment_target = std::max<std::size_t>(256, n / 512);
    delta_control.max_delta_segments = 64;
    point.delta = run_mode(schema, topo, n, churn_pairs, delta_control);
    print_mode("delta", point.delta);

    const double full_p99 = percentile_us(point.full.compile_ns, 0.99);
    const double delta_p99 = percentile_us(point.delta.compile_ns, 0.99);
    if (delta_p99 > 0) {
      std::printf("  compile p99 speedup (full/delta): %.1fx\n", full_p99 / delta_p99);
    }
    points.push_back(std::move(point));
  }

  print_header("concurrent churn under matching load");
  const std::size_t concurrent_subs = std::min<std::size_t>(max_subs, 100000);
  ControlPlaneOptions concurrent_control;
  concurrent_control.delta_segment_target = std::max<std::size_t>(256, concurrent_subs / 512);
  concurrent_control.max_delta_segments = 64;
  const ConcurrentResult conc =
      run_concurrent(schema, topo, concurrent_subs, concurrent_control, concurrent_seconds);
  std::printf("  subs=%zu readers=%u %.2fs: %.0f churn ops/s, %.0f dispatches/s%s\n",
              conc.subscriptions, conc.readers, conc.seconds,
              static_cast<double>(conc.churn_ops) / conc.seconds,
              static_cast<double>(conc.events_dispatched) / conc.seconds,
              conc.valid ? "" : "  [INVALID: single-core host]");

  std::FILE* out = std::fopen("BENCH_churn.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "churn_bench: cannot write BENCH_churn.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"churn\",\n"
               "  \"description\": \"covering aggregation + delta compilation under "
               "subscription churn; full pins one delta segment (whole-space refreeze), "
               "delta slices the frontier over up to 64 segments\",\n"
               "  \"schema\": \"k0:int(1024) + 7x int(4), key always equality\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"churn_pairs\": %zu,\n"
               "  \"peak_rss_mb\": %.1f,\n"
               "  \"sizes\": [\n",
               hw, churn_pairs, peak_rss_mb());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SizePoint& p = points[i];
    const std::size_t total = p.delta.frontier + p.delta.covered;
    const double full_p99 = percentile_us(p.full.compile_ns, 0.99);
    const double delta_p99 = percentile_us(p.delta.compile_ns, 0.99);
    std::fprintf(out,
                 "    {\n"
                 "      \"subscriptions\": %zu,\n"
                 "      \"frontier\": %zu,\n"
                 "      \"covered\": %zu,\n"
                 "      \"covering_ratio\": %.4f,\n",
                 p.n, p.delta.frontier, p.delta.covered,
                 total > 0 ? static_cast<double>(p.delta.covered) / static_cast<double>(total)
                           : 0.0);
    write_mode_json(out, "full", p.full);
    std::fprintf(out, ",\n");
    write_mode_json(out, "delta", p.delta);
    std::fprintf(out,
                 ",\n      \"compile_p99_speedup\": %.2f\n    }%s\n",
                 delta_p99 > 0 ? full_p99 / delta_p99 : 0.0,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"concurrent\": {\n"
               "    \"valid\": %s,\n"
               "    \"invalid_reason\": \"%s\",\n"
               "    \"subscriptions\": %zu,\n"
               "    \"reader_threads\": %u,\n"
               "    \"duration_seconds\": %.2f,\n"
               "    \"churn_ops_per_sec\": %.1f,\n"
               "    \"events_dispatched_per_sec\": %.1f,\n"
               "    \"local_matches\": %llu\n"
               "  }\n"
               "}\n",
               conc.valid ? "true" : "false", conc.invalid_reason.c_str(),
               conc.subscriptions, conc.readers, conc.seconds,
               static_cast<double>(conc.churn_ops) / conc.seconds,
               static_cast<double>(conc.events_dispatched) / conc.seconds,
               static_cast<unsigned long long>(conc.local_matches));
  std::fclose(out);
  std::printf("\nwrote BENCH_churn.json\n");
  return 0;
}

}  // namespace
}  // namespace gryphon::bench

int main(int argc, char** argv) { return gryphon::bench::run(argc, argv); }
