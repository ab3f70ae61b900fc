// Failover benchmark: what the replication layer costs on the publish hot
// path, and what a failover costs end to end.
//
// Two measurements:
//
//   * publish hot-path delta — per-publish latency (client publish -> every
//     in-proc frame drained, delivery included) with replication OFF vs ON
//     (hot standby attached and streaming), p50/p99 over
//     the same publish count. The delta is the price of mirroring the
//     delivery and link logs through the update stream.
//   * failover — seed a primary with dormant subscriptions and unacked
//     in-flight deliveries, sever the replication link (the kill), then
//     time promote() (identity takeover: epoch adoption + log rebasing)
//     and the gap from kill to the first redelivered event after the
//     subscriber redials the promoted standby. Percentiles over T trials.
//
// Everything is in-proc: the numbers are the CPU cost of the mechanisms
// (codec, log mirroring, rebase, replay), not network latency. The honesty
// contract from the other harnesses applies: the failover section carries
// valid / invalid_reason, and a trial whose redelivered multiset diverges
// from the retained-delivery oracle invalidates the whole run.
//
//   failover_bench [publishes] [trials]
//
// Defaults: 2000 25. CI runs a trimmed point (see tools/ci.sh). Writes
// BENCH_failover.json into the current directory.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "broker/broker.h"
#include "broker/client.h"
#include "broker/inproc_transport.h"
#include "topology/builders.h"

namespace gryphon::bench {
namespace {

constexpr std::uint64_t kPrimaryEpoch = 777;
constexpr std::size_t kDormantSubs = 64;       // pads the registry for rebase cost
constexpr std::size_t kRetainedDeliveries = 32;  // unacked at kill time

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

/// One primary (BrokerId{0}) and, when replication is on, a hot standby
/// constructed with the primary's id — the same harness shape as the
/// replication unit tests, rebuilt fresh per trial.
struct FailoverBed {
  SchemaPtr schema =
      make_schema("trades", {Attribute{"issue", AttributeType::kString, {}},
                             Attribute{"price", AttributeType::kDouble, {}},
                             Attribute{"volume", AttributeType::kInt, {}}});
  BrokerNetwork topo = make_line(2, 10, 0, 1);
  InProcNetwork net;
  std::atomic<Ticks> clock{0};
  std::unique_ptr<Broker> primary;
  std::unique_ptr<Broker> standby;
  std::vector<std::unique_ptr<Client>> clients;
  ConnId repl_conn{kInvalidConn};

  explicit FailoverBed(bool replicate) {
    Broker::Options popts = base_options();
    popts.session_epoch = kPrimaryEpoch;
    primary = make_broker("primary0", BrokerId{0}, popts);
    if (replicate) {
      Broker::Options sopts = base_options();
      sopts.session_epoch = 5555;  // replaced by the snapshot's epoch
      sopts.standby = true;
      sopts.failover_seq_gap = 1000;
      standby = make_broker("standby0", BrokerId{0}, sopts);
      repl_conn = net.connect("standby0", "primary0");
      standby->attach_replication_link(repl_conn);
      net.pump();
    }
  }

  Broker::Options base_options() {
    Broker::Options opts;
    opts.link_retransmit_timeout = 50;
    opts.link_heartbeat_interval = 200;
    opts.clock = [this] { return clock.load(std::memory_order_relaxed); };
    return opts;
  }

  std::unique_ptr<Broker> make_broker(const std::string& name, BrokerId id,
                                      const Broker::Options& opts) {
    auto* endpoint = net.create_endpoint(name);
    auto broker = std::make_unique<Broker>(
        id, topo, std::vector<SchemaPtr>{schema}, *endpoint, opts);
    endpoint->set_handler(broker.get());
    return broker;
  }

  Client& add_client(const std::string& name, const std::string& broker_endpoint,
                     const Client::Options& copts = {}) {
    auto* endpoint = net.create_endpoint(name);
    clients.push_back(std::make_unique<Client>(
        name, *endpoint, std::vector<SchemaPtr>{schema}, copts));
    endpoint->set_handler(clients.back().get());
    clients.back()->bind(net.connect(name, broker_endpoint));
    net.pump();
    return *clients.back();
  }

  Event make_event(int tag) {
    return Event(schema, {Value("IBM"), Value(100.0 + tag), Value(tag)});
  }
};

struct PublishResult {
  std::vector<std::uint64_t> op_ns;
  double seconds{0};
  std::uint64_t updates_streamed{0};
};

/// Times `publishes` single-event publish -> full in-proc drain cycles
/// (subscriber delivery and, when on, the replication frames are inside
/// the timed window — that is the hot path the standby rides).
PublishResult run_publish_path(bool replicate, std::size_t publishes) {
  FailoverBed bed(replicate);
  Client& sub = bed.add_client("sub", "primary0");
  sub.subscribe(0, "volume > 0");
  Client& pub = bed.add_client("pub", "primary0");
  bed.net.pump();

  PublishResult r;
  r.op_ns.reserve(publishes);
  Stopwatch total;
  for (std::size_t i = 0; i < publishes; ++i) {
    const std::uint64_t t0 = now_ns();
    pub.publish(0, bed.make_event(static_cast<int>(i % 1000) + 1));
    bed.net.pump();
    r.op_ns.push_back(now_ns() - t0);
    (void)sub.take_deliveries();
  }
  r.seconds = total.seconds();
  r.updates_streamed = bed.primary->stats().repl_updates_sent;
  return r;
}

struct FailoverResult {
  bool valid{true};
  std::string invalid_reason;
  std::vector<std::uint64_t> promote_ns;
  std::vector<std::uint64_t> redeliver_ns;
};

/// One kill -> promote -> redial -> first-redelivery cycle. The subscriber
/// holds `kRetainedDeliveries` unacked deliveries at kill time; the
/// redelivered multiset must equal that oracle or the run is invalid.
void run_failover_trial(FailoverResult& out) {
  FailoverBed bed(/*replicate=*/true);
  Client::Options no_ack;
  no_ack.auto_ack = false;
  Client& sub = bed.add_client("sub", "primary0", no_ack);
  sub.subscribe(0, "volume > 0 and volume < 1000000");
  // Dormant subscriptions pad the registry: promotion rebases every log and
  // the snapshot carries the whole table, so this is part of the cost.
  for (std::size_t s = 0; s < kDormantSubs; ++s) {
    sub.subscribe(0, "volume > " + std::to_string(1000000 + s));
  }
  Client& pub = bed.add_client("pub", "primary0");
  bed.net.pump();

  std::vector<int> oracle;
  for (std::size_t i = 0; i < kRetainedDeliveries; ++i) {
    const int tag = static_cast<int>(i) + 1;
    oracle.push_back(tag);
    pub.publish(0, bed.make_event(tag));
  }
  bed.net.pump();
  if (sub.take_deliveries().size() != kRetainedDeliveries) {
    out.valid = false;
    out.invalid_reason = "seed deliveries did not all arrive before the kill";
    return;
  }

  // The kill: the replication stream goes silent. Everything from here to
  // the first replayed delivery is the failover cost.
  bed.net.drop("standby0", bed.repl_conn);
  bed.net.pump();
  const std::uint64_t t_kill = now_ns();
  bed.standby->promote();
  out.promote_ns.push_back(now_ns() - t_kill);

  // The consumer restarts (cursor lost) and redials the promoted standby
  // under the same hello name: the retained deliveries replay.
  auto* endpoint = bed.net.create_endpoint("sub_redial");
  Client resumed("sub", *endpoint, std::vector<SchemaPtr>{bed.schema});
  endpoint->set_handler(&resumed);
  resumed.bind(bed.net.connect("sub_redial", "standby0"));
  bed.net.pump();
  const auto replayed = resumed.take_deliveries();
  out.redeliver_ns.push_back(now_ns() - t_kill);

  std::vector<int> got;
  got.reserve(replayed.size());
  for (const auto& d : replayed) {
    got.push_back(static_cast<int>(d.event.value(2).as_int()));
  }
  std::sort(got.begin(), got.end());
  if (got != oracle) {
    out.valid = false;
    out.invalid_reason = "redelivered multiset diverged from the retained-delivery "
                         "oracle (got " +
                         std::to_string(got.size()) + " of " +
                         std::to_string(oracle.size()) + ")";
  }
}

int run(int argc, char** argv) {
  const std::size_t publishes =
      argc > 1 ? static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10)) : 2000;
  const std::size_t trials =
      argc > 2 ? static_cast<std::size_t>(std::strtoull(argv[2], nullptr, 10)) : 25;
  if (publishes == 0 || trials == 0) {
    std::fprintf(stderr, "usage: failover_bench [publishes] [trials]\n");
    return 2;
  }

  print_header("publish hot path: replication off vs on");
  const PublishResult off = run_publish_path(false, publishes);
  const PublishResult on = run_publish_path(true, publishes);
  const double off_p50 = percentile_us(off.op_ns, 0.50);
  const double on_p50 = percentile_us(on.op_ns, 0.50);
  std::printf("  off: p50/p99=%.1f/%.1f us  %.0f publishes/s\n", off_p50,
              percentile_us(off.op_ns, 0.99),
              static_cast<double>(publishes) / off.seconds);
  std::printf("  on:  p50/p99=%.1f/%.1f us  %.0f publishes/s  "
              "(%llu updates streamed)\n",
              on_p50, percentile_us(on.op_ns, 0.99),
              static_cast<double>(publishes) / on.seconds,
              static_cast<unsigned long long>(on.updates_streamed));
  if (off_p50 > 0) {
    std::printf("  p50 overhead: %.2fx\n", on_p50 / off_p50);
  }

  print_header("failover: kill -> promote -> first redelivery");
  FailoverResult fo;
  for (std::size_t t = 0; t < trials && fo.valid; ++t) {
    run_failover_trial(fo);
  }
  std::printf("  trials=%zu retained=%zu dormant_subs=%zu\n", fo.promote_ns.size(),
              kRetainedDeliveries, kDormantSubs);
  std::printf("  promote p50/p99=%.1f/%.1f us  first redelivery p50/p99=%.1f/%.1f us%s\n",
              percentile_us(fo.promote_ns, 0.50), percentile_us(fo.promote_ns, 0.99),
              percentile_us(fo.redeliver_ns, 0.50),
              percentile_us(fo.redeliver_ns, 0.99),
              fo.valid ? "" : "  [INVALID]");
  if (!fo.valid) {
    std::printf("  invalid: %s\n", fo.invalid_reason.c_str());
  }

  std::FILE* out = std::fopen("BENCH_failover.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "failover_bench: cannot write BENCH_failover.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"failover\",\n"
               "  \"description\": \"in-proc CPU cost of the replication layer: "
               "publish hot-path delta with the update stream off vs on, and "
               "kill->promote->first-redelivery latency with unacked deliveries "
               "retained across the failover\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"publishes\": %zu,\n"
               "  \"publish_path\": {\n"
               "    \"off\": { \"p50_us\": %.2f, \"p99_us\": %.2f, "
               "\"publishes_per_sec\": %.1f },\n"
               "    \"on\": { \"p50_us\": %.2f, \"p99_us\": %.2f, "
               "\"publishes_per_sec\": %.1f, \"updates_streamed\": %llu },\n"
               "    \"p50_overhead_ratio\": %.3f\n"
               "  },\n"
               "  \"failover\": {\n"
               "    \"valid\": %s,\n"
               "    \"invalid_reason\": \"%s\",\n"
               "    \"trials\": %zu,\n"
               "    \"retained_deliveries\": %zu,\n"
               "    \"dormant_subscriptions\": %zu,\n"
               "    \"promote_p50_us\": %.2f,\n"
               "    \"promote_p99_us\": %.2f,\n"
               "    \"first_redelivery_p50_us\": %.2f,\n"
               "    \"first_redelivery_p99_us\": %.2f\n"
               "  }\n"
               "}\n",
               std::thread::hardware_concurrency(), publishes, off_p50, percentile_us(off.op_ns, 0.99),
               static_cast<double>(publishes) / off.seconds, on_p50,
               percentile_us(on.op_ns, 0.99),
               static_cast<double>(publishes) / on.seconds,
               static_cast<unsigned long long>(on.updates_streamed),
               off_p50 > 0 ? on_p50 / off_p50 : 0.0, fo.valid ? "true" : "false",
               fo.invalid_reason.c_str(), fo.promote_ns.size(), kRetainedDeliveries,
               kDormantSubs, percentile_us(fo.promote_ns, 0.50),
               percentile_us(fo.promote_ns, 0.99), percentile_us(fo.redeliver_ns, 0.50),
               percentile_us(fo.redeliver_ns, 0.99));
  std::fclose(out);
  std::printf("\nwrote BENCH_failover.json\n");
  return fo.valid ? 0 : 1;
}

}  // namespace
}  // namespace gryphon::bench

int main(int argc, char** argv) { return gryphon::bench::run(argc, argv); }
