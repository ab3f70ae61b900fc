// The broker workloads: the real Broker/Client stack driven through its
// public API, open loop at a fixed offered rate, then closed loop for
// capacity, then checked by the delivery oracle.
//
// Run shape (untraced): set up kSetupRuns times (setup_s is the median; the
// last network is kept), run the open loop for half of --seconds, the closed
// loop for the other half, drain, check. Traced: set up once with tracing
// on, run the open loop untraced for half of --seconds, then traced for the
// other half (the difference is the tracing overhead), drain, check, and
// replay the layers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <thread>

#include "cluster.h"
#include "common/rng.h"
#include "inputs.h"
#include "layers.h"
#include "oracle.h"
#include "topology/builders.h"
#include "topology/routing_table.h"
#include "topology/spanning_tree.h"
#include "workloads.h"

namespace perfbench {

using namespace gryphon;

namespace {

struct Config {
  const char* name;
  Wire wire;
  bool figure6;               // else the 3-broker line
  std::size_t subscriptions;  // paper-style selective subscriptions
  bool catch_all;             // plus a match-all at each region's farthest subscriber
  std::size_t payload_bytes;
  std::size_t match_threads;
  double rate_eps;            // open-loop offered rate (events or operations /s)
  std::size_t churn_every;    // every n-th operation subscribes or unsubscribes (0 = none)
  std::size_t window;         // TCP closed loop: events in flight
};

constexpr Config kConfigs[] = {
    {"line3-tcp", Wire::kTcp, false, 1000, true, 0, 1, 2000.0, 0, 256},
    {"fig6-inproc", Wire::kInProc, true, 150, true, 1024, 0, 1000.0, 0, 0},
    {"churn-inproc", Wire::kInProc, false, 1000, false, 0, 0, 1000.0, 25, 0},
};

/// Distinct base events; publication k sends pool[k % kPoolSize] with id k.
constexpr std::size_t kPoolSize = 4096;
/// Share of --seconds spent in the open loop (the rest is the closed loop).
constexpr double kOpenShare = 0.5;
/// Closed loops hand buffered deliveries to the check every this many events.
constexpr std::uint64_t kDrainEvery = 256;
/// Open loops collect deliveries only when the next send is this far off.
constexpr std::int64_t kSlackNs = 300'000;
/// Events replayed per layer in the traced run.
constexpr std::size_t kReplayEvents = 1000;
constexpr int kMaxHop = 5;

enum Phase : std::uint8_t { kOpen = 0, kTraced = 1, kClosed = 2 };

/// Who sits where: the broker topology, each client's home broker, which
/// clients publish and which subscribe, and tree hop counts.
struct Layout {
  BrokerNetwork topology;
  std::vector<BrokerId> homes;          // per client
  std::vector<std::size_t> publishers;  // client indices
  std::vector<std::size_t> subscribers; // client indices
  std::vector<std::uint32_t> region;    // locality region per client
  std::vector<std::size_t> far_subscribers;  // one per region, farthest from publishers
  std::vector<std::vector<int>> hops;   // [tree root][broker]: broker links crossed
};

Layout make_layout(const Config& config) {
  Layout layout;
  std::vector<int> region_of;
  std::vector<BrokerId> publisher_brokers;
  std::vector<BrokerId> far_brokers;
  if (config.figure6) {
    Figure6Options options;
    options.clients_per_broker = 0;
    Figure6Topology fig = make_figure6(options);
    layout.topology = std::move(fig.network);
    region_of = fig.region_of;
    publisher_brokers = fig.publisher_brokers;
    for (const auto& leaves : fig.leaves) far_brokers.push_back(leaves.back());
  } else {
    layout.topology = make_line(3, ticks_from_millis(1.0), 0, 0);
    region_of.assign(3, 0);
    publisher_brokers = {BrokerId{0}};
    far_brokers = {BrokerId{2}};
  }
  const std::size_t brokers = layout.topology.broker_count();
  for (const BrokerId b : publisher_brokers) {
    layout.publishers.push_back(layout.homes.size());
    layout.homes.push_back(b);
  }
  for (std::size_t b = 0; b < brokers; ++b) {
    layout.subscribers.push_back(layout.homes.size());
    layout.homes.push_back(BrokerId{static_cast<BrokerId::rep_type>(b)});
  }
  for (const BrokerId b : far_brokers) {
    layout.far_subscribers.push_back(layout.subscribers[static_cast<std::size_t>(b.value)]);
  }
  for (const BrokerId home : layout.homes) {
    layout.region.push_back(static_cast<std::uint32_t>(region_of[static_cast<std::size_t>(home.value)]));
  }
  const RoutingTable routing(layout.topology);
  layout.hops.assign(brokers, std::vector<int>(brokers, 0));
  for (std::size_t r = 0; r < brokers; ++r) {
    const SpanningTree tree(layout.topology, routing, BrokerId{static_cast<BrokerId::rep_type>(r)});
    for (std::size_t b = 0; b < brokers; ++b) {
      int hops = 0;
      for (BrokerId at{static_cast<BrokerId::rep_type>(b)}; tree.parent(at).valid();
           at = tree.parent(at)) {
        ++hops;
      }
      layout.hops[r][b] = hops;
    }
  }
  return layout;
}

double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Mean of the last 1% (at least 10) of the samples: how far behind its
/// schedule the generator was when the phase ended.
double tail_mean(const std::vector<double>& samples) {
  const std::size_t n = std::min(samples.size(), std::max<std::size_t>(10, samples.size() / 100));
  double sum = 0;
  for (std::size_t i = samples.size() - n; i < samples.size(); ++i) sum += samples[i];
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

class BrokerRun {
 public:
  BrokerRun(const Config& config, const Args& args)
      : config_(config), args_(args), layout_(make_layout(config)),
        factory_(args.seed, config.payload_bytes), churn_rng_(factory_.stream(4)) {
    Rng sub_rng = factory_.stream(1);
    Rng client_rng = factory_.stream(2);
    Rng event_rng = factory_.stream(3);
    for (std::size_t i = 0; i < config_.subscriptions; ++i) {
      const std::size_t client =
          layout_.subscribers[client_rng.below(layout_.subscribers.size())];
      subs_.push_back(SubSpec{client, factory_.subscription(sub_rng, layout_.region[client])});
    }
    if (config_.catch_all) {
      for (const std::size_t client : layout_.far_subscribers) {
        subs_.push_back(SubSpec{client, factory_.catch_all()});
      }
    }
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      pool_.push_back(factory_.event(event_rng, layout_.region[publisher_of(i)]));
    }
  }

  Outcome run(Report& report) {
    std::vector<double> setup_s;
    for (int i = 0; i < (args_.trace ? 1 : kSetupRuns); ++i) {
      cluster_.reset();  // one network alive at a time
      SpanLog::instance().enable(args_.trace);
      const std::int64_t start = now_ns();
      setup();
      setup_s.push_back(seconds_since(start));
      SpanLog::instance().enable(false);
    }
    const double open_s = args_.trace ? args_.seconds / 2 : args_.seconds * kOpenShare;
    op_loop(kOpen, open_s, /*open_loop=*/true);
    // Memory is read before the closed loop, whose bookkeeping grows with
    // the throughput reached rather than with the program's needs.
    const double rss_mb = peak_rss_mb();
    drain();
    const Broker::Stats before = cluster_->total_stats();
    const std::int64_t traced_from = now_ns();
    double capacity = 0;
    if (args_.trace) {
      SpanLog::instance().enable(true);
      op_loop(kTraced, args_.seconds - open_s, /*open_loop=*/true);
      drain();
      SpanLog::instance().enable(false);
    } else {
      // The closed loop starts from an idle network.
      const double closed_s = args_.seconds - open_s;
      capacity = config_.wire == Wire::kTcp ? tcp_closed_loop(closed_s)
                                            : op_loop(kClosed, closed_s, /*open_loop=*/false);
      drain();
    }
    const std::int64_t traced_to = now_ns();
    const Broker::Stats after = cluster_->total_stats();

    DeliveryCheck check(layout_.homes.size(), sched_.size());
    expect_all(check);
    for (std::size_t c = 0; c < app_got_.size(); ++c) {
      for (const std::uint32_t id : app_got_[c]) check.got(c, id);
    }
    const DeliveryCheck::Verdict verdict = check.verdict();
    const Phase measured = args_.trace ? kTraced : kOpen;
    Latencies lat = latencies(check, measured);
    report_details(verdict, lat.by_phase[measured], measured, report);

    if (args_.trace) {
      summarize_spans(SpanLog::instance().snapshot(), traced_from, traced_to,
                      count_phase(kTraced), report);
      report_stats(before, after, count_phase(kTraced), report);
      report.set("broker.settle_us.p50", quantile(settle_us_[kTraced], 0.5), "us");
      report.set("broker.settle_us.p99", quantile(settle_us_[kTraced], 0.99), "us");
      report.set("client.subscribe_us.p50", quantile(subscribe_us_[kTraced], 0.5), "us");
      report.set("client.subscribe_us.p99", quantile(subscribe_us_[kTraced], 0.99), "us");
      for (int h = 0; h <= kMaxHop; ++h) {
        const std::string prefix = "hop" + std::to_string(h);
        report.set(prefix + ".deliver_p50_us", quantile(lat.by_hop[h], 0.5), "us");
        report.set(prefix + ".deliver_p99_us", quantile(lat.by_hop[h], 0.99), "us");
      }
      report.set("gen.late_us.p99", quantile(late_us_[kTraced], 0.99), "us");
      report.set("gen.late_us.max", quantile(late_us_[kTraced], 1.0), "us");
      for (const double q : {0.5, 0.99}) {
        report.set(q == 0.5 ? "trace.overhead_p50_us" : "trace.overhead_p99_us",
                   quantile(lat.by_phase[kTraced], q) - quantile(lat.by_phase[kOpen], q), "us");
      }
      replay_layers(report);
    } else {
      const std::vector<double>& open = lat.by_phase[kOpen];
      report.set("setup_s", median(setup_s), "s");
      report.set("latency_p50_us", windowed_quantile(open, 0.5), "us");
      report.set("throughput_eps", capacity, "1/s");
      report.set("peak_rss_mb", rss_mb, "MB");
      report.detail("capacity_eps", capacity);
      report.detail("setup_runs", static_cast<double>(setup_s.size()));
    }

    Outcome outcome;
    outcome.attempted = verdict.expected;
    outcome.failed = verdict.failed();
    outcome.correct = verdict.failed() == 0 && verdict.expected > 0 &&
                      !lat.by_phase[measured].empty() && setup_ok_ && churn_failures_ == 0 &&
                      after.retransmits == 0 && after.frames_rejected == 0;
    if (churn_failures_ != 0) {
      std::fprintf(stderr, "perfbench: %s: %llu churn operations were never acknowledged\n",
                   config_.name, static_cast<unsigned long long>(churn_failures_));
    }
    return outcome;
  }

 private:
  struct Latencies {
    std::vector<double> by_phase[3];  // ordered by scheduled publish time
    std::vector<double> by_hop[kMaxHop + 1];  // the measured phase only
  };

  [[nodiscard]] bool churn() const { return config_.churn_every > 0; }

  /// Each expected delivery's latency from its first arrival, measured from
  /// the event's scheduled publish time.
  Latencies latencies(const DeliveryCheck& check, Phase measured) {
    std::vector<std::pair<std::int64_t, double>> timed[3];
    Latencies out;
    for (const std::size_t c : layout_.subscribers) {
      std::vector<std::uint8_t> seen(sched_.size(), 0);
      for (const ClientProbe::Arrival& a : cluster_->probe(c).arrivals()) {
        if (a.event_id >= sched_.size() || !check.expected(c, a.event_id) || seen[a.event_id]) {
          continue;
        }
        seen[a.event_id] = 1;
        const double lat = us(a.at_ns - sched_[a.event_id]);
        timed[phase_[a.event_id]].emplace_back(sched_[a.event_id], lat);
        if (phase_[a.event_id] == measured) {
          const auto root = static_cast<std::size_t>(layout_.homes[publisher_of(a.event_id)].value);
          const auto at = static_cast<std::size_t>(layout_.homes[c].value);
          out.by_hop[std::min(layout_.hops[root][at], kMaxHop)].push_back(lat);
        }
      }
    }
    for (int p = 0; p < 3; ++p) {
      std::sort(timed[p].begin(), timed[p].end());
      for (const auto& sample : timed[p]) out.by_phase[p].push_back(sample.second);
    }
    return out;
  }

  void report_details(const DeliveryCheck::Verdict& verdict, const std::vector<double>& lat,
                      Phase measured, Report& report) const {
    const double backlog_us = tail_mean(late_us_[measured]);
    const bool valid = backlog_us <= kMaxBacklogUs;
    report.detail("workload", config_.name);
    report.detail("offered_rate_eps", config_.rate_eps);
    report.detail("subscriptions", static_cast<double>(subs_.size()));
    report.detail("events_published", static_cast<double>(sched_.size()));
    report.detail("deliver_p50_us", quantile(lat, 0.5));
    report.detail("deliver_p90_us", quantile(lat, 0.9));
    report.detail("deliver_p99_us", quantile(lat, 0.99));
    report.detail("deliver_samples", static_cast<double>(lat.size()));
    report.detail("gen.late_us.p99", quantile(late_us_[measured], 0.99));
    report.detail("gen.late_us.max", quantile(late_us_[measured], 1.0));
    report.detail("gen.backlog_us", backlog_us);
    report.detail("open_loop_valid", valid ? "true" : "false");
    report.detail("expected_deliveries", static_cast<double>(verdict.expected));
    report.detail("missing", static_cast<double>(verdict.missing));
    report.detail("spurious", static_cast<double>(verdict.spurious));
    report.detail("duplicates", static_cast<double>(verdict.duplicates));
    report.detail("failed_frac", static_cast<double>(verdict.failed()) /
                                     static_cast<double>(std::max<std::uint64_t>(1, verdict.expected)));
    if (churn()) {
      report.detail("subscribe_p50_us", quantile(subscribe_us_[measured], 0.5));
      report.detail("subscribe_p99_us", quantile(subscribe_us_[measured], 0.99));
      report.detail("subscribe_samples", static_cast<double>(subscribe_us_[measured].size()));
      report.detail("churn_ops", static_cast<double>(churn_ops_));
    }
    if (!valid) {
      std::fprintf(stderr, "perfbench: %s: the open loop ended %.0f us behind schedule "
                           "(limit %.0f us); its figures are invalid\n",
                   config_.name, backlog_us, kMaxBacklogUs);
    }
  }

  [[nodiscard]] std::size_t publisher_of(std::size_t event) const {
    return layout_.publishers[(event % kPoolSize) % layout_.publishers.size()];
  }

  void setup() {
    ClusterSpec spec;
    spec.wire = config_.wire;
    spec.topology = &layout_.topology;
    spec.schema = factory_.schema();
    spec.id_index = factory_.id_index();
    spec.client_homes = layout_.homes;
    spec.match_threads = config_.match_threads;
    cluster_ = std::make_unique<Cluster>(spec);
    tokens_.clear();
    for (const SubSpec& s : subs_) {
      tokens_.emplace_back(s.client, cluster_->client(s.client).subscribe(0, s.subscription));
    }
    setup_ok_ = cluster_->wait_subscribed(subs_.size(), tokens_, 120.0);
    if (!setup_ok_) std::fprintf(stderr, "perfbench: %s: set-up did not settle\n", config_.name);
    // Fresh bookkeeping for the network that will be measured.
    sched_.clear();
    phase_.clear();
    app_got_.assign(layout_.homes.size(), {});
    live_keys_.clear();
    key_sub_ = subs_;
    key_token_.clear();
    churn_log_.clear();
    for (const auto& token : tokens_) key_token_.push_back(token.second);
  }

  /// Publishes event `id` (built by the caller) from its publisher.
  void publish(std::uint32_t id, const Event& event) {
    const std::size_t client = publisher_of(id);
    if (SpanLog::instance().enabled()) {
      SpanScope scope(Layer::kClientPublish, -1 - static_cast<std::int32_t>(client),
                      static_cast<std::uint8_t>(wire::FrameType::kPublish), id);
      cluster_->client(client).publish(0, event);
    } else {
      cluster_->client(client).publish(0, event);
    }
  }

  std::uint32_t next_event(Phase phase, std::int64_t sched_ns) {
    const auto id = static_cast<std::uint32_t>(sched_.size());
    sched_.push_back(sched_ns);
    phase_.push_back(phase);
    return id;
  }

  Event event_for(std::uint32_t id) const {
    return with_id(pool_[id % kPoolSize], factory_.id_index(), id);
  }

  /// The operation stream. Open loop: rate_eps operations per second on a
  /// fixed schedule for `seconds`. Closed loop: back to back until `seconds`
  /// pass; returns operations completed per second. With churn_every > 0,
  /// every churn_every-th operation subscribes a new subscription or
  /// (alternately) unsubscribes the oldest one the stream added. In-proc,
  /// each operation is pumped to quiescence before the next is issued, so
  /// the live subscription set at every publish is exact.
  double op_loop(Phase phase, double seconds, bool open_loop) {
    const double interval_ns = 1e9 / config_.rate_eps;
    const std::int64_t start = now_ns() + (open_loop ? 2'000'000 : 0);
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    const auto n = static_cast<std::size_t>(std::max(1.0, std::round(config_.rate_eps * seconds)));
    WindowedRate rate(start, seconds);
    std::uint64_t done = 0;
    for (std::size_t k = 0; open_loop ? k < n : now_ns() < deadline; ++k) {
      const std::int64_t due =
          open_loop ? start + static_cast<std::int64_t>(static_cast<double>(k) * interval_ns)
                    : now_ns();
      if (!open_loop) rate.observe(done, due);
      if (!churn() || ++churn_counter_ % config_.churn_every != 0) {
        const std::uint32_t id = next_event(phase, due);
        const Event event = event_for(id);
        if (open_loop) drain_in_slack(due);
        wait_until(due);
        late_us_[phase].push_back(us(now_ns() - due));
        publish(id, event);
        cluster_->pump();
        if (churn()) churn_log_.push_back(ChurnOp{ChurnOp::kPublish, id});
      } else if (++churn_ops_ % 2 == 0) {
        unsubscribe_one(phase, due);
      } else {
        subscribe_one(phase, due);
      }
      if (!open_loop && ++done % kDrainEvery == 0) take_app_deliveries();
    }
    rate.observe(done, now_ns());
    return rate.rate();
  }

  /// TCP closed loop: every event reaches the catch-all client, so its
  /// deliveries count completions; at most `window` events are in flight.
  /// Returns events completed per second.
  double tcp_closed_loop(double seconds) {
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    WindowedRate rate(start, seconds);
    ClientProbe& sink = cluster_->probe(layout_.far_subscribers.front());
    const std::uint64_t base = sink.delivered();
    std::uint64_t published = 0;
    for (std::int64_t t = start; t < deadline; t = now_ns()) {
      const std::uint64_t completed = sink.delivered() - base;
      rate.observe(completed, t);
      if (published >= completed + config_.window) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      const std::uint32_t id = next_event(kClosed, t);
      publish(id, event_for(id));
      if (++published % kDrainEvery == 0) take_app_deliveries();
    }
    rate.observe(sink.delivered() - base, now_ns());
    return rate.rate();
  }

  void subscribe_one(Phase phase, std::int64_t due) {
    const std::size_t client = layout_.subscribers[churn_rng_.below(layout_.subscribers.size())];
    SubSpec spec{client,
                 factory_.subscription(churn_rng_, layout_.region[client])};
    wait_until(due);
    late_us_[phase].push_back(us(now_ns() - due));
    const std::uint64_t token = cluster_->client(client).subscribe(0, spec.subscription);
    cluster_->pump();
    const std::int64_t settled = now_ns();
    const std::int64_t acked = cluster_->probe(client).ack_time(token);
    if (acked == 0) ++churn_failures_;
    subscribe_us_[phase].push_back(us(acked - due));
    settle_us_[phase].push_back(us(settled - due));
    const auto key = static_cast<std::uint32_t>(key_sub_.size());
    key_sub_.push_back(std::move(spec));
    key_token_.push_back(token);
    live_keys_.push_back(key);  // subscribes and unsubscribes alternate: never empty on pop
    churn_log_.push_back(ChurnOp{ChurnOp::kSubscribe, key});
  }

  /// Removes the oldest subscription the stream added (clients come and go;
  /// the base set stays), so every churn operation recompiles about the
  /// same subscription set.
  void unsubscribe_one(Phase phase, std::int64_t due) {
    const std::uint32_t key = live_keys_.front();
    live_keys_.pop_front();
    gryphon::Client& client = cluster_->client(key_sub_[key].client);
    const std::optional<SubscriptionId> id = client.subscription_id(key_token_[key]);
    wait_until(due);
    late_us_[phase].push_back(us(now_ns() - due));
    if (!id) {
      ++churn_failures_;
      return;
    }
    client.unsubscribe(*id);
    cluster_->pump();
    settle_us_[phase].push_back(us(now_ns() - due));
    churn_log_.push_back(ChurnOp{ChurnOp::kUnsubscribe, key});
  }

  void take_app_deliveries(std::size_t client) {
    for (const Client::Delivery& d : cluster_->client(client).take_deliveries()) {
      app_got_[client].push_back(event_id(d.event, factory_.id_index()));
    }
  }

  void take_app_deliveries() {
    for (const std::size_t c : layout_.subscribers) take_app_deliveries(c);
  }

  /// Collects one subscriber's buffered deliveries while the generator has
  /// time to spare before `due`, so the harness's memory stays flat without
  /// disturbing the schedule.
  void drain_in_slack(std::int64_t due) {
    if (due - now_ns() < kSlackNs) return;
    take_app_deliveries(layout_.subscribers[drain_cursor_++ % layout_.subscribers.size()]);
  }

  /// Waits (TCP) until every subscriber has seen as many Deliver frames as
  /// the oracle expects, then hands the application deliveries to the check.
  void drain() {
    if (config_.wire == Wire::kTcp) {
      DeliveryCheck expected(layout_.homes.size(), sched_.size());
      expect_all(expected);
      const std::int64_t deadline = now_ns() + 10'000'000'000LL;
      for (const std::size_t c : layout_.subscribers) {
        while (cluster_->probe(c).delivered() < expected.expected_for(c) && now_ns() < deadline) {
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));  // late spurious copies
    }
    take_app_deliveries();
  }

  void expect_all(DeliveryCheck& check) {
    Oracle oracle;
    for (std::size_t i = 0; i < subs_.size(); ++i) {
      oracle.add(static_cast<std::int64_t>(i), static_cast<std::uint16_t>(subs_[i].client),
                 subs_[i].subscription);
    }
    if (churn()) {
      for (const ChurnOp& op : churn_log_) {
        switch (op.kind) {
          case ChurnOp::kPublish:
            check.expect(op.value, oracle.expected(pool_[op.value % kPoolSize]));
            break;
          case ChurnOp::kSubscribe: {
            const SubSpec& spec = key_sub_[op.value];
            oracle.add(op.value, static_cast<std::uint16_t>(spec.client), spec.subscription);
            break;
          }
          case ChurnOp::kUnsubscribe: oracle.remove(op.value); break;
        }
      }
      return;
    }
    std::vector<std::vector<std::uint16_t>> by_pool(kPoolSize);
    for (std::size_t p = 0; p < kPoolSize; ++p) by_pool[p] = oracle.expected(pool_[p]);
    for (std::size_t id = 0; id < sched_.size(); ++id) {
      check.expect(static_cast<std::uint32_t>(id), by_pool[id % kPoolSize]);
    }
  }

  std::uint64_t count_phase(Phase phase) const {
    return static_cast<std::uint64_t>(std::count(phase_.begin(), phase_.end(), phase));
  }

  static void report_stats(const Broker::Stats& from, const Broker::Stats& to,
                           std::uint64_t events, Report& report) {
    const double per = 1.0 / static_cast<double>(std::max<std::uint64_t>(1, events));
    report.set("broker.forwards_per_event",
               static_cast<double>(to.events_forwarded - from.events_forwarded) * per, "count");
    report.set("broker.deliveries_per_event",
               static_cast<double>(to.events_delivered - from.events_delivered) * per, "count");
    report.set("broker.steps_per_event",
               static_cast<double>(to.matching_steps - from.matching_steps) * per, "steps");
    report.set("broker.retransmits", static_cast<double>(to.retransmits), "count");
    report.set("broker.duplicates_dropped", static_cast<double>(to.duplicates_dropped), "count");
    report.set("broker.frames_rejected", static_cast<double>(to.frames_rejected), "count");
    const ControlPlaneStats& cp = to.control_plane;
    report.set("broker.compile_us.p50",
               histogram_quantile_us(cp.compile_us_histogram.data(), cp.compile_us_histogram.size(), 0.5),
               "us");
    report.set("broker.compile_us.p99",
               histogram_quantile_us(cp.compile_us_histogram.data(), cp.compile_us_histogram.size(), 0.99),
               "us");
    report.set("broker.compile_publishes", static_cast<double>(cp.compile_publishes), "count");
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return a + b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(a + b);
    };
    report.set("broker.segments_reused_ratio", ratio(cp.segments_reused, cp.segments_compiled), "ratio");
    report.set("broker.covered_ratio", ratio(cp.covered_subscriptions, cp.frontier_subscriptions), "ratio");
  }

  void replay_layers(Report& report) {
    const std::size_t n = std::min(kReplayEvents, pool_.size());
    std::vector<Event> events;
    std::vector<std::pair<Event, BrokerId>> published;
    for (std::uint32_t id = 0; id < n; ++id) {
      events.push_back(event_for(id));
      published.emplace_back(events.back(), layout_.homes[publisher_of(id)]);
    }
    replay_codec(events, report);
    std::vector<CoreSubscription> core_subs;
    for (const SubSpec& s : subs_) core_subs.push_back(CoreSubscription{s.subscription, layout_.homes[s.client]});
    replay_core(layout_.topology, factory_.schema(), core_subs, published, report);
  }

  struct ChurnOp {
    enum Kind : std::uint8_t { kPublish, kSubscribe, kUnsubscribe } kind;
    std::uint32_t value;  // event id, or subscription key
  };

  const Config& config_;
  const Args& args_;
  Layout layout_;
  InputFactory factory_;
  std::vector<SubSpec> subs_;
  std::vector<Event> pool_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::pair<std::size_t, std::uint64_t>> tokens_;
  bool setup_ok_{false};

  // Per published event, by id.
  std::vector<std::int64_t> sched_;
  std::vector<std::uint8_t> phase_;
  std::vector<std::vector<std::uint32_t>> app_got_;  // per client, event ids received
  std::vector<double> late_us_[3];
  std::vector<double> settle_us_[3];
  std::vector<double> subscribe_us_[3];

  std::size_t drain_cursor_{0};

  // Churn state: subscription keys index key_sub_ (base subscriptions first).
  Rng churn_rng_;
  std::uint64_t churn_counter_{0};
  std::deque<std::uint32_t> live_keys_;  // stream-added subscriptions, oldest first
  std::vector<SubSpec> key_sub_;
  std::vector<std::uint64_t> key_token_;
  std::vector<ChurnOp> churn_log_;
  std::uint64_t churn_ops_{0};
  std::uint64_t churn_failures_{0};
};

const Config* find_config(const std::string& name) {
  for (const Config& c : kConfigs) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

}  // namespace

bool is_broker_workload(const std::string& name) { return find_config(name) != nullptr; }

Outcome run_broker_workload(const Args& args, Report& report) {
  BrokerRun run(*find_config(args.workload), args);
  return run.run(report);
}

}  // namespace perfbench
