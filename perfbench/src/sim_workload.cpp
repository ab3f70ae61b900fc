// sim-fig6: the discrete-event simulator on the paper's Figure 6 network
// with link matching and the paper's workload, fed through
// ScriptedWorkload so the routing replay can rebuild the same control
// plane. The sizes stay under the kAuto thresholds, so the exact control
// plane runs, on 2 engine threads, with full oracle verification.
//
// Untraced: construct the Simulation kSetupRuns times (setup_s is the
// median), then call run() back to back for --seconds; each run's wall time
// is one latency sample. Traced: construct once, run for --seconds, report
// the SimResult figures and replay ContentRoutingNetwork::route.
#include <cstdio>

#include "inputs.h"
#include "layers.h"
#include "sim/simulation.h"
#include "workloads.h"

namespace perfbench {

using namespace gryphon;

namespace {

constexpr std::size_t kSimSubscriptions = 2000;
constexpr std::size_t kSimEvents = 2000;
/// Aggregate publication rate of the scripted schedule (virtual time).
constexpr double kSimRateEps = 200.0;
constexpr std::size_t kEngineThreads = 2;
/// Events replayed through ContentRoutingNetwork::route in the traced run.
constexpr std::size_t kRouteReplayEvents = 500;

}  // namespace

Outcome run_sim_workload(const Args& args, Report& report) {
  const InputFactory factory(args.seed, 0);
  SimSpec spec;
  spec.seed = args.seed;
  spec.protocol = Protocol::kLinkMatching;
  spec.schema = factory.schema();
  spec.topology.kind = TopologyKind::kFigure6;
  spec.engine.threads = kEngineThreads;
  spec.verify.verify_deliveries = true;
  spec.verify.oracle_sample = 1.0;

  const GeneratedTopology topo = build_topology(spec.topology, spec.seed);
  const BrokerNetwork& network = topo.network;
  ScriptedWorkload& script = spec.workload.scripted;
  Rng sub_rng = factory.stream(1);
  Rng client_rng = factory.stream(2);
  Rng event_rng = factory.stream(3);
  for (std::size_t i = 0; i < kSimSubscriptions; ++i) {
    const ClientId subscriber = topo.subscribers[client_rng.below(topo.subscribers.size())];
    const auto home = static_cast<std::size_t>(network.client_home(subscriber).value);
    script.subscriptions.push_back(SimSubscription{
        SubscriptionId{static_cast<std::int64_t>(i)},
        factory.subscription(sub_rng, static_cast<std::uint32_t>(topo.region_of[home])),
        subscriber});
  }
  const std::vector<BrokerId>& publishers = topo.default_publishers;
  for (std::size_t i = 0; i < kSimEvents; ++i) {
    const BrokerId broker = publishers[i % publishers.size()];
    const auto region = static_cast<std::uint32_t>(topo.region_of[static_cast<std::size_t>(broker.value)]);
    script.events.push_back(
        with_id(factory.event(event_rng, region), factory.id_index(), static_cast<std::uint32_t>(i)));
    script.schedule.push_back(
        PublishRecord{ticks_from_seconds(static_cast<double>(i) / kSimRateEps), broker, i});
  }
  spec.workload.subscriptions = script.subscriptions.size();
  spec.workload.events = script.events.size();
  spec.workload.publishers = publishers.size();

  std::vector<double> build_s;
  std::unique_ptr<Simulation> sim;
  for (int i = 0; i < (args.trace ? 1 : kSetupRuns); ++i) {
    sim.reset();
    const std::int64_t start = now_ns();
    sim = std::make_unique<Simulation>(spec);
    build_s.push_back(seconds_since(start));
  }

  std::vector<double> run_us;
  std::vector<double> engine_s;
  SimResult first;
  bool identical = true;
  double total_run_s = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  do {
    const std::int64_t start = now_ns();
    SimResult result = sim->run();
    const std::int64_t took = now_ns() - start;
    run_us.push_back(static_cast<double>(took) * 1e-3);
    total_run_s += static_cast<double>(took) * 1e-9;
    engine_s.push_back(result.wall_seconds);
    if (run_us.size() == 1) {
      first = std::move(result);
    } else if (!same_outcome(first, result)) {
      identical = false;
    }
  } while (now_ns() < deadline);

  const std::uint64_t expected =
      first.deliveries - first.spurious_deliveries - first.duplicate_deliveries +
      first.missing_deliveries;
  std::uint64_t failed =
      first.missing_deliveries + first.spurious_deliveries + first.duplicate_deliveries;
  if (first.overloaded || !first.drained || !identical) failed = expected;  // fully failed
  const bool verified_all = first.oracle_sampled_fraction == 1.0 &&
                            first.oracle_events_verified == first.events_published;
  const double events = static_cast<double>(first.events_published);

  report.detail("workload", args.workload);
  report.detail("offered_rate_eps", kSimRateEps);
  report.detail("subscriptions", static_cast<double>(first.subscriptions));
  report.detail("events_published", events);
  report.detail("runs", static_cast<double>(run_us.size()));
  report.detail("sim_events_per_s", events * static_cast<double>(run_us.size()) / total_run_s);
  report.detail("control_plane", first.control_plane);
  report.detail("steps_exact", first.steps_exact ? "true" : "false");
  report.detail("oracle_sampled_fraction", first.oracle_sampled_fraction);
  report.detail("expected_deliveries", static_cast<double>(expected));
  report.detail("missing", static_cast<double>(first.missing_deliveries));
  report.detail("spurious", static_cast<double>(first.spurious_deliveries));
  report.detail("duplicates", static_cast<double>(first.duplicate_deliveries));
  report.detail("overloaded", first.overloaded ? "true" : "false");
  report.detail("runs_identical", identical ? "true" : "false");
  report.detail("failed_frac",
                static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, expected)));

  if (args.trace) {
    report.set("sim.build_s", median(build_s), "s");
    report.set("sim.run_s", median(run_us) * 1e-6, "s");
    report.set("sim.engine_wall_s", median(engine_s), "s");
    report.set("sim.steps_per_event", static_cast<double>(first.total_matching_steps) / events,
               "steps");
    const double central_per_event =
        static_cast<double>(first.centralized_steps) /
        static_cast<double>(std::max<std::size_t>(1, first.oracle_events_verified));
    report.set("sim.linkmatch_vs_central_steps",
               central_per_event > 0
                   ? static_cast<double>(first.total_matching_steps) / events / central_per_event
                   : 0.0,
               "ratio");
    report.set("sim.broker_messages_per_event", static_cast<double>(first.broker_messages) / events,
               "count");
    report.set("sim.max_utilization", first.max_utilization, "ratio");
    std::vector<RouteSubscription> route_subs;
    for (const SimSubscription& s : script.subscriptions) {
      route_subs.push_back(RouteSubscription{s.id, s.subscription, s.subscriber});
    }
    std::vector<std::pair<Event, BrokerId>> routed;
    for (std::size_t i = 0; i < std::min(kRouteReplayEvents, script.events.size()); ++i) {
      routed.emplace_back(script.events[i], script.schedule[i].broker);
    }
    replay_routing(network, spec.schema, publishers, route_subs, routed, report);
    // Nothing on the simulator's path is wrapped, so tracing costs nothing.
    report.set("trace.overhead_p50_us", 0.0, "us");
    report.set("trace.overhead_p99_us", 0.0, "us");
  } else {
    report.set("setup_s", median(build_s), "s");
    const double p50_us = windowed_quantile(run_us, 0.5);
    report.set("latency_p50_us", p50_us, "us");
    report.detail("run_p90_us", quantile(run_us, 0.9));
    report.set("throughput_eps", events / (p50_us * 1e-6), "1/s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
  }

  Outcome outcome;
  outcome.attempted = expected;
  outcome.failed = failed;
  outcome.correct = failed == 0 && expected > 0 && verified_all && first.steps_exact;
  if (!verified_all) {
    std::fprintf(stderr, "perfbench: sim-fig6: oracle verified %zu of %zu events\n",
                 first.oracle_events_verified, first.events_published);
  }
  return outcome;
}

}  // namespace perfbench
