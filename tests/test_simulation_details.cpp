// Focused simulator behaviours: overload detection, drain timeouts,
// accounting, and monotonicity of overload in the publish rate.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/simulation.h"
#include "topology/builders.h"

namespace gryphon {
namespace {

/// A 3-broker line with 2 clients per broker and a small schema; the
/// publisher is broker 0 (the single-publisher spec default on a line).
SimSpec small_spec(double rate, std::uint64_t seed = 3) {
  SimSpec spec;
  spec.seed = seed;
  spec.attributes = 4;
  spec.values_per_attribute = 3;
  spec.topology.kind = TopologyKind::kLine;
  spec.topology.brokers = 3;
  spec.topology.clients_per_broker = 2;
  spec.topology.min_delay_ms = 5.0;
  spec.topology.client_delay_ms = 1.0;
  spec.workload.subscriptions = 30;
  spec.workload.events = 100;
  spec.workload.publishers = 1;
  spec.workload.rate_eps = rate;
  spec.workload.subscription_config = SubscriptionWorkloadConfig{0.9, 0.9, 1.0};
  return spec;
}

TEST(SimDetails, SustainableRateDrainsCompletely) {
  const auto result = simulate(small_spec(100.0));
  EXPECT_TRUE(result.drained);
  EXPECT_FALSE(result.overloaded);
  EXPECT_EQ(result.missing_deliveries, 0u);
  EXPECT_EQ(result.events_published, 100u);
}

TEST(SimDetails, BacklogThresholdTriggersOverload) {
  SimSpec spec = small_spec(5e6);
  spec.limits.overload_backlog_threshold = 10;
  // 100 events in ~1 tick gaps: the publisher broker's queue must exceed 10.
  const auto result = simulate(spec);
  EXPECT_TRUE(result.overloaded);
  EXPECT_GE(result.max_backlog, 10u);
}

TEST(SimDetails, OverloadIsMonotoneInRate) {
  SimSpec spec = small_spec(100.0);
  spec.verify.verify_deliveries = false;
  // Only 100 events are published, so the default threshold (100) can
  // never be reached even at infinite rate; use a smaller one.
  spec.limits.overload_backlog_threshold = 25;
  Simulation sim(spec);
  bool seen_overload = false;
  for (const double rate : {50.0, 500.0, 5000.0, 50000.0, 500000.0, 5e6}) {
    const bool overloaded = sim.run_at_rate(rate).overloaded;
    if (seen_overload) {
      EXPECT_TRUE(overloaded) << "non-monotone overload at rate " << rate;
    }
    seen_overload |= overloaded;
  }
  EXPECT_TRUE(seen_overload);
}

TEST(SimDetails, DrainTimeoutMarksOverloadAndMissingDeliveries) {
  // Publish fast enough that forwarded copies are always in flight when the
  // last event is published; the 1-tick drain budget then must expire.
  SimSpec spec = small_spec(5000.0);
  spec.limits.drain_limit = 1;  // one tick after the last publish: nothing can finish
  spec.limits.overload_backlog_threshold = 1000000;  // only the timeout can trigger
  const auto result = simulate(spec);
  EXPECT_FALSE(result.drained);
  EXPECT_TRUE(result.overloaded);
  EXPECT_GT(result.missing_deliveries, 0u);
}

TEST(SimDetails, LatencyReflectsHopDelays) {
  // A subscriber 2 brokers away: latency >= 2 * 5ms + 1ms client link.
  SimSpec spec;
  spec.schema = make_synthetic_schema(2, 2);
  spec.topology.kind = TopologyKind::kLine;
  spec.topology.brokers = 3;
  spec.topology.clients_per_broker = 1;
  spec.topology.min_delay_ms = 5.0;
  spec.topology.client_delay_ms = 1.0;
  const GeneratedTopology preview = build_topology(spec.topology, spec.seed);
  const ClientId far_client = preview.network.clients_of(BrokerId{2})[0];
  spec.workload.scripted.subscriptions = {
      {SubscriptionId{1}, Subscription::match_all(spec.schema), far_client}};
  spec.workload.scripted.events = {Event(spec.schema, {Value(0), Value(0)})};
  spec.workload.scripted.schedule = {PublishRecord{0, BrokerId{0}, 0}};
  const auto result = simulate(spec);
  EXPECT_EQ(result.deliveries, 1u);
  EXPECT_GE(result.mean_delivery_latency_ms, 11.0);
  EXPECT_LT(result.mean_delivery_latency_ms, 20.0);
  ASSERT_EQ(result.per_hop.size(), 1u);
  EXPECT_EQ(result.per_hop.begin()->first, 3);  // three brokers visited
}

TEST(SimDetails, BytesAccountingScalesWithMessages) {
  const auto result = simulate(small_spec(200.0));
  const auto copies = result.broker_messages + result.client_messages;
  if (copies == 0) GTEST_SKIP() << "no traffic drawn";
  // Link matching carries no destination lists: bytes = payload * copies.
  EXPECT_EQ(result.bytes_on_wire % copies, 0u);
  EXPECT_GT(result.bytes_on_wire / copies, 16u);
}

TEST(SimDetails, CentralizedStepsIndependentOfProtocol) {
  SimSpec lm_spec = small_spec(100.0);
  SimSpec fl_spec = lm_spec;
  fl_spec.protocol = Protocol::kFlooding;
  const auto lm = simulate(lm_spec);
  const auto fl = simulate(fl_spec);
  EXPECT_EQ(lm.centralized_steps, fl.centralized_steps);
  EXPECT_EQ(lm.deliveries, fl.deliveries);
}

TEST(SimDetails, UtilizationBoundedAndPositive) {
  const auto result = simulate(small_spec(500.0));
  EXPECT_GT(result.max_utilization, 0.0);
  EXPECT_LE(result.max_utilization, 1.5);  // cannot exceed ~1 while draining
}

TEST(SimDetails, BadScheduleIndexThrows) {
  SimSpec spec = small_spec(100.0);
  spec.workload.scripted.schedule = {PublishRecord{0, BrokerId{0}, spec.workload.events}};
  EXPECT_THROW(Simulation{spec}, std::invalid_argument);
}

TEST(SimDetails, BackgroundLoadConsumesCapacity) {
  SimSpec quiet = small_spec(2000.0);
  SimSpec noisy = quiet;
  noisy.costs.background_rate_per_broker = 30000.0;  // heavy untracked load
  const auto without = simulate(quiet);
  const auto with = simulate(noisy);
  // Background messages burn CPU at every broker: utilization rises, and
  // tracked deliveries stay identical (background is invisible traffic).
  EXPECT_GT(with.max_utilization, without.max_utilization);
  EXPECT_EQ(with.deliveries, without.deliveries);
  EXPECT_EQ(with.missing_deliveries, 0u);
}

TEST(SimDetails, BackgroundLoadLowersSaturation) {
  SimSpec quiet_spec = small_spec(100.0);
  quiet_spec.verify.verify_deliveries = false;
  quiet_spec.limits.overload_backlog_threshold = 25;
  SimSpec noisy_spec = quiet_spec;
  noisy_spec.costs.background_rate_per_broker = 100000.0;
  Simulation quiet(quiet_spec);
  Simulation noisy(noisy_spec);
  // A rate the quiet network sustains but the loaded one cannot.
  bool quiet_ok = false, noisy_died = false;
  for (const double rate : {2000.0, 8000.0, 32000.0}) {
    const bool q = quiet.run_at_rate(rate).overloaded;
    const bool n = noisy.run_at_rate(rate).overloaded;
    if (!q && n) {
      quiet_ok = true;
      noisy_died = true;
      break;
    }
  }
  EXPECT_TRUE(quiet_ok && noisy_died)
      << "background load should reduce the sustainable tracked rate";
}

/// Coefficient of variation (standard deviation / mean) of a schedule's
/// inter-publication gaps.
double gap_cv(const std::vector<PublishRecord>& schedule) {
  std::vector<double> gaps;
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    gaps.push_back(static_cast<double>(schedule[i].time - schedule[i - 1].time));
  }
  double mean = 0;
  for (const double g : gaps) mean += g;
  mean /= static_cast<double>(gaps.size());
  double var = 0;
  for (const double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size());
  return std::sqrt(var) / mean;
}

TEST(SimDetails, BurstySchedule) {
  // ON/OFF arrivals with a 20% duty cycle (4 ms ON, 16 ms OFF): the ON
  // rate is scaled to rate * (on + off) / on = 5x the configured rate, so
  // the long-run rate is the configured one. 10,000 events span ~500
  // cycles, which puts the long-run rate within a few percent of it;
  // 15% leaves room for that spread and for whole-tick gap rounding.
  constexpr double kRate = 1000.0;
  SimSpec spec = small_spec(kRate);
  spec.workload.events = 10000;
  spec.workload.arrivals = ArrivalSpec{ArrivalSpec::Kind::kBursty, 0.004, 0.016};
  const Simulation bursty(spec);
  const std::vector<PublishRecord>& schedule = bursty.schedule();
  ASSERT_EQ(schedule.size(), 10000u);
  const double span_seconds = ticks_to_micros(schedule.back().time) / 1e6;
  EXPECT_NEAR(static_cast<double>(schedule.size()) / span_seconds, kRate, 0.15 * kRate);

  // Bursts then silences: far more variable gaps than Poisson arrivals at
  // the same rate, whose gap CV is about 1.
  SimSpec poisson_spec = spec;
  poisson_spec.workload.arrivals = ArrivalSpec{};
  const Simulation poisson(poisson_spec);
  const double poisson_cv = gap_cv(poisson.schedule());
  EXPECT_NEAR(poisson_cv, 1.0, 0.1);
  EXPECT_GT(gap_cv(schedule), 2.0 * poisson_cv);

  // The parallel engine keeps its serial/parallel contract under bursts.
  spec.engine.threads = 1;
  const SimResult serial = simulate(spec);
  spec.engine.threads = 2;
  const SimResult parallel = simulate(spec);
  EXPECT_EQ(serial.events_published, 10000u);
  EXPECT_EQ(serial.missing_deliveries, 0u);
  EXPECT_TRUE(same_outcome(serial, parallel));
}

TEST(SimDetails, PartialScheduleVerifiesOnlyPublishedEvents) {
  SimSpec spec = small_spec(100.0);
  // Publish only the first 10 of the 100 generated events.
  for (std::size_t i = 0; i < 10; ++i) {
    spec.workload.scripted.schedule.push_back(
        PublishRecord{static_cast<Ticks>(1 + i * 1000), BrokerId{0}, i});
  }
  const auto result = simulate(spec);
  EXPECT_EQ(result.events_published, 10u);
  EXPECT_EQ(result.missing_deliveries, 0u);
  EXPECT_EQ(result.spurious_deliveries, 0u);
}

// Memory accounting by component: link matching on the exact plane holds
// the instance's subscription store (one copy) and the routing network's
// matcher (references into it), its trees and kernels, and per-broker
// annotation rows; flooding adds per-broker matchers (more references) and
// no annotations.
TEST(SimDetails, MemoryAccountsEveryComponent) {
  SimSpec lm = small_spec(100.0);
  lm.protocol = Protocol::kLinkMatching;
  const SimMemory link_matching = Simulation(lm).memory();
  EXPECT_GE(link_matching.subscriptions, 30 * 4 * sizeof(AttributeTest));
  EXPECT_EQ(link_matching.subscriptions, link_matching.subscriptions_floor);
  EXPECT_GT(link_matching.trees, 0u);
  EXPECT_GT(link_matching.kernels, 0u);
  EXPECT_GT(link_matching.annotations, 0u);
  EXPECT_EQ(link_matching.total(), link_matching.subscriptions + link_matching.trees +
                                       link_matching.kernels + link_matching.annotations);

  SimSpec flooding = small_spec(100.0);
  flooding.protocol = Protocol::kFlooding;
  const SimMemory flood = Simulation(flooding).memory();
  EXPECT_EQ(flood.annotations, 0u);
  EXPECT_GT(flood.subscriptions, link_matching.subscriptions);
  EXPECT_EQ(flood.subscriptions, flood.subscriptions_floor);
  EXPECT_GT(flood.trees, link_matching.trees);
}

// Each subscription is held once: on the paper's Figure 6 network the
// accounted subscription bytes are one copy of the workload's
// subscriptions (summed here from the objects the instance hands back)
// plus the holders' references, which stay far below a second copy. Both
// the exact plane (the routing network's matcher) and flooding (per-broker
// matchers besides) reference the same objects.
TEST(SimDetails, Figure6HoldsOneCopyOfEverySubscription) {
  for (const Protocol protocol : {Protocol::kLinkMatching, Protocol::kFlooding}) {
    SimSpec spec;
    spec.seed = 21;
    spec.attributes = 10;
    spec.values_per_attribute = 5;
    spec.topology.kind = TopologyKind::kFigure6;
    spec.workload.subscriptions = 400;
    spec.workload.events = 20;
    spec.protocol = protocol;
    spec.engine.control_plane = ControlPlaneMode::kExact;
    Simulation sim(spec);
    const SimMemory memory = sim.memory();
    const ScriptedWorkload workload = std::move(sim).release_workload();
    ASSERT_EQ(workload.subscriptions.size(), 400u);
    std::size_t one_copy = 0;
    for (const SimSubscription& sub : workload.subscriptions) {
      one_copy += sub.subscription->memory_bytes();
    }
    EXPECT_EQ(memory.subscriptions, memory.subscriptions_floor) << to_string(protocol);
    EXPECT_GT(memory.subscriptions, one_copy) << to_string(protocol);
    EXPECT_LT(memory.subscriptions, one_copy + one_copy / 4) << to_string(protocol);
  }
}

}  // namespace
}  // namespace gryphon
