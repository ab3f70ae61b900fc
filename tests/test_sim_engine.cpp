// Parallel discrete-event engine differentials: the conservative-lookahead
// parallel run must produce a SimResult bit-identical to the serial run, and
// the in-sim dynamics (churn, link faults, oracle sampling, aggregate
// control plane) must keep their contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "routing/content_router.h"
#include "sim/simulation.h"

namespace gryphon {
namespace {

SimSpec figure6_spec(std::uint64_t seed) {
  SimSpec spec;
  spec.seed = seed;
  spec.topology.kind = TopologyKind::kFigure6;
  spec.workload.subscriptions = 400;
  spec.workload.events = 60;
  spec.workload.rate_eps = 40.0;
  spec.verify.verify_single_copy_per_link = true;
  return spec;
}

TEST(EngineDifferential, ParallelIdenticalToSerialOnFigureSix) {
  // The acceptance differential: identical SimSpec except engine.threads
  // must yield the same SimResult in every deterministic field, for every
  // protocol, across seeds.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const Protocol protocol :
         {Protocol::kLinkMatching, Protocol::kFlooding, Protocol::kMatchFirst}) {
      SimSpec serial = figure6_spec(seed);
      serial.protocol = protocol;
      SimSpec parallel = serial;
      parallel.engine.threads = 4;
      const SimResult s = simulate(serial);
      const SimResult p = simulate(parallel);
      EXPECT_EQ(p.engine_threads, 4u);
      EXPECT_TRUE(same_outcome(s, p))
          << "seed " << seed << " protocol " << to_string(protocol);
      EXPECT_EQ(s.missing_deliveries, 0u);
      EXPECT_EQ(s.duplicate_link_copies, 0u);
    }
  }
}

TEST(EngineDifferential, ThreadCountBeyondBrokersIsClamped) {
  SimSpec serial = figure6_spec(5);
  SimSpec wide = serial;
  wide.engine.threads = 64;  // more workers than the 39 brokers
  EXPECT_TRUE(same_outcome(simulate(serial), simulate(wide)));
}

TEST(EngineDifferential, RepeatedRunsAreBitIdentical) {
  Simulation sim(figure6_spec(8));
  const SimResult first = sim.run();
  const SimResult second = sim.run();
  EXPECT_TRUE(same_outcome(first, second));
}

TEST(EngineQueue, UnsortedScheduleRunsAsItsSortedForm) {
  // Publications skip the engine heap: each partition pops them from a
  // cursor sorted by (time, schedule index). A schedule given out of time
  // order, with several publications at one tick at one broker, must run
  // exactly as the same records sorted by time, ties kept in schedule
  // order, at every thread count.
  SimSpec sorted = figure6_spec(6);
  const std::vector<BrokerId> publishers = Simulation(sorted).publishers();
  ASSERT_FALSE(publishers.empty());
  std::vector<std::vector<PublishRecord>> ticks;  // one group per tick, in time order
  std::size_t event = 0;
  for (std::size_t g = 0; event < sorted.workload.events; ++g) {
    std::vector<PublishRecord>& group = ticks.emplace_back();
    const Ticks time = ticks_from_seconds(0.02 * static_cast<double>(g + 1));
    // 1 to 4 publications at this tick; consecutive pairs share a broker.
    for (std::size_t k = 0; k < 1 + g % 4 && event < sorted.workload.events; ++k) {
      group.push_back(PublishRecord{time, publishers[(g + k / 2) % publishers.size()], event++});
    }
  }
  const auto concat = [](const std::vector<std::vector<PublishRecord>>& groups) {
    std::vector<PublishRecord> out;
    for (const auto& group : groups) out.insert(out.end(), group.begin(), group.end());
    return out;
  };
  sorted.workload.scripted.schedule = concat(ticks);
  // Reorder whole ticks: the schedule is out of time order, while records
  // sharing a tick keep their relative order, so sorting it by time gives
  // the sorted schedule back.
  std::vector<std::vector<PublishRecord>> shuffled = ticks;
  std::reverse(shuffled.begin(), shuffled.end());
  std::rotate(shuffled.begin(), shuffled.begin() + static_cast<std::ptrdiff_t>(shuffled.size() / 3),
              shuffled.end());
  const std::vector<PublishRecord> unsorted = concat(shuffled);
  ASSERT_FALSE(std::is_sorted(unsorted.begin(), unsorted.end(),
                              [](const PublishRecord& a, const PublishRecord& b) {
                                return a.time < b.time;
                              }));

  const SimResult want = simulate(sorted);
  ASSERT_EQ(want.events_published, sorted.workload.events);
  ASSERT_EQ(want.missing_deliveries, 0u);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SimSpec spec = sorted;
    spec.workload.scripted.schedule = unsorted;
    spec.engine.threads = threads;
    EXPECT_TRUE(same_outcome(want, simulate(spec))) << threads << " engine threads";
  }
}

TEST(EngineDynamics, ChurnAppliesOpsAndRunsStayRepeatable) {
  SimSpec spec = figure6_spec(4);
  spec.workload.churn_rate_eps = 200.0;
  Simulation sim(spec);
  const SimResult first = sim.run();
  EXPECT_GT(first.churn_subscribes + first.churn_unsubscribes, 0u);
  // The publish-time oracle cannot track in-flight churn: verification off.
  EXPECT_EQ(first.oracle_sampled_fraction, 0.0);
  EXPECT_EQ(first.oracle_events_verified, 0u);
  // Churn is rolled back after the run, so a second run sees the same
  // control-plane state and reproduces the outcome exactly.
  EXPECT_TRUE(same_outcome(first, sim.run()));
  // And the serial/parallel differential holds under churn too.
  SimSpec parallel = spec;
  parallel.engine.threads = 3;
  EXPECT_TRUE(same_outcome(first, simulate(parallel)));
}

TEST(EngineDynamics, LinkFaultsDelayButNeverLoseDeliveries) {
  SimSpec spec = figure6_spec(6);
  spec.workload.link_mtbf_seconds = 0.4;  // frequent outages over a ~1.5s run
  spec.workload.link_mttr_seconds = 0.3;
  spec.limits.drain_limit = ticks_from_seconds(120);
  const SimResult faulty = simulate(spec);
  EXPECT_GT(faulty.link_outages, 0u);
  // A downed link holds frames and releases them on heal: delayed, not lost.
  EXPECT_EQ(faulty.missing_deliveries, 0u);
  EXPECT_EQ(faulty.spurious_deliveries, 0u);
  EXPECT_EQ(faulty.duplicate_deliveries, 0u);

  SimSpec clean = spec;
  clean.workload.link_mtbf_seconds = 0.0;
  const SimResult baseline = simulate(clean);
  EXPECT_EQ(baseline.link_outages, 0u);
  EXPECT_EQ(faulty.deliveries, baseline.deliveries);
  EXPECT_GT(faulty.latency_ticks, baseline.latency_ticks);

  SimSpec parallel = spec;
  parallel.engine.threads = 4;
  EXPECT_TRUE(same_outcome(faulty, simulate(parallel)));
}

TEST(EngineControlPlane, AggregateMatchesExactTrafficOnLinkMatching) {
  SimSpec exact = figure6_spec(7);
  exact.engine.control_plane = ControlPlaneMode::kExact;
  SimSpec aggregate = exact;
  aggregate.engine.control_plane = ControlPlaneMode::kAggregate;
  const SimResult e = simulate(exact);
  const SimResult a = simulate(aggregate);
  EXPECT_STREQ(e.control_plane, "exact");
  EXPECT_STREQ(a.control_plane, "aggregate");
  // Aggregate mode models matching steps but must reproduce the exact
  // traffic: identical deliveries, copies, and bytes, with no oracle misses.
  EXPECT_EQ(a.deliveries, e.deliveries);
  EXPECT_EQ(a.broker_messages, e.broker_messages);
  EXPECT_EQ(a.client_messages, e.client_messages);
  EXPECT_EQ(a.bytes_on_wire, e.bytes_on_wire);
  EXPECT_EQ(a.missing_deliveries, 0u);
  EXPECT_EQ(a.spurious_deliveries, 0u);
  EXPECT_EQ(a.duplicate_link_copies, 0u);
  EXPECT_TRUE(e.steps_exact);
  EXPECT_FALSE(a.steps_exact);
}

// Flooding and match-first route without link matching, so the control
// plane's mode must not change a single outcome field.
TEST(EngineControlPlane, AggregateEqualsExactOnFloodingAndMatchFirst) {
  for (const Protocol protocol : {Protocol::kFlooding, Protocol::kMatchFirst}) {
    for (const bool dynamics : {false, true}) {
      SimSpec exact = figure6_spec(8);
      exact.protocol = protocol;
      if (dynamics) {
        exact.workload.churn_rate_eps = 100.0;
        exact.workload.link_mtbf_seconds = 0.5;
        exact.workload.link_mttr_seconds = 0.2;
      }
      exact.engine.control_plane = ControlPlaneMode::kExact;
      SimSpec aggregate = exact;
      aggregate.engine.control_plane = ControlPlaneMode::kAggregate;
      const SimResult e = simulate(exact);
      const SimResult a = simulate(aggregate);
      EXPECT_STREQ(a.control_plane, "aggregate");
      EXPECT_TRUE(a.steps_exact);
      EXPECT_TRUE(same_outcome(e, a)) << to_string(protocol) << (dynamics ? " dynamics" : "");
      EXPECT_GT(e.deliveries, 0u);
    }
  }
}

/// Link matching under both control planes: identical traffic, no oracle
/// misses on either.
void expect_same_link_matching_traffic(const SimSpec& spec) {
  SimSpec exact = spec;
  exact.protocol = Protocol::kLinkMatching;
  exact.engine.control_plane = ControlPlaneMode::kExact;
  SimSpec aggregate = exact;
  aggregate.engine.control_plane = ControlPlaneMode::kAggregate;
  const SimResult e = simulate(exact);
  const SimResult a = simulate(aggregate);
  EXPECT_GT(e.deliveries, 0u);
  EXPECT_EQ(a.deliveries, e.deliveries);
  EXPECT_EQ(a.broker_messages, e.broker_messages);
  EXPECT_EQ(a.client_messages, e.client_messages);
  EXPECT_EQ(a.bytes_on_wire, e.bytes_on_wire);
  EXPECT_EQ(a.churn_subscribes, e.churn_subscribes);
  EXPECT_EQ(a.link_outages, e.link_outages);
  for (const SimResult* r : {&e, &a}) {
    EXPECT_EQ(r->missing_deliveries, 0u) << r->control_plane;
    EXPECT_EQ(r->spurious_deliveries, 0u) << r->control_plane;
    EXPECT_EQ(r->duplicate_deliveries, 0u) << r->control_plane;
    EXPECT_EQ(r->duplicate_link_copies, 0u) << r->control_plane;
  }
}

TEST(EngineControlPlane, AggregateMatchesExactTrafficUnderLinkFaults) {
  SimSpec spec = figure6_spec(11);
  spec.workload.link_mtbf_seconds = 0.5;
  spec.workload.link_mttr_seconds = 0.2;
  spec.limits.drain_limit = ticks_from_seconds(120);
  expect_same_link_matching_traffic(spec);
  EXPECT_GT(simulate(spec).link_outages, 0u);
}

// Under churn the aggregate plane fixes an event's matched homes when it is
// published, while the exact plane routes every hop against the live
// subscriptions, so their traffic may differ. Each must still reproduce
// itself across runs (churn is rolled back) and thread counts.
TEST(EngineControlPlane, AggregatePlaneUnderChurnIsRepeatable) {
  SimSpec spec = figure6_spec(11);
  spec.workload.churn_rate_eps = 100.0;
  spec.workload.link_mtbf_seconds = 0.5;
  spec.workload.link_mttr_seconds = 0.2;
  spec.limits.drain_limit = ticks_from_seconds(120);
  spec.engine.control_plane = ControlPlaneMode::kAggregate;
  Simulation sim(spec);
  const SimResult first = sim.run();
  EXPECT_GT(first.churn_subscribes + first.churn_unsubscribes, 0u);
  EXPECT_GT(first.link_outages, 0u);
  EXPECT_TRUE(same_outcome(first, sim.run()));
  spec.engine.threads = 3;
  EXPECT_TRUE(same_outcome(first, simulate(spec)));
}

TEST(EngineControlPlane, AggregateMatchesExactTrafficWhenBrokersHoldSeveralGroups) {
  // Lateral links give the publishers' spanning trees different
  // destination -> link maps at some brokers (several annotation groups).
  SimSpec spec = figure6_spec(12);
  spec.topology.kind = TopologyKind::kRandomTree;
  spec.topology.brokers = 16;
  spec.topology.clients_per_broker = 3;
  spec.topology.min_delay_ms = 2.0;
  spec.topology.max_delay_ms = 20.0;
  spec.topology.extra_links = 6;
  spec.workload.publishers = 4;
  const Simulation sim(spec);
  const ContentRoutingNetwork crn(sim.network(), make_synthetic_schema(spec.attributes,
                                                                       spec.values_per_attribute),
                                  sim.publishers());
  std::size_t most_groups = 0;
  for (std::size_t b = 0; b < sim.network().broker_count(); ++b) {
    most_groups = std::max(most_groups,
                           crn.annotation_group_count(BrokerId{static_cast<BrokerId::rep_type>(b)}));
  }
  EXPECT_GT(most_groups, 1u);
  expect_same_link_matching_traffic(spec);
}

TEST(EngineControlPlane, AutoSwitchesOnThresholds) {
  // kAuto runs the exact model up to 64 brokers and 20,000 subscriptions
  // and the aggregate model beyond either.
  const auto control_plane = [](std::size_t brokers, std::size_t subscriptions) {
    SimSpec spec;
    spec.seed = 9;
    spec.topology.kind = TopologyKind::kLine;
    spec.topology.brokers = brokers;
    spec.topology.clients_per_broker = 1;
    spec.workload.subscriptions = subscriptions;
    spec.workload.events = 4;
    spec.workload.publishers = 1;
    const SimResult result = simulate(spec);
    EXPECT_EQ(result.missing_deliveries, 0u);
    EXPECT_EQ(result.spurious_deliveries, 0u);
    return std::string(result.control_plane);
  };
  EXPECT_EQ(control_plane(64, 100), "exact");
  EXPECT_EQ(control_plane(65, 100), "aggregate");
  EXPECT_EQ(control_plane(2, 20000), "exact");
  EXPECT_EQ(control_plane(2, 20001), "aggregate");
}

TEST(EngineOracle, SamplingVerifiesAFractionAndReportsIt) {
  SimSpec spec = figure6_spec(10);
  spec.verify.oracle_sample = 0.25;
  const SimResult result = simulate(spec);
  EXPECT_EQ(result.oracle_sampled_fraction, 0.25);
  EXPECT_GT(result.oracle_events_verified, 0u);
  EXPECT_LT(result.oracle_events_verified, result.events_published);
  EXPECT_EQ(result.missing_deliveries, 0u);
  EXPECT_EQ(result.spurious_deliveries, 0u);
}

TEST(EngineScaleTopologies, ExactDeliveryOnGeneratedTopologies) {
  // Small instances of each scale family must still deliver exactly (full
  // oracle, single-copy check) and hold the serial/parallel differential.
  const auto check = [](SimSpec spec) {
    spec.workload.subscriptions = 200;
    spec.workload.events = 40;
    spec.workload.rate_eps = 50.0;
    spec.verify.verify_single_copy_per_link = true;
    const SimResult serial = simulate(spec);
    EXPECT_EQ(serial.missing_deliveries, 0u) << to_string(spec.topology.kind);
    EXPECT_EQ(serial.spurious_deliveries, 0u);
    EXPECT_EQ(serial.duplicate_deliveries, 0u);
    EXPECT_EQ(serial.duplicate_link_copies, 0u);
    EXPECT_GT(serial.deliveries, 0u);
    spec.engine.threads = 4;
    EXPECT_TRUE(same_outcome(serial, simulate(spec))) << to_string(spec.topology.kind);
  };

  SimSpec fat_tree;
  fat_tree.seed = 21;
  fat_tree.topology.kind = TopologyKind::kFatTree;
  fat_tree.topology.fat_tree.pods = 4;
  check(fat_tree);

  SimSpec waxman;
  waxman.seed = 22;
  waxman.topology.kind = TopologyKind::kWaxman;
  waxman.topology.waxman.brokers = 30;
  check(waxman);

  SimSpec wan;
  wan.seed = 23;
  wan.topology.kind = TopologyKind::kWan;
  wan.topology.wan.regions = 3;
  wan.topology.wan.brokers_per_region = 8;
  check(wan);
}

TEST(EngineScaleTopologies, ClusteredPartitionsIdenticalUnderChurnAndFaults) {
  // Clustered partitions put brokers in partitions by link delay, not id.
  // With churn and link outages on, 2 and 3 threads must still reproduce
  // the serial run on every scale family.
  const auto check = [](SimSpec spec) {
    spec.workload.subscriptions = 200;
    spec.workload.events = 40;
    spec.workload.rate_eps = 50.0;
    spec.workload.churn_rate_eps = 100.0;
    spec.workload.link_mtbf_seconds = 0.4;
    spec.workload.link_mttr_seconds = 0.2;
    spec.limits.drain_limit = ticks_from_seconds(120);
    const SimResult serial = simulate(spec);
    EXPECT_GT(serial.churn_subscribes + serial.churn_unsubscribes, 0u)
        << to_string(spec.topology.kind);
    EXPECT_GT(serial.link_outages, 0u) << to_string(spec.topology.kind);
    for (const std::size_t threads : {2u, 3u}) {
      spec.engine.threads = threads;
      EXPECT_TRUE(same_outcome(serial, simulate(spec)))
          << to_string(spec.topology.kind) << " threads " << threads;
    }
  };

  SimSpec fat_tree;
  fat_tree.seed = 41;
  fat_tree.topology.kind = TopologyKind::kFatTree;
  fat_tree.topology.fat_tree.pods = 4;
  check(fat_tree);

  SimSpec waxman;
  waxman.seed = 42;
  waxman.topology.kind = TopologyKind::kWaxman;
  waxman.topology.waxman.brokers = 30;
  check(waxman);

  SimSpec wan;
  wan.seed = 43;
  wan.topology.kind = TopologyKind::kWan;
  wan.topology.wan.regions = 3;
  wan.topology.wan.brokers_per_region = 8;
  check(wan);
}

TEST(EngineResult, RoundProvenanceReportsPartitioning) {
  Simulation sim(figure6_spec(13));
  const SimResult serial = sim.run_with_threads(1);
  const SimResult parallel = sim.run_with_threads(2);
  EXPECT_TRUE(same_outcome(serial, parallel));
  EXPECT_GE(serial.engine_rounds, 1u);
  EXPECT_EQ(serial.engine_lookahead_ticks, 0);  // one partition: nothing crosses
  EXPECT_DOUBLE_EQ(serial.engine_partition_load, 1.0);
  // Two clustered partitions keep every 10 ms mid-leaf link inside.
  EXPECT_GE(parallel.engine_lookahead_ticks, ticks_from_millis(25.0));
  EXPECT_GT(parallel.engine_rounds, serial.engine_rounds);
  EXPECT_GE(parallel.engine_partition_load, 1.0);
  EXPECT_LE(parallel.engine_partition_load, 2.0);
  // The plan is cached per thread count, so a repeat run matches.
  const SimResult again = sim.run_with_threads(2);
  EXPECT_EQ(again.engine_rounds, parallel.engine_rounds);
  EXPECT_EQ(again.engine_lookahead_ticks, parallel.engine_lookahead_ticks);
}

TEST(EngineResult, WallClockAndProvenancePopulated) {
  const SimResult result = simulate(figure6_spec(12));
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_EQ(result.engine_threads, 1u);
  EXPECT_EQ(result.broker_count, 39u);
  EXPECT_EQ(result.subscriptions, 400u);
  EXPECT_EQ(result.oracle_sampled_fraction, 1.0);
}

}  // namespace
}  // namespace gryphon
