// Thread-sanitizer target for the parallel simulation engine: a multi-worker
// run over Figure 6 exercising the barrier protocol, cross-partition
// inboxes, the shared aggregate control plane, and the exact plane's lazy
// compile from engine threads — plus construction, which spreads its
// independent pieces over the same thread count. Lives in the
// concurrency-labeled binary so the tools/ci.sh tsan leg picks it up.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "routing/content_router.h"
#include "sim/simulation.h"
#include "topology/builders.h"
#include "workload/generators.h"

namespace gryphon {
namespace {

TEST(ParallelEngine, WorkersRaceFreeAndDeterministic) {
  SimSpec spec;
  spec.seed = 31;
  spec.topology.kind = TopologyKind::kFigure6;
  spec.workload.subscriptions = 300;
  spec.workload.events = 40;
  spec.workload.rate_eps = 60.0;
  const SimResult serial = simulate(spec);
  spec.engine.threads = 4;
  const SimResult parallel = simulate(spec);
  EXPECT_TRUE(same_outcome(serial, parallel));
  EXPECT_EQ(parallel.missing_deliveries, 0u);
}

TEST(ParallelEngine, BucketTreesCreatedMidRunCompileOnEngineThreads) {
  // Factoring splits the subscriptions into 9 bucket trees. With this few
  // subscriptions, churn creates buckets during the run; the first event
  // that reaches one makes an engine thread compile it while the other
  // workers route, and churn switches trees already read to incremental
  // annotations at round boundaries. The parallel run goes first, on a
  // fresh instance, so those compiles happen on its workers.
  SimSpec spec;
  spec.seed = 33;
  spec.topology.kind = TopologyKind::kFigure6;
  spec.attributes = 6;
  spec.values_per_attribute = 3;
  spec.matcher.factoring_levels = 2;
  spec.workload.subscriptions = 20;
  spec.workload.events = 60;
  spec.workload.rate_eps = 60.0;
  spec.workload.churn_rate_eps = 80.0;
  spec.engine.threads = 3;
  const SimResult parallel = simulate(spec);
  spec.engine.threads = 1;
  const SimResult serial = simulate(spec);
  EXPECT_GT(parallel.churn_subscribes, 0u);
  EXPECT_TRUE(same_outcome(serial, parallel));
}

TEST(ParallelEngine, SharedAggregatePlaneIsReadOnlyAcrossWorkers) {
  // The aggregate model shares the routing network's matcher and destination map
  // across partitions; tsan must see only reads after construction.
  SimSpec spec;
  spec.seed = 32;
  spec.topology.kind = TopologyKind::kWan;
  spec.topology.wan.regions = 3;
  spec.topology.wan.brokers_per_region = 6;
  spec.workload.subscriptions = 200;
  spec.workload.events = 30;
  spec.workload.rate_eps = 50.0;
  spec.engine.control_plane = ControlPlaneMode::kAggregate;
  spec.engine.threads = 3;
  const SimResult result = simulate(spec);
  EXPECT_EQ(result.missing_deliveries, 0u);
  EXPECT_EQ(result.spurious_deliveries, 0u);
}

// Construction builds per-broker annotations, local matchers and the
// oracle's per-event matches on spec.engine.threads threads, each piece
// writing its own slot: every thread count must build the same instance.
TEST(ParallelConstruction, ThreadCountsBuildIdenticalInstances) {
  SimSpec fig6;
  fig6.seed = 34;
  fig6.topology.kind = TopologyKind::kFigure6;
  fig6.workload.subscriptions = 300;
  fig6.workload.events = 40;
  fig6.workload.rate_eps = 60.0;

  SimSpec hub;  // the hub's 71 ports need two words per trit plane
  hub.seed = 35;
  hub.topology.kind = TopologyKind::kStar;
  hub.topology.brokers = 70;
  hub.topology.clients_per_broker = 2;
  hub.engine.control_plane = ControlPlaneMode::kExact;
  hub.workload.subscriptions = 300;
  hub.workload.events = 30;
  hub.workload.rate_eps = 60.0;

  SimSpec wan;  // aggregate plane: shared and local matchers built together
  wan.seed = 36;
  wan.topology.kind = TopologyKind::kWan;
  wan.topology.wan.regions = 3;
  wan.topology.wan.brokers_per_region = 6;
  wan.engine.control_plane = ControlPlaneMode::kAggregate;
  wan.workload.subscriptions = 300;
  wan.workload.events = 30;
  wan.workload.rate_eps = 50.0;

  for (SimSpec spec : {fig6, hub, wan}) {
    for (const Protocol protocol : {Protocol::kLinkMatching, Protocol::kFlooding}) {
      spec.protocol = protocol;
      spec.engine.threads = 1;
      const SimResult serial = simulate(spec);
      EXPECT_EQ(serial.missing_deliveries, 0u);
      EXPECT_EQ(serial.spurious_deliveries, 0u);
      for (const std::size_t threads : {2u, 4u}) {
        spec.engine.threads = threads;
        EXPECT_TRUE(same_outcome(serial, simulate(spec)))
            << to_string(spec.topology.kind) << " " << to_string(protocol) << " at "
            << threads << " threads";
      }
    }
  }
}

// compile_all(threads) builds each broker's annotation on its own thread:
// the links and steps of every (broker, event) route must not depend on
// the thread count.
struct RouteTable {
  std::vector<std::vector<LinkIndex>> links;
  std::vector<std::uint64_t> steps;
};

RouteTable route_everything(const BrokerNetwork& network, const std::vector<BrokerId>& roots,
                            std::size_t threads) {
  const SchemaPtr schema = make_synthetic_schema(6, 4);
  ContentRoutingNetwork crn(network, schema, roots);
  Rng rng(97);
  SubscriptionGenerator subs(schema, SubscriptionWorkloadConfig{0.9, 0.8, 1.0});
  for (std::int64_t i = 0; i < 400; ++i) {
    crn.subscribe(SubscriptionId{i}, subs.generate(rng),
                  ClientId{static_cast<ClientId::rep_type>(rng.below(network.client_count()))});
  }
  crn.compile_all(threads);
  EXPECT_EQ(crn.kernel_counts().compiled, 1u);
  EventGenerator events(schema);
  RouteTable table;
  for (std::size_t e = 0; e < 30; ++e) {
    const Event event = events.generate(rng);
    const BrokerId root = roots[e % roots.size()];
    for (std::size_t b = 0; b < network.broker_count(); ++b) {
      const auto result =
          crn.route(BrokerId{static_cast<BrokerId::rep_type>(b)}, event, root);
      table.links.push_back(result.links);
      table.steps.push_back(result.steps);
    }
  }
  return table;
}

TEST(ParallelConstruction, CompileAllRoutesIdenticalAtEveryThreadCount) {
  const Figure6Topology fig6 = make_figure6();
  const BrokerNetwork hub = make_star(70, 100, 2, 10);
  ASSERT_GT(hub.ports(BrokerId{0}).size(), 64u);
  const std::vector<std::pair<const BrokerNetwork*, std::vector<BrokerId>>> cases{
      {&fig6.network, fig6.publisher_brokers}, {&hub, {BrokerId{0}, BrokerId{5}}}};
  for (const auto& [network, roots] : cases) {
    const RouteTable serial = route_everything(*network, roots, 1);
    for (const std::size_t threads : {2u, 4u}) {
      const RouteTable parallel = route_everything(*network, roots, threads);
      EXPECT_EQ(parallel.links, serial.links) << threads << " threads";
      EXPECT_EQ(parallel.steps, serial.steps) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace gryphon
