// Thread-sanitizer target for the parallel simulation engine: a multi-worker
// run over Figure 6 exercising the barrier protocol, cross-partition
// inboxes, the shared aggregate control plane, and the exact plane's lazy
// compile from engine threads. Lives in the concurrency-labeled binary so
// the tools/ci.sh tsan leg picks it up.
#include <gtest/gtest.h>

#include "sim/simulation.h"

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
  // The aggregate control plane shares one matcher and destination map
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

}  // namespace
}  // namespace gryphon
