// The simulation engine: per-broker servers (broker_server.h) fed from
// event queues (event_queue.h) over link channels (link_channel.h).
//
// Parallelization is conservative PDES: brokers are split into one
// partition per worker thread, and time advances in rounds. Each round
// processes every pending arrival with
//   time <= global_min + lookahead,
// where lookahead is the minimum delay of any link crossing a partition
// boundary. The round count is therefore about simulated time / lookahead,
// so the partitions cluster brokers joined by fast links and cut only slow
// ones (partitioning.h); the plan is computed once per thread count and
// reused by every run of the instance. Any arrival a round generates for
// another partition lands at
//   >= global_min + service(>=1 tick) + link delay(>= lookahead)
//   >  global_min + lookahead,
// i.e. strictly beyond the horizon, so no partition can receive work it
// should already have processed. Cross-partition arrivals go through
// mutex-guarded inboxes and are merged at the next round boundary; within a
// round each partition pops its own queue in EventKey order. Rounds are
// separated by a RoundBarrier (round_barrier.h): the last worker to arrive
// plans the next round, and the others spin briefly, then park. Because the
// key is locally computable (event_queue.h) the resulting event order — and
// therefore the entire SimResult — is identical for every thread count,
// including the serial engine (which is the same loop with one partition).
//
// Subscription churn applies at round boundaries: the planner clamps the
// horizon to just before the next churn operation, applies every operation
// due, and only then releases the next round — the control-plane mutation
// is serialized against all workers, and happens at the same virtual time
// regardless of thread count.
#pragma once

#include <vector>

#include "sim/sim_instance.h"
#include "sim/simulation.h"

namespace gryphon {

/// Runs one schedule over a built instance. Thread count, verification, and
/// cost model come from inst.spec. Repeatable: churn is rolled back before
/// returning.
SimResult run_engine(SimInstance& inst, const std::vector<PublishRecord>& schedule);

}  // namespace gryphon
