// Per-layer measurements of the traced run.
//
// Replays time one layer's public call at a time over the workload's own
// inputs (events, subscriptions, topology), outside the open-loop run:
//  * event codec, wire frames and EventLog appends (event, broker/wire,
//    broker/event_log);
//  * BrokerCore::dispatch at every broker an event visits, on standalone
//    cores bulk-loaded with SnapshotPolicy::kDefer (matching via broker_core);
//  * ContentRoutingNetwork::route along each event's spanning tree (routing).
// summarize_spans turns the run's spans into the transport, broker and
// client figures.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "common/ids.h"
#include "event/event.h"
#include "event/subscription.h"
#include "topology/network.h"
#include "trace.h"

namespace perfbench {

/// Every per-layer metric name with its unit, in report order. Traced runs
/// report all of them (0 where a layer is not on the workload's path).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// event.*, wire.*, event_log.* from encoding/decoding `events`.
void replay_codec(const std::vector<gryphon::Event>& events, Report& report);

struct CoreSubscription {
  gryphon::Subscription subscription;
  gryphon::BrokerId owner;
};

/// core.* from dispatching each event (published at its broker) at every
/// broker it reaches, on cores loaded with `subscriptions`.
void replay_core(const gryphon::BrokerNetwork& topology, const gryphon::SchemaPtr& schema,
                 const std::vector<CoreSubscription>& subscriptions,
                 const std::vector<std::pair<gryphon::Event, gryphon::BrokerId>>& events,
                 Report& report);

struct RouteSubscription {
  gryphon::SubscriptionId id;
  gryphon::Subscription subscription;
  gryphon::ClientId subscriber;
};

/// routing.* from ContentRoutingNetwork::route along each event's tree.
void replay_routing(const gryphon::BrokerNetwork& network, const gryphon::SchemaPtr& schema,
                    const std::vector<gryphon::BrokerId>& roots,
                    const std::vector<RouteSubscription>& subscriptions,
                    const std::vector<std::pair<gryphon::Event, gryphon::BrokerId>>& events,
                    Report& report);

/// transport.*, broker.frame_us.*, broker.self_us_per_event and client.*
/// frame figures from the spans that started inside [from_ns, to_ns];
/// per-event figures divide by `events`. Subscribe and propagate frames are
/// summarized over every span (they happen during set-up).
void summarize_spans(const std::vector<Span>& spans, std::int64_t from_ns, std::int64_t to_ns,
                     std::uint64_t events, Report& report);

/// Quantile of a log2 microsecond histogram (bucket i = [2^i, 2^(i+1)) us),
/// reported as the bucket's upper edge.
double histogram_quantile_us(const std::uint64_t* buckets, std::size_t count, double q);

}  // namespace perfbench
