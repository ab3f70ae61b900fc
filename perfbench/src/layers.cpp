#include "layers.h"

#include <deque>
#include <map>
#include <memory>

#include "broker/broker_core.h"
#include "broker/event_log.h"
#include "broker/wire.h"
#include "event/codec.h"
#include "routing/content_router.h"

namespace perfbench {

using namespace gryphon;

namespace {

// Keeps replayed results observable so the compiler cannot drop the work.
volatile std::uint64_t g_sink = 0;

constexpr std::size_t kReplayOps = 200'000;

std::vector<std::string> hop_names() {
  std::vector<std::string> names;
  for (int h = 0; h <= 5; ++h) {
    names.push_back("hop" + std::to_string(h) + ".deliver_p50_us");
    names.push_back("hop" + std::to_string(h) + ".deliver_p99_us");
  }
  return names;
}

/// Mean nanoseconds per call of `op(i)` over kReplayOps calls cycling
/// through `n` inputs.
template <typename Op>
double mean_ns(std::size_t n, Op&& op) {
  const std::int64_t start = now_ns();
  for (std::size_t k = 0; k < kReplayOps; ++k) g_sink = g_sink + op(k % n);
  return static_cast<double>(now_ns() - start) / static_cast<double>(kReplayOps);
}

double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

}  // namespace

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"transport.frames_per_event", "frames"},
        {"transport.bytes_per_event", "B"},
        {"transport.frames_per_batch", "frames"},
        {"transport.send_us_per_event", "us"},
    };
    for (const char* type :
         {"publish", "event_forward", "broker_ack", "ack", "subscribe", "sub_propagate"}) {
      m.emplace_back(std::string("broker.frame_us.") + type + ".p50", "us");
      m.emplace_back(std::string("broker.frame_us.") + type + ".p99", "us");
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"broker.self_us_per_event", "us"},
        {"broker.forwards_per_event", "count"},
        {"broker.deliveries_per_event", "count"},
        {"broker.steps_per_event", "steps"},
        {"broker.retransmits", "count"},
        {"broker.duplicates_dropped", "count"},
        {"broker.frames_rejected", "count"},
        {"broker.compile_us.p50", "us"},
        {"broker.compile_us.p99", "us"},
        {"broker.compile_publishes", "count"},
        {"broker.segments_reused_ratio", "ratio"},
        {"broker.covered_ratio", "ratio"},
        {"broker.settle_us.p50", "us"},
        {"broker.settle_us.p99", "us"},
        {"core.dispatch_us.p50", "us"},
        {"core.dispatch_us.p99", "us"},
        {"core.steps_per_dispatch", "steps"},
        {"core.forward_fanout", "count"},
        {"core.bulk_load_s", "s"},
        {"event.encode_ns", "ns"},
        {"event.decode_ns", "ns"},
        {"event.bytes", "B"},
        {"wire.encode_ns.event_forward", "ns"},
        {"wire.encode_ns.deliver", "ns"},
        {"wire.decode_ns.publish", "ns"},
        {"wire.decode_ns.event_forward", "ns"},
        {"event_log.append_ns", "ns"},
        {"client.publish_us.p50", "us"},
        {"client.deliver_frame_us.p50", "us"},
        {"client.subscribe_us.p50", "us"},
        {"client.subscribe_us.p99", "us"},
        {"routing.route_us.p50", "us"},
        {"routing.route_us.p99", "us"},
        {"routing.steps_per_route", "steps"},
        {"sim.build_s", "s"},
        {"sim.run_s", "s"},
        {"sim.engine_wall_s", "s"},
        {"sim.steps_per_event", "steps"},
        {"sim.linkmatch_vs_central_steps", "ratio"},
        {"sim.broker_messages_per_event", "count"},
        {"sim.max_utilization", "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    for (const std::string& name : hop_names()) m.emplace_back(name, "us");
    m.emplace_back("gen.late_us.p99", "us");
    m.emplace_back("gen.late_us.max", "us");
    m.emplace_back("trace.overhead_p50_us", "us");
    m.emplace_back("trace.overhead_p99_us", "us");
    return m;
  }();
  return metrics;
}

void replay_codec(const std::vector<Event>& events, Report& report) {
  if (events.empty()) return;
  const SchemaPtr& schema = events.front().schema();
  const std::size_t n = events.size();
  std::vector<std::vector<std::uint8_t>> encoded;
  std::vector<std::vector<std::uint8_t>> publish_frames;
  std::vector<std::vector<std::uint8_t>> forward_frames;
  double bytes = 0;
  for (const Event& e : events) {
    encoded.push_back(encode_event(e));
    bytes += static_cast<double>(encoded.back().size());
    publish_frames.push_back(wire::encode(wire::Publish{SpaceId{0}, encoded.back()}));
    forward_frames.push_back(
        wire::encode(wire::EventForward{BrokerId{0}, SpaceId{0}, encoded.back(), 1, 1}));
  }
  report.set("event.bytes", bytes / static_cast<double>(n), "B");
  report.set("event.encode_ns",
             mean_ns(n, [&](std::size_t i) { return encode_event(events[i]).size(); }), "ns");
  report.set("event.decode_ns", mean_ns(n, [&](std::size_t i) {
               return decode_event(schema, encoded[i]).size();
             }), "ns");
  report.set("wire.encode_ns.event_forward", mean_ns(n, [&](std::size_t i) {
               return wire::encode(wire::EventForward{BrokerId{0}, SpaceId{0}, encoded[i], 1, i})
                   .size();
             }), "ns");
  report.set("wire.encode_ns.deliver", mean_ns(n, [&](std::size_t i) {
               return wire::encode(wire::Deliver{i, SpaceId{0}, encoded[i]}).size();
             }), "ns");
  report.set("wire.decode_ns.publish", mean_ns(n, [&](std::size_t i) {
               return wire::decode_publish(publish_frames[i]).event.size();
             }), "ns");
  report.set("wire.decode_ns.event_forward", mean_ns(n, [&](std::size_t i) {
               return wire::decode_event_forward(forward_frames[i]).event.size();
             }), "ns");
  // The broker appends a copy of the encoded event per delivery; the client
  // acknowledges as it goes, so the log stays short.
  EventLog log;
  Ticks tick = 0;
  report.set("event_log.append_ns", mean_ns(n, [&](std::size_t i) {
               const std::uint64_t seq = log.append(SpaceId{0}, encoded[i], ++tick);
               if (seq % 64 == 0) log.acknowledge(seq);
               return seq;
             }), "ns");
}

void replay_core(const BrokerNetwork& topology, const SchemaPtr& schema,
                 const std::vector<CoreSubscription>& subscriptions,
                 const std::vector<std::pair<Event, BrokerId>>& events, Report& report) {
  std::vector<std::unique_ptr<BrokerCore>> cores;
  const std::int64_t load_start = now_ns();
  for (std::size_t b = 0; b < topology.broker_count(); ++b) {
    auto core = std::make_unique<BrokerCore>(BrokerId{static_cast<BrokerId::rep_type>(b)},
                                             topology, std::vector<SchemaPtr>{schema});
    core->control_plane().assert_serialized();  // single-threaded replay
    for (std::size_t i = 0; i < subscriptions.size(); ++i) {
      core->add_subscription(SpaceId{0}, SubscriptionId{static_cast<std::int64_t>(i)},
                             subscriptions[i].subscription, subscriptions[i].owner,
                             SnapshotPolicy::kDefer);
    }
    core->publish_space(SpaceId{0});
    cores.push_back(std::move(core));
  }
  report.set("core.bulk_load_s", seconds_since(load_start), "s");

  MatchScratch scratch;
  std::vector<double> dispatch_us;
  double steps = 0;
  double fanout = 0;
  std::deque<BrokerId> frontier;
  for (const auto& [event, root] : events) {
    frontier.assign(1, root);
    while (!frontier.empty()) {
      const BrokerId at = frontier.front();
      frontier.pop_front();
      const std::int64_t start = now_ns();
      const Decision decision =
          cores[static_cast<std::size_t>(at.value)]->dispatch(SpaceId{0}, event, root, scratch);
      dispatch_us.push_back(us(now_ns() - start));
      steps += static_cast<double>(decision.steps);
      fanout += static_cast<double>(decision.forward.size());
      for (const BrokerId next : decision.forward) frontier.push_back(next);
    }
  }
  const auto count = static_cast<double>(std::max<std::size_t>(1, dispatch_us.size()));
  report.set("core.steps_per_dispatch", steps / count, "steps");
  report.set("core.forward_fanout", fanout / count, "count");
  report.set("core.dispatch_us.p50", quantile(dispatch_us, 0.5), "us");
  report.set("core.dispatch_us.p99", quantile(dispatch_us, 0.99), "us");
}

void replay_routing(const BrokerNetwork& network, const SchemaPtr& schema,
                    const std::vector<BrokerId>& roots,
                    const std::vector<RouteSubscription>& subscriptions,
                    const std::vector<std::pair<Event, BrokerId>>& events, Report& report) {
  ContentRoutingNetwork routing(network, schema, roots);
  for (const RouteSubscription& s : subscriptions) {
    routing.subscribe(s.id, s.subscription, s.subscriber);
  }
  std::vector<double> route_us;
  double steps = 0;
  std::deque<BrokerId> frontier;
  for (const auto& [event, root] : events) {
    frontier.assign(1, root);
    while (!frontier.empty()) {
      const BrokerId at = frontier.front();
      frontier.pop_front();
      const std::int64_t start = now_ns();
      const ContentRoutingNetwork::RouteResult result = routing.route(at, event, root);
      route_us.push_back(us(now_ns() - start));
      steps += static_cast<double>(result.steps);
      for (const LinkIndex link : result.links) {
        const auto& port = network.ports(at)[static_cast<std::size_t>(link.value)];
        if (port.kind == BrokerNetwork::PortKind::kBroker) frontier.push_back(port.peer_broker);
      }
    }
  }
  report.set("routing.route_us.p50", quantile(route_us, 0.5), "us");
  report.set("routing.route_us.p99", quantile(route_us, 0.99), "us");
  report.set("routing.steps_per_route",
             steps / static_cast<double>(std::max<std::size_t>(1, route_us.size())), "steps");
}

void summarize_spans(const std::vector<Span>& spans, std::int64_t from_ns, std::int64_t to_ns,
                     std::uint64_t events, Report& report) {
  const double per_event = 1.0 / static_cast<double>(std::max<std::uint64_t>(1, events));
  double frames = 0;
  double bytes = 0;
  double calls = 0;
  double send_ns = 0;
  double broker_self_ns = 0;
  std::map<std::uint8_t, std::vector<double>> frame_us;  // broker self time by frame type
  std::vector<double> publish_us;
  std::vector<double> deliver_frame_us;
  const auto type = [](wire::FrameType t) { return static_cast<std::uint8_t>(t); };
  for (const Span& s : spans) {
    const bool in_window = s.start_ns >= from_ns && s.start_ns <= to_ns;
    const bool setup_type = s.frame_type == type(wire::FrameType::kSubscribe) ||
                            s.frame_type == type(wire::FrameType::kSubPropagate);
    switch (s.layer) {
      case Layer::kTransportSend:
        if (!in_window) break;
        frames += s.frames;
        bytes += s.bytes;
        calls += 1;
        send_ns += static_cast<double>(s.end_ns - s.start_ns);
        break;
      case Layer::kBrokerFrame:
        if (in_window) broker_self_ns += static_cast<double>(s.self_ns());
        if (in_window || setup_type) frame_us[s.frame_type].push_back(us(s.self_ns()));
        break;
      case Layer::kClientFrame:
        if (in_window && s.frame_type == type(wire::FrameType::kDeliver)) {
          deliver_frame_us.push_back(us(s.end_ns - s.start_ns));
        }
        break;
      case Layer::kClientPublish:
        if (in_window) publish_us.push_back(us(s.end_ns - s.start_ns));
        break;
    }
  }
  report.set("transport.frames_per_event", frames * per_event, "frames");
  report.set("transport.bytes_per_event", bytes * per_event, "B");
  report.set("transport.frames_per_batch", calls > 0 ? frames / calls : 0.0, "frames");
  report.set("transport.send_us_per_event", send_ns * 1e-3 * per_event, "us");
  report.set("broker.self_us_per_event", broker_self_ns * 1e-3 * per_event, "us");
  const std::vector<std::pair<const char*, wire::FrameType>> types = {
      {"publish", wire::FrameType::kPublish},
      {"event_forward", wire::FrameType::kEventForward},
      {"broker_ack", wire::FrameType::kBrokerAck},
      {"ack", wire::FrameType::kAck},
      {"subscribe", wire::FrameType::kSubscribe},
      {"sub_propagate", wire::FrameType::kSubPropagate},
  };
  for (const auto& [name, t] : types) {
    const std::vector<double>& samples = frame_us[type(t)];
    report.set(std::string("broker.frame_us.") + name + ".p50", quantile(samples, 0.5), "us");
    report.set(std::string("broker.frame_us.") + name + ".p99", quantile(samples, 0.99), "us");
  }
  report.set("client.publish_us.p50", quantile(publish_us, 0.5), "us");
  report.set("client.deliver_frame_us.p50", quantile(deliver_frame_us, 0.5), "us");
  report.detail("trace.spans", static_cast<double>(spans.size()));
}

double histogram_quantile_us(const std::uint64_t* buckets, std::size_t count, double q) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < count; ++i) total += buckets[i];
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < count; ++i) {
    seen += buckets[i];
    if (seen > rank) return static_cast<double>(std::uint64_t{1} << (i + 1));
  }
  return static_cast<double>(std::uint64_t{1} << count);
}

}  // namespace perfbench
