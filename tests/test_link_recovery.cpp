// Broker-link fault tolerance (docs/fault-tolerance.md): link sessions
// replay unacked forwards across drops, the go-back-N timer fills silent
// losses, the supervisor detects dead links and redials with backoff,
// subscription state reconciles on reconnect (tombstones included), and
// malformed frames are rejected without taking the broker down.
//
// Everything is deterministic: brokers run on an injected fake clock with
// pinned session epochs, and the InProcNetwork delivers frames only when
// pumped.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "broker/client.h"
#include "broker/fault_transport.h"
#include "broker/inproc_transport.h"
#include "broker/link_supervisor.h"
#include "topology/builders.h"

namespace gryphon {
namespace {

struct LinkBed {
  SchemaPtr schema = make_schema("trades", {Attribute{"issue", AttributeType::kString, {}},
                                            Attribute{"price", AttributeType::kDouble, {}},
                                            Attribute{"volume", AttributeType::kInt, {}}});
  BrokerNetwork topo = make_line(2, 10, 0, 1);
  InProcNetwork net;
  Ticks clock{0};
  std::vector<std::unique_ptr<Broker>> brokers;
  std::vector<std::unique_ptr<Client>> clients;
  ConnId link_conn{kInvalidConn};

  explicit LinkBed(Broker::Options base = Broker::Options{}) {
    for (int b = 0; b < 2; ++b) {
      auto* endpoint = net.create_endpoint("broker" + std::to_string(b));
      Broker::Options opts = base;
      opts.session_epoch = 100 + static_cast<std::uint64_t>(b);
      opts.clock = [this] { return clock; };
      brokers.push_back(std::make_unique<Broker>(BrokerId{b}, topo,
                                                 std::vector<SchemaPtr>{schema}, *endpoint,
                                                 opts));
      endpoint->set_handler(brokers.back().get());
    }
    connect_link();
    net.pump();
  }

  void connect_link() {
    link_conn = net.connect("broker0", "broker1");
    brokers[0]->attach_broker_link(link_conn, BrokerId{1});
    net.pump();
  }

  void drop_link() { net.drop("broker0", link_conn); }

  Client& add_client(const std::string& name, int broker) {
    auto* endpoint = net.create_endpoint(name);
    clients.push_back(
        std::make_unique<Client>(name, *endpoint, std::vector<SchemaPtr>{schema}));
    endpoint->set_handler(clients.back().get());
    const ConnId conn = net.connect(name, "broker" + std::to_string(broker));
    clients.back()->bind(conn);
    net.pump();
    return *clients.back();
  }

  Event trade(const char* issue, double price, int volume) {
    return Event(schema, {Value(issue), Value(price), Value(volume)});
  }
};

TEST(LinkRecovery, ForwardsQueuedWhileDownReplayOnReconnect) {
  LinkBed bed;
  Client& sub = bed.add_client("sub", 1);
  Client& pub = bed.add_client("pub", 0);
  sub.subscribe(0, "volume > 0");
  bed.net.pump();

  bed.drop_link();
  EXPECT_EQ(bed.brokers[0]->stats().link_flaps, 1u);
  EXPECT_FALSE(bed.brokers[0]->link_up(BrokerId{1}));

  for (int i = 1; i <= 3; ++i) pub.publish(0, bed.trade("IBM", 100.0 + i, i));
  bed.net.pump();
  EXPECT_TRUE(sub.take_deliveries().empty());
  EXPECT_EQ(bed.brokers[0]->stats().events_forwarded, 0u);
  EXPECT_EQ(bed.brokers[0]->stats().forwards_queued_link_down, 3u);

  bed.connect_link();  // handshake replays the queued forwards
  const auto deliveries = sub.take_deliveries();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0].event.value(2).as_int(), 1);
  EXPECT_EQ(deliveries[2].event.value(2).as_int(), 3);
  EXPECT_GE(bed.brokers[0]->stats().retransmits, 3u);
  EXPECT_EQ(bed.brokers[1]->stats().events_relayed, 3u);
}

TEST(LinkRecovery, ReconnectDoesNotDuplicateDeliveries) {
  LinkBed bed;
  Client& sub = bed.add_client("sub", 1);
  Client& pub = bed.add_client("pub", 0);
  sub.subscribe(0, "volume > 0");
  bed.net.pump();

  pub.publish(0, bed.trade("IBM", 100.0, 1));
  bed.net.pump();
  ASSERT_EQ(sub.take_deliveries().size(), 1u);

  // Flap the link a few times with no traffic in between: the handshake
  // must not resurrect already-acked forwards.
  for (int flap = 0; flap < 3; ++flap) {
    bed.drop_link();
    bed.connect_link();
  }
  EXPECT_TRUE(sub.take_deliveries().empty());
  EXPECT_EQ(bed.brokers[1]->stats().duplicates_dropped, 0u);

  pub.publish(0, bed.trade("IBM", 101.0, 2));
  bed.net.pump();
  EXPECT_EQ(sub.take_deliveries().size(), 1u);
}

TEST(LinkRecovery, GoBackNRetransmitsSilentlyLostForwards) {
  // Broker 0's transport is wrapped in the fault decorator so the link can
  // be severed (black-holed) without the transport noticing: frames are
  // eaten, no disconnect fires, and only the retransmit timer can recover.
  const SchemaPtr schema =
      make_schema("trades", {Attribute{"issue", AttributeType::kString, {}},
                             Attribute{"price", AttributeType::kDouble, {}},
                             Attribute{"volume", AttributeType::kInt, {}}});
  const BrokerNetwork topo = make_line(2, 10, 0, 1);
  InProcNetwork net;
  Ticks clock = 0;

  auto* ep0 = net.create_endpoint("broker0");
  auto* ep1 = net.create_endpoint("broker1");
  FaultInjectingTransport faults(*ep0, FaultInjectingTransport::Options{});

  Broker::Options opts;
  opts.session_epoch = 100;
  opts.link_retransmit_timeout = 100;
  opts.link_heartbeat_interval = 10000;
  opts.clock = [&clock] { return clock; };
  Broker b0(BrokerId{0}, topo, {schema}, faults, opts);
  faults.set_handler(&b0);
  ep0->set_handler(&faults);

  Broker::Options opts1 = opts;
  opts1.session_epoch = 101;
  Broker b1(BrokerId{1}, topo, {schema}, *ep1, opts1);
  ep1->set_handler(&b1);

  const ConnId link = net.connect("broker0", "broker1");
  b0.attach_broker_link(link, BrokerId{1});
  net.pump();

  Client sub("sub", *net.create_endpoint("sub"), {schema});
  net.create_endpoint("sub")->set_handler(&sub);
  sub.bind(net.connect("sub", "broker1"));
  Client pub("pub", *net.create_endpoint("pub"), {schema});
  net.create_endpoint("pub")->set_handler(&pub);
  pub.bind(net.connect("pub", "broker0"));
  net.pump();
  sub.subscribe(0, "volume > 0");
  net.pump();

  faults.sever(link);
  pub.publish(0, Event(schema, {Value("IBM"), Value(99.0), Value(7)}));
  net.pump();
  EXPECT_TRUE(sub.take_deliveries().empty());
  EXPECT_GE(faults.counters().severed_out, 1u);
  EXPECT_EQ(b0.stats().events_forwarded, 1u);  // sent once, eaten in flight

  // Healing alone changes nothing — the frame is gone. The go-back-N timer
  // resends the unacked window once the ack stalls past the timeout.
  faults.heal_all();
  net.pump();
  EXPECT_TRUE(sub.take_deliveries().empty());

  clock += 200;  // past the retransmit timeout
  b0.tick_links(clock);
  net.pump();
  const auto deliveries = sub.take_deliveries();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].event.value(2).as_int(), 7);
  EXPECT_GE(b0.stats().retransmits, 1u);

  // And the ack that came back retired the window: another timer pass
  // retransmits nothing new.
  const std::uint64_t retransmits_before = b0.stats().retransmits;
  clock += 200;
  b0.tick_links(clock);
  net.pump();
  EXPECT_EQ(b0.stats().retransmits, retransmits_before);
  EXPECT_TRUE(sub.take_deliveries().empty());
}

TEST(LinkRecovery, HeartbeatsKeepQuietLinkAliveUnderSupervision) {
  Broker::Options base;
  base.link_heartbeat_interval = 100;
  LinkBed bed(base);
  LinkSupervisor::Options sup_opts;
  sup_opts.idle_timeout = 1000;
  LinkSupervisor supervisor(
      *bed.brokers[0], [](BrokerId) { return kInvalidConn; }, sup_opts);
  supervisor.supervise(BrokerId{1});

  // Both ends run their periodic tick; no application traffic at all.
  for (Ticks t = 0; t <= 10000; t += 100) {
    bed.clock = t;
    supervisor.tick(t);
    bed.brokers[1]->tick_links(t);
    bed.net.pump();
  }
  EXPECT_TRUE(bed.brokers[0]->link_up(BrokerId{1}));
  EXPECT_EQ(bed.brokers[0]->stats().link_flaps, 0u);
  EXPECT_EQ(supervisor.status(BrokerId{1}).dial_attempts, 0u);
}

TEST(LinkRecovery, SupervisorDropsSilentLinkAndRedials) {
  Broker::Options base;
  base.link_heartbeat_interval = 100;
  LinkBed bed(base);
  Client& sub = bed.add_client("sub", 1);
  Client& pub = bed.add_client("pub", 0);
  sub.subscribe(0, "volume > 0");
  bed.net.pump();

  LinkSupervisor::Options sup_opts;
  sup_opts.idle_timeout = 500;
  sup_opts.backoff_initial = 100;
  sup_opts.jitter = 0.0;
  LinkSupervisor supervisor(
      *bed.brokers[0],
      [&bed](BrokerId) { return bed.net.connect("broker0", "broker1"); }, sup_opts);
  supervisor.supervise(BrokerId{1});

  // Phase 1: the peer stops responding entirely (we stop ticking broker 1,
  // so it emits no heartbeats). The supervisor must notice the silence,
  // drop the link, and start redialing.
  Ticks t = 0;
  for (; t <= 2000; t += 100) {
    bed.clock = t;
    supervisor.tick(t);
    bed.net.pump();  // broker 1 still acks/handshakes on reconnect...
  }
  // Every redial "succeeds" at the transport level but the link goes silent
  // again (broker 1 responds to the handshake, which resets the activity
  // clock, then goes quiet). At least one idle drop must have happened.
  EXPECT_GE(bed.brokers[0]->stats().link_flaps, 1u);
  EXPECT_GE(supervisor.status(BrokerId{1}).dial_attempts, 1u);

  // Phase 2: the peer comes back to life (its tick loop resumes): the link
  // stabilizes and traffic flows again.
  for (; t <= 4000; t += 100) {
    bed.clock = t;
    supervisor.tick(t);
    bed.brokers[1]->tick_links(t);
    bed.net.pump();
  }
  EXPECT_TRUE(bed.brokers[0]->link_up(BrokerId{1}));
  pub.publish(0, bed.trade("IBM", 100.0, 5));
  bed.net.pump();
  EXPECT_EQ(sub.take_deliveries().size(), 1u);
}

TEST(LinkRecovery, SupervisorBacksOffExponentially) {
  LinkBed bed;
  bed.drop_link();

  std::vector<Ticks> attempts;
  LinkSupervisor::Options sup_opts;
  sup_opts.backoff_initial = 100;
  sup_opts.backoff_max = 10000;
  sup_opts.jitter = 0.0;
  LinkSupervisor supervisor(
      *bed.brokers[0],
      [&](BrokerId) {
        attempts.push_back(bed.clock);
        return kInvalidConn;  // the peer is unreachable
      },
      sup_opts);
  supervisor.supervise(BrokerId{1});

  for (Ticks t = 0; t <= 2000; t += 10) {
    bed.clock = t;
    supervisor.tick(t);
  }
  // Attempts at ~0, ~100, ~300 (100+200), ~700 (+400), ~1500 (+800): five
  // within the window, each gap doubling.
  ASSERT_GE(attempts.size(), 4u);
  ASSERT_LE(attempts.size(), 6u);
  for (std::size_t i = 2; i < attempts.size(); ++i) {
    const Ticks prev_gap = attempts[i - 1] - attempts[i - 2];
    const Ticks gap = attempts[i] - attempts[i - 1];
    EXPECT_GE(gap, prev_gap * 2 - 10) << "attempt " << i << " did not back off";
  }
}

TEST(LinkRecovery, RedialBudgetExhaustionDeclaresLinkDead) {
  LinkBed bed;
  Client& sub = bed.add_client("sub", 1);
  Client& pub = bed.add_client("pub", 0);
  sub.subscribe(0, "volume > 0");
  bed.net.pump();

  bool peer_reachable = false;
  LinkSupervisor::Options sup_opts;
  sup_opts.backoff_initial = 10;
  sup_opts.backoff_max = 50;
  sup_opts.jitter = 0.0;
  sup_opts.redial_budget = 3;
  LinkSupervisor supervisor(
      *bed.brokers[0],
      [&](BrokerId) {
        return peer_reachable ? bed.net.connect("broker0", "broker1") : kInvalidConn;
      },
      sup_opts);

  bed.drop_link();
  supervisor.supervise(BrokerId{1});
  for (Ticks t = 0; t <= 500 && !supervisor.status(BrokerId{1}).dead; t += 10) {
    bed.clock = t;
    supervisor.tick(t);
  }
  ASSERT_TRUE(supervisor.status(BrokerId{1}).dead);
  EXPECT_EQ(supervisor.status(BrokerId{1}).consecutive_failures, 3u);

  // Forwards to the dead link degrade to counted drops — no unbounded log.
  pub.publish(0, bed.trade("IBM", 100.0, 1));
  bed.net.pump();
  EXPECT_EQ(bed.brokers[0]->stats().forwards_dropped_dead_link, 1u);
  EXPECT_TRUE(sub.take_deliveries().empty());

  // Reviving the peer and re-supervising brings the link back; new traffic
  // flows, the dropped forward stays dropped.
  peer_reachable = true;
  supervisor.supervise(BrokerId{1});
  bed.clock += 10;
  supervisor.tick(bed.clock);
  bed.net.pump();
  EXPECT_TRUE(bed.brokers[0]->link_up(BrokerId{1}));
  pub.publish(0, bed.trade("IBM", 101.0, 2));
  bed.net.pump();
  const auto deliveries = sub.take_deliveries();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].event.value(2).as_int(), 2);
}

TEST(LinkRecovery, TombstoneStopsReconnectResurrectingUnsubscription) {
  LinkBed bed;
  Client& sub = bed.add_client("sub", 1);
  Client& pub = bed.add_client("pub", 0);
  const std::uint64_t token = sub.subscribe(0, "volume > 0");
  bed.net.pump();
  ASSERT_EQ(bed.brokers[0]->subscription_count(), 1u);
  const auto id = sub.subscription_id(token);
  ASSERT_TRUE(id.has_value());

  // The unsubscription happens while the link is down, so broker 0 keeps a
  // stale replica it will try to re-flood during the reconnect handshake.
  bed.drop_link();
  sub.unsubscribe(*id);
  bed.net.pump();
  EXPECT_EQ(bed.brokers[1]->subscription_count(), 0u);
  EXPECT_EQ(bed.brokers[0]->subscription_count(), 1u);  // stale

  bed.connect_link();  // sync floods the stale replica; tombstone answers
  EXPECT_EQ(bed.brokers[0]->subscription_count(), 0u);
  EXPECT_EQ(bed.brokers[1]->subscription_count(), 0u);

  pub.publish(0, bed.trade("IBM", 100.0, 5));
  bed.net.pump();
  EXPECT_TRUE(sub.take_deliveries().empty());
}

TEST(LinkRecovery, MalformedFramesAreRejectedWithoutCrashing) {
  LinkBed bed;
  Client& sub = bed.add_client("sub", 1);
  Client& pub = bed.add_client("pub", 0);
  sub.subscribe(0, "volume > 0");
  bed.net.pump();

  struct Probe : TransportHandler {
    int disconnects = 0;
    void on_connect(ConnId) override {}
    void on_frame(ConnId, std::span<const std::uint8_t>) override {}
    void on_disconnect(ConnId) override { ++disconnects; }
  };
  Probe probe;
  auto* attacker = bed.net.create_endpoint("attacker");
  attacker->set_handler(&probe);

  // Garbage type byte.
  const ConnId c1 = bed.net.connect("attacker", "broker0");
  attacker->send(c1, {0xff, 0x13, 0x37});
  bed.net.pump();
  EXPECT_EQ(bed.brokers[0]->stats().frames_rejected, 1u);
  EXPECT_EQ(probe.disconnects, 1);

  // Valid type byte, truncated payload.
  const ConnId c2 = bed.net.connect("attacker", "broker0");
  attacker->send(c2, {static_cast<std::uint8_t>(wire::FrameType::kSubscribe), 0x01});
  bed.net.pump();
  EXPECT_EQ(bed.brokers[0]->stats().frames_rejected, 2u);
  EXPECT_EQ(probe.disconnects, 2);

  // Oversized length prefix (empty frames can't cross InProcNetwork — it
  // uses them as drop tombstones — and are covered in test_wire_robustness).
  const ConnId c3 = bed.net.connect("attacker", "broker0");
  attacker->send(c3, {static_cast<std::uint8_t>(wire::FrameType::kPublish), 0x00, 0x00,
                      0xff, 0xff, 0xff, 0xff});
  bed.net.pump();
  EXPECT_EQ(bed.brokers[0]->stats().frames_rejected, 3u);
  EXPECT_EQ(probe.disconnects, 3);

  // The broker shrugged it all off: normal traffic still flows.
  pub.publish(0, bed.trade("IBM", 100.0, 5));
  bed.net.pump();
  EXPECT_EQ(sub.take_deliveries().size(), 1u);
}

TEST(LinkRecovery, RestartedPeerRebasesInsteadOfStalling) {
  LinkBed bed;
  Client& sub = bed.add_client("sub", 1);
  Client& pub = bed.add_client("pub", 0);
  sub.subscribe(0, "volume > 0");
  bed.net.pump();

  // Advance broker 0's outbound numbering past zero and let the acks land.
  pub.publish(0, bed.trade("IBM", 100.0, 1));
  pub.publish(0, bed.trade("IBM", 100.0, 2));
  bed.net.pump();
  ASSERT_EQ(sub.take_deliveries().size(), 2u);

  // "Restart" broker 1: a brand-new instance (fresh epoch, fresh inbound
  // counters) takes over its BrokerId on a new endpoint.
  bed.drop_link();
  auto* ep1b = bed.net.create_endpoint("broker1b");
  Broker::Options opts;
  opts.session_epoch = 999;
  Broker b1b(BrokerId{1}, bed.topo, {bed.schema}, *ep1b, opts);
  ep1b->set_handler(&b1b);

  Client sub2("sub2", *bed.net.create_endpoint("sub2"), {bed.schema});
  bed.net.create_endpoint("sub2")->set_handler(&sub2);
  sub2.bind(bed.net.connect("sub2", "broker1b"));
  bed.net.pump();
  sub2.subscribe(0, "volume > 0");
  bed.net.pump();

  const ConnId conn = bed.net.connect("broker0", "broker1b");
  bed.brokers[0]->attach_broker_link(conn, BrokerId{1});
  bed.net.pump();

  // Broker 0's numbering for this neighbor is at 2, the new instance starts
  // from nothing: the handshake's baseline rebases it, and the next forward
  // is consumed instead of stalling on a gap that can never fill.
  pub.publish(0, bed.trade("IBM", 100.0, 3));
  bed.net.pump();
  const auto deliveries = sub2.take_deliveries();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].event.value(2).as_int(), 3);
}

}  // namespace
}  // namespace gryphon
