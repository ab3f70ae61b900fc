// Broker state replication (the Clone pattern; docs/fault-tolerance.md
// § Replication): a hot standby shadows its primary through a keyed,
// sequence-numbered update stream with full-snapshot re-baselining, and on
// promotion assumes the primary's spanning-tree role and identity — link
// peers resume their sessions across the failover gap and clients keep
// their redelivery cursors, with any possible loss reported as an explicit
// truncation bound instead of passing silently.
#include "broker/replication.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "broker/client.h"
#include "broker/event_log.h"
#include "broker/inproc_transport.h"
#include "topology/builders.h"

namespace gryphon {
namespace {

// --- Codec layer ----------------------------------------------------------

TEST(ReplicationCodec, UpdateRoundTripsEveryKind) {
  using K = replication::UpdateKind;
  std::vector<replication::Update> updates;
  updates.push_back({.kind = K::kSubAdd,
                     .id = SubscriptionId{(7LL << 40) | 3},
                     .owner = BrokerId{7},
                     .client = "alice",
                     .space = SpaceId{2},
                     .payload = {1, 2, 3}});
  updates.push_back({.kind = K::kSubRemove, .id = SubscriptionId{9}});
  updates.push_back({.kind = K::kTombstone, .id = SubscriptionId{42}});
  updates.push_back({.kind = K::kClientDeliver,
                     .client = "bob",
                     .space = SpaceId{1},
                     .seq = 17,
                     .payload = {9, 9}});
  updates.push_back({.kind = K::kClientAck, .client = "bob", .seq = 17});
  updates.push_back({.kind = K::kClientTruncate,
                     .client = "bob",
                     .seq = 30,
                     .truncated_through = 30});
  updates.push_back({.kind = K::kLinkForward,
                     .peer = BrokerId{2},
                     .origin = BrokerId{5},
                     .space = SpaceId{0},
                     .seq = 101,
                     .payload = {4, 5, 6, 7}});
  updates.push_back({.kind = K::kLinkAck, .peer = BrokerId{2}, .seq = 101});
  updates.push_back({.kind = K::kLinkTruncate,
                     .peer = BrokerId{2},
                     .seq = 120,
                     .truncated_through = 120});
  updates.push_back(
      {.kind = K::kLinkInSeq, .peer = BrokerId{3}, .seq = 55, .epoch = 999});
  updates.push_back({.kind = K::kLinkDead, .peer = BrokerId{3}, .dead = true});
  updates.push_back({.kind = K::kLinkDead, .peer = BrokerId{3}, .dead = false});

  for (const replication::Update& in : updates) {
    const replication::Update out =
        replication::decode_update(replication::encode_update(in));
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.id, in.id);
    EXPECT_EQ(out.owner, in.owner);
    EXPECT_EQ(out.peer, in.peer);
    EXPECT_EQ(out.origin, in.origin);
    EXPECT_EQ(out.client, in.client);
    EXPECT_EQ(out.space, in.space);
    EXPECT_EQ(out.seq, in.seq);
    EXPECT_EQ(out.epoch, in.epoch);
    EXPECT_EQ(out.truncated_through, in.truncated_through);
    EXPECT_EQ(out.dead, in.dead);
    EXPECT_EQ(out.payload, in.payload);
  }
}

TEST(ReplicationCodec, UnknownUpdateKindThrows) {
  std::vector<std::uint8_t> buffer = {0, 1, 2, 3};
  EXPECT_THROW((void)replication::decode_update(buffer), CodecError);
  buffer[0] = 200;
  EXPECT_THROW((void)replication::decode_update(buffer), CodecError);
}

TEST(ReplicationCodec, SnapshotRoundTrips) {
  replication::SnapshotImage image;
  image.session_epoch = 0xfeedULL;
  image.next_sub_counter = 77;
  image.subscriptions.push_back(
      {SubscriptionId{11}, BrokerId{0}, SpaceId{0}, "alice", {1, 2}});
  image.subscriptions.push_back(
      {SubscriptionId{12}, BrokerId{1}, SpaceId{0}, "", {3}});
  image.tombstones = {SubscriptionId{5}, SubscriptionId{6}};
  replication::LinkImage link;
  link.peer = BrokerId{1};
  link.dead = false;
  link.in_epoch = 31337;
  link.in_seq = 4;
  link.out_log.next_seq = 9;
  link.out_log.acked = 6;
  link.out_log.truncated_through = 2;
  EventLog::Entry entry;
  entry.seq = 7;
  entry.space = SpaceId{0};
  entry.event = {8, 8, 8};
  entry.origin = BrokerId{0};
  link.out_log.entries.push_back(entry);
  image.links.push_back(link);
  replication::ClientImage client;
  client.name = "alice";
  client.log.next_seq = 3;
  client.log.acked = 1;
  EventLog::Entry deliver;
  deliver.seq = 2;
  deliver.space = SpaceId{0};
  deliver.event = {1};
  client.log.entries.push_back(deliver);
  image.clients.push_back(client);

  const replication::SnapshotImage out =
      replication::decode_snapshot(replication::encode_snapshot(image));
  EXPECT_EQ(out.session_epoch, image.session_epoch);
  EXPECT_EQ(out.next_sub_counter, image.next_sub_counter);
  ASSERT_EQ(out.subscriptions.size(), 2u);
  EXPECT_EQ(out.subscriptions[0].id, SubscriptionId{11});
  EXPECT_EQ(out.subscriptions[0].client, "alice");
  EXPECT_EQ(out.subscriptions[1].client, "");
  EXPECT_EQ(out.tombstones, image.tombstones);
  ASSERT_EQ(out.links.size(), 1u);
  EXPECT_EQ(out.links[0].in_epoch, 31337u);
  EXPECT_EQ(out.links[0].in_seq, 4u);
  EXPECT_EQ(out.links[0].out_log.next_seq, 9u);
  ASSERT_EQ(out.links[0].out_log.entries.size(), 1u);
  EXPECT_EQ(out.links[0].out_log.entries[0].seq, 7u);
  EXPECT_EQ(out.links[0].out_log.entries[0].event,
            (std::vector<std::uint8_t>{8, 8, 8}));
  ASSERT_EQ(out.clients.size(), 1u);
  EXPECT_EQ(out.clients[0].log.acked, 1u);
  ASSERT_EQ(out.clients[0].log.entries.size(), 1u);
  EXPECT_EQ(out.clients[0].log.entries[0].seq, 2u);
}

// --- EventLog replication extensions --------------------------------------

TEST(EventLogReplication, AppendAtMirrorsExplicitNumbering) {
  EventLog log;
  log.append_at(5, SpaceId{0}, {1}, 0);
  log.append_at(6, SpaceId{0}, {2}, 0);
  EXPECT_EQ(log.last_seq(), 6u);
  EXPECT_EQ(log.size(), 2u);
  // Below the ack floor: already retired here, must not resurrect.
  log.acknowledge(6);
  log.append_at(4, SpaceId{0}, {3}, 0);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.last_seq(), 6u);
}

TEST(EventLogReplication, TruncateToDropsPrefixAndAdoptsBound) {
  EventLog log;
  for (int i = 0; i < 5; ++i) {
    log.append(SpaceId{0}, {static_cast<std::uint8_t>(i)}, 0);
  }
  log.truncate_to(3, 3);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.truncated_through(), 3u);
  // A smaller bound never regresses the recorded truncation.
  log.truncate_to(0, 1);
  EXPECT_EQ(log.truncated_through(), 3u);
}

TEST(EventLogReplication, FailoverRebaseSkipsGapAndReportsBound) {
  EventLog log;
  log.append(SpaceId{0}, {1}, 0);
  log.append(SpaceId{0}, {2}, 0);
  log.rebase_for_failover(100);
  // Sequence space skipped; retained entries still replayable; the post-gap
  // last_seq is the honest possible-loss bound.
  EXPECT_EQ(log.last_seq(), 102u);
  EXPECT_EQ(log.truncated_through(), 102u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.append(SpaceId{0}, {3}, 0), 103u);

  EventLog links;
  links.append(SpaceId{0}, {1}, 0);
  links.advance_next_seq(100);
  // Link logs skip without marking loss: retained forwards replay with
  // their original numbers and the receiver crosses the gap via the
  // heartbeat floor rule.
  EXPECT_EQ(links.last_seq(), 101u);
  EXPECT_EQ(links.truncated_through(), 0u);
  EXPECT_EQ(links.append(SpaceId{0}, {2}, 0), 102u);
}

// --- Broker-level replication ---------------------------------------------

constexpr std::uint64_t kPrimaryEpoch = 777;

/// Two-broker line (primary = BrokerId{0}, neighbor = BrokerId{1}) plus a
/// hot standby constructed with the *primary's* id — promotion is identity
/// takeover. The replication link is dialed explicitly (attach_standby) so
/// tests control attach/detach timing; net.drop() is the kill switch.
struct ReplicationBed {
  SchemaPtr schema =
      make_schema("trades", {Attribute{"issue", AttributeType::kString, {}},
                             Attribute{"price", AttributeType::kDouble, {}},
                             Attribute{"volume", AttributeType::kInt, {}}});
  BrokerNetwork topo = make_line(2, 10, 0, 1);
  InProcNetwork net;
  std::atomic<Ticks> clock{0};
  std::unique_ptr<Broker> primary;   // BrokerId{0}
  std::unique_ptr<Broker> neighbor;  // BrokerId{1}
  std::unique_ptr<Broker> standby;   // BrokerId{0}, Options::standby
  std::vector<std::unique_ptr<Client>> clients;
  ConnId link_conn{kInvalidConn};  // primary side of the 0 -> 1 link
  ConnId repl_conn{kInvalidConn};  // standby side of the replication link

  explicit ReplicationBed(std::size_t repl_window = 4096) {
    Broker::Options popts = base_options();
    popts.session_epoch = kPrimaryEpoch;
    popts.repl_log_window = repl_window;
    primary = make_broker("primary0", BrokerId{0}, popts);

    Broker::Options nopts = base_options();
    nopts.session_epoch = 1001;
    neighbor = make_broker("broker1", BrokerId{1}, nopts);

    Broker::Options sopts = base_options();
    sopts.session_epoch = 5555;  // must be replaced by the snapshot's epoch
    sopts.standby = true;
    sopts.failover_seq_gap = 1000;
    standby = make_broker("standby0", BrokerId{0}, sopts);

    link_conn = net.connect("primary0", "broker1");
    primary->attach_broker_link(link_conn, BrokerId{1});
    net.pump();
  }

  Broker::Options base_options() {
    Broker::Options opts;
    opts.link_retransmit_timeout = 50;
    opts.link_heartbeat_interval = 200;
    opts.clock = [this] { return clock.load(std::memory_order_relaxed); };
    return opts;
  }

  std::unique_ptr<Broker> make_broker(const std::string& name, BrokerId id,
                                      const Broker::Options& opts) {
    auto* endpoint = net.create_endpoint(name);
    auto broker = std::make_unique<Broker>(
        id, topo, std::vector<SchemaPtr>{schema}, *endpoint, opts);
    endpoint->set_handler(broker.get());
    return broker;
  }

  void attach_standby() {
    repl_conn = net.connect("standby0", "primary0");
    standby->attach_replication_link(repl_conn);
    net.pump();
  }

  Client& add_client(const std::string& name, const std::string& broker_endpoint,
                     const Client::Options& copts = {}) {
    auto* endpoint = net.create_endpoint(name);
    clients.push_back(
        std::make_unique<Client>(name, *endpoint, std::vector<SchemaPtr>{schema}, copts));
    endpoint->set_handler(clients.back().get());
    clients.back()->bind(net.connect(name, broker_endpoint));
    net.pump();
    return *clients.back();
  }

  Event make_event(int tag) {
    return Event(schema, {Value("IBM"), Value(100.0 + tag), Value(tag)});
  }
};

TEST(ReplicationTest, FirstAttachAlwaysSnapshots) {
  // A standby that has never applied anything needs the snapshot: the
  // session epoch and subscription-id counter travel only in snapshots, and
  // promotion must continue the primary's link sessions under the
  // primary's epoch.
  ReplicationBed bed;
  bed.attach_standby();
  EXPECT_EQ(bed.standby->role(), Broker::Role::kStandby);
  EXPECT_EQ(bed.primary->stats().repl_snapshots_sent, 1u);
  EXPECT_EQ(bed.standby->stats().repl_snapshots_applied, 1u);
  EXPECT_TRUE(bed.standby->replication_last_activity().has_value());
}

TEST(ReplicationTest, SnapshotCarriesPreAttachState) {
  // The update log starts at the first hello: everything mutated before
  // the attach reaches the standby only through the full state image.
  ReplicationBed bed;
  Client& sub = bed.add_client("sub", "primary0");
  sub.subscribe(0, "volume > 0");
  Client& pub = bed.add_client("pub", "primary0");
  pub.publish(0, bed.make_event(1));
  pub.publish(0, bed.make_event(2));
  bed.net.pump();
  ASSERT_EQ(sub.take_deliveries().size(), 2u);

  bed.attach_standby();

  EXPECT_EQ(bed.primary->stats().repl_snapshots_sent, 1u);
  EXPECT_EQ(bed.standby->stats().repl_snapshots_applied, 1u);
  // The image carried the subscription registry (local + replicas).
  EXPECT_EQ(bed.standby->subscription_count(), bed.primary->subscription_count());
}

TEST(ReplicationTest, UpdatesStreamToAttachedStandby) {
  ReplicationBed bed;
  bed.attach_standby();
  const auto applied_at_attach = bed.standby->replication_applied_seq();

  Client& sub = bed.add_client("sub", "primary0");
  sub.subscribe(0, "volume > 0");
  Client& pub = bed.add_client("pub", "primary0");
  pub.publish(0, bed.make_event(1));
  bed.net.pump();

  // Subscribe + deliver + the client's auto-ack all streamed as updates and
  // were applied strictly in order.
  EXPECT_GE(bed.standby->replication_applied_seq(), applied_at_attach + 3);
  EXPECT_EQ(bed.primary->stats().repl_updates_sent,
            bed.standby->stats().repl_updates_applied);
  EXPECT_EQ(bed.standby->subscription_count(), bed.primary->subscription_count());
  // Only the mandatory first-attach snapshot; updates carried the rest.
  EXPECT_EQ(bed.primary->stats().repl_snapshots_sent, 1u);
}

TEST(ReplicationTest, ReattachResumesFromAppliedCursor) {
  ReplicationBed bed;
  bed.attach_standby();
  Client& sub = bed.add_client("sub", "primary0");
  sub.subscribe(0, "volume > 0");
  bed.net.pump();
  const auto applied_before = bed.standby->replication_applied_seq();
  ASSERT_GT(applied_before, 0u);

  // Drop the replication link; the primary keeps logging mutations.
  bed.net.drop("standby0", bed.repl_conn);
  bed.net.pump();
  Client& pub = bed.add_client("pub", "primary0");
  pub.publish(0, bed.make_event(1));
  bed.net.pump();
  EXPECT_EQ(bed.standby->replication_applied_seq(), applied_before);

  // Reattach: the hello reports the applied cursor and only the missing
  // suffix streams — no second snapshot.
  bed.attach_standby();
  EXPECT_GT(bed.standby->replication_applied_seq(), applied_before);
  EXPECT_EQ(bed.primary->stats().repl_snapshots_sent, 1u);
}

TEST(ReplicationTest, LaggedReattachFallsBackToSnapshot) {
  // Window of 4: the detached standby falls further behind than the primary
  // retains, so the reattach must re-baseline instead of replaying.
  ReplicationBed bed(/*repl_window=*/4);
  bed.attach_standby();
  Client& sub = bed.add_client("sub", "primary0");
  sub.subscribe(0, "volume > 0");
  bed.net.pump();
  ASSERT_GT(bed.standby->replication_applied_seq(), 0u);
  ASSERT_EQ(bed.primary->stats().repl_snapshots_sent, 1u);

  bed.net.drop("standby0", bed.repl_conn);
  bed.net.pump();
  Client& pub = bed.add_client("pub", "primary0");
  for (int i = 0; i < 8; ++i) pub.publish(0, bed.make_event(i + 1));
  bed.net.pump();

  bed.attach_standby();
  EXPECT_EQ(bed.primary->stats().repl_snapshots_sent, 2u);
  EXPECT_EQ(bed.standby->subscription_count(), bed.primary->subscription_count());
}

TEST(ReplicationTest, RestartedPrimaryResnapshotsStandbyOfPreviousIncarnation) {
  // A standby applies N updates from one primary incarnation. The primary
  // is rebuilt under the same id with a fresh session epoch, and its new
  // incarnation makes more than N durable mutations. ReplHello carries no
  // epoch, so a resume by sequence alone would apply the new incarnation's
  // updates from N + 1 on top of the old state. The new incarnation's log
  // starts at its first hello, so that hello must snapshot.
  ReplicationBed bed;
  bed.attach_standby();
  Client::Options no_ack;
  no_ack.auto_ack = false;  // its deliveries stay in the replicated log
  Client& old_sub = bed.add_client("old_sub", "primary0", no_ack);
  for (int i = 0; i < 3; ++i) old_sub.subscribe(0, "volume > " + std::to_string(i));
  Client& old_pub = bed.add_client("old_pub", "primary0");
  old_pub.publish(0, bed.make_event(10));
  bed.net.pump();
  const std::uint64_t applied = bed.standby->replication_applied_seq();
  ASSERT_GT(applied, 0u);
  ASSERT_EQ(bed.standby->subscription_count(), 3u);
  ASSERT_GT(bed.standby->client_log_size("old_sub"), 0u);

  // The old incarnation dies; a new one comes up under the same id.
  bed.net.drop("standby0", bed.repl_conn);
  bed.net.pump();
  Broker::Options opts = bed.base_options();
  opts.session_epoch = kPrimaryEpoch + 1;
  std::unique_ptr<Broker> restarted = bed.make_broker("primary0b", BrokerId{0}, opts);
  Client& new_sub = bed.add_client("new_sub", "primary0b");
  new_sub.subscribe(0, "volume > 100");
  Client& pub = bed.add_client("pub", "primary0b");
  for (std::uint64_t i = 0; i <= applied; ++i) {
    pub.publish(0, bed.make_event(static_cast<int>(200 + i)));
  }
  bed.net.pump();
  ASSERT_EQ(new_sub.take_deliveries().size(), applied + 1);

  // The standby reattaches to the new incarnation.
  bed.repl_conn = bed.net.connect("standby0", "primary0b");
  bed.standby->attach_replication_link(bed.repl_conn);
  bed.net.pump();

  EXPECT_EQ(restarted->stats().repl_snapshots_sent, 1u);
  EXPECT_EQ(bed.standby->stats().repl_snapshots_applied, 2u);
  // Exactly the new incarnation's state: its one subscription and its
  // delivery log, nothing of the old client.
  EXPECT_EQ(bed.standby->subscription_count(), 1u);
  EXPECT_EQ(bed.standby->subscription_count(), restarted->subscription_count());
  EXPECT_EQ(bed.standby->client_log_size("new_sub"), restarted->client_log_size("new_sub"));
  EXPECT_EQ(bed.standby->client_log_size("old_sub"), 0u);
}

TEST(ReplicationTest, StandbyRefusesClientTraffic) {
  ReplicationBed bed;
  bed.attach_standby();
  const auto rejected_before = bed.standby->stats().frames_rejected;
  Client& probe = bed.add_client("probe", "standby0");
  bed.net.pump();
  EXPECT_GT(bed.standby->stats().frames_rejected, rejected_before);
  EXPECT_FALSE(probe.connected());  // the standby dropped the connection
}

TEST(ReplicationTest, PromotionServesClientsWithHonestTruncationBound) {
  ReplicationBed bed;
  bed.attach_standby();
  Client& sub = bed.add_client("sub", "primary0");
  sub.subscribe(0, "volume > 0");
  Client& pub = bed.add_client("pub", "primary0");
  for (int i = 1; i <= 3; ++i) pub.publish(0, bed.make_event(i));
  bed.net.pump();
  ASSERT_EQ(sub.take_deliveries().size(), 3u);
  const std::uint64_t seen = sub.last_seq();

  // Primary dies (replication link severed); the standby takes over.
  bed.net.drop("standby0", bed.repl_conn);
  bed.net.pump();
  bed.standby->promote();
  EXPECT_EQ(bed.standby->role(), Broker::Role::kPrimary);
  EXPECT_EQ(bed.standby->stats().promotions, 1u);
  EXPECT_GT(bed.standby->stats().failover_seq_rebases, 0u);
  // Promotion is idempotent.
  bed.standby->promote();
  EXPECT_EQ(bed.standby->stats().promotions, 1u);

  // The subscriber fails over to the promoted standby with its cursor.
  sub.bind(bed.net.connect("sub", "standby0"));
  bed.net.pump();
  // Everything acknowledged was retired; nothing replays as a duplicate.
  EXPECT_TRUE(sub.take_deliveries().empty());
  // The failover gap is reported as an honest possible-loss bound: it
  // covers anything the dead primary might have delivered unreplicated.
  EXPECT_GT(sub.replay_truncated_through(), seen);

  // Fresh publishes flow through the promoted identity, numbered past the
  // gap so they can never collide with a dead-primary assignment.
  Client& pub2 = bed.add_client("pub2", "standby0");
  pub2.publish(0, bed.make_event(99));
  bed.net.pump();
  const auto deliveries = sub.take_deliveries();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(static_cast<int>(deliveries[0].event.value(2).as_int()), 99);
  EXPECT_GT(deliveries[0].seq, sub.replay_truncated_through());
}

TEST(ReplicationTest, PromotedStandbyRetainsUnackedRedelivery) {
  // Deliveries the subscriber never acknowledged survive the failover: the
  // standby holds them in the replicated log and replays them on re-hello,
  // below the reported truncation bound but not silently lost.
  ReplicationBed bed;
  bed.attach_standby();
  Client::Options copts;
  copts.auto_ack = false;
  auto* endpoint = bed.net.create_endpoint("sub");
  bed.clients.push_back(std::make_unique<Client>(
      "sub", *endpoint, std::vector<SchemaPtr>{bed.schema}, copts));
  Client& sub = *bed.clients.back();
  endpoint->set_handler(&sub);
  sub.bind(bed.net.connect("sub", "primary0"));
  bed.net.pump();
  sub.subscribe(0, "volume > 0");
  Client& pub = bed.add_client("pub", "primary0");
  pub.publish(0, bed.make_event(7));
  bed.net.pump();
  ASSERT_EQ(sub.take_deliveries().size(), 1u);  // delivered but never acked

  bed.net.drop("standby0", bed.repl_conn);
  bed.net.pump();
  bed.standby->promote();

  // A *fresh* client instance under the same hello name (cursor lost, e.g.
  // the consumer restarted) reconnects: the retained delivery replays from
  // the promoted standby.
  auto* endpoint2 = bed.net.create_endpoint("sub_redial");
  Client resumed("sub", *endpoint2, std::vector<SchemaPtr>{bed.schema});
  endpoint2->set_handler(&resumed);
  resumed.bind(bed.net.connect("sub_redial", "standby0"));
  bed.net.pump();
  const auto replayed = resumed.take_deliveries();
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(static_cast<int>(replayed[0].event.value(2).as_int()), 7);
}

TEST(ReplicationTest, StandbyDefersCompilesUntilPromotion) {
  // A standby dispatches nothing, so every replicated subscription change —
  // snapshot restore and streamed kSubAdd/kSubRemove alike — is deferred
  // and compiled once, at promotion.
  ReplicationBed bed;
  Client& early = bed.add_client("early", "primary0");
  early.subscribe(0, "volume > 0");  // reaches the standby in the snapshot
  bed.net.pump();
  bed.attach_standby();
  Client& late = bed.add_client("late", "primary0");
  late.subscribe(0, "volume > 10");  // streamed as kSubAdd
  const std::uint64_t removed = late.subscribe(0, "volume < 5");
  Client& far_sub = bed.add_client("far_sub", "broker1");
  far_sub.subscribe(0, "volume > 5");  // a remote replica, streamed too
  bed.net.pump();
  ASSERT_TRUE(late.subscription_id(removed).has_value());
  late.unsubscribe(*late.subscription_id(removed));  // streamed as kSubRemove
  bed.net.pump();

  EXPECT_EQ(bed.standby->subscription_count(), 3u);
  EXPECT_EQ(bed.standby->subscription_count(), bed.primary->subscription_count());
  EXPECT_GT(bed.standby->stats().repl_updates_applied, 0u);
  EXPECT_EQ(bed.standby->stats().control_plane.compile_publishes, 0u);

  // The primary dies; promotion compiles the deferred registry once.
  bed.net.drop("primary0", bed.link_conn);
  bed.net.drop("standby0", bed.repl_conn);
  bed.net.pump();
  bed.standby->promote();
  EXPECT_EQ(bed.standby->stats().control_plane.compile_publishes, 1u);

  // Every replicated subscription is live at the promoted broker, and the
  // removed one stays gone.
  early.bind(bed.net.connect("early", "standby0"));
  late.bind(bed.net.connect("late", "standby0"));
  bed.neighbor->attach_broker_link(bed.net.connect("broker1", "standby0"), BrokerId{0});
  bed.net.pump();
  Client& pub = bed.add_client("pub", "standby0");
  pub.publish(0, bed.make_event(3));   // early only ("volume < 5" was removed)
  pub.publish(0, bed.make_event(20));  // early, late and far_sub
  bed.net.pump();
  bed.clock += 300;  // drive the link timers across the failover gap
  bed.standby->tick_links(bed.clock);
  bed.neighbor->tick_links(bed.clock);
  bed.net.pump();

  EXPECT_EQ(early.take_deliveries().size(), 2u);
  const auto late_got = late.take_deliveries();
  ASSERT_EQ(late_got.size(), 1u);
  EXPECT_EQ(late_got[0].event.value(2).as_int(), 20);
  const auto far_got = far_sub.take_deliveries();
  ASSERT_EQ(far_got.size(), 1u);
  EXPECT_EQ(far_got[0].event.value(2).as_int(), 20);
  EXPECT_EQ(bed.standby->stats().control_plane.compile_publishes, 1u);
}

TEST(ReplicationTest, PromotedStandbyResumesLinkSessionAcrossGap) {
  ReplicationBed bed;
  bed.attach_standby();
  // Remote subscriber on the neighbor; publisher on the primary: forwards
  // cross the 0 -> 1 link and the link log replicates as it grows.
  Client& far_sub = bed.add_client("far_sub", "broker1");
  far_sub.subscribe(0, "volume > 0");
  bed.net.pump();
  Client& pub = bed.add_client("pub", "primary0");
  for (int i = 1; i <= 4; ++i) pub.publish(0, bed.make_event(i));
  bed.net.pump();
  ASSERT_EQ(far_sub.take_deliveries().size(), 4u);

  // Primary dies; the neighbor redials the promoted standby, which
  // continues the same link session under the primary's epoch.
  bed.net.drop("primary0", bed.link_conn);
  bed.net.drop("standby0", bed.repl_conn);
  bed.net.pump();
  bed.standby->promote();
  const ConnId redial = bed.net.connect("broker1", "standby0");
  bed.neighbor->attach_broker_link(redial, BrokerId{0});
  bed.net.pump();

  // Events published at the promoted standby still reach the neighbor's
  // subscriber — exactly once, numbered past the failover gap the
  // handshake's trailing heartbeat told the neighbor to skip.
  Client& pub2 = bed.add_client("pub2", "standby0");
  pub2.publish(0, bed.make_event(50));
  pub2.publish(0, bed.make_event(51));
  bed.net.pump();
  bed.clock += 300;  // drive retransmit/heartbeat timers, then drain
  bed.standby->tick_links(bed.clock);
  bed.neighbor->tick_links(bed.clock);
  bed.net.pump();

  std::vector<int> tags;
  for (const auto& d : far_sub.take_deliveries()) {
    tags.push_back(static_cast<int>(d.event.value(2).as_int()));
  }
  EXPECT_EQ(tags, (std::vector<int>{50, 51}));
  EXPECT_EQ(bed.neighbor->stats().duplicates_dropped, 0u);
}

}  // namespace
}  // namespace gryphon
