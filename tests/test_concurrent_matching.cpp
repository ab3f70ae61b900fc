// Concurrent matching: dispatch from many threads while the control plane
// churns subscriptions. Readers pin an immutable snapshot per event, so a
// dispatch must never observe a half-applied subscription change; every
// reported id is checked against brute-force predicate evaluation, and
// subscriptions that are stable across the churn window must never be lost.
// This file is the primary ThreadSanitizer target (see tools/ci.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "broker/broker_core.h"
#include "broker/client.h"
#include "broker/inproc_transport.h"
#include "common/rng.h"
#include "event/codec.h"
#include "matching/naive_matcher.h"
#include "matching/pst_matcher.h"
#include "topology/builders.h"
#include "workload/generators.h"

namespace gryphon {
namespace {

constexpr SpaceId kSpace0{0};

using Oracle = std::map<SubscriptionId, Subscription>;
using Owners = std::map<SubscriptionId, BrokerId>;

/// Forwarding completeness at broker 1 of the 3-broker line: a matching
/// stable subscription owned by neighbor o must put o in the forward set
/// unless the event came from o's side (root == o). Covering must preserve
/// exactly this — a parked child's same-owner coverer sits on the frontier
/// behind the same link — whichever snapshot the dispatch pinned.
void expect_stable_forwarding(const Decision& d, const Event& e, BrokerId root,
                              const Oracle& oracle, const Owners& owner,
                              std::int64_t stable_count) {
  for (std::int64_t i = 0; i < stable_count; ++i) {
    const SubscriptionId id{i};
    const BrokerId o = owner.at(id);
    if (o == BrokerId{1} || o == root || !oracle.at(id).matches(e)) continue;
    EXPECT_NE(std::find(d.forward.begin(), d.forward.end(), o), d.forward.end())
        << "stable id " << id.value << " not forwarded toward broker " << o.value;
  }
}

/// match_all reports each id once, only matching ids, and every matching
/// stable subscription. A control-plane query: call it from the writer.
void expect_stable_match_all(const BrokerCore& core, const Event& e, const Oracle& oracle,
                             std::int64_t stable_count) {
  core.control_plane().assert_serialized();
  const auto all = core.match_all(kSpace0, e);
  const std::set<SubscriptionId> all_set(all.begin(), all.end());
  EXPECT_EQ(all_set.size(), all.size()) << "duplicate in match_all";
  for (const SubscriptionId id : all) {
    ASSERT_TRUE(oracle.contains(id));
    EXPECT_TRUE(oracle.at(id).matches(e)) << "false positive match_all id " << id.value;
  }
  for (std::int64_t i = 0; i < stable_count; ++i) {
    const SubscriptionId id{i};
    if (oracle.at(id).matches(e)) {
      EXPECT_TRUE(all_set.contains(id)) << "lost stable match_all id " << id.value;
    }
  }
}

TEST(ConcurrentMatching, DispatchSeesConsistentSnapshotsUnderChurn) {
  const auto schema = make_synthetic_schema(4, 3);
  const BrokerNetwork topo = make_line(3, 10, 0, 1);
  BrokerCore core(BrokerId{1}, topo, {schema});

  Rng rng(7041);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.85, 0.8, 1.0});

  // Stable subscriptions: present before the readers start, never removed.
  // Churn subscriptions: added and removed in a loop by the writer. The
  // oracle map covers both, so a reader can validate any id it sees.
  constexpr std::int64_t kStableCount = 60;
  constexpr std::int64_t kChurnCount = 40;
  constexpr std::int64_t kChurnBase = 1000;
  Oracle oracle;
  Owners owner;
  for (std::int64_t i = 0; i < kStableCount; ++i) {
    const SubscriptionId id{i};
    const BrokerId o{static_cast<BrokerId::rep_type>(i % 3)};
    oracle.emplace(id, gen.generate(rng));
    owner.emplace(id, o);
    core.add_subscription(kSpace0, id, oracle.at(id), o);
  }
  for (std::int64_t k = 0; k < kChurnCount; ++k) {
    const SubscriptionId id{kChurnBase + k};
    oracle.emplace(id, gen.generate(rng));
    owner.emplace(id, BrokerId{static_cast<BrokerId::rep_type>(k % 3)});
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    core.control_plane().assert_serialized();  // the only writer
    Rng writer_rng(7042);
    EventGenerator events(schema);
    for (int round = 0; round < 150; ++round) {
      for (std::int64_t k = 0; k < kChurnCount; ++k) {
        const SubscriptionId id{kChurnBase + k};
        core.add_subscription(kSpace0, id, oracle.at(id), owner.at(id));
      }
      for (std::int64_t k = 0; k < kChurnCount; ++k) {
        ASSERT_TRUE(core.remove_subscription(SubscriptionId{kChurnBase + k}));
      }
      expect_stable_match_all(core, events.generate(writer_rng), oracle, kStableCount);
    }
    done.store(true, std::memory_order_release);
  });

  const auto reader = [&](unsigned seed) {
    Rng thread_rng(seed);
    EventGenerator events(schema);
    MatchScratch scratch;
    while (!done.load(std::memory_order_acquire)) {
      const Event e = events.generate(thread_rng);
      const BrokerId root{static_cast<BrokerId::rep_type>(thread_rng.below(3))};
      const auto d = core.dispatch(kSpace0, e, root, scratch);

      std::set<SubscriptionId> seen;
      for (const SubscriptionId id : d.local_matches) {
        EXPECT_TRUE(seen.insert(id).second) << "duplicate local match " << id.value;
        ASSERT_TRUE(oracle.contains(id));
        EXPECT_EQ(owner.at(id), BrokerId{1}) << "non-local id " << id.value;
        EXPECT_TRUE(oracle.at(id).matches(e)) << "false positive id " << id.value;
      }
      for (const BrokerId next : d.forward) {
        EXPECT_TRUE(next == BrokerId{0} || next == BrokerId{2});
      }
      // Stable completeness: a matching stable subscription owned here must
      // be reported, and one owned by a neighbor forwarded, no matter which
      // snapshot the dispatch pinned.
      for (std::int64_t i = 0; i < kStableCount; ++i) {
        const SubscriptionId id{i};
        if (owner.at(id) == BrokerId{1} && oracle.at(id).matches(e)) {
          EXPECT_TRUE(seen.contains(id)) << "lost stable match " << id.value;
        }
      }
      expect_stable_forwarding(d, e, root, oracle, owner, kStableCount);
    }
  };

  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 4; ++t) readers.emplace_back(reader, 100 + t);
  writer.join();
  for (auto& r : readers) r.join();
}

// Batch dispatch under churn: readers drain whole DispatchBatches against a
// factored core while the writer churns subscriptions. Each batch pins one
// snapshot, so every decision in a batch must be consistent with a single
// subscription state. This is the TSan target for the batched data plane
// (the batch context reuses its scratch across items).
TEST(ConcurrentMatching, BatchDispatchUnderChurn) {
  const auto schema = make_synthetic_schema(4, 3);
  const BrokerNetwork topo = make_line(3, 10, 0, 1);
  PstMatcherOptions matcher;
  matcher.factoring_levels = 2;
  BrokerCore core(BrokerId{1}, topo, {schema}, matcher);

  Rng rng(8088);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.85, 0.8, 1.0});
  constexpr std::int64_t kStableCount = 50;
  constexpr std::int64_t kChurnCount = 30;
  constexpr std::int64_t kChurnBase = 2000;
  Oracle oracle;
  Owners owner;
  for (std::int64_t i = 0; i < kStableCount; ++i) {
    const SubscriptionId id{i};
    const BrokerId o{static_cast<BrokerId::rep_type>(i % 3)};
    oracle.emplace(id, gen.generate(rng));
    owner.emplace(id, o);
    core.add_subscription(kSpace0, id, oracle.at(id), o);
  }
  for (std::int64_t k = 0; k < kChurnCount; ++k) {
    const SubscriptionId id{kChurnBase + k};
    oracle.emplace(id, gen.generate(rng));
    owner.emplace(id, BrokerId{static_cast<BrokerId::rep_type>(k % 3)});
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int round = 0; round < 100; ++round) {
      for (std::int64_t k = 0; k < kChurnCount; ++k) {
        const SubscriptionId id{kChurnBase + k};
        core.add_subscription(kSpace0, id, oracle.at(id), owner.at(id));
      }
      for (std::int64_t k = 0; k < kChurnCount; ++k) {
        ASSERT_TRUE(core.remove_subscription(SubscriptionId{kChurnBase + k}));
      }
    }
    done.store(true, std::memory_order_release);
  });

  const auto reader = [&](unsigned seed) {
    Rng thread_rng(seed);
    EventGenerator events(schema);
    DispatchBatch batch;
    std::vector<Event> pool;
    while (!done.load(std::memory_order_acquire)) {
      pool.clear();
      batch.clear();
      for (int b = 0; b < 16; ++b) pool.push_back(events.generate(thread_rng));
      for (const Event& e : pool) {
        batch.add(kSpace0, e, BrokerId{static_cast<BrokerId::rep_type>(
                                  thread_rng.below(3))});
      }
      const auto decisions = core.dispatch(batch);
      ASSERT_EQ(decisions.size(), pool.size());
      for (std::size_t i = 0; i < pool.size(); ++i) {
        const Decision& d = decisions[i];
        std::set<SubscriptionId> seen;
        for (const SubscriptionId id : d.local_matches) {
          EXPECT_TRUE(seen.insert(id).second) << "duplicate local match " << id.value;
          ASSERT_TRUE(oracle.contains(id));
          EXPECT_EQ(owner.at(id), BrokerId{1}) << "non-local id " << id.value;
          EXPECT_TRUE(oracle.at(id).matches(pool[i])) << "false positive " << id.value;
        }
        // Stable completeness survives churn: a matching stable local
        // subscription is always reported.
        for (std::int64_t s = 0; s < kStableCount; ++s) {
          const SubscriptionId id{s};
          if (owner.at(id) == BrokerId{1} && oracle.at(id).matches(pool[i])) {
            EXPECT_TRUE(seen.contains(id)) << "lost stable match " << id.value;
          }
        }
      }
    }
  };

  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 4; ++t) readers.emplace_back(reader, 300 + t);
  writer.join();
  for (auto& r : readers) r.join();
}

// Covering + delta compilation under concurrent dispatch: the writer churns
// a workload designed to park/promote constantly (broad coverers over a
// stable covered set) against a core with aggressive slice growth, while
// readers validate every reported id and the stable subscriptions' local
// matches and forwarding links, and the writer checks match_all between
// rounds. Demotions and promotions republish the delta segments while
// readers hold older snapshots — this is the TSan target for that reuse.
TEST(ConcurrentMatching, CoveringChurnKeepsSnapshotsConsistent) {
  const auto schema = make_synthetic_schema(4, 3);
  const BrokerNetwork topo = make_line(3, 10, 0, 1);
  ControlPlaneOptions control;
  control.delta_segment_target = 16;  // force multi-segment + growth early
  control.max_delta_segments = 8;
  BrokerCore core(BrokerId{1}, topo, {schema}, PstMatcherOptions(), control);

  Rng rng(60321);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.85, 0.6, 1.0});
  constexpr std::int64_t kStableCount = 60;
  constexpr std::int64_t kChurnCount = 30;
  constexpr std::int64_t kChurnBase = 5000;
  Oracle oracle;
  Owners owner;
  for (std::int64_t i = 0; i < kStableCount; ++i) {
    const SubscriptionId id{i};
    const BrokerId o{static_cast<BrokerId::rep_type>(i % 3)};
    oracle.emplace(id, gen.generate(rng));
    owner.emplace(id, o);
    core.add_subscription(kSpace0, id, oracle.at(id), o);
  }
  // Churn set: all-don't-care coverers — every add demotes broad swathes of
  // the stable set, every remove promotes them back.
  for (std::int64_t k = 0; k < kChurnCount; ++k) {
    const SubscriptionId id{kChurnBase + k};
    oracle.emplace(id, Subscription::match_all(schema));
    owner.emplace(id, BrokerId{static_cast<BrokerId::rep_type>(k % 3)});
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    core.control_plane().assert_serialized();  // the only writer
    Rng writer_rng(60322);
    EventGenerator events(schema);
    for (int round = 0; round < 120; ++round) {
      for (std::int64_t k = 0; k < kChurnCount; ++k) {
        const SubscriptionId id{kChurnBase + k};
        core.add_subscription(kSpace0, id, oracle.at(id), owner.at(id));
      }
      // Mid-round too: the stable set is parked under the churn coverers.
      expect_stable_match_all(core, events.generate(writer_rng), oracle, kStableCount);
      for (std::int64_t k = 0; k < kChurnCount; ++k) {
        ASSERT_TRUE(core.remove_subscription(SubscriptionId{kChurnBase + k}));
      }
      expect_stable_match_all(core, events.generate(writer_rng), oracle, kStableCount);
    }
    done.store(true, std::memory_order_release);
  });

  const auto reader = [&](unsigned seed) {
    Rng thread_rng(seed);
    EventGenerator events(schema);
    MatchScratch scratch;
    while (!done.load(std::memory_order_acquire)) {
      const Event e = events.generate(thread_rng);
      const BrokerId root{static_cast<BrokerId::rep_type>(thread_rng.below(3))};
      const auto d = core.dispatch(kSpace0, e, root, scratch);
      std::set<SubscriptionId> seen;
      for (const SubscriptionId id : d.local_matches) {
        EXPECT_TRUE(seen.insert(id).second) << "duplicate local match " << id.value;
        ASSERT_TRUE(oracle.contains(id));
        EXPECT_EQ(owner.at(id), BrokerId{1}) << "non-local id " << id.value;
        EXPECT_TRUE(oracle.at(id).matches(e)) << "false positive id " << id.value;
      }
      // A stable matching local subscription must be reported (locals never
      // park), and a stable remote one forwarded whether the pinned snapshot
      // has it on the frontier or parked under a coverer.
      for (std::int64_t i = 0; i < kStableCount; ++i) {
        const SubscriptionId id{i};
        if (owner.at(id) == BrokerId{1} && oracle.at(id).matches(e)) {
          EXPECT_TRUE(seen.contains(id)) << "lost stable match " << id.value;
        }
      }
      expect_stable_forwarding(d, e, root, oracle, owner, kStableCount);
    }
  };

  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 4; ++t) readers.emplace_back(reader, 700 + t);
  writer.join();
  for (auto& r : readers) r.join();
}

TEST(ConcurrentMatching, SnapshotVersionMonotonicUnderWriters) {
  const auto schema = make_synthetic_schema(3, 3);
  const BrokerNetwork topo = make_line(2, 10, 0, 1);
  BrokerCore core(BrokerId{0}, topo, {schema});

  std::atomic<bool> done{false};
  std::thread observer([&] {
    std::uint64_t last = core.snapshot_version();
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t v = core.snapshot_version();
      EXPECT_GE(v, last);
      last = v;
    }
  });
  Rng rng(99);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.8, 0.8, 1.0});
  for (std::int64_t i = 0; i < 500; ++i) {
    core.add_subscription(kSpace0, SubscriptionId{i}, gen.generate(rng), BrokerId{0});
    if (i % 2 == 0) {
      ASSERT_TRUE(core.remove_subscription(SubscriptionId{i}));
    }
  }
  done.store(true, std::memory_order_release);
  observer.join();
}

// End-to-end: a broker pipeline with match workers delivers exactly the
// matching events, no losses and no duplicates, while frame handling and
// matching run on different threads.
TEST(ConcurrentMatching, BrokerPipelineDeliversExactly) {
  const SchemaPtr schema =
      make_schema("trades", {Attribute{"issue", AttributeType::kString, {}},
                             Attribute{"price", AttributeType::kDouble, {}},
                             Attribute{"volume", AttributeType::kInt, {}}});
  const BrokerNetwork topo = make_line(2, 10, 0, 1);
  InProcNetwork net;
  Broker::Options options;
  options.match_threads = 3;
  std::vector<std::unique_ptr<Broker>> brokers;
  for (int b = 0; b < 2; ++b) {
    auto* endpoint = net.create_endpoint("broker" + std::to_string(b));
    brokers.push_back(std::make_unique<Broker>(BrokerId{b}, topo,
                                               std::vector<SchemaPtr>{schema}, *endpoint,
                                               options));
    endpoint->set_handler(brokers.back().get());
  }
  const ConnId link = net.connect("broker0", "broker1");
  brokers[0]->attach_broker_link(link, BrokerId{1});
  net.pump();

  const auto add_client = [&](const std::string& name, int broker,
                              std::vector<std::unique_ptr<Client>>& out) -> Client& {
    auto* endpoint = net.create_endpoint(name);
    out.push_back(std::make_unique<Client>(name, *endpoint, std::vector<SchemaPtr>{schema}));
    endpoint->set_handler(out.back().get());
    out.back()->bind(net.connect(name, "broker" + std::to_string(broker)));
    net.pump();
    return *out.back();
  };

  std::vector<std::unique_ptr<Client>> clients;
  Client& subscriber = add_client("sub", 1, clients);
  Client& local_sub = add_client("near", 0, clients);
  Client& publisher = add_client("pub", 0, clients);
  subscriber.subscribe(0, "issue = \"IBM\"");
  local_sub.subscribe(0, "issue = \"IBM\" & volume > 5");
  net.pump();
  brokers[0]->flush();
  brokers[1]->flush();

  constexpr int kMatching = 120;
  constexpr int kNoise = 80;
  int published_matching = 0, published_noise = 0, big_volume = 0;
  while (published_matching < kMatching || published_noise < kNoise) {
    if (published_matching < kMatching) {
      const int volume = published_matching % 10;
      big_volume += volume > 5 ? 1 : 0;
      publisher.publish(0, Event(schema, {Value("IBM"), Value(100.0), Value(volume)}));
      ++published_matching;
    }
    if (published_noise < kNoise) {
      publisher.publish(0, Event(schema, {Value("HP"), Value(50.0), Value(1)}));
      ++published_noise;
    }
    // Drain: publish frames to broker0, match there, forwards to broker1,
    // match there, deliveries back out to the clients.
    for (int round = 0; round < 3; ++round) {
      net.pump();
      brokers[0]->flush();
      brokers[1]->flush();
    }
    net.pump();
  }

  const auto remote = subscriber.take_deliveries();
  ASSERT_EQ(remote.size(), static_cast<std::size_t>(kMatching));
  std::uint64_t last_seq = 0;
  for (const auto& d : remote) {
    EXPECT_GT(d.seq, last_seq);  // strictly increasing: no duplicates
    last_seq = d.seq;
    EXPECT_EQ(d.event.values()[0], Value("IBM"));
  }
  EXPECT_EQ(local_sub.take_deliveries().size(), static_cast<std::size_t>(big_volume));

  const auto stats = brokers[0]->stats();
  EXPECT_EQ(stats.events_published, static_cast<std::uint64_t>(kMatching + kNoise));
  EXPECT_EQ(stats.events_forwarded, static_cast<std::uint64_t>(kMatching));
}

// Destruction with a busy pipeline: queued events are drained, not dropped,
// before the workers exit.
TEST(ConcurrentMatching, BrokerDrainsQueueOnDestruction) {
  const auto schema = make_synthetic_schema(3, 3);
  const BrokerNetwork topo = make_line(1, 10, 0, 1);
  InProcNetwork net;
  Broker::Options options;
  options.match_threads = 2;
  {
    auto* endpoint = net.create_endpoint("broker0");
    Broker broker(BrokerId{0}, topo, {schema}, *endpoint, options);
    endpoint->set_handler(&broker);
    broker.flush();  // flush on an idle pipeline returns immediately
  }
  SUCCEED();
}

// The pipeline answers a link's in-order forwards with cumulative BrokerAcks
// staged per dispatch batch, and sends a client one batch of Delivers per
// apply hold. The peer broker is a raw endpoint that records its acks.
// Forwards the pipeline never queues (unknown space), duplicates and gaps
// are re-acked at once, without waiting for a batch.
TEST(ConcurrentMatching, BrokerCoalescesAcksAndDeliveriesPerBatch) {
  const SchemaPtr schema =
      make_schema("trades", {Attribute{"issue", AttributeType::kString, {}},
                             Attribute{"price", AttributeType::kDouble, {}},
                             Attribute{"volume", AttributeType::kInt, {}}});
  const BrokerNetwork topo = make_line(2, 10, 0, 1);
  InProcNetwork net;
  Broker::Options options;
  options.match_threads = 1;
  options.session_epoch = 100;
  auto* endpoint = net.create_endpoint("broker0");
  Broker broker(BrokerId{0}, topo, {schema}, *endpoint, options);
  endpoint->set_handler(&broker);

  struct Peer : TransportHandler {
    std::vector<std::uint64_t> acks;  // pumped on the test thread
    void on_connect(ConnId) override {}
    void on_frame(ConnId, std::span<const std::uint8_t> frame) override {
      if (wire::peek_type(frame) == wire::FrameType::kBrokerAck) {
        acks.push_back(wire::decode_broker_ack(frame).seq);
      }
    }
    void on_disconnect(ConnId) override {}
  };
  Peer peer;
  auto* peer_endpoint = net.create_endpoint("broker1");
  peer_endpoint->set_handler(&peer);

  auto* sub_endpoint = net.create_endpoint("sub");
  Client sub("sub", *sub_endpoint, {schema});
  sub_endpoint->set_handler(&sub);
  sub.bind(net.connect("sub", "broker0"));
  net.pump();
  sub.subscribe(0, "volume >= 0");
  net.pump();
  broker.flush();

  constexpr std::uint64_t kEpoch = 7;
  const ConnId link = net.connect("broker1", "broker0");
  peer_endpoint->send(link, wire::encode(wire::HelloBroker{BrokerId{1}, kEpoch, 0, 0}));
  net.pump();
  const auto forward = [&](std::uint16_t space, std::uint64_t seq) {
    const Event event(schema, {Value("IBM"), Value(1.0), Value(static_cast<int>(seq))});
    peer_endpoint->send(link, wire::encode(wire::EventForward{BrokerId{1}, SpaceId{space},
                                                              encode_event(event), kEpoch,
                                                              seq}));
  };

  constexpr std::uint64_t kForwards = 200;
  for (std::uint64_t seq = 1; seq <= kForwards; ++seq) forward(0, seq);
  net.pump();  // the forwards reach the broker and queue for its worker
  broker.flush();
  net.pump();  // acks reach the peer, deliveries the client
  ASSERT_GE(peer.acks.size(), 1u);
  EXPECT_LE(peer.acks.size(), kForwards);
  EXPECT_TRUE(std::is_sorted(peer.acks.begin(), peer.acks.end()));
  EXPECT_EQ(peer.acks.back(), kForwards);
  EXPECT_EQ(broker.stats().link_acks_sent, peer.acks.size());

  const auto delivered = sub.take_deliveries();
  ASSERT_EQ(delivered.size(), kForwards);
  std::uint64_t last_seq = 0;
  std::set<std::int64_t> volumes;
  for (const auto& d : delivered) {
    EXPECT_GT(d.seq, last_seq);  // strictly increasing: no duplicates
    last_seq = d.seq;
    volumes.insert(d.event.value(2).as_int());
  }
  EXPECT_EQ(volumes.size(), kForwards);  // every forward exactly once

  // Each of these is answered by one ack as soon as it is handled: pump
  // alone, no flush, delivers it.
  const auto acked_at_once = [&](std::uint16_t space, std::uint64_t seq) {
    const std::size_t before = peer.acks.size();
    forward(space, seq);
    net.pump();
    return peer.acks.size() == before + 1 ? peer.acks.back() : 0;
  };
  EXPECT_EQ(acked_at_once(9, kForwards + 1), kForwards + 1);  // unknown space
  EXPECT_EQ(acked_at_once(0, kForwards), kForwards + 1);      // duplicate
  EXPECT_EQ(acked_at_once(0, kForwards + 3), kForwards + 1);  // gap
  broker.flush();
  net.pump();
  EXPECT_TRUE(sub.take_deliveries().empty());
  const auto stats = broker.stats();
  EXPECT_EQ(stats.duplicates_dropped, 1u);
  EXPECT_EQ(stats.link_acks_sent, peer.acks.size());
}

// A forward the broker cannot dispatch — a tree root it does not know, or
// a payload that does not decode — is dropped alone in both event modes,
// synchronous (0 match threads) and pipelined: counted in frames_rejected
// and acked, with the link kept and the next forward on it delivered.
class BadForward : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BadForward, DroppedAloneAndTheLinkKept) {
  const SchemaPtr schema =
      make_schema("trades", {Attribute{"issue", AttributeType::kString, {}},
                             Attribute{"price", AttributeType::kDouble, {}},
                             Attribute{"volume", AttributeType::kInt, {}}});
  const BrokerNetwork topo = make_line(2, 10, 0, 1);
  InProcNetwork net;
  Broker::Options options;
  options.match_threads = GetParam();
  options.session_epoch = 100;
  auto* endpoint = net.create_endpoint("broker0");
  Broker broker(BrokerId{0}, topo, {schema}, *endpoint, options);
  endpoint->set_handler(&broker);

  struct Peer : TransportHandler {
    std::vector<std::uint64_t> acks;
    int disconnects = 0;
    void on_connect(ConnId) override {}
    void on_frame(ConnId, std::span<const std::uint8_t> frame) override {
      if (wire::peek_type(frame) == wire::FrameType::kBrokerAck) {
        acks.push_back(wire::decode_broker_ack(frame).seq);
      }
    }
    void on_disconnect(ConnId) override { ++disconnects; }
  };
  Peer peer;
  auto* peer_endpoint = net.create_endpoint("broker1");
  peer_endpoint->set_handler(&peer);
  auto* sub_endpoint = net.create_endpoint("sub");
  Client sub("sub", *sub_endpoint, {schema});
  sub_endpoint->set_handler(&sub);
  sub.bind(net.connect("sub", "broker0"));
  net.pump();
  sub.subscribe(0, "volume >= 0");
  net.pump();
  broker.flush();

  constexpr std::uint64_t kEpoch = 7;
  const ConnId link = net.connect("broker1", "broker0");
  peer_endpoint->send(link, wire::encode(wire::HelloBroker{BrokerId{1}, kEpoch, 0, 0}));
  net.pump();
  const std::vector<std::uint8_t> good =
      encode_event(Event(schema, {Value("IBM"), Value(1.0), Value(5)}));
  const auto forward = [&](BrokerId root, std::vector<std::uint8_t> payload, std::uint64_t seq) {
    peer_endpoint->send(link, wire::encode(wire::EventForward{root, SpaceId{0}, std::move(payload),
                                                              kEpoch, seq}));
    net.pump();
    broker.flush();
    net.pump();
  };
  forward(BrokerId{7}, good, 1);          // a root the topology lacks
  forward(BrokerId{1}, {0x01, 0x02}, 2);  // a payload that is no event
  EXPECT_EQ(broker.stats().frames_rejected, 2u);
  EXPECT_EQ(peer.disconnects, 0);
  forward(BrokerId{1}, good, 3);
  EXPECT_EQ(sub.take_deliveries().size(), 1u);
  EXPECT_EQ(peer.disconnects, 0);
  ASSERT_FALSE(peer.acks.empty());
  EXPECT_EQ(peer.acks.back(), 3u);
}

INSTANTIATE_TEST_SUITE_P(EventModes, BadForward, ::testing::Values<std::size_t>(0, 1),
                         [](const auto& info) {
                           return info.param == 0 ? std::string("synchronous")
                                                  : std::string("pipelined");
                         });

// A frozen PstMatcher is shared by reader threads with no lock: four
// threads match the same factored matcher (each on its own scratch, and
// through the thread-local default) and must agree with NaiveMatcher.
TEST(ConcurrentMatching, FrozenPstMatcherMatchesFromManyThreads) {
  const auto schema = make_synthetic_schema(6, 4);
  PstMatcherOptions options;
  options.factoring_levels = 2;
  PstMatcher matcher(schema, options);
  NaiveMatcher naive;
  Rng rng(4242);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  for (std::int64_t i = 0; i < 400; ++i) {
    const Subscription sub = gen.generate(rng);
    matcher.add(SubscriptionId{i}, sub);
    naive.add(SubscriptionId{i}, sub);
  }
  matcher.freeze();

  EventGenerator events(schema);
  std::vector<Event> probes;
  std::vector<std::vector<SubscriptionId>> expected;
  for (int i = 0; i < 200; ++i) {
    probes.push_back(events.generate(rng));
    std::vector<SubscriptionId> ids;
    naive.match_into(probes.back(), ids);
    std::sort(ids.begin(), ids.end());
    expected.push_back(std::move(ids));
  }

  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      MatchScratch scratch;
      std::vector<SubscriptionId> out;
      for (int pass = 0; pass < 5; ++pass) {
        for (std::size_t i = 0; i < probes.size(); ++i) {
          out.clear();
          if ((i + static_cast<std::size_t>(t)) % 2 == 0) {
            matcher.match_into(probes[i], out, scratch);
          } else {
            matcher.match_into(probes[i], out);
          }
          std::sort(out.begin(), out.end());
          if (out != expected[i]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace gryphon
