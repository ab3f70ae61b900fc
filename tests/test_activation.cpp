// Subscription activation under publish-on-demand. A Broker defers every
// control-plane mutation and compiles its snapshot once, just before it
// stages the next event (docs/concurrency.md, publish on demand). These
// tests pin both halves of that contract on a three-broker line, with
// synchronous matching and with a match-worker pipeline:
//   * cost: a pipelined subscribe burst compiles nothing until the first
//     Publish, then exactly once per broker;
//   * semantics: every event published after a SubscribeAck reaches the
//     subscription (oracle: NaiveMatcher over the client's live set), and
//     no event published after an Unsubscribe on the same connection is
//     delivered through it.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "broker/broker.h"
#include "broker/client.h"
#include "broker/inproc_transport.h"
#include "common/rng.h"
#include "matching/naive_matcher.h"
#include "topology/builders.h"

namespace gryphon {
namespace {

using T = AttributeTest;

constexpr int kBrokers = 3;
constexpr int kBurst = 500;
constexpr std::array<const char*, 4> kIssues{"IBM", "HP", "SUN", "DEC"};

/// A client's live subscriptions and the deliveries they imply.
struct Oracle {
  NaiveMatcher live;
  std::multiset<std::int64_t> expected;
  std::int64_t next_key{0};

  SubscriptionId add(const Subscription& subscription) {
    const SubscriptionId key{next_key++};
    live.add(key, subscription);
    return key;
  }
  /// Records an event published now: it must be delivered iff a live
  /// subscription matches.
  void published(const Event& event) {
    if (!live.match(event).ids.empty()) expected.insert(event.value(2).as_int());
  }
};

std::multiset<std::int64_t> delivered_tags(Client& client) {
  std::multiset<std::int64_t> tags;
  std::uint64_t last_seq = 0;
  for (const Client::Delivery& d : client.take_deliveries()) {
    EXPECT_GT(d.seq, last_seq) << client.name() << ": delivery sequence went backwards";
    last_seq = d.seq;
    tags.insert(d.event.value(2).as_int());
  }
  return tags;
}

/// Parameter: match workers per broker (0 = synchronous matching).
class ActivationTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  ActivationTest() {
    Broker::Options options;
    options.match_threads = GetParam();
    for (int b = 0; b < kBrokers; ++b) {
      auto* endpoint = net_.create_endpoint(broker_name(b));
      brokers_.push_back(std::make_unique<Broker>(
          BrokerId{b}, topo_, std::vector<SchemaPtr>{schema_}, *endpoint, options));
      endpoint->set_handler(brokers_.back().get());
    }
    for (int b = 0; b + 1 < kBrokers; ++b) {
      brokers_[static_cast<std::size_t>(b)]->attach_broker_link(
          net_.connect(broker_name(b), broker_name(b + 1)), BrokerId{b + 1});
    }
    settle();
  }

  static std::string broker_name(int b) { return "broker" + std::to_string(b); }

  Client& add_client(const std::string& name, int broker) {
    auto* endpoint = net_.create_endpoint(name);
    clients_.push_back(
        std::make_unique<Client>(name, *endpoint, std::vector<SchemaPtr>{schema_}));
    endpoint->set_handler(clients_.back().get());
    clients_.back()->bind(net_.connect(name, broker_name(broker)));
    settle();
    return *clients_.back();
  }

  /// Drains the network and every match pipeline: after flush() a broker
  /// has applied every queued event and sent every resulting frame, so an
  /// empty network queue afterwards means nothing is in flight anywhere.
  void settle() {
    for (;;) {
      net_.pump();
      for (const auto& broker : brokers_) broker->flush();
      if (net_.pending() == 0) return;
    }
  }

  std::uint64_t compiles(int b) const {
    return brokers_[static_cast<std::size_t>(b)]->stats().control_plane.compile_publishes;
  }

  /// Predicates over issue and price; volume is left wide because it
  /// carries each event's unique tag.
  Subscription random_subscription(Rng& rng) const {
    std::vector<T> tests(3, T::dont_care());
    if (rng.below(4) != 0) tests[0] = T::equals(Value(kIssues[rng.below(kIssues.size())]));
    if (rng.below(2) == 0) {
      const auto lo = static_cast<double>(rng.below(150));
      tests[1] = T::between(Value(lo), Value(lo + 50.0));
    }
    return Subscription(schema_, tests);
  }

  Event random_event(Rng& rng, std::int64_t tag) const {
    return Event(schema_, {Value(kIssues[rng.below(kIssues.size())]),
                           Value(static_cast<double>(rng.below(200))), Value(tag)});
  }

  SchemaPtr schema_ =
      make_schema("trades", {Attribute{"issue", AttributeType::kString, {}},
                             Attribute{"price", AttributeType::kDouble, {}},
                             Attribute{"volume", AttributeType::kInt, {}}});
  BrokerNetwork topo_ = make_line(kBrokers, 10, 0, 1);  // brokers 0-1-2
  InProcNetwork net_;
  std::vector<std::unique_ptr<Broker>> brokers_;
  std::vector<std::unique_ptr<Client>> clients_;
};

TEST_P(ActivationTest, PipelinedBurstCompilesOncePerBrokerAtFirstPublish) {
  Client& far = add_client("far", 2);
  Client& tail = add_client("tail", 2);  // catch-all: every event crosses the line
  Client& pub = add_client("pub", 0);
  Rng rng(4242);

  Oracle far_oracle;
  std::vector<std::uint64_t> tokens;
  tail.subscribe(0, Subscription(schema_, std::vector<T>(3, T::dont_care())));
  for (int i = 1; i < kBurst; ++i) {
    const Subscription s = random_subscription(rng);
    far_oracle.add(s);
    tokens.push_back(far.subscribe(0, s));
  }
  settle();
  for (int b = 0; b < kBrokers; ++b) {
    EXPECT_EQ(brokers_[static_cast<std::size_t>(b)]->stats().subscriptions_active,
              static_cast<std::uint64_t>(kBurst))
        << "broker " << b;
    EXPECT_EQ(compiles(b), 0u) << "broker " << b << " compiled before any event";
  }
  for (const std::uint64_t token : tokens) {
    ASSERT_TRUE(far.subscription_id(token).has_value());
  }

  // The first event pays one compile at every broker it crosses.
  const Event first = random_event(rng, 0);
  far_oracle.published(first);
  pub.publish(0, first);
  settle();
  for (int b = 0; b < kBrokers; ++b) EXPECT_EQ(compiles(b), 1u) << "broker " << b;

  // Without churn, later events reuse that snapshot.
  constexpr int kEvents = 200;
  for (int tag = 1; tag < kEvents; ++tag) {
    const Event e = random_event(rng, tag);
    far_oracle.published(e);
    pub.publish(0, e);
  }
  settle();
  for (int b = 0; b < kBrokers; ++b) EXPECT_EQ(compiles(b), 1u) << "broker " << b;
  EXPECT_FALSE(far_oracle.expected.empty());
  EXPECT_EQ(delivered_tags(far), far_oracle.expected);
  EXPECT_EQ(delivered_tags(tail).size(), static_cast<std::size_t>(kEvents));
}

TEST_P(ActivationTest, EventsAfterAckMatchAndAfterUnsubscribeDoNot) {
  // `near` unsubscribes, subscribes and publishes on one connection with no
  // pump in between, so its broker handles each Publish right after the
  // SubscribeAck (or the applied unsubscribe) it follows. `remote`
  // publishes from two hops away once the churn has propagated.
  Client& near = add_client("near", 0);
  Client& remote = add_client("remote", 2);
  Rng rng(GetParam() + 99);

  Oracle oracle;
  std::vector<std::pair<SubscriptionId, SubscriptionId>> acked;  // {broker id, oracle key}
  std::int64_t tag = 0;
  constexpr int kRounds = 60;
  for (int round = 0; round < kRounds; ++round) {
    if (round % 3 == 2 && !acked.empty()) {
      const std::size_t pick = rng.below(acked.size());
      near.unsubscribe(acked[pick].first);
      oracle.live.remove(acked[pick].second);
      acked.erase(acked.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    const Subscription s = random_subscription(rng);
    const SubscriptionId key = oracle.add(s);
    const std::uint64_t token = near.subscribe(0, s);
    for (int k = 0; k < 3; ++k) {
      const Event e = random_event(rng, tag++);
      oracle.published(e);
      near.publish(0, e);
    }
    settle();
    const auto id = near.subscription_id(token);
    ASSERT_TRUE(id.has_value()) << "round " << round;
    acked.emplace_back(*id, key);

    const Event e = random_event(rng, tag++);
    oracle.published(e);
    remote.publish(0, e);
    settle();
  }
  EXPECT_FALSE(oracle.expected.empty());
  EXPECT_EQ(delivered_tags(near), oracle.expected);
  // Each round's churn costs at most one publish per broker, paid by the
  // first event after it — never one per mutation.
  for (int b = 0; b < kBrokers; ++b) {
    const ControlPlaneStats cp = brokers_[static_cast<std::size_t>(b)]->stats().control_plane;
    EXPECT_LE(cp.compile_publishes + cp.covering_only_publishes,
              static_cast<std::uint64_t>(kRounds))
        << "broker " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ActivationTest, ::testing::Values(std::size_t{0}, std::size_t{2}),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return info.param == 0 ? std::string("Sync")
                                                  : std::string("MatchWorkers");
                         });

}  // namespace
}  // namespace gryphon
