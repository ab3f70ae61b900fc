// ContentRoutingNetwork: the full link-matching control plane (Section 3).
#include "routing/content_router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"
#include "topology/builders.h"
#include "trit_reference.h"
#include "event/parser.h"
#include "workload/generators.h"

namespace gryphon {
namespace {

Subscription sub_eq(const SchemaPtr& schema, std::vector<int> values) {
  std::vector<AttributeTest> tests;
  for (const int v : values) {
    tests.push_back(v < 0 ? AttributeTest::dont_care() : AttributeTest::equals(Value(v)));
  }
  return Subscription(schema, std::move(tests));
}

Event ev(const SchemaPtr& schema, std::vector<int> values) {
  std::vector<Value> v;
  for (const int x : values) v.emplace_back(x);
  return Event(schema, std::move(v));
}

/// Walks an event through the network hop by hop, following the route()
/// decisions, and returns the delivered clients. Also checks the "at most
/// one copy per link" property and that no broker is visited twice.
std::multiset<ClientId::rep_type> propagate(const ContentRoutingNetwork& crn, const Event& event,
                                            BrokerId root, std::uint64_t* total_steps = nullptr) {
  std::multiset<ClientId::rep_type> delivered;
  std::set<int> visited_brokers;
  std::vector<BrokerId> frontier{root};
  while (!frontier.empty()) {
    const BrokerId at = frontier.back();
    frontier.pop_back();
    EXPECT_TRUE(visited_brokers.insert(at.value).second)
        << "broker " << at << " received two copies";
    const auto result = crn.route(at, event, root);
    if (total_steps != nullptr) *total_steps += result.steps;
    for (const LinkIndex link : result.links) {
      const auto& port = crn.network().ports(at)[static_cast<std::size_t>(link.value)];
      if (port.kind == BrokerNetwork::PortKind::kClient) {
        delivered.insert(port.peer_client.value);
      } else {
        frontier.push_back(port.peer_broker);
      }
    }
  }
  return delivered;
}

std::multiset<ClientId::rep_type> expected_destinations(const ContentRoutingNetwork& crn,
                                                        const Event& event) {
  std::multiset<ClientId::rep_type> out;
  std::set<ClientId::rep_type> dedup;
  for (const SubscriptionId id : crn.match(event)) {
    dedup.insert(crn.destination_of(id).value);
  }
  for (const auto c : dedup) out.insert(c);
  return out;
}

class ContentRouterLineTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = make_synthetic_schema(4, 3);
  BrokerNetwork net_ = make_line(3, 10, 2, 1);  // brokers 0-1-2, 2 clients each
  ContentRoutingNetwork crn_{net_, schema_, {BrokerId{0}, BrokerId{2}}};
};

TEST_F(ContentRouterLineTest, DeliversToRemoteSubscriberOnly) {
  const ClientId far_client = net_.clients_of(BrokerId{2})[0];
  crn_.subscribe(SubscriptionId{1}, sub_eq(schema_, {1, -1, -1, -1}), far_client);

  const auto hit = propagate(crn_, ev(schema_, {1, 0, 0, 0}), BrokerId{0});
  EXPECT_EQ(hit, (std::multiset<ClientId::rep_type>{far_client.value}));

  const auto miss = propagate(crn_, ev(schema_, {2, 0, 0, 0}), BrokerId{0});
  EXPECT_TRUE(miss.empty());
}

TEST_F(ContentRouterLineTest, NoForwardingWhenNothingDownstreamMatches) {
  // Subscriber at broker 0; publish at broker 0: no broker link should be
  // used at all.
  const ClientId local = net_.clients_of(BrokerId{0})[0];
  crn_.subscribe(SubscriptionId{1}, sub_eq(schema_, {-1, -1, -1, -1}), local);
  const auto result = crn_.route(BrokerId{0}, ev(schema_, {0, 0, 0, 0}), BrokerId{0});
  ASSERT_EQ(result.links.size(), 1u);
  EXPECT_EQ(net_.ports(BrokerId{0})[static_cast<std::size_t>(result.links[0].value)].kind,
            BrokerNetwork::PortKind::kClient);
}

TEST_F(ContentRouterLineTest, EventsNeverFlowUpstream) {
  // Subscriber behind broker 0; event published at broker 2. At broker 0
  // (the leaf of that spanning tree) no broker links may fire.
  const ClientId client0 = net_.clients_of(BrokerId{0})[0];
  crn_.subscribe(SubscriptionId{1}, sub_eq(schema_, {-1, -1, -1, -1}), client0);
  const auto at_zero = crn_.route(BrokerId{0}, ev(schema_, {0, 0, 0, 0}), BrokerId{2});
  for (const LinkIndex link : at_zero.links) {
    EXPECT_EQ(net_.ports(BrokerId{0})[static_cast<std::size_t>(link.value)].kind,
              BrokerNetwork::PortKind::kClient);
  }
}

TEST_F(ContentRouterLineTest, InitializationMasksMatchTopology) {
  // At broker 1 on the tree rooted at 0: upstream port (to 0) is No, the
  // downstream port (to 2) and client ports are Maybe.
  const std::string mask = reference::unpack(crn_.initialization_mask(BrokerId{1}, BrokerId{0}),
                                             net_.ports(BrokerId{1}).size());
  const auto up = net_.port_to_broker(BrokerId{1}, BrokerId{0});
  const auto down = net_.port_to_broker(BrokerId{1}, BrokerId{2});
  EXPECT_EQ(mask.at(static_cast<std::size_t>(up.value)), 'N');
  EXPECT_EQ(mask.at(static_cast<std::size_t>(down.value)), 'M');
  for (const ClientId c : net_.clients_of(BrokerId{1})) {
    EXPECT_EQ(mask.at(static_cast<std::size_t>(net_.client_port(c).value)), 'M');
  }
}

TEST_F(ContentRouterLineTest, UnsubscribeStopsDelivery) {
  const ClientId far_client = net_.clients_of(BrokerId{2})[1];
  crn_.subscribe(SubscriptionId{1}, sub_eq(schema_, {0, -1, -1, -1}), far_client);
  EXPECT_EQ(propagate(crn_, ev(schema_, {0, 0, 0, 0}), BrokerId{0}).size(), 1u);
  EXPECT_TRUE(crn_.unsubscribe(SubscriptionId{1}));
  EXPECT_TRUE(propagate(crn_, ev(schema_, {0, 0, 0, 0}), BrokerId{0}).empty());
  EXPECT_FALSE(crn_.unsubscribe(SubscriptionId{1}));
  crn_.check_consistency();
}

TEST_F(ContentRouterLineTest, DuplicateSubscriptionIdThrows) {
  const ClientId c = net_.clients_of(BrokerId{0})[0];
  crn_.subscribe(SubscriptionId{1}, sub_eq(schema_, {-1, -1, -1, -1}), c);
  EXPECT_THROW(crn_.subscribe(SubscriptionId{1}, sub_eq(schema_, {-1, -1, -1, -1}), c),
               std::invalid_argument);
}

TEST_F(ContentRouterLineTest, UnknownRootThrows) {
  EXPECT_THROW(crn_.route(BrokerId{0}, ev(schema_, {0, 0, 0, 0}), BrokerId{1}),
               std::invalid_argument);
}

TEST_F(ContentRouterLineTest, UnknownBrokerThrows) {
  const Event event = ev(schema_, {0, 0, 0, 0});
  std::vector<LinkIndex> links;
  for (const BrokerId broker : {BrokerId{3}, BrokerId{-1}}) {
    EXPECT_THROW(crn_.route(broker, event, BrokerId{0}), std::invalid_argument);
    EXPECT_THROW(crn_.route_into(broker, event, BrokerId{0}, links), std::invalid_argument);
    const EventRoute route = crn_.prepare(event);
    EXPECT_THROW(crn_.route_into(broker, route, BrokerId{0}, links), std::invalid_argument);
  }
}

TEST_F(ContentRouterLineTest, PreparedRouteIsCheckedForStalenessAndRoots) {
  const ClientId far_client = net_.clients_of(BrokerId{2})[1];
  crn_.subscribe(SubscriptionId{1}, sub_eq(schema_, {0, -1, -1, -1}), far_client);
  const Event event = ev(schema_, {0, 0, 0, 0});
  const EventRoute route = crn_.prepare(event);  // compiles the tree on first read
  std::vector<LinkIndex> links;
  for (const BrokerId at : {BrokerId{0}, BrokerId{1}, BrokerId{2}}) {
    const std::uint64_t steps = crn_.route_into(at, route, BrokerId{0}, links);
    const auto want = crn_.route(at, event, BrokerId{0});
    EXPECT_EQ(links, want.links);
    EXPECT_EQ(steps, want.steps);
  }
  EXPECT_THROW(crn_.route_into(BrokerId{0}, route, BrokerId{1}, links), std::invalid_argument);
  // A subscription into the route's tree frees the compiled form the route
  // points into: the route is refused, not read.
  crn_.subscribe(SubscriptionId{2}, sub_eq(schema_, {0, 0, -1, -1}), far_client);
  EXPECT_THROW(crn_.route_into(BrokerId{0}, route, BrokerId{0}, links), std::logic_error);
  // A route prepared now serves the churning tree from the event.
  const EventRoute fresh = crn_.prepare(event);
  const std::uint64_t steps = crn_.route_into(BrokerId{0}, fresh, BrokerId{0}, links);
  const auto want = crn_.route(BrokerId{0}, event, BrokerId{0});
  EXPECT_EQ(links, want.links);
  EXPECT_EQ(steps, want.steps);
}

TEST_F(ContentRouterLineTest, AcyclicNetworkSharesOneAnnotationGroup) {
  for (std::size_t b = 0; b < net_.broker_count(); ++b) {
    EXPECT_EQ(crn_.annotation_group_count(BrokerId{static_cast<BrokerId::rep_type>(b)}), 1u);
  }
}

TEST(ContentRouterFigure6, LateralLinksForceMultipleGroups) {
  const auto topo = make_figure6();
  ContentRoutingNetwork crn(topo.network, make_synthetic_schema(4, 3), topo.publisher_brokers);
  // Brokers adjacent to a lateral link see different dest->link maps for
  // different publishers' trees; at least one broker needs >1 group.
  std::size_t max_groups = 0;
  for (std::size_t b = 0; b < topo.network.broker_count(); ++b) {
    max_groups = std::max(max_groups, crn.annotation_group_count(
                                          BrokerId{static_cast<BrokerId::rep_type>(b)}));
  }
  EXPECT_GT(max_groups, 1u);
}

TEST(ContentRouterFigure6, ExactDeliveryForAllPublishers) {
  const auto topo = make_figure6();
  const auto schema = make_synthetic_schema(6, 4);
  ContentRoutingNetwork crn(topo.network, schema, topo.publisher_brokers);

  Rng rng(2718);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  std::int64_t next_id = 0;
  for (const ClientId c : topo.subscribers) {
    if (rng.chance(0.5)) continue;  // half the clients subscribe
    const auto perm = locality_permutation(
        4, static_cast<std::uint32_t>(topo.region_of[static_cast<std::size_t>(
               topo.network.client_home(c).value)]));
    crn.subscribe(SubscriptionId{next_id++}, gen.generate(rng, &perm), c);
  }

  EventGenerator events(schema);
  for (int i = 0; i < 60; ++i) {
    const Event e = events.generate(rng);
    const auto want = expected_destinations(crn, e);
    for (const BrokerId root : topo.publisher_brokers) {
      std::uint64_t steps = 0;
      EXPECT_EQ(propagate(crn, e, root, &steps), want)
          << "event " << e.to_text() << " from root " << root;
    }
  }
  crn.check_consistency();
}

TEST(ContentRouterChurn, IncrementalStateStaysConsistent) {
  const auto schema = make_synthetic_schema(4, 3);
  Rng rng(31337);
  auto net = make_random_tree_like(8, rng, 5, 20, 2, 1, 2);
  ContentRoutingNetwork crn(net, schema, {BrokerId{0}, BrokerId{3}});
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  EventGenerator events(schema);

  std::vector<SubscriptionId> live;
  std::int64_t next_id = 0;
  for (int round = 0; round < 200; ++round) {
    if (live.empty() || rng.chance(0.6)) {
      const SubscriptionId id{next_id++};
      const ClientId client{static_cast<ClientId::rep_type>(rng.below(net.client_count()))};
      crn.subscribe(id, gen.generate(rng), client);
      live.push_back(id);
    } else {
      const std::size_t pick = rng.below(live.size());
      EXPECT_TRUE(crn.unsubscribe(live[pick]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  crn.check_consistency();

  // Delivery is still exact after churn.
  for (int i = 0; i < 40; ++i) {
    const Event e = events.generate(rng);
    EXPECT_EQ(propagate(crn, e, BrokerId{0}), expected_destinations(crn, e));
    EXPECT_EQ(propagate(crn, e, BrokerId{3}), expected_destinations(crn, e));
  }
}

TEST(ContentRouterFactoring, FactoredMatcherRoutesIdentically) {
  const auto schema = make_synthetic_schema(6, 3);
  const auto net = make_line(4, 10, 2, 1);
  PstMatcherOptions factored;
  factored.factoring_levels = 2;
  ContentRoutingNetwork plain(net, schema, {BrokerId{0}});
  ContentRoutingNetwork with_factoring(net, schema, {BrokerId{0}}, factored);

  Rng rng(5150);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  std::int64_t next_id = 0;
  for (int i = 0; i < 200; ++i) {
    const auto s = gen.generate(rng);
    const ClientId client{static_cast<ClientId::rep_type>(rng.below(net.client_count()))};
    plain.subscribe(SubscriptionId{next_id}, s, client);
    with_factoring.subscribe(SubscriptionId{next_id}, s, client);
    ++next_id;
  }
  EventGenerator events(schema);
  for (int i = 0; i < 50; ++i) {
    const Event e = events.generate(rng);
    EXPECT_EQ(propagate(plain, e, BrokerId{0}), propagate(with_factoring, e, BrokerId{0}));
  }
  with_factoring.check_consistency();
}


TEST(ContentRouterMixedTypes, StringAndRangePredicatesRouteExactly) {
  // Open string/double attributes have no finite domains: annotations rely
  // on the implicit all-No alternative, and range tests exercise the
  // conservative general-branch handling. Delivery must stay exact.
  const auto schema = make_schema(
      "trades", {Attribute{"issue", AttributeType::kString, {}},
                 Attribute{"price", AttributeType::kDouble, {}},
                 Attribute{"volume", AttributeType::kInt, {}}});
  const auto net = make_line(3, 10, 2, 1);
  ContentRoutingNetwork crn(net, schema, {BrokerId{0}, BrokerId{2}});

  const ClientId ibm_watcher = net.clients_of(BrokerId{2})[0];
  const ClientId whale_watcher = net.clients_of(BrokerId{1})[0];
  crn.subscribe(SubscriptionId{1},
                parse_subscription(schema, "issue = 'IBM' & price < 120"), ibm_watcher);
  crn.subscribe(SubscriptionId{2}, parse_subscription(schema, "volume > 50000"),
                whale_watcher);

  const auto publish = [&](const char* issue, double price, int volume) {
    return propagate(crn, Event(schema, {Value(issue), Value(price), Value(volume)}),
                     BrokerId{0});
  };
  EXPECT_EQ(publish("IBM", 119.0, 10),
            (std::multiset<ClientId::rep_type>{ibm_watcher.value}));
  EXPECT_EQ(publish("IBM", 125.0, 10), (std::multiset<ClientId::rep_type>{}));
  EXPECT_EQ(publish("HP", 10.0, 99999),
            (std::multiset<ClientId::rep_type>{whale_watcher.value}));
  EXPECT_EQ(publish("IBM", 100.0, 99999),
            (std::multiset<ClientId::rep_type>{ibm_watcher.value, whale_watcher.value}));
  crn.check_consistency();
}

TEST(ContentRouterMixedTypes, RandomizedMixedPredicatesStayExact) {
  const auto schema = make_schema(
      "telemetry", {Attribute{"unit", AttributeType::kString, {}},
                    Attribute{"metric", AttributeType::kString, {}},
                    Attribute{"value", AttributeType::kDouble, {}},
                    Attribute{"ok", AttributeType::kBool, {}}});
  Rng rng(8080);
  const auto net = make_random_tree(6, rng, 5, 20, 2, 1);
  ContentRoutingNetwork crn(net, schema, {BrokerId{0}, BrokerId{4}});

  const char* units[] = {"reactor-1", "reactor-2", "boiler-7"};
  const char* metrics[] = {"temp", "pressure", "flow"};
  std::vector<std::pair<SubscriptionId, Subscription>> live;
  for (std::int64_t i = 0; i < 120; ++i) {
    std::vector<AttributeTest> tests(4);
    if (rng.chance(0.7)) tests[0] = AttributeTest::equals(Value(units[rng.below(3)]));
    if (rng.chance(0.5)) tests[1] = AttributeTest::equals(Value(metrics[rng.below(3)]));
    if (rng.chance(0.5)) {
      const double lo = static_cast<double>(rng.below(50));
      tests[2] = AttributeTest::between(Value(lo), Value(lo + 25.0));
    }
    if (rng.chance(0.3)) tests[3] = AttributeTest::equals(Value(rng.chance(0.5)));
    Subscription sub(schema, tests);
    const ClientId client{static_cast<ClientId::rep_type>(rng.below(net.client_count()))};
    crn.subscribe(SubscriptionId{i}, sub, client);
    live.emplace_back(SubscriptionId{i}, sub);
  }

  for (int trial = 0; trial < 80; ++trial) {
    const Event e(schema, {Value(units[rng.below(3)]), Value(metrics[rng.below(3)]),
                           Value(static_cast<double>(rng.below(100))), Value(rng.chance(0.5))});
    EXPECT_EQ(propagate(crn, e, BrokerId{0}), expected_destinations(crn, e));
    EXPECT_EQ(propagate(crn, e, BrokerId{4}), expected_destinations(crn, e));
  }
  crn.check_consistency();
}

// Clients are ordinary links of the routing network, so its annotations
// are built without a local link: no broker's rows carry a local-slice
// table, local enumeration finds nothing, and the rows are stored in the
// narrowest plane word that holds the broker's link count, beside their
// rank index.
TEST_F(ContentRouterLineTest, CompiledAnnotationsHoldNoLocalSliceTable) {
  Rng rng(7);
  SubscriptionGenerator gen(schema_, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  for (std::int64_t i = 0; i < 40; ++i) {
    crn_.subscribe(SubscriptionId{i}, gen.generate(rng),
                   ClientId{static_cast<ClientId::rep_type>(rng.below(net_.client_count()))});
  }
  crn_.compile_all();
  std::size_t compiled_trees = 0;
  std::size_t bytes = 0;
  crn_.matcher().for_each_bucket([&](const FactoringIndex::Key*, const Pst& tree, const auto&) {
    ++compiled_trees;
    for (std::size_t b = 0; b < net_.broker_count(); ++b) {
      const BrokerId broker{static_cast<BrokerId::rep_type>(b)};
      const CompiledAnnotation* annotation = crn_.routing_annotation(tree, broker);
      ASSERT_NE(annotation, nullptr);
      EXPECT_FALSE(annotation->local_link().valid());
      EXPECT_EQ(annotation->link_count(), net_.ports(broker).size());
      EXPECT_EQ(annotation->plane_bytes(), 1U);  // <= 8 links per broker
      // The stored rows (two one-byte planes each) and the rank index (12
      // bytes per 64 kernel nodes per group) are all the annotation holds.
      const std::size_t blocks =
          annotation->group_count() * ((annotation->kernel().node_count() + 63) / 64);
      EXPECT_GT(annotation->stored_rows(), 0U);
      EXPECT_EQ(annotation->memory_bytes(),
                sizeof(CompiledAnnotation) + annotation->stored_rows() * 2 +
                    blocks * sizeof(CompiledAnnotation::RankBlock));
      for (std::size_t n = 0; n < annotation->kernel().node_count(); ++n) {
        EXPECT_TRUE(annotation->local_subscribers(static_cast<CompiledPst::NodeId>(n)).empty());
      }
      bytes += annotation->memory_bytes();
    }
  });
  EXPECT_EQ(compiled_trees, 1U);
  EXPECT_EQ(crn_.annotation_bytes(), bytes);
}

}  // namespace
}  // namespace gryphon
