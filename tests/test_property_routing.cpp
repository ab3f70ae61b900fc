// Property-based sweep: for random topologies, subscription sets, and
// events, the link-matching protocol delivers exactly the centrally-matched
// destination set, with at most one copy per link (TEST_P over seeds); and
// every route() decision — whichever kernel serves the tree — equals
// link_match over an AnnotatedPst built from scratch, links and steps.
#include <gtest/gtest.h>

#include <set>

#include "routing/content_router.h"
#include "routing/link_matcher.h"
#include "topology/builders.h"
#include "workload/generators.h"

namespace gryphon {
namespace {

struct Params {
  std::uint64_t seed;
  bool tree_like;  // add lateral links
  std::size_t factoring_levels;
};

class RoutingProperty : public ::testing::TestWithParam<Params> {};

struct RandomNetwork {
  BrokerNetwork net;
  SchemaPtr schema;
  std::vector<BrokerId> roots;
};

RandomNetwork make_network(const Params& params, Rng& rng) {
  const std::size_t n_brokers = 4 + rng.below(12);
  RandomNetwork out{params.tree_like
                        ? make_random_tree_like(n_brokers, rng, 5, 40, 3, 1, 1 + rng.below(3))
                        : make_random_tree(n_brokers, rng, 5, 40, 3, 1),
                    make_synthetic_schema(5 + rng.below(4), 3 + rng.below(3)),
                    {}};
  for (std::size_t b = 0; b < n_brokers; b += 1 + rng.below(3)) {
    out.roots.push_back(BrokerId{static_cast<BrokerId::rep_type>(b)});
  }
  return out;
}

TEST_P(RoutingProperty, ExactDeliveryOnRandomNetworks) {
  const Params params = GetParam();
  Rng rng(params.seed);
  const RandomNetwork network = make_network(params, rng);
  const BrokerNetwork& net = network.net;
  const SchemaPtr& schema = network.schema;
  const std::vector<BrokerId>& roots = network.roots;
  PstMatcherOptions options;
  options.factoring_levels = params.factoring_levels;
  ContentRoutingNetwork crn(net, schema, roots, options);

  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  const std::size_t n_subs = 50 + rng.below(300);
  for (std::size_t i = 0; i < n_subs; ++i) {
    const ClientId client{static_cast<ClientId::rep_type>(rng.below(net.client_count()))};
    crn.subscribe(SubscriptionId{static_cast<std::int64_t>(i)}, gen.generate(rng), client);
  }
  // Churn a little: remove a third of them.
  for (std::size_t i = 0; i < n_subs; i += 3) {
    crn.unsubscribe(SubscriptionId{static_cast<std::int64_t>(i)});
  }
  crn.check_consistency();

  EventGenerator events(schema);
  for (int trial = 0; trial < 40; ++trial) {
    const Event e = events.generate(rng);
    std::set<ClientId::rep_type> expected;
    for (const SubscriptionId id : crn.match(e)) expected.insert(crn.destination_of(id).value);

    for (const BrokerId root : roots) {
      std::set<ClientId::rep_type> delivered;
      std::set<std::pair<int, int>> used_links;  // (broker, port): one copy each
      std::vector<BrokerId> frontier{root};
      std::set<int> visited;
      while (!frontier.empty()) {
        const BrokerId at = frontier.back();
        frontier.pop_back();
        ASSERT_TRUE(visited.insert(at.value).second) << "broker got two copies";
        const auto result = crn.route(at, e, root);
        for (const LinkIndex link : result.links) {
          ASSERT_TRUE(used_links.insert({at.value, link.value}).second)
              << "link carried two copies";
          const auto& port = net.ports(at)[static_cast<std::size_t>(link.value)];
          if (port.kind == BrokerNetwork::PortKind::kClient) {
            ASSERT_TRUE(delivered.insert(port.peer_client.value).second)
                << "client delivered twice";
          } else {
            frontier.push_back(port.peer_broker);
          }
        }
      }
      EXPECT_EQ(delivered, expected)
          << "seed " << params.seed << " root " << root << " event " << e.to_text();
    }
  }
}

// The reference decision: link_match over an AnnotatedPst built from
// scratch for this broker and spanning tree.
ContentRoutingNetwork::RouteResult reference_route(const ContentRoutingNetwork& crn,
                                                   BrokerId at, const Event& e,
                                                   BrokerId root) {
  ContentRoutingNetwork::RouteResult want;
  if (crn.matcher().options().factoring_levels > 0) ++want.steps;  // bucket probe
  const Pst* tree = crn.matcher().tree_for_event(e);
  if (tree == nullptr || tree->subscription_count() == 0) return want;
  const SpanningTree& spanning = crn.spanning_tree(root);
  const AnnotatedPst fresh(*tree, crn.network().ports(at).size(), [&](SubscriptionId id) {
    return spanning.tree_next_hop_to_client(at, crn.destination_of(id));
  });
  const LinkMatchResult lm = link_match(fresh, e, crn.initialization_mask(at, root));
  want.links = lm.mask.yes_links();
  want.steps += lm.steps;
  return want;
}

// Routes `count` events at every broker along every spanning tree and holds
// each decision to the reference.
void expect_routes_match_reference(const ContentRoutingNetwork& crn,
                                   const std::vector<BrokerId>& roots, Rng& rng,
                                   int count, const char* phase) {
  EventGenerator events(crn.schema());
  for (int trial = 0; trial < count; ++trial) {
    const Event e = events.generate(rng);
    for (const BrokerId root : roots) {
      for (std::size_t b = 0; b < crn.network().broker_count(); ++b) {
        const BrokerId at{static_cast<BrokerId::rep_type>(b)};
        const auto got = crn.route(at, e, root);
        const auto want = reference_route(crn, at, e, root);
        ASSERT_EQ(got.links, want.links)
            << phase << ": broker " << at << " root " << root << " event " << e.to_text();
        ASSERT_EQ(got.steps, want.steps)
            << phase << ": broker " << at << " root " << root << " event " << e.to_text();
      }
    }
  }
}

TEST_P(RoutingProperty, RoutesMatchLinkMatchInEveryTreeState) {
  const Params params = GetParam();
  Rng rng(params.seed);
  const RandomNetwork network = make_network(params, rng);
  PstMatcherOptions options;
  options.factoring_levels = params.factoring_levels;
  ContentRoutingNetwork crn(network.net, network.schema, network.roots, options);
  SubscriptionGenerator gen(network.schema, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  const auto random_client = [&] {
    return ClientId{static_cast<ClientId::rep_type>(rng.below(network.net.client_count()))};
  };

  // Subscribe: every tree waits for its first read.
  const std::size_t n_subs = 50 + rng.below(300);
  for (std::size_t i = 0; i < n_subs; ++i) {
    crn.subscribe(SubscriptionId{static_cast<std::int64_t>(i)}, gen.generate(rng),
                  random_client());
  }
  EXPECT_EQ(crn.kernel_counts().compiled, 0u);
  EXPECT_EQ(crn.kernel_counts().incremental, 0u);
  // Route: the trees read are compiled. Factored networks read only a few
  // buckets, so others stay unread into the churn below.
  expect_routes_match_reference(crn, network.roots, rng,
                                params.factoring_levels > 0 ? 2 : 10, "compiled");
  EXPECT_GT(crn.kernel_counts().compiled, 0u);
  EXPECT_EQ(crn.kernel_counts().incremental, 0u);
  crn.check_consistency();

  // Unsubscribe/subscribe: trees read before switch to incremental
  // annotations; unread buckets (some created just now) stay pending.
  for (std::size_t i = 0; i < n_subs; i += 3) {
    crn.unsubscribe(SubscriptionId{static_cast<std::int64_t>(i)});
  }
  for (std::size_t i = 0; i < n_subs / 4; ++i) {
    crn.subscribe(SubscriptionId{static_cast<std::int64_t>(n_subs + i)}, gen.generate(rng),
                  random_client());
  }
  EXPECT_GT(crn.kernel_counts().incremental, 0u);
  if (params.factoring_levels > 0) {
    EXPECT_GT(crn.kernel_counts().pending, 0u);
  }
  crn.check_consistency();
  // Route again: incremental trees, plus first reads of the pending ones.
  expect_routes_match_reference(crn, network.roots, rng, 20, "after churn");
  crn.check_consistency();
}

TEST(RoutingKernels, WithoutTrivialTestEliminationEveryTreeStaysIncremental) {
  // The compiled kernel always collapses star chains, which changes the
  // step count when trivial-test elimination is off: such trees must be
  // routed by link_match from their first subscription on.
  const Params params{3, false, 0};
  Rng rng(params.seed);
  const RandomNetwork network = make_network(params, rng);
  PstMatcherOptions options;
  options.tree.trivial_test_elimination = false;
  ContentRoutingNetwork crn(network.net, network.schema, network.roots, options);
  SubscriptionGenerator gen(network.schema, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  for (std::int64_t i = 0; i < 120; ++i) {
    crn.subscribe(SubscriptionId{i}, gen.generate(rng),
                  ClientId{static_cast<ClientId::rep_type>(rng.below(network.net.client_count()))});
  }
  crn.compile_all();
  expect_routes_match_reference(crn, network.roots, rng, 10, "no trivial-test elimination");
  EXPECT_EQ(crn.kernel_counts().compiled, 0u);
  EXPECT_EQ(crn.kernel_counts().incremental, 1u);
  crn.check_consistency();
}

std::vector<Params> make_params() {
  std::vector<Params> out;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    out.push_back({seed, seed % 2 == 0, seed % 4 == 0 ? 1u : 0u});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingProperty, ::testing::ValuesIn(make_params()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed) +
                                  (info.param.tree_like ? "_lateral" : "_tree") +
                                  (info.param.factoring_levels > 0 ? "_factored" : "");
                         });

}  // namespace
}  // namespace gryphon
