#include "topology/spanning_tree.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/sim_spec.h"
#include "topology/builders.h"

namespace gryphon {
namespace {

TEST(SpanningTree, LineRootedAtEnd) {
  const auto net = make_line(4, 10, 1, 1);
  RoutingTable routing(net);
  SpanningTree tree(net, routing, BrokerId{0});

  EXPECT_EQ(tree.root(), BrokerId{0});
  EXPECT_FALSE(tree.parent(BrokerId{0}).valid());
  EXPECT_EQ(tree.parent(BrokerId{1}), BrokerId{0});
  EXPECT_EQ(tree.parent(BrokerId{3}), BrokerId{2});
  EXPECT_EQ(tree.depth(BrokerId{0}), 0);
  EXPECT_EQ(tree.depth(BrokerId{3}), 3);
  ASSERT_EQ(tree.children(BrokerId{1}).size(), 1u);
  EXPECT_EQ(tree.children(BrokerId{1})[0].broker, BrokerId{2});
  EXPECT_EQ(tree.children(BrokerId{1})[0].port, net.port_to_broker(BrokerId{1}, BrokerId{2}));
  EXPECT_TRUE(tree.children(BrokerId{3}).empty());
}

TEST(SpanningTree, DescendantQueries) {
  const auto net = make_line(4, 10, 0, 1);
  RoutingTable routing(net);
  SpanningTree tree(net, routing, BrokerId{1});
  EXPECT_TRUE(tree.is_descendant(BrokerId{3}, BrokerId{2}));
  EXPECT_TRUE(tree.is_descendant(BrokerId{2}, BrokerId{2}));
  EXPECT_FALSE(tree.is_descendant(BrokerId{0}, BrokerId{2}));
  EXPECT_TRUE(tree.is_descendant(BrokerId{0}, BrokerId{1}));
}

TEST(SpanningTree, TreeNextHopDownAndUp) {
  const auto net = make_line(4, 10, 0, 1);
  RoutingTable routing(net);
  SpanningTree tree(net, routing, BrokerId{0});
  // Downstream: from 1 toward 3 goes through the port to 2.
  EXPECT_EQ(tree.tree_next_hop(BrokerId{1}, BrokerId{3}), net.port_to_broker(BrokerId{1}, BrokerId{2}));
  // Upstream: from 2 toward 0 goes through the parent port.
  EXPECT_EQ(tree.tree_next_hop(BrokerId{2}, BrokerId{0}), net.port_to_broker(BrokerId{2}, BrokerId{1}));
}

TEST(SpanningTree, ClientNextHop) {
  const auto net = make_line(3, 10, 1, 1);
  RoutingTable routing(net);
  SpanningTree tree(net, routing, BrokerId{0});
  const ClientId local = net.clients_of(BrokerId{1})[0];
  const ClientId remote = net.clients_of(BrokerId{2})[0];
  EXPECT_EQ(tree.tree_next_hop_to_client(BrokerId{1}, local), net.client_port(local));
  EXPECT_EQ(tree.tree_next_hop_to_client(BrokerId{1}, remote),
            net.port_to_broker(BrokerId{1}, BrokerId{2}));
}

TEST(SpanningTree, DownstreamClientCounts) {
  const auto net = make_line(3, 10, 2, 1);  // 2 clients per broker
  RoutingTable routing(net);
  SpanningTree tree(net, routing, BrokerId{0});
  // From broker 0: the port toward 1 leads to brokers 1 and 2 -> 4 clients.
  EXPECT_EQ(tree.downstream_client_count(BrokerId{0}, net.port_to_broker(BrokerId{0}, BrokerId{1})),
            4u);
  // From broker 1: toward 2 -> 2 clients; toward 0 (upstream) -> 0.
  EXPECT_EQ(tree.downstream_client_count(BrokerId{1}, net.port_to_broker(BrokerId{1}, BrokerId{2})),
            2u);
  EXPECT_EQ(tree.downstream_client_count(BrokerId{1}, net.port_to_broker(BrokerId{1}, BrokerId{0})),
            0u);
  // Client ports count themselves.
  EXPECT_EQ(tree.downstream_client_count(BrokerId{1}, net.client_port(net.clients_of(BrokerId{1})[0])),
            1u);
}

TEST(SpanningTree, CyclicGraphUsesShortestPaths) {
  // Square with one expensive edge: the tree avoids it.
  BrokerNetwork net;
  for (int i = 0; i < 4; ++i) net.add_broker();
  net.connect(BrokerId{0}, BrokerId{1}, 10);
  net.connect(BrokerId{1}, BrokerId{2}, 10);
  net.connect(BrokerId{2}, BrokerId{3}, 10);
  net.connect(BrokerId{3}, BrokerId{0}, 100);
  RoutingTable routing(net);
  SpanningTree tree(net, routing, BrokerId{0});
  EXPECT_EQ(tree.parent(BrokerId{3}), BrokerId{2});  // not the direct slow edge
  EXPECT_EQ(tree.depth(BrokerId{3}), 3);
}

TEST(SpanningTree, DifferentRootsDifferentShapes) {
  const auto topo = make_figure6();
  RoutingTable routing(topo.network);
  SpanningTree t0(topo.network, routing, topo.publisher_brokers[0]);
  SpanningTree t1(topo.network, routing, topo.publisher_brokers[1]);
  EXPECT_EQ(t0.depth(topo.publisher_brokers[0]), 0);
  EXPECT_GT(t0.depth(topo.publisher_brokers[1]), 0);
  EXPECT_EQ(t1.depth(topo.publisher_brokers[1]), 0);
}

TEST(SpanningTree, EveryBrokerReachedOnFigure6) {
  const auto topo = make_figure6();
  RoutingTable routing(topo.network);
  for (const BrokerId root : topo.publisher_brokers) {
    SpanningTree tree(topo.network, routing, root);
    std::size_t total_downstream = 0;
    for (std::size_t pi = 0; pi < topo.network.port_count(root); ++pi) {
      total_downstream +=
          tree.downstream_client_count(root, LinkIndex{static_cast<LinkIndex::rep_type>(pi)});
    }
    // From the root, every client in the network is downstream.
    EXPECT_EQ(total_downstream, topo.network.client_count());
    for (std::size_t b = 0; b < topo.network.broker_count(); ++b) {
      EXPECT_GE(tree.depth(BrokerId{static_cast<BrokerId::rep_type>(b)}), 0);
    }
  }
}

TEST(SpanningTree, RandomTreeParentsFollowUniquePaths) {
  Rng rng(17);
  const auto net = make_random_tree(30, rng, 5, 20, 1, 1);
  RoutingTable routing(net);
  SpanningTree tree(net, routing, BrokerId{5});
  // On an acyclic network the spanning tree must reproduce the unique path
  // structure: every non-root broker's parent is its next hop to the root.
  for (std::size_t b = 0; b < 30; ++b) {
    const BrokerId broker{static_cast<BrokerId::rep_type>(b)};
    if (broker == BrokerId{5}) continue;
    const auto hop = routing.next_hop(broker, BrokerId{5});
    const auto& port = net.ports(broker)[static_cast<std::size_t>(hop.value)];
    EXPECT_EQ(tree.parent(broker), port.peer_broker);
  }
}

// is_descendant against the definition (a walk up the parent chain), for
// every (descendant, ancestor) pair under several roots of a small network
// from each generated topology family.
TEST(SpanningTree, DescendantQueriesEqualParentWalksOnEveryFamily) {
  const auto walk_reaches = [](const SpanningTree& tree, BrokerId from, BrokerId ancestor) {
    for (BrokerId at = from; at.valid(); at = tree.parent(at)) {
      if (at == ancestor) return true;
    }
    return false;
  };
  std::vector<TopologySpec> specs;
  for (const TopologyKind kind :
       {TopologyKind::kFigure6, TopologyKind::kLine, TopologyKind::kStar,
        TopologyKind::kRandomTree, TopologyKind::kFatTree, TopologyKind::kWaxman,
        TopologyKind::kWan}) {
    TopologySpec spec;
    spec.kind = kind;
    spec.brokers = 12;
    spec.clients_per_broker = 1;
    spec.max_delay_ms = 20.0;
    spec.waxman.brokers = 30;
    spec.wan.regions = 3;
    spec.wan.brokers_per_region = 6;
    specs.push_back(spec);
  }
  specs[3].extra_links = 5;  // lateral links: trees differ by root
  for (const TopologySpec& spec : specs) {
    const GeneratedTopology topo = build_topology(spec, 77);
    const BrokerNetwork& net = topo.network;
    const std::size_t n = net.broker_count();
    RoutingTable routing(net);
    for (std::size_t r = 0; r < n; r += std::max<std::size_t>(1, n / 5)) {
      const SpanningTree tree(net, routing, BrokerId{static_cast<BrokerId::rep_type>(r)});
      for (std::size_t d = 0; d < n; ++d) {
        const BrokerId descendant{static_cast<BrokerId::rep_type>(d)};
        for (std::size_t a = 0; a < n; ++a) {
          const BrokerId ancestor{static_cast<BrokerId::rep_type>(a)};
          EXPECT_EQ(tree.is_descendant(descendant, ancestor),
                    walk_reaches(tree, descendant, ancestor))
              << to_string(spec.kind) << " root " << r << ": " << d << " under " << a;
        }
      }
    }
  }
}

}  // namespace
}  // namespace gryphon
