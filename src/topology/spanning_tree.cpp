#include "topology/spanning_tree.h"

#include <limits>
#include <map>
#include <stdexcept>

namespace gryphon {

SpanningTree::SpanningTree(const BrokerNetwork& network, const RoutingTable& routing,
                           BrokerId root)
    : network_(&network), root_(root), n_(network.broker_count()) {
  if (!root.valid() || static_cast<std::size_t>(root.value) >= n_) {
    throw std::invalid_argument("SpanningTree: bad root");
  }
  parent_.assign(n_, BrokerId{});
  children_.assign(n_, {});

  // Parent of b = predecessor of b on the shortest path root -> b, found by
  // walking next hops from the root. Deterministic tie-breaking in the
  // routing table makes every walk consistent.
  for (std::size_t i = 0; i < n_; ++i) {
    const BrokerId b{static_cast<BrokerId::rep_type>(i)};
    if (b == root || !routing.reachable(root, b)) continue;
    BrokerId cur = root;
    BrokerId prev = root;
    int guard = 0;
    while (cur != b) {
      const LinkIndex hop = routing.next_hop(cur, b);
      const auto& port = network.ports(cur).at(static_cast<std::size_t>(hop.value));
      prev = cur;
      cur = port.peer_broker;
      if (++guard > static_cast<int>(n_)) {
        throw std::logic_error("SpanningTree: routing walk did not terminate");
      }
    }
    parent_[i] = prev;
    children_[static_cast<std::size_t>(prev.value)].push_back(
        Child{b, network.port_to_broker(prev, b)});
  }

  // One depth-first walk from the root: preorder on entry (depth from the
  // parent), subtree end and subtree client count on exit. Unreachable
  // brokers keep depth -1 and an empty subtree interval that no preorder
  // index falls in.
  depth_.assign(n_, -1);
  pre_.assign(n_, std::numeric_limits<std::uint32_t>::max());
  post_.assign(n_, 0);
  std::vector<BrokerId> by_pre;  // preorder index -> broker
  by_pre.reserve(n_);
  std::vector<std::size_t> subtree_clients(n_, 0);
  std::vector<std::pair<BrokerId, std::size_t>> stack{{root, 0}};  // broker, next child
  depth_[static_cast<std::size_t>(root.value)] = 0;
  pre_[static_cast<std::size_t>(root.value)] = 0;
  by_pre.push_back(root);
  while (!stack.empty()) {
    auto& [broker, next] = stack.back();
    const auto b = static_cast<std::size_t>(broker.value);
    if (next < children_[b].size()) {
      const auto c = static_cast<std::size_t>(children_[b][next++].broker.value);
      depth_[c] = depth_[b] + 1;
      pre_[c] = static_cast<std::uint32_t>(by_pre.size());
      by_pre.push_back(BrokerId{static_cast<BrokerId::rep_type>(c)});
      stack.emplace_back(by_pre.back(), 0);
      continue;
    }
    post_[b] = static_cast<std::uint32_t>(by_pre.size());
    subtree_clients[b] += network.clients_of(broker).size();
    if (parent_[b].valid()) {
      subtree_clients[static_cast<std::size_t>(parent_[b].value)] += subtree_clients[b];
    }
    stack.pop_back();
  }

  // Tree next hops: the parent port by default (invalid at the root and at
  // unreachable brokers), the port toward the child whose subtree holds the
  // destination otherwise; unreachable destinations stay invalid.
  next_hop_.assign(n_ * n_, LinkIndex{});
  for (std::size_t x = 0; x < n_; ++x) {
    const BrokerId from{static_cast<BrokerId::rep_type>(x)};
    LinkIndex* row = next_hop_.data() + x * n_;
    if (parent_[x].valid()) {
      const LinkIndex up = network.port_to_broker(from, parent_[x]);
      for (const BrokerId dest : by_pre) row[static_cast<std::size_t>(dest.value)] = up;
    }
    for (const Child& child : children_[x]) {
      const auto c = static_cast<std::size_t>(child.broker.value);
      for (std::uint32_t i = pre_[c]; i < post_[c]; ++i) {
        row[static_cast<std::size_t>(by_pre[i].value)] = child.port;
      }
    }
    row[x] = LinkIndex{};
  }

  // Downstream client counts per port.
  downstream_clients_.assign(n_, {});
  for (std::size_t i = 0; i < n_; ++i) {
    const auto& ports = network.ports(BrokerId{static_cast<BrokerId::rep_type>(i)});
    downstream_clients_[i].assign(ports.size(), 0);
    for (std::size_t pi = 0; pi < ports.size(); ++pi) {
      if (ports[pi].kind == BrokerNetwork::PortKind::kClient) downstream_clients_[i][pi] = 1;
    }
    for (const Child& child : children_[i]) {
      downstream_clients_[i][static_cast<std::size_t>(child.port.value)] =
          subtree_clients[static_cast<std::size_t>(child.broker.value)];
    }
  }
}

LinkIndex SpanningTree::tree_next_hop_to_client(BrokerId from, ClientId client) const {
  const BrokerId home = network_->client_home(client);
  if (home == from) return network_->client_port(client);
  return tree_next_hop(from, home);
}

std::vector<std::size_t> group_by_link_map(BrokerId broker,
                                           std::span<const SpanningTree* const> trees) {
  std::vector<std::size_t> group_of;
  group_of.reserve(trees.size());
  std::map<std::vector<LinkIndex::rep_type>, std::size_t> by_map;
  std::vector<LinkIndex::rep_type> map;
  for (const SpanningTree* tree : trees) {
    map.clear();
    for (const LinkIndex link : tree->next_hops(broker)) map.push_back(link.value);
    group_of.push_back(by_map.try_emplace(map, by_map.size()).first->second);
  }
  return group_of;
}

}  // namespace gryphon
