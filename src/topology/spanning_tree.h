// Per-publisher spanning trees.
//
// Events from a publisher follow a spanning tree rooted at the publisher's
// broker (Section 3.2). For acyclic broker networks the tree is the network
// itself; in general we use the shortest-path tree of the routing metric,
// which coincides with "events always follow the shortest path".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "topology/network.h"
#include "topology/routing_table.h"

namespace gryphon {

class SpanningTree {
 public:
  /// A tree child of a broker and the broker's port toward it.
  struct Child {
    BrokerId broker;
    LinkIndex port;
  };

  /// Builds the shortest-path tree of `routing` rooted at `root`.
  SpanningTree(const BrokerNetwork& network, const RoutingTable& routing, BrokerId root);

  [[nodiscard]] BrokerId root() const { return root_; }

  /// Tree parent (invalid BrokerId for the root or unreachable brokers).
  [[nodiscard]] BrokerId parent(BrokerId broker) const {
    return parent_[static_cast<std::size_t>(broker.value)];
  }

  /// Tree children in increasing broker id, with the ports toward them.
  [[nodiscard]] const std::vector<Child>& children(BrokerId broker) const {
    return children_[static_cast<std::size_t>(broker.value)];
  }

  /// Depth-first preorder index of a reachable broker (the root is 0;
  /// children are visited in children() order; UINT32_MAX when
  /// unreachable). A broker's subtree holds exactly the brokers whose
  /// preorder index lies in [pre, post).
  [[nodiscard]] std::uint32_t pre(BrokerId broker) const {
    return pre_[static_cast<std::size_t>(broker.value)];
  }
  /// One past the largest preorder index in the broker's subtree (0 for an
  /// unreachable broker, whose subtree interval is empty).
  [[nodiscard]] std::uint32_t post(BrokerId broker) const {
    return post_[static_cast<std::size_t>(broker.value)];
  }

  /// True when `descendant` lies in the subtree rooted at `ancestor`
  /// (a broker is its own descendant).
  [[nodiscard]] bool is_descendant(BrokerId descendant, BrokerId ancestor) const {
    const std::uint32_t at = pre(descendant);
    return descendant == ancestor || (pre(ancestor) <= at && at < post(ancestor));
  }

  /// The port on `from` that is the first hop of the tree path from `from`
  /// to `dest`. This is the per-tree destination-to-link map used both to
  /// annotate the PST and to compute initialization masks. For `dest` not in
  /// `from`'s subtree the first hop is the parent link (the initialization
  /// mask will hold No for it). Invalid LinkIndex when from == dest.
  [[nodiscard]] LinkIndex tree_next_hop(BrokerId from, BrokerId dest) const {
    return next_hop_[static_cast<std::size_t>(from.value) * n_ +
                     static_cast<std::size_t>(dest.value)];
  }

  /// tree_next_hop(from, d) for every broker d, indexed by d: the tree's
  /// destination -> link map at `from`.
  [[nodiscard]] std::span<const LinkIndex> next_hops(BrokerId from) const {
    return {next_hop_.data() + static_cast<std::size_t>(from.value) * n_, n_};
  }

  /// As tree_next_hop but for a client destination (client port when local).
  [[nodiscard]] LinkIndex tree_next_hop_to_client(BrokerId from, ClientId client) const;

  /// Number of clients attached to brokers in the subtree rooted at the
  /// peer broker of port `link` of `from` — i.e. the downstream destination
  /// count of that link. Client ports count their own client (1). Zero for
  /// upstream/non-tree ports.
  [[nodiscard]] std::size_t downstream_client_count(BrokerId from, LinkIndex link) const {
    return downstream_clients_[static_cast<std::size_t>(from.value)]
                              [static_cast<std::size_t>(link.value)];
  }

  /// Depth of a broker in the tree (root = 0; -1 when unreachable).
  [[nodiscard]] int depth(BrokerId broker) const {
    return depth_[static_cast<std::size_t>(broker.value)];
  }

 private:
  const BrokerNetwork* network_;
  BrokerId root_;
  std::size_t n_{0};
  std::vector<BrokerId> parent_;
  std::vector<std::vector<Child>> children_;
  std::vector<int> depth_;
  std::vector<std::uint32_t> pre_, post_;
  std::vector<LinkIndex> next_hop_;  // n x n first tree hop
  std::vector<std::vector<std::size_t>> downstream_clients_;  // per broker, per port
};

/// The "virtual links" of the paper's footnote 1: at `broker`, spanning
/// trees that send every destination broker through the same link can
/// share one annotation. Returns each tree's group index, numbered in
/// order of first appearance, so a group's first tree represents it.
[[nodiscard]] std::vector<std::size_t> group_by_link_map(
    BrokerId broker, std::span<const SpanningTree* const> trees);

}  // namespace gryphon
