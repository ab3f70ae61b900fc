#include "sim/partitioning.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <utility>

namespace gryphon {
namespace {

struct BrokerLink {
  std::uint32_t a{0};
  std::uint32_t b{0};
  Ticks delay{0};
};

std::vector<BrokerLink> broker_links(const BrokerNetwork& network) {
  std::vector<BrokerLink> links;
  for (std::size_t b = 0; b < network.broker_count(); ++b) {
    for (const auto& port : network.ports(BrokerId{static_cast<BrokerId::rep_type>(b)})) {
      if (port.kind != BrokerNetwork::PortKind::kBroker) continue;
      const auto peer = static_cast<std::uint32_t>(port.peer_broker.value);
      if (peer > b) links.push_back({static_cast<std::uint32_t>(b), peer, port.delay});
    }
  }
  return links;
}

/// Fills members, local_index and lookahead from part_of.
PartitionPlan make_plan(std::vector<std::uint32_t> part_of, std::size_t count,
                        const std::vector<BrokerLink>& links) {
  PartitionPlan plan;
  plan.members.resize(count);
  plan.local_index.resize(part_of.size());
  for (std::size_t b = 0; b < part_of.size(); ++b) {
    auto& members = plan.members[part_of[b]];
    plan.local_index[b] = static_cast<std::uint32_t>(members.size());
    members.push_back(static_cast<std::uint32_t>(b));
  }
  for (const BrokerLink& link : links) {
    if (part_of[link.a] != part_of[link.b]) {
      plan.lookahead = std::min(plan.lookahead, link.delay);
    }
  }
  plan.part_of = std::move(part_of);
  return plan;
}

std::uint32_t find(std::vector<std::uint32_t>& parent, std::uint32_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

/// Contracts every link faster than `cut` and LPT-packs the components.
/// Returns an empty vector when a component exceeds an even share, the
/// packing is unbalanced, or it leaves a partition empty.
std::vector<std::uint32_t> clustered_assignment(std::size_t brokers, std::size_t count,
                                                const std::vector<BrokerLink>& links,
                                                Ticks cut) {
  std::vector<std::uint32_t> parent(brokers);
  std::iota(parent.begin(), parent.end(), 0u);
  for (const BrokerLink& link : links) {
    if (link.delay >= cut) continue;
    const std::uint32_t ra = find(parent, link.a);
    const std::uint32_t rb = find(parent, link.b);
    if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
  }
  // Components keyed by their smallest broker (the root, by the union rule).
  std::vector<std::uint32_t> size(brokers, 0);
  for (std::uint32_t b = 0; b < brokers; ++b) ++size[find(parent, b)];
  std::vector<std::uint32_t> roots;
  for (std::uint32_t b = 0; b < brokers; ++b) {
    if (parent[b] == b) roots.push_back(b);
  }
  if (roots.size() < count) return {};
  std::stable_sort(roots.begin(), roots.end(), [&size](std::uint32_t x, std::uint32_t y) {
    return size[x] > size[y];
  });

  const std::size_t share = (brokers + count - 1) / count;
  if (size[roots.front()] > share) return {};
  const double cap = kPartitionBalanceSlack * static_cast<double>(share);
  std::vector<std::size_t> load(count, 0);
  std::vector<std::uint32_t> part_of_root(brokers, 0);
  for (const std::uint32_t root : roots) {
    const auto lightest = static_cast<std::uint32_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    load[lightest] += size[root];
    if (static_cast<double>(load[lightest]) > cap) return {};
    part_of_root[root] = lightest;
  }
  std::vector<std::uint32_t> part_of(brokers);
  for (std::uint32_t b = 0; b < brokers; ++b) part_of[b] = part_of_root[find(parent, b)];
  return part_of;
}

}  // namespace

PartitionPlan range_partitions(const BrokerNetwork& network, std::size_t count) {
  const std::size_t brokers = network.broker_count();
  count = std::min(std::max<std::size_t>(1, count), std::max<std::size_t>(1, brokers));
  std::vector<std::uint32_t> part_of(brokers);
  for (std::size_t p = 0; p < count; ++p) {
    for (std::size_t b = brokers * p / count; b < brokers * (p + 1) / count; ++b) {
      part_of[b] = static_cast<std::uint32_t>(p);
    }
  }
  return make_plan(std::move(part_of), count, broker_links(network));
}

PartitionPlan plan_partitions(const BrokerNetwork& network, std::size_t count) {
  PartitionPlan range = range_partitions(network, count);
  count = range.members.size();
  if (count == 1) return range;

  const std::vector<BrokerLink> links = broker_links(network);
  std::vector<Ticks> cuts;
  cuts.reserve(links.size());
  for (const BrokerLink& link : links) cuts.push_back(link.delay);
  std::sort(cuts.begin(), cuts.end(), std::greater<>{});
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (const Ticks cut : cuts) {
    std::vector<std::uint32_t> part_of =
        clustered_assignment(network.broker_count(), count, links, cut);
    if (part_of.empty()) continue;
    PartitionPlan clustered = make_plan(std::move(part_of), count, links);
    return clustered.lookahead > range.lookahead ? clustered : range;
  }
  return range;
}

}  // namespace gryphon
