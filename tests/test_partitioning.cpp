// The parallel engine's broker partitioning (sim/partitioning.h): clustered
// partitions must cover every broker once, stay balanced, and lengthen the
// lookahead where the topology allows it; elsewhere the id-range split stays.
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/partitioning.h"
#include "topology/builders.h"

namespace gryphon {
namespace {

void expect_consistent(const PartitionPlan& plan, std::size_t brokers) {
  ASSERT_EQ(plan.part_of.size(), brokers);
  ASSERT_EQ(plan.local_index.size(), brokers);
  std::vector<int> seen(brokers, 0);
  for (std::size_t p = 0; p < plan.members.size(); ++p) {
    const auto& members = plan.members[p];
    EXPECT_FALSE(members.empty()) << "partition " << p;
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    for (std::size_t i = 0; i < members.size(); ++i) {
      const std::uint32_t b = members[i];
      ASSERT_LT(b, brokers);
      ++seen[b];
      EXPECT_EQ(plan.part_of[b], p);
      EXPECT_EQ(plan.local_index[b], i);
    }
  }
  for (std::size_t b = 0; b < brokers; ++b) EXPECT_EQ(seen[b], 1) << "broker " << b;
}

double max_over_mean(const PartitionPlan& plan, std::size_t brokers) {
  std::size_t largest = 0;
  for (const auto& members : plan.members) largest = std::max(largest, members.size());
  return static_cast<double>(largest) * static_cast<double>(plan.members.size()) /
         static_cast<double>(brokers);
}

TEST(Partitioning, FigureSixKeepsLeafLinksInsidePartitions) {
  const BrokerNetwork net = make_figure6().network;
  const Ticks interior = ticks_from_millis(25.0);
  for (const std::size_t count : {2u, 4u}) {
    const PartitionPlan plan = plan_partitions(net, count);
    ASSERT_EQ(plan.members.size(), count);
    expect_consistent(plan, net.broker_count());
    // The id-range split cuts a 10 ms mid-leaf link; clustering keeps each
    // mid broker with its leaves.
    EXPECT_LT(range_partitions(net, count).lookahead, interior);
    EXPECT_GE(plan.lookahead, interior) << count << " partitions";
    EXPECT_LE(max_over_mean(plan, net.broker_count()), kPartitionBalanceSlack);
  }
  const PartitionPlan two = plan_partitions(net, 2);
  EXPECT_EQ(std::max(two.members[0].size(), two.members[1].size()), 20u);
}

TEST(Partitioning, ComponentLargerThanAnEvenShareIsNotPacked) {
  // Brokers 0-3 share 1-tick links, broker 4 hangs off broker 3 by a
  // 10-tick link, and 5-7 share 1-tick links, 100 ticks from broker 0.
  // Cutting only the 100-tick link leaves components of 5 and 3: within the
  // slack (5 <= 1.25 x 4), but the 5-broker component exceeds an even share
  // of 4, so the 10-tick link is cut too and the split is 4/4.
  BrokerNetwork net;
  for (int b = 0; b < 8; ++b) net.add_broker();
  const auto id = [](int b) { return BrokerId{static_cast<BrokerId::rep_type>(b)}; };
  for (const auto& [a, b] : {std::pair{0, 1}, {1, 2}, {2, 3}, {5, 6}, {6, 7}}) {
    net.connect(id(a), id(b), 1);
  }
  net.connect(id(3), id(4), 10);
  net.connect(id(0), id(5), 100);
  const PartitionPlan plan = plan_partitions(net, 2);
  expect_consistent(plan, 8);
  EXPECT_EQ(plan.members[0].size(), 4u);
  EXPECT_EQ(plan.members[1].size(), 4u);
  EXPECT_EQ(plan.lookahead, 10);
}

TEST(Partitioning, UniformDelayLineKeepsTheRangeSplit) {
  const BrokerNetwork line = make_line(12, 10, 1, 1);
  const PartitionPlan plan = plan_partitions(line, 3);
  const PartitionPlan range = range_partitions(line, 3);
  expect_consistent(plan, 12);
  EXPECT_EQ(plan.members, range.members);
  EXPECT_EQ(plan.lookahead, 10);

  const BrokerNetwork star = make_star(9, 10, 1, 1);
  EXPECT_EQ(plan_partitions(star, 2).members, range_partitions(star, 2).members);
}

TEST(Partitioning, CountIsClampedToBrokers) {
  const BrokerNetwork net = make_figure6().network;
  const PartitionPlan plan = plan_partitions(net, 64);
  ASSERT_EQ(plan.members.size(), net.broker_count());
  expect_consistent(plan, net.broker_count());
  for (const auto& members : plan.members) EXPECT_EQ(members.size(), 1u);

  const PartitionPlan serial = plan_partitions(net, 0);
  ASSERT_EQ(serial.members.size(), 1u);
  EXPECT_EQ(serial.lookahead, PartitionPlan::kUnbounded);
}

}  // namespace
}  // namespace gryphon
