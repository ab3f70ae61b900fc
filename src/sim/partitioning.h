// Broker-to-partition assignment for the parallel engine (engine.h).
//
// A conservative round may only reach lookahead = the smallest delay of any
// link that crosses a partition boundary, so the engine's round count is
// roughly simulated time / lookahead. Cutting the network by broker id
// ranges ignores delays: on Figure 6 the 2-way split cuts a region across
// its 10 ms mid-leaf links. plan_partitions() instead cuts only slow links
// where it can:
//
//   for each distinct broker-link delay d, largest first:
//     contract every link with delay < d (union-find),
//     LPT-pack the components into `count` partitions by broker count
//       (largest component into the least-loaded partition),
//     accept the first d where no component exceeds an even share
//       ceil(brokers / count), the largest partition is at most
//       kPartitionBalanceSlack x that share, and no partition is empty.
//
// The component bound matters where rounds are few and long. On the
// 1,000-broker WAN at 4 partitions, the first d meeting the slack alone
// leaves one 300-broker component (12 regions): arrivals per partition run
// 1.20 x the mean, and on a 4-vCPU x86-64 host the engine ran 7% slower
// than on the id-range split although it needed 81 rounds instead of 132.
// With the bound, a smaller d packs the regions 250/250/250/250 at a
// 5,247-tick lookahead (90 rounds) and runs 8% faster than the range split.
//
// The result's lookahead is >= d. It replaces the id-range split only when
// its lookahead is strictly larger — on uniform-delay lines and stars the
// range split cuts as few links at the same lookahead, and a round-robin
// spread would only add cross-partition traffic.
//
// Which broker lands in which partition never changes a SimResult: every
// broker's state lives in exactly one partition and arrivals are ordered by
// a locally computable key (event_queue.h). It only changes the round count
// and the per-partition load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/time.h"
#include "topology/network.h"

namespace gryphon {

/// How much larger than an even share (ceil(brokers / count)) the largest
/// clustered partition may be.
inline constexpr double kPartitionBalanceSlack = 1.25;

struct PartitionPlan {
  /// Lookahead when no link crosses a partition boundary (one partition).
  static constexpr Ticks kUnbounded = std::numeric_limits<Ticks>::max();

  /// Broker ids of each partition, ascending.
  std::vector<std::vector<std::uint32_t>> members;
  /// broker -> partition index.
  std::vector<std::uint32_t> part_of;
  /// broker -> position in members[part_of[broker]].
  std::vector<std::uint32_t> local_index;
  /// Smallest delay of a broker link crossing partitions; kUnbounded if none.
  Ticks lookahead{kUnbounded};
};

/// Splits the network's brokers into min(max(count, 1), brokers) partitions
/// (see the file comment). Deterministic in the network alone.
PartitionPlan plan_partitions(const BrokerNetwork& network, std::size_t count);

/// The contiguous id-range split [b*i/count, b*(i+1)/count), the fallback
/// plan_partitions() keeps when clustering does not lengthen the lookahead.
PartitionPlan range_partitions(const BrokerNetwork& network, std::size_t count);

}  // namespace gryphon
