#include "broker/event_log.h"

#include <gtest/gtest.h>

namespace gryphon {
namespace {

std::vector<std::uint8_t> payload(std::uint8_t tag) { return {tag, tag, tag}; }

TEST(EventLog, SequencesStartAtOne) {
  EventLog log;
  EXPECT_EQ(log.append(SpaceId{0}, payload(1), 10), 1u);
  EXPECT_EQ(log.append(SpaceId{0}, payload(2), 11), 2u);
  EXPECT_EQ(log.last_seq(), 2u);
  EXPECT_EQ(log.size(), 2u);
}

TEST(EventLog, EntriesAreTheUnacknowledgedSuffix) {
  EventLog log;
  for (std::uint8_t i = 1; i <= 5; ++i) log.append(SpaceId{0}, payload(i), i);
  ASSERT_EQ(log.entries().size(), 5u);
  EXPECT_EQ(log.entries().front().seq, 1u);
  log.acknowledge(3);
  ASSERT_EQ(log.entries().size(), 2u);
  EXPECT_EQ(log.entries().front().seq, 4u);
  EXPECT_EQ(log.entries().front().event, payload(4));
}

TEST(EventLog, CumulativeAckCollects) {
  EventLog log;
  for (std::uint8_t i = 1; i <= 5; ++i) log.append(SpaceId{0}, payload(i), i);
  log.acknowledge(3);
  EXPECT_EQ(log.acked_seq(), 3u);
  EXPECT_EQ(log.size(), 2u);
  // Acks never regress.
  log.acknowledge(2);
  EXPECT_EQ(log.acked_seq(), 3u);
  log.acknowledge(5);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.last_seq(), 5u);
}

TEST(EventLog, SequencesSurviveCollection) {
  EventLog log;
  log.append(SpaceId{0}, payload(1), 1);
  log.acknowledge(1);
  EXPECT_EQ(log.append(SpaceId{0}, payload(2), 2), 2u);  // numbering continues
}

TEST(EventLog, GarbageCollectorDropsOldEntries) {
  EventLog log;
  log.append(SpaceId{0}, payload(1), 100);
  log.append(SpaceId{0}, payload(2), 200);
  log.append(SpaceId{0}, payload(3), 900);
  // Retention 500 at time 1000: entries logged before 500 die.
  EXPECT_EQ(log.collect(1000, 500), 2u);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.entries().front().seq, 3u);
}

TEST(EventLog, CollectorKeepsFreshEntries) {
  EventLog log;
  log.append(SpaceId{0}, payload(1), 990);
  EXPECT_EQ(log.collect(1000, 500), 0u);
  EXPECT_EQ(log.size(), 1u);
}

TEST(EventLog, SpaceTagPreserved) {
  EventLog log;
  log.append(SpaceId{7}, payload(1), 1);
  EXPECT_EQ(log.entries().front().space, SpaceId{7});
}

TEST(EventLog, CollectorRecordsTruncatedReplayWindow) {
  // Retention GC dropping *unacknowledged* entries must not silently
  // shrink the replay window: the gap is recorded so a reconnecting
  // consumer can be told what it lost.
  EventLog log;
  log.append(SpaceId{0}, payload(1), 100);
  log.append(SpaceId{0}, payload(2), 200);
  log.append(SpaceId{0}, payload(3), 900);
  EXPECT_EQ(log.truncated_through(), 0u);
  EXPECT_EQ(log.collect(1000, 500), 2u);  // entries 1 and 2 die unacked
  EXPECT_EQ(log.truncated_through(), 2u);
  // A consumer resuming from seq 0 has a hole [1, 2]; one resuming from
  // seq >= 2 lost nothing.
  EXPECT_LT(0u, log.truncated_through());
}

TEST(EventLog, CollectingAcknowledgedEntriesIsNotTruncation) {
  EventLog log;
  log.append(SpaceId{0}, payload(1), 100);
  log.append(SpaceId{0}, payload(2), 200);
  log.acknowledge(2);
  log.append(SpaceId{0}, payload(3), 900);
  // Nothing unacked is old enough to die: no truncation.
  EXPECT_EQ(log.collect(1000, 500), 0u);
  EXPECT_EQ(log.truncated_through(), 0u);
}

TEST(EventLog, TruncationIsMonotonic) {
  EventLog log;
  for (std::uint8_t i = 1; i <= 4; ++i) {
    log.append(SpaceId{0}, payload(i), static_cast<Ticks>(i) * 100);
  }
  EXPECT_EQ(log.collect(700, 500), 1u);  // entry 1 dies
  EXPECT_EQ(log.truncated_through(), 1u);
  EXPECT_EQ(log.collect(900, 500), 2u);  // entries 2 and 3 die
  EXPECT_EQ(log.truncated_through(), 3u);
}

TEST(EventLog, DropAllCountsAndRecordsUnackedLoss) {
  EventLog log;
  for (std::uint8_t i = 1; i <= 5; ++i) log.append(SpaceId{0}, payload(i), i);
  log.acknowledge(2);
  EXPECT_EQ(log.drop_all(), 3u);  // 3, 4, 5 were unacked
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.truncated_through(), 5u);
  // Sequence numbering continues across the purge.
  EXPECT_EQ(log.append(SpaceId{0}, payload(6), 6), 6u);
}

TEST(EventLog, OriginTagPreservedForLinkLogs) {
  // Broker-link logs stash the spanning-tree root so a replayed
  // EventForward reconstructs the original frame.
  EventLog log;
  log.append(SpaceId{1}, payload(1), 1, BrokerId{7});
  log.append(SpaceId{1}, payload(2), 2);  // client logs leave it invalid
  const auto& entries = log.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].origin, BrokerId{7});
  EXPECT_FALSE(entries[1].origin.valid());
}

TEST(EventLog, ReplayAfterReconnectScenario) {
  // The paper's transient-failure story: deliveries 1-2 acked, client
  // disconnects, 3-5 accumulate, client reconnects having seen up to 2.
  EventLog log;
  for (std::uint8_t i = 1; i <= 2; ++i) log.append(SpaceId{0}, payload(i), i);
  log.acknowledge(2);
  for (std::uint8_t i = 3; i <= 5; ++i) log.append(SpaceId{0}, payload(i), i);
  const auto& replay = log.entries();
  ASSERT_EQ(replay.size(), 3u);
  EXPECT_EQ(replay[0].seq, 3u);
  EXPECT_EQ(replay[2].seq, 5u);
}

}  // namespace
}  // namespace gryphon
