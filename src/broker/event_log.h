// Per-consumer event log (paper Section 4.2).
//
// "These protocol objects are robust enough to handle transient failures of
// connections by maintaining an event log per client. Once a client
// re-connects after a failure, the client protocol object delivers the
// events received while the client was dis-connected. A garbage collector
// periodically cleans up the log."
//
// The log assigns a monotonically increasing sequence number per delivered
// event. Consumers acknowledge cumulatively; acknowledged entries are
// garbage collected, as are entries older than a retention horizon (the
// periodic collector), bounding memory when a consumer never returns.
//
// One class serves every replay plane, as the log inside a ReliableStream
// sender (broker/reliable_stream.h): the client protocol logs Deliver
// frames per client, the broker protocol logs EventForward frames per
// neighbor broker (each entry then also records the spanning-tree origin the
// forward was multicast under, so a replay reconstructs the original frame),
// and the replication stream logs encoded state updates.
//
// When the retention collector drops entries that were never acknowledged,
// the loss is recorded: truncated_through() is the highest sequence number
// lost that way, so a reconnecting consumer can be told its replay window
// was truncated instead of the gap passing silently.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/ids.h"
#include "common/time.h"

namespace gryphon {

class EventLog {
 public:
  struct Entry {
    std::uint64_t seq{0};
    SpaceId space{0};
    std::vector<std::uint8_t> event;  // codec-encoded
    Ticks logged_at{0};
    /// Spanning-tree root the event was multicast under; only meaningful
    /// for broker-link logs (client logs leave it invalid).
    BrokerId origin{};
  };

  /// Appends an event; returns its sequence number (starting at 1).
  std::uint64_t append(SpaceId space, std::vector<std::uint8_t> event, Ticks now,
                       BrokerId origin = BrokerId{});

  /// Appends at an explicit sequence number (replication apply): forces the
  /// next sequence to `seq` first, so a standby mirrors the primary's
  /// numbering exactly even across rebases. No-op for seqs already retired.
  void append_at(std::uint64_t seq, SpaceId space, std::vector<std::uint8_t> event, Ticks now,
                 BrokerId origin = BrokerId{});

  /// Installs replicated state wholesale (standby snapshot apply),
  /// replacing whatever the log held.
  void restore(std::uint64_t next_seq, std::uint64_t acked, std::uint64_t truncated_through,
               std::deque<Entry> entries);

  /// Replication apply of the primary's retention truncation: drops
  /// entries with seq <= drop_through and adopts its truncation point.
  void truncate_to(std::uint64_t drop_through, std::uint64_t truncated_through);

  /// Failover rebase for broker-link logs: skips the sequence range the
  /// dead primary may have assigned but never replicated, so post-promotion
  /// appends can never collide with sequences the peer already consumed.
  /// Retained entries keep their numbers and stay replayable; the receiver
  /// crosses the synthetic gap via the heartbeat floor rule (see
  /// Broker::tick_links).
  void advance_next_seq(std::uint64_t gap) { next_seq_ += gap; }

  /// Failover rebase for client logs: same sequence skip, plus an honest
  /// truncation bound — the dead primary may have delivered up to `gap`
  /// further events that were never replicated, so everything through the
  /// post-gap last_seq() is reported as potentially lost. Retained entries
  /// below the bound still replay; the bound promises no *silent* loss
  /// above it.
  void rebase_for_failover(std::uint64_t gap) {
    next_seq_ += gap;
    if (last_seq() > truncated_through_) truncated_through_ = last_seq();
  }

  /// Cumulative acknowledgement: entries with seq <= acked are collected.
  void acknowledge(std::uint64_t seq);

  /// The most recently appended entry. Precondition: !empty().
  [[nodiscard]] const Entry& back() const { return entries_.back(); }
  /// Every retained entry, oldest first: the unacknowledged suffix (acked
  /// entries are collected at once).
  [[nodiscard]] const std::deque<Entry>& entries() const { return entries_; }

  /// The periodic garbage collector: drops entries logged before
  /// `now - retention`, even if unacknowledged. Returns how many died.
  /// Unacknowledged losses are recorded in truncated_through().
  std::size_t collect(Ticks now, Ticks retention);

  /// Drops every retained entry (a consumer declared permanently gone).
  /// Unacknowledged losses are recorded in truncated_through(); returns the
  /// number of unacknowledged entries lost.
  std::size_t drop_all();

  /// Highest sequence number ever lost while unacknowledged (0 when replay
  /// has never been truncated); it never decreases. A consumer resuming from seq < this value
  /// has a hole in its replay window: [its seq + 1, truncated_through()].
  [[nodiscard]] std::uint64_t truncated_through() const { return truncated_through_; }

  [[nodiscard]] std::uint64_t last_seq() const { return next_seq_ - 1; }
  [[nodiscard]] std::uint64_t acked_seq() const { return acked_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

 private:
  std::deque<Entry> entries_;
  std::uint64_t next_seq_{1};
  std::uint64_t acked_{0};
  std::uint64_t truncated_through_{0};
};

}  // namespace gryphon
