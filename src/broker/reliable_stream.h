// One sequenced, acknowledged, resumable stream (docs/fault-tolerance.md).
//
// The broker runs the paper's "event log per client" (Section 4.2) three
// times: per-neighbor link sessions, the replication stream to a hot
// standby, and per-client delivery logs. All three are the Clone pattern's
// sequenced update stream plus a re-baseline, written here once:
//
//   * Sender — an EventLog plus the go-back-N bookkeeping: append (arming
//     the retransmit timer when the window opens), cumulative ack (refusing
//     an ack above anything sent), the retransmit window with heartbeat
//     floors across sequence gaps, handshake replay, retention truncation,
//     drop_all and the failover rebase.
//   * Receiver — the consumer's cursor: it sorts each sequenced frame into
//     in-order, duplicate or gap (a new epoch first restarts the cursor),
//     rebases on a heartbeat floor, and tracks whether a cumulative ack is
//     due for the current batch.
//
// Neither half holds a transport, lock or clock. Callers pass `now`; the
// sender hands back the frames to send as Frame values, and the broker
// encodes them into its wire types (EventForward / StateUpdate / Deliver
// for entries, LinkHeartbeat for floors). The broker's mutex guards both.
//
// A *floor* is the sender's promise "nothing at or below this sequence will
// ever be sent again": a receiver behind it rebases instead of waiting for
// frames that no longer exist (retention truncation, a restarted receiver,
// or the synthetic sequence gap a failover rebase leaves). The sender only
// places a floor ahead of every unacked entry, so floors stay safe on a
// link that loses or reorders frames.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "broker/event_log.h"
#include "broker/replication.h"
#include "common/time.h"

namespace gryphon {

struct ReliableStream {
  /// One frame the sender wants on the wire: a logged entry (a
  /// retransmission or replay), or — when `entry` is null — a heartbeat
  /// floor.
  struct Frame {
    const EventLog::Entry* entry{nullptr};
    std::uint64_t floor{0};
  };

  class Sender {
   public:
    /// kRefused: above the last sequence sent, state left unchanged;
    /// kStale: at or below the current ack, nothing to retire (below it, the
    /// consumer lost its place — a restart, or a lost floor — so the next
    /// window starts with a floor at the ack); kAdvanced: entries retired,
    /// the retransmit timer restarts.
    enum class AckResult : std::uint8_t { kRefused, kStale, kAdvanced };
    /// What one retention pass dropped, and the drop-through point a
    /// replication mirror needs (everything at or below it is gone here).
    struct Collected {
      std::size_t dropped{0};
      std::uint64_t drop_through{0};
    };

    /// Logs one entry; returns its sequence number. Opening an empty window
    /// arms the retransmit timer.
    std::uint64_t append(SpaceId space, std::vector<std::uint8_t> event, Ticks now,
                         BrokerId origin = BrokerId{});

    /// Cumulative ack. An ack above last_seq() is refused: it would retire
    /// entries not yet appended, which later replay silently skips.
    AckResult ack(std::uint64_t seq, Ticks now);

    /// Records an outbound frame on this stream's carrier (heartbeats are
    /// only sent after a quiet heartbeat interval).
    void sent(Ticks now) { last_send_ = now; }

    /// Timer maintenance. Once the unacked window has been outstanding for
    /// `retransmit_timeout`, emits the window again (go-back-N), after a
    /// floor at the ack when the consumer reported a cursor below it; after
    /// `heartbeat_interval` without a send, emits a heartbeat floor at
    /// truncated_through(). Returns the entries retransmitted.
    template <typename Emit>
    std::size_t tick(Ticks now, Ticks retransmit_timeout, Ticks heartbeat_interval, Emit&& emit) {
      std::size_t resent = 0;
      if (!log_.empty() && now - last_resend_ >= retransmit_timeout) {
        if (consumer_behind_) emit(Frame{nullptr, log_.acked_seq()});
        consumer_behind_ = false;
        resent = emit_window(log_.acked_seq(), log_.acked_seq(), emit);
        last_resend_ = now;
        last_send_ = now;
      }
      if (now - last_send_ >= heartbeat_interval) {
        emit(Frame{nullptr, log_.truncated_through()});
        last_send_ = now;
      }
      return resent;
    }

    /// Handshake replay for a consumer that reports having consumed
    /// `peer_seen` (0 when it knows nothing of this stream): a baseline
    /// floor when the consumer is behind what can still be replayed, then
    /// the window above max(acked, peer_seen) — or, when nothing is left to
    /// replay but the numbering ran past the last retained entry (a
    /// failover rebase), a floor at last_seq(). Returns the entries
    /// replayed.
    template <typename Emit>
    std::size_t replay(std::uint64_t peer_seen, Ticks now, Emit&& emit) {
      const std::uint64_t after = std::max(log_.acked_seq(), peer_seen);
      const std::uint64_t baseline = std::max(after, log_.truncated_through());
      if (baseline > peer_seen) emit(Frame{nullptr, baseline});
      const std::size_t replayed = emit_window(after, baseline, emit);
      if (replayed == 0 && log_.last_seq() > baseline) emit(Frame{nullptr, log_.last_seq()});
      last_send_ = now;
      last_resend_ = now;
      return replayed;
    }

    /// Retention: drops entries logged before `now - retention`, acked or
    /// not; unacked losses raise truncated_through().
    Collected collect(Ticks now, Ticks retention);

    /// The consumer is gone for good: drops every entry; returns how many
    /// were unacknowledged.
    std::size_t drop_all() { return log_.drop_all(); }

    /// Failover rebase: skips `gap` sequence numbers the dead primary may
    /// have assigned without replicating. With `report_loss` the skipped
    /// range is also recorded as truncated (client logs: the consumer is
    /// told through HelloAck); without it the consumer crosses the gap on
    /// the floors replay and the retransmit window emit (link logs).
    void rebase(std::uint64_t gap, bool report_loss);

    /// The replicated image (counters plus retained entries), and its
    /// installation on a standby; installed entries are re-stamped `now`.
    [[nodiscard]] replication::LogImage image() const;
    void restore(const replication::LogImage& image, Ticks now);

    /// The log itself: read access, and the mirror operations a standby
    /// applies verbatim from its primary's stream (append_at, acknowledge,
    /// truncate_to).
    [[nodiscard]] const EventLog& log() const { return log_; }
    [[nodiscard]] EventLog& log() { return log_; }

   private:
    /// The go-back-N window: the entries above `after` in order, up to the
    /// first sequence gap nothing will fill (`expected` is the sequence the
    /// consumer is known to hold). A floor across a gap is only safe ahead
    /// of every unacked entry — a consumer that lost an entry sent before
    /// the floor would rebase past it — so a gap at the front gets its floor
    /// and a gap behind unacked entries ends the window: the entries beyond
    /// it go out once what precedes them is acked. Entries at or below
    /// `expected` (a client log's retained entries under its reported loss
    /// bound) go out without moving it. Returns the entries emitted.
    template <typename Emit>
    std::size_t emit_window(std::uint64_t after, std::uint64_t expected, Emit& emit) const {
      std::size_t emitted = 0;
      for (const EventLog::Entry& entry : log_.entries()) {
        if (entry.seq <= after) continue;
        if (entry.seq > expected + 1) {
          if (emitted > 0) break;
          emit(Frame{nullptr, entry.seq - 1});
        }
        emit(Frame{&entry, 0});
        ++emitted;
        expected = std::max(expected, entry.seq);
      }
      return emitted;
    }

    EventLog log_;
    Ticks last_send_{0};    // last outbound frame on the carrier
    Ticks last_resend_{0};  // last (re)transmission of the unacked window
    bool consumer_behind_{false};  // an ack below acked_seq() since the last window
  };

  class Receiver {
   public:
    /// The sender incarnation the cursor counts under, and the highest
    /// sequence consumed from it.
    struct Cursor {
      std::uint64_t epoch{0};
      std::uint64_t seq{0};
      bool operator==(const Cursor&) const = default;
    };
    enum class Verdict : std::uint8_t { kInOrder, kDuplicate, kGap };

    /// Binds the cursor to the sender's epoch; a new epoch means the
    /// sender's numbering restarted, so the cursor restarts at 0. True if
    /// the epoch changed.
    bool adopt(std::uint64_t epoch) {
      if (epoch == cursor_.epoch) return false;
      cursor_ = Cursor{epoch, 0};
      return true;
    }

    /// Sorts one sequenced frame (after adopting its epoch). An in-order
    /// frame is consumed by advance() once the caller has taken it.
    Verdict classify(std::uint64_t epoch, std::uint64_t seq) {
      adopt(epoch);
      if (seq <= cursor_.seq) return Verdict::kDuplicate;
      return seq == cursor_.seq + 1 ? Verdict::kInOrder : Verdict::kGap;
    }

    /// Consumes the in-order frame just classified; a cumulative ack is now
    /// due (sent once per batch, or at once with the next immediate ack).
    void advance() {
      ++cursor_.seq;
      ack_due_ = true;
    }

    /// Heartbeat floor: the sender can produce nothing at or below `floor`.
    /// Rebases a cursor that sits below it; true if it moved.
    bool rebase(std::uint64_t epoch, std::uint64_t floor) {
      adopt(epoch);
      if (floor <= cursor_.seq) return false;
      cursor_.seq = floor;
      return true;
    }

    /// The cumulative ack to send now; it covers whatever was due.
    std::uint64_t ack() {
      ack_due_ = false;
      return cursor_.seq;
    }
    [[nodiscard]] bool ack_due() const { return ack_due_; }

    [[nodiscard]] Cursor cursor() const { return cursor_; }
    [[nodiscard]] std::uint64_t epoch() const { return cursor_.epoch; }
    [[nodiscard]] std::uint64_t seq() const { return cursor_.seq; }
    /// Installs a replicated cursor (standby apply, snapshot install).
    void restore(Cursor cursor) { cursor_ = cursor; }

   private:
    Cursor cursor_;
    bool ack_due_{false};
  };
};

}  // namespace gryphon
