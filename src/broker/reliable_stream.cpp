#include "broker/reliable_stream.h"

namespace gryphon {

std::uint64_t ReliableStream::Sender::append(SpaceId space, std::vector<std::uint8_t> event,
                                             Ticks now, BrokerId origin) {
  if (log_.empty()) last_resend_ = now;  // the window opens: arm the timer
  return log_.append(space, std::move(event), now, origin);
}

ReliableStream::Sender::AckResult ReliableStream::Sender::ack(std::uint64_t seq, Ticks now) {
  if (seq > log_.last_seq()) return AckResult::kRefused;
  if (seq <= log_.acked_seq()) {
    if (seq < log_.acked_seq()) consumer_behind_ = true;
    return AckResult::kStale;
  }
  log_.acknowledge(seq);
  last_resend_ = now;  // progress: restart the go-back-N timer
  return AckResult::kAdvanced;
}

ReliableStream::Sender::Collected ReliableStream::Sender::collect(Ticks now, Ticks retention) {
  Collected out;
  out.dropped = log_.collect(now, retention);
  // Everything below the surviving front entry is gone: dropped by this
  // collection or retired by an earlier ack.
  out.drop_through = log_.empty() ? log_.last_seq() : log_.entries().front().seq - 1;
  return out;
}

void ReliableStream::Sender::rebase(std::uint64_t gap, bool report_loss) {
  if (report_loss) {
    log_.rebase_for_failover(gap);
  } else {
    log_.advance_next_seq(gap);
  }
}

replication::LogImage ReliableStream::Sender::image() const {
  replication::LogImage image;
  image.next_seq = log_.last_seq() + 1;
  image.acked = log_.acked_seq();
  image.truncated_through = log_.truncated_through();
  image.entries = log_.entries();
  return image;
}

void ReliableStream::Sender::restore(const replication::LogImage& image, Ticks now) {
  std::deque<EventLog::Entry> entries = image.entries;
  for (EventLog::Entry& entry : entries) entry.logged_at = now;
  log_.restore(image.next_seq, image.acked, image.truncated_through, std::move(entries));
}

}  // namespace gryphon
