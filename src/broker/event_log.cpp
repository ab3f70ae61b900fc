#include "broker/event_log.h"

#include <algorithm>

namespace gryphon {

std::uint64_t EventLog::append(SpaceId space, std::vector<std::uint8_t> event, Ticks now,
                               BrokerId origin) {
  Entry entry;
  entry.seq = next_seq_++;
  entry.space = space;
  entry.event = std::move(event);
  entry.logged_at = now;
  entry.origin = origin;
  entries_.push_back(std::move(entry));
  return entries_.back().seq;
}

void EventLog::append_at(std::uint64_t seq, SpaceId space, std::vector<std::uint8_t> event,
                         Ticks now, BrokerId origin) {
  if (seq <= acked_) return;  // already retired on this replica
  next_seq_ = seq;
  append(space, std::move(event), now, origin);
}

void EventLog::restore(std::uint64_t next_seq, std::uint64_t acked,
                       std::uint64_t truncated_through, std::deque<Entry> entries) {
  entries_ = std::move(entries);
  next_seq_ = next_seq;
  acked_ = acked;
  truncated_through_ = truncated_through;
}

void EventLog::truncate_to(std::uint64_t drop_through, std::uint64_t truncated_through) {
  while (!entries_.empty() && entries_.front().seq <= drop_through) entries_.pop_front();
  if (truncated_through > truncated_through_) truncated_through_ = truncated_through;
}

void EventLog::acknowledge(std::uint64_t seq) {
  if (seq <= acked_) return;
  acked_ = seq;
  while (!entries_.empty() && entries_.front().seq <= acked_) entries_.pop_front();
}

std::size_t EventLog::collect(Ticks now, Ticks retention) {
  std::size_t collected = 0;
  while (!entries_.empty() && entries_.front().logged_at + retention < now) {
    if (entries_.front().seq > acked_) {
      truncated_through_ = std::max(truncated_through_, entries_.front().seq);
    }
    entries_.pop_front();
    ++collected;
  }
  return collected;
}

std::size_t EventLog::drop_all() {
  std::size_t lost = 0;
  for (const Entry& entry : entries_) {
    if (entry.seq > acked_) {
      truncated_through_ = std::max(truncated_through_, entry.seq);
      ++lost;
    }
  }
  entries_.clear();
  return lost;
}

}  // namespace gryphon
