// The simulator's pending-event structure (the netsim decomposition: an
// explicit event queue feeding per-broker servers over link channels).
//
// Ordering is the load-bearing part. Arrivals are keyed by
// (time, source, per-source sequence): the source is the emitting broker
// (0 for scheduled publications) and the sequence is that source's local
// emission counter. Both are computable by whichever worker thread emits
// the arrival, without any global coordination — unlike the classic single
// global `seq++` tiebreak — so the serial engine and every parallel
// partitioning pop arrivals in exactly the same total order and produce
// bit-identical results.
//
// Scheduled publications do not enter the heap. Each partition holds its
// publications in a cursor sorted by key, and the queue merges that cursor
// with its heap of in-flight arrivals: the next arrival is whichever of
// the cursor's head and the heap's top has the smaller key. Keys are
// unique (a publication's sequence is its schedule index, and broker
// sources are >= 1), so the merge pops exactly the order one heap holding
// both would, while the heap stays as small as the arrivals in flight.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/time.h"

namespace gryphon {

class EventRoute;

/// Deterministic total order over arrivals.
struct EventKey {
  Ticks time{0};
  /// Emitting broker id + 1; 0 for scheduled publications.
  std::uint32_t source{0};
  /// The source's local emission counter (schedule index for publications).
  std::uint64_t sequence{0};

  friend constexpr bool operator<(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.source != b.source) return a.source < b.source;
    return a.sequence < b.sequence;
  }
  friend constexpr bool operator>(const EventKey& a, const EventKey& b) { return b < a; }
};

/// An event copy in flight toward a broker.
struct SimMessage {
  std::uint32_t event_index{0};
  BrokerId tree_root;
  int hops{0};                  // brokers visited once the receiver processes it
  std::uint64_t steps_acc{0};   // matching steps accumulated upstream
  Ticks publish_time{0};
  std::vector<ClientId> dests;  // match-first only: the carried destination list
  /// Link matching without churn: the event's prepared route
  /// (ContentRoutingNetwork::prepare), made at the publisher's broker and
  /// read by every later hop. A simulator-side accelerator, shared rather
  /// than copied, never counted as wire bytes, and freed with the event's
  /// last copy in flight.
  std::shared_ptr<const EventRoute> route;
};

/// A scheduled publication, held in its partition's publication cursor
/// until it is popped as an Arrival.
struct ScheduledPublication {
  EventKey key;  // (time, 0, schedule index)
  BrokerId broker;
  std::uint32_t event_index{0};
};

struct Arrival {
  EventKey key;
  BrokerId broker;  // receiving broker
  SimMessage message;

  friend bool operator>(const Arrival& a, const Arrival& b) { return a.key > b.key; }
};

/// Pending arrivals for one partition of the broker set: a key-sorted
/// publication cursor merged with a min-heap of in-flight arrivals. The
/// heap orders small (key, slot) entries; each arrival stays in its slot
/// from push to pop, so reordering the heap never moves an Arrival.
class EventQueue {
 public:
  /// Replaces the publication cursor with `publications`, in key order.
  void set_publications(std::vector<ScheduledPublication> publications) {
    publications_ = std::move(publications);
    std::sort(publications_.begin(), publications_.end(),
              [](const ScheduledPublication& a, const ScheduledPublication& b) {
                return a.key < b.key;
              });
    next_publication_ = 0;
  }

  void push(Arrival arrival) {
    std::uint32_t slot = 0;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::move(arrival));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = std::move(arrival);
    }
    heap_.push_back({slots_[slot].key, slot});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  [[nodiscard]] bool empty() const {
    return heap_.empty() && next_publication_ == publications_.size();
  }

  /// The key of the next arrival pop() returns (precondition: !empty()).
  [[nodiscard]] const EventKey& top_key() const {
    return publication_next() ? publications_[next_publication_].key : heap_.front().key;
  }

  Arrival pop() {
    if (publication_next()) {
      const ScheduledPublication& publication = publications_[next_publication_++];
      SimMessage msg;
      msg.event_index = publication.event_index;
      msg.tree_root = publication.broker;
      msg.publish_time = publication.key.time;
      return Arrival{publication.key, publication.broker, std::move(msg)};
    }
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const std::uint32_t slot = heap_.back().slot;
    heap_.pop_back();
    free_slots_.push_back(slot);
    return std::move(slots_[slot]);
  }

  /// Drops every pending arrival and publication.
  void clear() {
    heap_.clear();
    slots_.clear();
    free_slots_.clear();
    next_publication_ = publications_.size();
  }

 private:
  struct HeapEntry {
    EventKey key;
    std::uint32_t slot;
    friend bool operator>(const HeapEntry& a, const HeapEntry& b) { return a.key > b.key; }
  };

  /// True when the next arrival is the cursor's head.
  [[nodiscard]] bool publication_next() const {
    return next_publication_ < publications_.size() &&
           (heap_.empty() || publications_[next_publication_].key < heap_.front().key);
  }

  std::vector<HeapEntry> heap_;
  std::vector<Arrival> slots_;  // in-flight arrivals, by slot
  std::vector<std::uint32_t> free_slots_;
  std::vector<ScheduledPublication> publications_;
  std::size_t next_publication_{0};
};

}  // namespace gryphon
