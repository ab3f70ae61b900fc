// DispatchBatch: the native call shape of the broker data plane.
//
// Dispatch is batch-first: callers stage a group of events (add), hand the
// whole batch to BrokerCore::dispatch, and read back one Decision per event
// in staging order. Batching is what makes the data plane pay off — the
// core pins the published CoreSnapshot once per batch instead of once per
// event, and the broker's egress path can coalesce the resulting link
// frames into one flush per neighbor.
//
// The batch owns the MatchScratch, so "who provides scratch?" has exactly
// one answer: the batch context. One DispatchBatch per thread; neither it
// nor BrokerCore::dispatch(batch) may be shared across threads
// concurrently. Staged events are borrowed (const Event*): the caller
// keeps them alive and unchanged until dispatch returns.
//
// This is a data-plane translation unit (gryphon-analyze planes rule,
// tools/analyze): nothing here may reference mutable-matcher or
// control-plane state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "event/event.h"
#include "matching/match_scratch.h"

namespace gryphon {

/// What the broker must do with one published event: which neighbor links
/// to forward it on, which local subscriptions matched, and the work spent
/// deciding.
struct Decision {
  std::vector<BrokerId> forward;
  std::vector<SubscriptionId> local_matches;
  std::uint64_t steps{0};

  /// Field-wise reset that keeps vector capacity, so a reused batch stops
  /// allocating once warm.
  void reset() {
    forward.clear();
    local_matches.clear();
    steps = 0;
  }
};

class DispatchBatch {
 public:
  DispatchBatch() = default;
  DispatchBatch(const DispatchBatch&) = delete;
  DispatchBatch& operator=(const DispatchBatch&) = delete;

  /// Drops staged events and prior decisions; capacity is retained.
  void clear() {
    items_.clear();
    // decisions_ entries are reset lazily as items are staged into them.
  }

  /// Stages one event. The caller owns `event` and must keep it alive and
  /// unmodified until dispatch() on this batch returns.
  void add(SpaceId space, const Event& event, BrokerId tree_root) {
    items_.push_back(Item{space, &event, tree_root});
  }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

  /// Decisions from the most recent dispatch of this batch, in add() order.
  [[nodiscard]] std::span<const Decision> decisions() const {
    return std::span<const Decision>(decisions_.data(), items_.size());
  }

  [[nodiscard]] MatchScratch& scratch() { return scratch_; }

 private:
  friend class BrokerCore;  // fills decisions_ during dispatch

  struct Item {
    SpaceId space;
    const Event* event;
    BrokerId tree_root;
  };

  std::vector<Item> items_;
  std::vector<Decision> decisions_;  // parallel to items_ after dispatch
  MatchScratch scratch_;
};

}  // namespace gryphon
