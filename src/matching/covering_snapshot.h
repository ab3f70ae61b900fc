// CoveringSnapshot: the data-plane view of subscription covering.
//
// The control plane (matching/covering_index.h) parks a subscription that is
// *covered* — its predicate is contained in another live subscription with
// the same owner broker — under that coverer instead of inserting it into
// the PST. The compiled kernels therefore carry only the covering frontier.
// Containment plus same-owner parking keeps every forwarding mask exact: an
// event matching a parked child also matches its coverer, and both map to
// the same link in every spanning-tree group (links depend only on the
// owner), so the child's absence from the trit rows can never change a
// forwarding decision.
//
// What the data plane still owes is *enumeration* for match_all, which
// must report parked subscriptions too: for each frontier match it looks
// up the parked children and evaluates each child's predicate against the
// event (the coverer matching does not imply the tighter child does). The
// dispatch hot path never expands — locally-owned subscriptions bypass
// covering entirely (the index never parks them, so local fan-out comes
// straight out of the compiled kernels), and remote parked children cannot
// change a forwarding mask their live coverer already decided.
//
// Persistence: the child table is split into kGroups slices by a splitmix64
// of the subscription id. Each slice is a shared_ptr to an immutable map,
// and each child list is itself a shared_ptr to an immutable vector, so a
// control-plane change clones exactly one slice map (and one list) while
// every published snapshot keeps its own consistent view. Covering-only
// churn — parking or unparking without touching any tree — publishes in
// O(1) by swapping this object alone (see broker/core_snapshot.h).
//
// This is a fully data-plane translation unit (gryphon-analyze planes
// rule, tools/analyze): it must never reference mutable-matcher or
// control-plane state.
#pragma once

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/ids.h"
#include "event/subscription.h"

namespace gryphon {

class CoveringSnapshot {
 public:
  /// One parked subscription. The Subscription is shared with the control
  /// plane's covering index; both sides treat it as immutable.
  struct Child {
    SubscriptionId id;
    SubscriptionRef subscription;
  };
  using ChildList = std::vector<Child>;
  using Slice = std::unordered_map<SubscriptionId, std::shared_ptr<const ChildList>>;

  static constexpr std::size_t kSlices = 64;

  [[nodiscard]] static std::size_t slice_of(SubscriptionId id) noexcept {
    return splitmix64(static_cast<std::uint64_t>(id.value)) % kSlices;
  }

  [[nodiscard]] bool empty() const { return parked_count_ == 0; }
  [[nodiscard]] std::size_t parked_count() const { return parked_count_; }

  /// The children parked under `coverer`, or nullptr when it has none.
  [[nodiscard]] const ChildList* children_of(SubscriptionId coverer) const {
    if (parked_count_ == 0) return nullptr;
    const Slice* slice = slices_[slice_of(coverer)].get();
    if (slice == nullptr) return nullptr;
    const auto it = slice->find(coverer);
    return it == slice->end() ? nullptr : it->second.get();
  }

  /// Invokes `fn(SubscriptionId)` for every child of `coverer` whose
  /// predicate accepts `event`, in parked order, counting one step per
  /// predicate evaluated. The coverer matching the event is the caller's
  /// precondition (it came out of a kernel match); children are tighter, so
  /// each must be re-evaluated.
  template <typename Fn>
  std::uint64_t expand(SubscriptionId coverer, const Event& event, Fn&& fn) const {
    const ChildList* children = children_of(coverer);
    if (children == nullptr) return 0;
    std::uint64_t steps = 0;
    for (const Child& child : *children) {
      ++steps;
      if (child.subscription->matches(event)) fn(child.id);
    }
    return steps;
  }

 private:
  friend class CoveringIndex;  // sole producer (control plane)

  std::array<std::shared_ptr<const Slice>, kSlices> slices_;
  std::size_t parked_count_{0};
};

}  // namespace gryphon
