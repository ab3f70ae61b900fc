// The matcher interface: given an event, return the satisfied subscriptions.
//
// Two implementations are provided:
//  * PstMatcher   — the paper's parallel search tree (Section 2), with the
//                   factoring / trivial-test-elimination / delayed-branching
//                   optimizations of Section 2.1;
//  * NaiveMatcher — brute-force linear scan (the obvious baseline).
//
// match() returns a MatchResult value (ids + cost counters). Implementations
// additionally expose a non-virtual match_into() that appends into a
// caller-owned vector for allocation-free hot loops.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "event/event.h"
#include "event/subscription.h"

namespace gryphon {

/// Cost counters for one match operation. A "step" in the paper is the
/// visitation of a single node in the matching tree (Section 4.1); for the
/// non-tree matchers we report the analogous unit of work.
struct MatchStats {
  std::uint64_t nodes_visited{0};
  std::uint64_t tests_evaluated{0};

  MatchStats& operator+=(const MatchStats& other) {
    nodes_visited += other.nodes_visited;
    tests_evaluated += other.tests_evaluated;
    return *this;
  }
};

/// The outcome of matching one event: the satisfied subscription ids (order
/// unspecified, no duplicates) and the work spent finding them.
struct MatchResult {
  std::vector<SubscriptionId> ids;
  MatchStats stats;
};

class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Registers a subscription under a caller-chosen unique id.
  /// Throws std::invalid_argument on duplicate id or schema mismatch.
  virtual void add(SubscriptionId id, const Subscription& subscription) = 0;

  /// Removes a subscription; returns false when the id is unknown.
  virtual bool remove(SubscriptionId id) = 0;

  /// Matches one event, returning the satisfied ids and the cost counters.
  [[nodiscard]] virtual MatchResult match(const Event& event) const = 0;

  [[nodiscard]] virtual std::size_t subscription_count() const = 0;
};

}  // namespace gryphon
