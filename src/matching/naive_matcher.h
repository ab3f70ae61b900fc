// Brute-force baseline: evaluate every subscription against every event.
#pragma once

#include <unordered_map>

#include "matching/matcher.h"

namespace gryphon {

class NaiveMatcher : public Matcher {
 public:
  void add(SubscriptionId id, const Subscription& subscription) override;
  bool remove(SubscriptionId id) override;
  [[nodiscard]] MatchResult match(const Event& event) const override;
  /// Allocation-free variant: appends matches to `out`.
  void match_into(const Event& event, std::vector<SubscriptionId>& out,
                  MatchStats* stats = nullptr) const;
  [[nodiscard]] std::size_t subscription_count() const override { return entries_.size(); }

 private:
  // Insertion-ordered storage keeps match output deterministic. Copies,
  // not shared references, on purpose: the brute-force oracle shares no
  // state with the matchers it checks.
  std::vector<std::pair<SubscriptionId, Subscription>> entries_;
  std::unordered_map<SubscriptionId, std::size_t> index_;
};

}  // namespace gryphon
