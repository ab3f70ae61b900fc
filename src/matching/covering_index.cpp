#include "matching/covering_index.h"

#include <algorithm>
#include <stdexcept>

#include "common/hash.h"

namespace gryphon {

namespace {

/// A range with both bounds absent accepts every value of the attribute.
bool accepts_all(const AttributeTest& t) {
  return t.kind() == TestKind::kDontCare ||
         (t.kind() == TestKind::kRange && t.lo() == nullptr && t.hi() == nullptr);
}

}  // namespace

CoveringIndex::CoveringIndex(SchemaPtr schema, BrokerId local)
    : schema_(std::move(schema)), local_(local) {
  if (!schema_) throw std::invalid_argument("CoveringIndex: null schema");
}

bool CoveringIndex::test_covers(const AttributeTest& a, const AttributeTest& b) {
  if (accepts_all(a)) return true;
  switch (b.kind()) {
    case TestKind::kDontCare:
      return false;  // b accepts everything, a does not
    case TestKind::kEquals:
      // b accepts exactly one value; containment is a's acceptance of it.
      return a.accepts(b.operand());
    case TestKind::kNotEquals:
      // b rejects exactly one value, so only the same co-set contains it.
      return a.kind() == TestKind::kNotEquals && a.operand() == b.operand();
    case TestKind::kRange: {
      if (a.kind() == TestKind::kEquals) {
        // Only the degenerate closed range [v, v] fits inside {v}.
        return b.lo() != nullptr && b.hi() != nullptr && *b.lo() == a.operand() &&
               *b.hi() == a.operand() && b.lo_inclusive() && b.hi_inclusive();
      }
      if (a.kind() == TestKind::kNotEquals) {
        return !b.accepts(a.operand());  // the interval misses a's one hole
      }
      // Range in range: each present bound of a must pin b at least as
      // tightly on that side.
      if (const Value* a_lo = a.lo()) {
        const Value* b_lo = b.lo();
        if (b_lo == nullptr || *b_lo < *a_lo) return false;
        if (*b_lo == *a_lo && b.lo_inclusive() && !a.lo_inclusive()) return false;
      }
      if (const Value* a_hi = a.hi()) {
        const Value* b_hi = b.hi();
        if (b_hi == nullptr || *b_hi > *a_hi) return false;
        if (*b_hi == *a_hi && b.hi_inclusive() && !a.hi_inclusive()) return false;
      }
      return true;
    }
  }
  return false;
}

bool CoveringIndex::covers(const Subscription& a, const Subscription& b) {
  const auto& at = a.tests();
  const auto& bt = b.tests();
  if (at.size() != bt.size()) return false;
  for (std::size_t i = 0; i < at.size(); ++i) {
    if (!test_covers(at[i], bt[i])) return false;
  }
  return true;
}

std::size_t CoveringIndex::AnchorKeyHash::operator()(const AnchorKey& k) const noexcept {
  std::uint64_t h = splitmix64(static_cast<std::uint64_t>(k.owner.value));
  h = splitmix64(h ^ static_cast<std::uint64_t>(k.attribute));
  return static_cast<std::size_t>(splitmix64(h ^ k.value.hash()));
}

std::optional<std::pair<std::size_t, Value>> CoveringIndex::anchor_of(
    const Subscription& subscription) {
  const auto& tests = subscription.tests();
  for (std::size_t i = 0; i < tests.size(); ++i) {
    if (tests[i].kind() == TestKind::kEquals) return std::make_pair(i, tests[i].operand());
  }
  return std::nullopt;
}

CoveringIndex::Signature CoveringIndex::signature_of(const Subscription& subscription) {
  Signature signature;
  const auto& tests = subscription.tests();
  for (std::size_t i = 0; i < tests.size(); ++i) {
    const AttributeTest& t = tests[i];
    if (accepts_all(t)) continue;
    signature.specific |= std::uint64_t{1} << (i % 64);
    if (t.kind() == TestKind::kEquals) {
      signature.equal |= std::uint64_t{1} << (splitmix64(splitmix64(i) ^ t.operand().hash()) % 64);
    } else if (t.kind() == TestKind::kRange && t.lo() != nullptr && t.hi() != nullptr &&
               *t.lo() == *t.hi()) {
      signature.pinned = ~std::uint64_t{0};  // `= v` covers a one-value range
    }
  }
  signature.pinned |= signature.equal;
  return signature;
}

SubscriptionId CoveringIndex::find_coverer(const Subscription& subscription,
                                           const Signature& signature, BrokerId owner) const {
  // A frontier entry anchored at (attribute, value) can only cover
  // subscriptions that pin that attribute to the same value, so probing the
  // anchor index at each of this subscription's equality tests enumerates
  // every anchored candidate. Unanchored frontier entries (no equality
  // test) are few in equality-heavy workloads and are scanned directly.
  const auto first_coverer = [&](const std::vector<Candidate>& bucket) {
    for (const Candidate& candidate : bucket) {
      if (candidate.signature.may_cover(signature) &&
          covers(*candidate.subscription, subscription)) {
        return candidate.id;
      }
    }
    return SubscriptionId{};
  };
  const auto& tests = subscription.tests();
  for (std::size_t i = 0; i < tests.size(); ++i) {
    if (tests[i].kind() != TestKind::kEquals) continue;
    const auto it = anchored_.find(AnchorKey{owner, i, tests[i].operand()});
    if (it == anchored_.end()) continue;
    if (const SubscriptionId coverer = first_coverer(it->second); coverer.valid()) {
      return coverer;
    }
  }
  const auto it = unanchored_.find(owner);
  return it == unanchored_.end() ? SubscriptionId{} : first_coverer(it->second);
}

void CoveringIndex::index_frontier(SubscriptionId id, const Frontier& entry,
                                   const Signature& signature) {
  const Candidate candidate{id, signature, entry.subscription.get()};
  if (entry.anchor.has_value()) {
    anchored_[AnchorKey{entry.owner, entry.anchor->first, entry.anchor->second}].push_back(
        candidate);
  } else {
    unanchored_[entry.owner].push_back(candidate);
  }
}

void CoveringIndex::unindex_frontier(SubscriptionId id, const Frontier& entry) {
  std::vector<Candidate>* bucket = nullptr;
  if (entry.anchor.has_value()) {
    const AnchorKey key{entry.owner, entry.anchor->first, entry.anchor->second};
    bucket = &anchored_.at(key);
    if (bucket->size() == 1) {
      anchored_.erase(key);
      return;
    }
  } else {
    bucket = &unanchored_.at(entry.owner);
    if (bucket->size() == 1) {
      unanchored_.erase(entry.owner);
      return;
    }
  }
  bucket->erase(std::find_if(bucket->begin(), bucket->end(),
                              [id](const Candidate& c) { return c.id == id; }));
}

CoveringIndex::AddResult CoveringIndex::add(SubscriptionId id, SubscriptionRef shared,
                                            BrokerId owner) {
  if (shared == nullptr) throw std::invalid_argument("CoveringIndex: null subscription");
  if (frontier_.contains(id) || parked_.contains(id)) {
    throw std::invalid_argument("CoveringIndex: duplicate subscription");
  }
  const Subscription& subscription = *shared;

  // Locally-owned subscriptions stay compiled (see the header): frontier
  // membership without candidate indexing, so they neither park nor cover.
  if (owner == local_) {
    frontier_.emplace(id, Frontier{std::move(shared), owner, std::nullopt, {}});
    return AddResult{};
  }

  const Signature signature = signature_of(subscription);
  const SubscriptionId coverer = find_coverer(subscription, signature, owner);
  if (coverer.valid()) {
    parked_.emplace(id, Parked{std::move(shared), owner, coverer});
    frontier_.at(coverer).children.push_back(id);
    AddResult result;
    result.parked = true;
    result.coverer = coverer;
    return result;
  }

  // Entering the frontier: demote every same-owner frontier entry this
  // subscription covers. The anchor probes run in reverse — at each of the
  // *new* subscription's equality attributes, anchored entries pinning the
  // same value are the only anchored entries it can cover. Demoted entries
  // hand their children straight to the new coverer (parking stays flat).
  AddResult result;
  Frontier entry{std::move(shared), owner, anchor_of(subscription), {}};
  const auto consider = [&](const Candidate& candidate) {
    if (!signature.may_cover(candidate.signature) ||
        !covers(subscription, *candidate.subscription)) {
      return;
    }
    if (std::find(result.demoted.begin(), result.demoted.end(), candidate.id) ==
        result.demoted.end()) {
      result.demoted.push_back(candidate.id);
    }
  };
  const auto& tests = subscription.tests();
  for (std::size_t i = 0; i < tests.size(); ++i) {
    if (tests[i].kind() != TestKind::kEquals) continue;
    const auto it = anchored_.find(AnchorKey{owner, i, tests[i].operand()});
    if (it == anchored_.end()) continue;
    for (const Candidate& candidate : it->second) consider(candidate);
  }
  if (const auto it = unanchored_.find(owner); it != unanchored_.end()) {
    for (const Candidate& candidate : it->second) consider(candidate);
  }

  for (const SubscriptionId demoted : result.demoted) {
    Frontier victim = std::move(frontier_.at(demoted));
    unindex_frontier(demoted, victim);
    frontier_.erase(demoted);
    for (const SubscriptionId grandchild : victim.children) {
      parked_.at(grandchild).coverer = id;
      entry.children.push_back(grandchild);
    }
    parked_.emplace(demoted, Parked{std::move(victim.subscription), owner, id});
    entry.children.push_back(demoted);
  }
  index_frontier(id, entry, signature);
  frontier_.emplace(id, std::move(entry));
  return result;
}

CoveringIndex::RemoveResult CoveringIndex::remove(SubscriptionId id) {
  RemoveResult result;
  if (const auto it = parked_.find(id); it != parked_.end()) {
    const SubscriptionId coverer = it->second.coverer;
    parked_.erase(it);
    auto& children = frontier_.at(coverer).children;
    children.erase(std::find(children.begin(), children.end(), id));
    result.known = true;
    result.was_parked = true;
    return result;
  }
  const auto it = frontier_.find(id);
  if (it == frontier_.end()) return result;
  result.known = true;

  Frontier removed = std::move(it->second);
  if (removed.owner == local_) {
    // Never indexed, never a coverer: nothing to unhook or re-home.
    frontier_.erase(it);
    return result;
  }
  unindex_frontier(id, removed);
  frontier_.erase(it);

  // Re-home the orphaned children broadest-first: a promoted broad child
  // immediately becomes a parking candidate for its tighter siblings, so
  // the frontier grows by a minimal set.
  std::sort(removed.children.begin(), removed.children.end(),
            [this](SubscriptionId a, SubscriptionId b) {
              const auto key = [this](SubscriptionId s) {
                return std::make_pair(parked_.at(s).subscription->specific_test_count(),
                                      s.value);
              };
              return key(a) < key(b);
            });
  for (const SubscriptionId child : removed.children) {
    Parked orphan = std::move(parked_.at(child));
    parked_.erase(child);
    const Signature signature = signature_of(*orphan.subscription);
    const SubscriptionId coverer = find_coverer(*orphan.subscription, signature, orphan.owner);
    if (coverer.valid()) {
      frontier_.at(coverer).children.push_back(child);
      orphan.coverer = coverer;
      parked_.emplace(child, std::move(orphan));
    } else {
      Frontier promoted{orphan.subscription, orphan.owner, anchor_of(*orphan.subscription), {}};
      index_frontier(child, promoted, signature);
      frontier_.emplace(child, std::move(promoted));
      result.promoted.push_back({child, std::move(orphan.subscription)});
    }
  }
  return result;
}

std::span<const SubscriptionId> CoveringIndex::children_of(SubscriptionId coverer) const {
  const auto it = frontier_.find(coverer);
  if (it == frontier_.end()) return {};
  return it->second.children;
}

SubscriptionRef CoveringIndex::find(SubscriptionId id) const {
  if (const auto it = frontier_.find(id); it != frontier_.end()) return it->second.subscription;
  if (const auto it = parked_.find(id); it != parked_.end()) return it->second.subscription;
  return nullptr;
}

}  // namespace gryphon
