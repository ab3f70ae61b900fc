// CoveringIndex: subscription aggregation by predicate containment.
//
// Subscription a *covers* b when a's accepted event set contains b's —
// decided per attribute over the equality/not-equals/range/don't-care test
// grammar (conjunctions contain iff they contain attribute-wise). A covered
// subscription adds nothing to the routing problem of its coverer's owner:
// every event it matches, the coverer matches too, and both resolve to the
// same link in every spanning-tree group (links depend only on the owner).
// So instead of inserting it into the PST — and paying a tree mutation plus
// a kernel recompile for state that cannot change any forwarding decision —
// the broker *parks* it here, under its coverer, and the compiled data
// plane carries only the covering frontier.
//
// Parking is restricted to pairs with the same owner broker and is flat
// (one level): every parked subscription hangs directly under a frontier
// coverer, never under another parked one.
//
// Subscriptions owned by the *local* broker never park and never cover:
// they always enter the frontier, unindexed. A remote subscription only
// influences forwarding masks, which covering preserves exactly, but a
// local one must be enumerated per matching event for client delivery —
// and enumeration through parked children is a per-child interpreted
// re-evaluation, the linear scan the compiled kernels exist to avoid.
// Keeping locals compiled costs aggregation only on the broker's own
// clients; the propagated remote population (the bulk of a transit
// broker's table) parks as before. That keeps uncovering simple —
// when a frontier subscription is removed, its children are re-homed
// broadest-first, so a promoted child immediately re-covers its tighter
// siblings and the frontier grows by the minimum. Conversely, a new
// subscription that covers existing frontier entries *demotes* them (and
// inherits their children), shrinking the tree.
//
// The index is control-plane state: callers serialize it exactly like the
// mutable PSTs (BrokerCore does both under one capability), and nothing
// about it is published. The data plane has no use for it: dispatch
// forwards on the frontier's trit rows, which a parked child's same-owner
// coverer already decides, and delivers to local subscriptions, which
// never park. Parking or unparking therefore changes no compiled tree and
// no snapshot. Enumerating parked children is a control-plane query
// (children_of; BrokerCore::match_all re-tests them against an event).
//
// Containment detection is exact but not complete: a test is only
// recognized as covering when the containment is structural (e.g. a range
// with both bounds absent accepts everything, but a range that happens to
// span an attribute's whole finite domain is not folded). Incompleteness
// only costs aggregation ratio, never correctness — an unrecognized
// coveree simply stays in the frontier.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "event/subscription.h"

namespace gryphon {

class CoveringIndex {
 public:
  /// `local` is the owning broker whose subscriptions bypass covering
  /// (see above). An invalid id — the default — disables the bypass, which
  /// keeps the index fully general for oracle tests.
  explicit CoveringIndex(SchemaPtr schema, BrokerId local = BrokerId{});

  /// Attribute-wise containment: does `a` accept every value `b` accepts?
  [[nodiscard]] static bool test_covers(const AttributeTest& a, const AttributeTest& b);
  /// Predicate containment over whole subscriptions (same schema assumed).
  [[nodiscard]] static bool covers(const Subscription& a, const Subscription& b);

  struct AddResult {
    /// True: the subscription was parked under `coverer` — keep it out of
    /// the PST. False: it entered the frontier; insert it, and remove every
    /// id in `demoted` (previous frontier members it now covers).
    bool parked{false};
    SubscriptionId coverer;
    std::vector<SubscriptionId> demoted;
  };
  /// Keeps a reference to `subscription` (frontier or parked), never a
  /// copy.
  AddResult add(SubscriptionId id, SubscriptionRef subscription, BrokerId owner);

  struct Promoted {
    SubscriptionId id;
    SubscriptionRef subscription;
  };
  struct RemoveResult {
    bool known{false};
    /// True: a parked child was removed — the PST is untouched.
    bool was_parked{false};
    /// Frontier removal only: previously parked children that could not be
    /// re-covered and must be inserted into the PST.
    std::vector<Promoted> promoted;
  };
  RemoveResult remove(SubscriptionId id);

  [[nodiscard]] std::size_t frontier_count() const { return frontier_.size(); }
  [[nodiscard]] std::size_t parked_count() const { return parked_.size(); }
  /// Looks up any live subscription, frontier or parked.
  [[nodiscard]] SubscriptionRef find(SubscriptionId id) const;
  [[nodiscard]] bool is_parked(SubscriptionId id) const { return parked_.contains(id); }
  /// The subscriptions parked directly under `coverer`, in parked order;
  /// empty unless `coverer` is on the frontier. Valid until the next
  /// mutation.
  [[nodiscard]] std::span<const SubscriptionId> children_of(SubscriptionId coverer) const;

 private:
  struct Frontier {
    SubscriptionRef subscription;
    BrokerId owner;
    /// First attribute with an equality test, if any — the candidate-index
    /// anchor: anything this entry covers must carry the same equality.
    std::optional<std::pair<std::size_t, Value>> anchor;
    std::vector<SubscriptionId> children;  // parked directly under this
  };
  struct Parked {
    SubscriptionRef subscription;
    BrokerId owner;
    SubscriptionId coverer;
  };
  /// Necessary conditions for covers(a, b), packed so a candidate scan
  /// rejects most entries without touching their subscriptions: a can only
  /// cover b when b restricts every attribute a restricts, and b pins every
  /// equality a requires. Attributes and (attribute, value) pairs fold into
  /// 64 bits each, which keeps both conditions necessary.
  struct Signature {
    std::uint64_t specific{0};  // tests that do not accept every value
    std::uint64_t equal{0};     // equality tests
    std::uint64_t pinned{0};    // `equal`, or all ones beside a one-value range
    [[nodiscard]] bool may_cover(const Signature& b) const {
      return (specific & ~b.specific) == 0 && (equal & ~b.pinned) == 0;
    }
  };
  /// A frontier entry as the candidate scans read it, stored inline in the
  /// anchor buckets so a scan walks one contiguous array.
  struct Candidate {
    SubscriptionId id;
    Signature signature;
    const Subscription* subscription;  // owned by the frontier entry
  };
  struct AnchorKey {
    BrokerId owner;
    std::size_t attribute;
    Value value;
    bool operator==(const AnchorKey&) const = default;
  };
  struct AnchorKeyHash {
    std::size_t operator()(const AnchorKey& k) const noexcept;
  };

  [[nodiscard]] static std::optional<std::pair<std::size_t, Value>> anchor_of(
      const Subscription& subscription);
  [[nodiscard]] static Signature signature_of(const Subscription& subscription);
  /// A frontier subscription with `owner` covering `subscription`, or an
  /// invalid id. Probes the anchor index at each of the subscription's
  /// equality attributes, then the owner's unanchored list.
  [[nodiscard]] SubscriptionId find_coverer(const Subscription& subscription,
                                            const Signature& signature, BrokerId owner) const;
  void index_frontier(SubscriptionId id, const Frontier& entry, const Signature& signature);
  void unindex_frontier(SubscriptionId id, const Frontier& entry);

  SchemaPtr schema_;
  BrokerId local_;
  std::unordered_map<SubscriptionId, Frontier> frontier_;
  std::unordered_map<SubscriptionId, Parked> parked_;
  std::unordered_map<AnchorKey, std::vector<Candidate>, AnchorKeyHash> anchored_;
  std::unordered_map<BrokerId, std::vector<Candidate>> unanchored_;
};

}  // namespace gryphon
