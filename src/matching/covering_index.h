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
// mutable PSTs (BrokerCore does both under one capability). The data plane
// never reads it — it reads the immutable CoveringSnapshot this index
// maintains persistently (one slice cloned per change, O(1) to publish).
//
// Containment detection is exact but not complete: a test is only
// recognized as covering when the containment is structural (e.g. a range
// with both bounds absent accepts everything, but a range that happens to
// span an attribute's whole finite domain is not folded). Incompleteness
// only costs aggregation ratio, never correctness — an unrecognized
// coveree simply stays in the frontier.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "event/subscription.h"
#include "matching/covering_snapshot.h"

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

  /// The current persistent coverer -> children view for the data plane.
  /// Deeply immutable; successive snapshots share unchanged slices.
  [[nodiscard]] std::shared_ptr<const CoveringSnapshot> snapshot() const { return snapshot_; }

 private:
  struct Frontier {
    SubscriptionRef subscription;
    BrokerId owner;
    std::size_t specific_tests{0};
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
  /// A frontier subscription with `owner` covering `subscription`, or an
  /// invalid id. Probes the anchor index at each of the subscription's
  /// equality attributes, then the owner's unanchored list.
  [[nodiscard]] SubscriptionId find_coverer(const Subscription& subscription,
                                            BrokerId owner) const;
  void index_frontier(SubscriptionId id, const Frontier& entry);
  void unindex_frontier(SubscriptionId id, const Frontier& entry);
  /// Re-syncs the published snapshot's child list for `coverer` from the
  /// mutable model (clones exactly one slice).
  void publish_children(SubscriptionId coverer);

  SchemaPtr schema_;
  BrokerId local_;
  std::unordered_map<SubscriptionId, Frontier> frontier_;
  std::unordered_map<SubscriptionId, Parked> parked_;
  std::unordered_map<AnchorKey, std::vector<SubscriptionId>, AnchorKeyHash> anchored_;
  std::unordered_map<BrokerId, std::vector<SubscriptionId>> unanchored_;
  std::shared_ptr<const CoveringSnapshot> snapshot_;
};

}  // namespace gryphon
