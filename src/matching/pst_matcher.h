// PstMatcher: the paper's full matching engine — a parallel search tree with
// the factoring optimization layered on top (Section 2.1).
//
// Factoring: the first `factoring_levels` attributes of the configured order
// become an index. A separate subtree is built for each combination of values
// of the factored attributes; subscriptions that don't pin a factored
// attribute (don't-care or a multi-value test) are replicated across every
// matching combination — trading space for skipped search steps, exactly as
// the paper describes. Factored attributes must declare finite domains.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "matching/compiled_pst.h"
#include "matching/match_scratch.h"
#include "matching/matcher.h"
#include "matching/pst.h"

namespace gryphon {

/// Computes factoring bucket keys for events and subscriptions.
class FactoringIndex {
 public:
  using Key = std::vector<Value>;

  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::size_t h = 0xcbf29ce484222325ULL;
      for (const Value& v : k) h = (h ^ v.hash()) * 1099511628211ULL;
      return h;
    }
  };

  /// `factored` lists the schema attribute indices consumed by the index.
  /// Throws std::invalid_argument if any lacks a finite domain.
  FactoringIndex(SchemaPtr schema, std::vector<std::size_t> factored);

  /// The single bucket an event belongs to, into a caller-owned buffer:
  /// values are assigned element-wise so a reused key
  /// (MatchScratch::factoring_key()) performs no heap allocation on the hot
  /// dispatch path.
  void event_key_into(const Event& event, Key& out) const;

  /// Every bucket a subscription must live in: the cartesian product of the
  /// domain values accepted by its test on each factored attribute.
  [[nodiscard]] std::vector<Key> subscription_keys(const Subscription& subscription) const;

 private:
  SchemaPtr schema_;
  std::vector<std::size_t> factored_;
};

struct PstMatcherOptions {
  /// Full permutation of schema attribute indices; empty selects the schema
  /// declaration order. See order_by_fewest_dont_cares() for the paper's
  /// recommended heuristic.
  std::vector<std::size_t> attribute_order;
  /// How many leading attributes of the order are factored (0 = none).
  std::size_t factoring_levels{0};
  Pst::Options tree;
};

class PstMatcher : public Matcher {
 public:
  explicit PstMatcher(SchemaPtr schema, PstMatcherOptions options = PstMatcherOptions());

  /// Copies `subscription` once into a new shared object and registers
  /// that (the convenience form for callers that hold no reference).
  void add(SubscriptionId id, const Subscription& subscription) override;
  /// Registers a reference: the matcher keeps `subscription`, not a copy.
  void add(SubscriptionId id, SubscriptionRef subscription);
  bool remove(SubscriptionId id) override;
  [[nodiscard]] MatchResult match(const Event& event) const override;
  /// Allocation-free variant: appends matches to `out`. The overload with a
  /// scratch is the hot path (no thread-local lookup, reused buffers).
  void match_into(const Event& event, std::vector<SubscriptionId>& out,
                  MatchStats* stats = nullptr) const;
  void match_into(const Event& event, std::vector<SubscriptionId>& out, MatchScratch& scratch,
                  MatchStats* stats = nullptr) const;

  /// Compiles every non-empty tree changed since the last freeze() into
  /// its flat kernel (Pst -> CompiledPst, one pass), kept beside the
  /// tree until the tree changes again. A writer operation like add(): it
  /// must not overlap a match. match() runs a tree on its kernel under
  /// trivial-test elimination (the kernel always collapses star chains, so
  /// it would otherwise change the step count) and walks it otherwise.
  void freeze();

  [[nodiscard]] std::size_t subscription_count() const override { return registry_.size(); }

  [[nodiscard]] const SchemaPtr& schema() const { return schema_; }
  [[nodiscard]] const PstMatcherOptions& options() const { return options_; }
  [[nodiscard]] const Subscription* find_subscription(SubscriptionId id) const;

  // --- rich mutation interface for the link-matching layer ---

  /// One (tree, spine) pair touched by a mutation. `tree_created` marks a
  /// bucket tree that did not exist before the call.
  struct TouchedTree {
    Pst* tree;
    Pst::Mutation mutation;
    bool tree_created{false};
  };
  using TouchedTrees = std::vector<TouchedTree>;

  /// As add()/remove(), additionally reporting every touched tree so callers
  /// maintaining per-tree state (trit annotations) can update incrementally.
  TouchedTrees add_with_result(SubscriptionId id, SubscriptionRef subscription);
  TouchedTrees remove_with_result(SubscriptionId id);

  /// The tree an event would be matched against (nullptr when the event's
  /// factoring bucket holds no subscriptions). The overload taking a
  /// scratch key avoids allocating the factoring key per event.
  [[nodiscard]] const Pst* tree_for_event(const Event& event) const;
  [[nodiscard]] const Pst* tree_for_event(const Event& event,
                                          FactoringIndex::Key& scratch_key) const;

  [[nodiscard]] std::size_t tree_count() const {
    return single_.pst ? 1 : buckets_.size();
  }

  /// Invokes `fn(const FactoringIndex::Key*, const Pst&, kernel)` for every
  /// live tree. The key pointer is null for the single (unfactored) tree;
  /// `kernel` (std::shared_ptr<const CompiledPst>) is null unless freeze()
  /// compiled the tree in its current state.
  template <typename Fn>
  void for_each_bucket(Fn&& fn) const {
    if (single_.pst) {
      fn(static_cast<const FactoringIndex::Key*>(nullptr), *single_.pst, single_.kernel);
      return;
    }
    for (const auto& [key, tree] : buckets_) fn(&key, *tree.pst, tree.kernel);
  }

  /// Invokes `fn(SubscriptionId, const SubscriptionRef&)` for every
  /// registered subscription, in no particular order.
  template <typename Fn>
  void for_each_subscription(Fn&& fn) const {
    for (const auto& [id, subscription] : registry_) fn(id, subscription);
  }

  // --- memory accounting (bytes, from the structures' own sizes; the
  // allocator's per-block overhead is not included) ---

  /// The registry's own structure: hash-table nodes (each holding a
  /// reference) and buckets, without the subscriptions referenced.
  [[nodiscard]] std::size_t reference_bytes() const;
  /// reference_bytes() plus every registered Subscription in full. A
  /// subscription other holders share is counted here too: a caller
  /// summing several holders dedupes through for_each_subscription().
  [[nodiscard]] std::size_t registry_bytes() const;
  /// Every live tree (Pst::memory_bytes).
  [[nodiscard]] std::size_t tree_bytes() const;
  /// Every kernel freeze() left on a tree. Kept apart from memory_bytes():
  /// a kernel is shared (the routing network searches the same one).
  [[nodiscard]] std::size_t kernel_bytes() const;
  /// What the matcher itself holds: registry_bytes() + tree_bytes().
  [[nodiscard]] std::size_t memory_bytes() const { return registry_bytes() + tree_bytes(); }

  /// The factoring index, or nullptr when factoring is off.
  [[nodiscard]] const FactoringIndex* factoring() const { return factoring_.get(); }

 private:
  /// One PST and its kernel: set by freeze(), dropped by every mutation
  /// of the tree. Trees are never freed while the matcher lives (see
  /// remove_with_result), so `pst` is a stable identity for callers.
  struct Tree {
    std::unique_ptr<Pst> pst;
    std::shared_ptr<const CompiledPst> kernel;
  };

  [[nodiscard]] Tree make_tree() const;
  /// The tree an event maps to (nullptr when its bucket does not exist);
  /// computes the factoring key into `key`.
  [[nodiscard]] const Tree* find_tree(const Event& event, FactoringIndex::Key& key) const;

  SchemaPtr schema_;
  PstMatcherOptions options_;
  std::vector<std::size_t> residual_order_;  // attribute order minus factored prefix
  std::unique_ptr<FactoringIndex> factoring_;  // null when factoring off
  Tree single_;                                // pst set only when factoring off
  std::unordered_map<FactoringIndex::Key, Tree, FactoringIndex::KeyHash> buckets_;
  std::unordered_map<SubscriptionId, SubscriptionRef> registry_;
};

}  // namespace gryphon
