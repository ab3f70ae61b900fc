// The parallel search tree (PST) of Section 2.
//
// Each subscription is a root-to-leaf path; level d of the tree tests the
// schema attribute `order[d]`. Branches are labeled with tests: equality
// branches (kept sorted for binary search), general branches (ranges,
// not-equals, scanned linearly), and at most one `*` (don't-care) branch per
// node. Leaves sit at level order.size() and carry subscription ids.
//
// Matching walks every satisfied path: at a node, the branch whose test
// accepts the event value is followed, and the `*` branch is always followed
// — 0, 1, or 2 successors for equality-only trees, possibly more with ranges
// (paper Section 2).
//
// Optimizations (Section 2.1):
//  * trivial-test elimination — a node whose only branch is `*` performs no
//    test; such chains are skipped via a maintained `skip` pointer;
//  * delayed branching — non-`*` branches are explored before the `*`
//    branch, letting the link-matching search (Section 3.3) prune `*`
//    subtrees once its mask is fully refined;
//  * factoring is layered on top by PstMatcher (see pst_matcher.h).
//
// The tree is mutable (subscribe/unsubscribe) and exposes the structural
// introspection that the trit-annotation layer (src/routing) requires:
// stable node ids, parent pointers, child enumeration, and mutation results
// identifying the changed spine.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.h"
#include "event/event.h"
#include "event/subscription.h"
#include "matching/matcher.h"

namespace gryphon {

class Pst {
 public:
  using NodeId = std::int32_t;
  static constexpr NodeId kNoNode = -1;

  struct Options {
    bool trivial_test_elimination{true};
    /// Explore non-`*` branches before the `*` branch (delayed branching).
    bool delayed_star{true};
  };

  /// `order` is the sequence of schema attribute indices tested level by
  /// level. It need not cover all attributes (factoring consumes some), but
  /// must not repeat and must be valid for the schema. Subscriptions added
  /// to this tree must be don't-care on attributes outside `order`
  /// (PstMatcher guarantees this by construction).
  Pst(SchemaPtr schema, std::vector<std::size_t> order, Options options);
  Pst(SchemaPtr schema, std::vector<std::size_t> order)
      : Pst(std::move(schema), std::move(order), Options()) {}

  [[nodiscard]] const SchemaPtr& schema() const { return schema_; }
  [[nodiscard]] const std::vector<std::size_t>& order() const { return order_; }
  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] std::size_t level_count() const { return order_.size(); }
  [[nodiscard]] std::size_t subscription_count() const { return subscription_count_; }

  /// Result of a mutation: the leaf whose payload changed and the deepest
  /// node that survived pruning (for removals). The annotation layer
  /// re-propagates trit vectors starting from `start` up to the root.
  struct Mutation {
    NodeId leaf{kNoNode};   // leaf touched (kNoNode if the path vanished)
    NodeId start{kNoNode};  // deepest surviving node on the changed spine
    /// Node ids pruned by a removal. Annotation layers zero these rows so a
    /// later arena reuse of the slot can never alias a stale annotation.
    std::vector<NodeId> freed;
  };

  /// Inserts the subscription's path (creating nodes as needed) and records
  /// `id` at the leaf. The same id may be added once per tree.
  Mutation add(SubscriptionId id, const Subscription& subscription);

  /// Removes `id` from the leaf addressed by the subscription's path, and
  /// prunes now-empty nodes. Returns nullopt when the path or id is absent.
  std::optional<Mutation> remove(SubscriptionId id, const Subscription& subscription);

  /// The parallel search: appends every matched subscription id to `out`.
  void match(const Event& event, std::vector<SubscriptionId>& out,
             MatchStats* stats = nullptr) const;

  // --- structural introspection (annotation layer, tests, debugging) ---

  [[nodiscard]] NodeId root() const { return root_; }
  [[nodiscard]] NodeId parent(NodeId n) const { return nodes_[n].parent; }
  [[nodiscard]] int level(NodeId n) const { return nodes_[n].level; }
  [[nodiscard]] bool is_leaf(NodeId n) const {
    return nodes_[n].level == static_cast<int>(order_.size());
  }
  [[nodiscard]] NodeId star_child(NodeId n) const { return nodes_[n].star; }
  [[nodiscard]] std::span<const SubscriptionId> subscribers(NodeId n) const {
    return nodes_[n].subs;
  }
  [[nodiscard]] std::span<const std::pair<Value, NodeId>> eq_children(NodeId n) const {
    return nodes_[n].eq;
  }
  [[nodiscard]] std::span<const std::pair<AttributeTest, NodeId>> other_children(NodeId n) const {
    return nodes_[n].other;
  }
  /// True when the node's equality branches cover the full declared finite
  /// domain of its attribute and it has no other non-star branches. Used by
  /// the annotation layer to decide whether the implicit all-No alternative
  /// (paper Section 3.1) applies.
  [[nodiscard]] bool eq_children_cover_domain(NodeId n) const;

  /// Total node-id space (arena size); ids in [0, node_slot_count()) are
  /// either live or free-listed. Annotation arrays size to this.
  [[nodiscard]] std::size_t node_slot_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t live_node_count() const { return live_nodes_; }

  /// Incremented on every mutation; cheap staleness check for annotations.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Bytes the tree occupies: its node arena, every node's branch and
  /// payload vectors (by capacity) and the heap blocks of their values.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Invariant checker used by tests: parent/child coherence, sorted
  /// equality branches, correct skip pointers, leaves exactly at the last
  /// level. Throws std::logic_error with a description on violation.
  void check_invariants() const;

 private:
  struct Node {
    NodeId parent{kNoNode};
    int level{0};
    NodeId star{kNoNode};
    std::vector<std::pair<Value, NodeId>> eq;  // sorted by Value
    std::vector<std::pair<AttributeTest, NodeId>> other;
    std::vector<SubscriptionId> subs;  // leaf payload

    /// A star-only node performs no test — trivial-test elimination skips it.
    [[nodiscard]] bool star_only() const { return eq.empty() && other.empty() && star >= 0; }
    [[nodiscard]] bool childless() const { return eq.empty() && other.empty() && star < 0; }
  };

  NodeId new_node(NodeId parent, int level);
  void free_node(NodeId n);
  NodeId find_eq_child(NodeId n, const Value& v) const;
  void detach_child(NodeId parent_id, NodeId child_id);

  SchemaPtr schema_;
  std::vector<std::size_t> order_;
  Options options_;
  std::vector<Node> nodes_;
  std::vector<NodeId> free_list_;
  NodeId root_{0};
  std::size_t subscription_count_{0};
  std::size_t live_nodes_{0};
  std::uint64_t epoch_{0};
};

}  // namespace gryphon
