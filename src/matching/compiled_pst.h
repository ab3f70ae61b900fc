// Compiled flat parallel search trees: the immutable, cache-friendly match
// kernel behind the snapshot engine.
//
// The mutable Pst is a pointer-chasing arena: every node owns three
// std::vectors, and every equality branch compares full `Value` variants
// (heap strings included). CompiledPst compiles a Pst in one depth-first
// pass — in PstMatcher::freeze(), which the snapshot engine and the routing
// network share — into a struct-of-arrays layout built for the data-plane
// walk:
//
//  * star-only chains are collapsed structurally (trivial-test elimination
//    applied to the structure, not at match time): an edge may jump several
//    levels, and each surviving node stores the level it actually tests.
//    Under the paper's workloads — most trailing attributes don't-care —
//    this removes the majority of nodes;
//  * nodes live in one contiguous array (32 bytes each) in DFS first-visit
//    order; branch tables, leaf subscriber lists (sorted), and general
//    (range / not-equals) tests live in parallel arenas addressed by
//    [begin, count) slices, so a match touches a handful of dense arrays
//    instead of a vector-per-node heap walk;
//  * every equality operand is lowered to a u64 key: integers, doubles, and
//    bools via order-preserving bit tricks, strings by interning into a
//    per-tree pool. resolve() lowers an event to its key vector once per
//    dispatch, so an equality test is a u64 compare instead of a Value
//    variant comparison — branchless binary search for wide fan-out, a
//    linear scan for narrow nodes;
//  * eq_children_cover_domain is precomputed into a per-node flag, so the
//    walk does no structural analysis at match time.
//
// The kernel stays a tree, not the DAG the paper notes (Section 2.1) an
// optimized search tree may become: each subscription id lives at exactly
// one leaf, so no two subgraphs holding subscribers are isomorphic and
// merging them finds nothing (0 merged nodes on every perfbench workload).
//
// The mutable Pst remains the write-side source of truth. A CompiledPst is
// deeply immutable after construction: any number of threads may match
// against one instance concurrently, each with its own MatchScratch
// (resolved-key buffer, DFS stack). The routing layer lays
// its frozen trit-annotation rows out against these node ids — see
// routing/compiled_annotation.h.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "matching/match_scratch.h"
#include "matching/pst.h"

namespace gryphon {

/// The kernel nodes one event reaches (CompiledPst::reach), in pre-order:
/// entry i is a reached node, and entries [i + 1, end) are its reached
/// descendants. A node's reached children follow it in the order the
/// dispatch search visits them (CompiledPst::for_each_reached_child), so
/// walking the list visits exactly what a kernel walk would, without
/// testing the event again.
struct EventReach {
  struct Entry {
    std::int32_t node;  // CompiledPst::NodeId
    std::uint32_t end;  // one past this entry's last reached descendant
  };
  std::vector<Entry> entries;
};

class CompiledPst {
 public:
  using NodeId = std::int32_t;
  static constexpr NodeId kNoNode = -1;
  /// Key of an event value that cannot equal any branch operand (e.g. a
  /// string absent from the intern pool). Never collides with a real key:
  /// string keys are dense pool indices, and within one node every operand
  /// shares the attribute's type, so numeric encodings are never compared
  /// against it.
  static constexpr std::uint64_t kUnknownKey = ~std::uint64_t{0};

  /// Compiles a snapshot of `tree`, which may be mutated or destroyed
  /// afterwards.
  explicit CompiledPst(const Pst& tree);

  /// Lowers the event's tested attributes to equality keys, one per level
  /// of order(). Called once per dispatch; `keys` is a reusable scratch
  /// buffer (typically MatchScratch::value_keys()).
  void resolve(const Event& event, std::vector<std::uint64_t>& keys) const;

  /// Appends every matched subscription id to `out` (no duplicates).
  /// Thread-safe: concurrent calls with distinct scratches share only
  /// immutable state.
  void match(const Event& event, std::vector<SubscriptionId>& out, MatchScratch& scratch,
             MatchStats* stats = nullptr) const;

  /// Lists the nodes `event` reaches into `out`: the nodes match() would
  /// visit, in pre-order with children in for_each_reached_child order.
  /// Resolves the event's keys into `scratch`. Empty for an empty kernel.
  void reach(const Event& event, EventReach& out, MatchScratch& scratch) const;

  /// Calls `visit(child)` for each child of interior node `n` that an
  /// event with resolved `keys` reaches, in the dispatch search's order:
  /// the `*` child unless the star is delayed, the accepting general
  /// tests, the selected equality child, then the delayed `*` child.
  template <class Visit>
  void for_each_reached_child(NodeId n, const Event& event, const std::uint64_t* keys,
                              Visit&& visit) const;

  // --- structural introspection (annotation layer, tests) ---

  [[nodiscard]] NodeId root() const { return root_; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] int level(NodeId n) const { return nodes_[static_cast<std::size_t>(n)].level; }
  [[nodiscard]] bool is_leaf(NodeId n) const {
    return (nodes_[static_cast<std::size_t>(n)].flags & kLeafFlag) != 0;
  }
  /// Precomputed Pst::eq_children_cover_domain of the source node.
  [[nodiscard]] bool covers_domain(NodeId n) const {
    return (nodes_[static_cast<std::size_t>(n)].flags & kCoversDomainFlag) != 0;
  }
  [[nodiscard]] NodeId star_child(NodeId n) const {
    return nodes_[static_cast<std::size_t>(n)].star;
  }
  [[nodiscard]] std::span<const std::uint64_t> eq_keys(NodeId n) const {
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    return {eq_keys_.data() + node.eq_begin, node.eq_count};
  }
  [[nodiscard]] std::span<const NodeId> eq_targets(NodeId n) const {
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    return {eq_targets_.data() + node.eq_begin, node.eq_count};
  }
  [[nodiscard]] std::span<const AttributeTest> other_tests(NodeId n) const {
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    return {other_tests_.data() + node.other_begin, node.other_count};
  }
  [[nodiscard]] std::span<const NodeId> other_targets(NodeId n) const {
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    return {other_targets_.data() + node.other_begin, node.other_count};
  }
  [[nodiscard]] std::span<const SubscriptionId> subscribers(NodeId n) const {
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    return {subs_.data() + node.subs_begin, node.subs_count};
  }
  /// Every leaf's subscriber slice, back to back: subscribers(n) is the
  /// slice at subscribers_begin(n). Callers resolve per-subscriber facts
  /// once into an array parallel to this arena.
  [[nodiscard]] std::span<const SubscriptionId> subscriber_arena() const { return subs_; }
  [[nodiscard]] std::size_t subscribers_begin(NodeId n) const {
    return nodes_[static_cast<std::size_t>(n)].subs_begin;
  }

  /// The equality child selected by a resolved key, or kNoNode. Branchless
  /// binary search on wide nodes, linear scan on narrow ones.
  [[nodiscard]] NodeId eq_child(NodeId n, std::uint64_t key) const {
    return eq_child(nodes_[static_cast<std::size_t>(n)], key);
  }

  /// One past the last node id of `n`'s subtree: node ids are DFS
  /// pre-order, so the subtree is the id range [n, subtree_end(n)).
  [[nodiscard]] NodeId subtree_end(NodeId n) const {
    return subtree_end_[static_cast<std::size_t>(n)];
  }

  /// Node ids ordered children-before-parents (the post-order of the
  /// compiling DFS). One forward pass over this order computes any
  /// bottom-up node property — the annotation builder uses it.
  [[nodiscard]] std::span<const NodeId> bottom_up_order() const { return bottom_up_; }

  /// The compile-time key of a value (strings must be in the intern pool,
  /// else kUnknownKey). Exposed for tests.
  [[nodiscard]] std::uint64_t key_of(const Value& v) const;

  [[nodiscard]] const SchemaPtr& schema() const { return schema_; }
  [[nodiscard]] const std::vector<std::size_t>& order() const { return order_; }
  [[nodiscard]] bool delayed_star() const { return delayed_star_; }
  [[nodiscard]] std::size_t subscription_count() const { return subscription_count_; }
  [[nodiscard]] std::size_t string_pool_size() const { return pool_.size(); }

  /// Approximate heap footprint of the compiled structure.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  static constexpr std::uint16_t kLeafFlag = 1;
  static constexpr std::uint16_t kCoversDomainFlag = 2;
  /// Below this fan-out a linear key scan beats the binary search.
  static constexpr std::uint32_t kLinearScanMax = 8;

  struct Node {  // 32 bytes
    NodeId star{kNoNode};
    std::uint16_t level{0};
    std::uint16_t flags{0};
    std::uint32_t eq_begin{0};
    std::uint32_t eq_count{0};
    std::uint32_t other_begin{0};
    std::uint32_t other_count{0};
    std::uint32_t subs_begin{0};
    std::uint32_t subs_count{0};
  };
  static_assert(sizeof(Node) == 32);

  [[nodiscard]] NodeId eq_child(const Node& node, std::uint64_t key) const;

  SchemaPtr schema_;
  std::vector<std::size_t> order_;
  std::vector<AttributeType> level_types_;  // attribute type per level
  bool delayed_star_{true};
  std::size_t subscription_count_{0};
  NodeId root_{kNoNode};

  std::vector<Node> nodes_;                  // DFS first-visit order, root first
  std::vector<std::uint64_t> eq_keys_;       // per-node slices, sorted by key
  std::vector<NodeId> eq_targets_;           // parallel to eq_keys_
  std::vector<AttributeTest> other_tests_;   // general branches
  std::vector<NodeId> other_targets_;        // parallel to other_tests_
  std::vector<SubscriptionId> subs_;         // leaf payload slices, sorted
  std::vector<NodeId> bottom_up_;            // children-before-parents order
  std::vector<NodeId> subtree_end_;          // by node
  std::unordered_map<std::string, std::uint64_t> pool_;  // string interning
};

template <class Visit>
void CompiledPst::for_each_reached_child(NodeId n, const Event& event,
                                         const std::uint64_t* keys, Visit&& visit) const {
  const Node& node = nodes_[static_cast<std::size_t>(n)];
  if (!delayed_star_ && node.star != kNoNode) visit(node.star);
  if (node.other_count != 0) {
    const Value& v = event.value(order_[node.level]);
    for (std::uint32_t i = node.other_begin; i < node.other_begin + node.other_count; ++i) {
      if (other_tests_[i].accepts(v)) visit(other_targets_[i]);
    }
  }
  const NodeId eq = eq_child(node, keys[node.level]);
  if (eq != kNoNode) visit(eq);
  if (delayed_star_ && node.star != kNoNode) visit(node.star);
}

}  // namespace gryphon
