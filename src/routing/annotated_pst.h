// Trit annotation of a parallel search tree (paper Section 3.1).
//
// Leaves are annotated with Yes at link l when one of the leaf's subscribers
// is reached through link l, No otherwise. Annotations propagate toward the
// root: sibling value-branches merge with Alternative Combine — including an
// implicit all-No alternative representing event values for which no value
// branch exists (unless the branches cover the attribute's entire declared
// finite domain) — and the result merges with the `*` branch via Parallel
// Combine.
//
// The paper defines annotation for trees with only equality tests and
// don't-care branches, deferring the general case to a "parallel search
// graph". This implementation additionally handles general branches (range
// and not-equals tests) with the sound conservative generalization: they
// participate in the Alternative combine and always force the implicit
// all-No alternative, so they can contribute Maybe (search deeper) or No
// (prune) but never an unsound Yes.
//
// The annotation is maintained incrementally: after a subscribe/unsubscribe
// touches a leaf, only the changed spine (leaf to root, stopping early when
// a node's annotation is unchanged) is recomputed.
//
// Storage is a flat Trit array (one row of `link_count` trits per node id),
// so a broker network holding one annotation set per broker stays compact.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/ids.h"
#include "matching/pst.h"
#include "routing/trit.h"

namespace gryphon {

/// Resolves the link a subscription's events must be forwarded on: the
/// composition of subscription -> destination client -> outgoing link. The
/// link map differs per spanning tree on non-tree networks, so a broker may
/// hold several AnnotatedPst instances over one shared Pst.
using SubscriptionLinkFn = std::function<LinkIndex(SubscriptionId)>;

class AnnotatedPst {
 public:
  /// Builds the full annotation. `link_count` is the broker's outgoing port
  /// count (trit vector width); `link_of` must stay valid for the lifetime
  /// of this object and be consistent across rebuilds.
  AnnotatedPst(const Pst& tree, std::size_t link_count, SubscriptionLinkFn link_of);

  /// One annotation's parameters, for build_all().
  struct LinkMap {
    std::size_t link_count{0};
    SubscriptionLinkFn link_of;
  };
  /// Builds one annotation per link map over `tree` in a single forward
  /// pass: the traversal and every node's structural reads are shared, so
  /// annotating one tree for many brokers costs little more than the rows.
  static std::vector<AnnotatedPst> build_all(const Pst& tree, std::span<const LinkMap> maps);

  [[nodiscard]] const Pst& tree() const { return *tree_; }
  [[nodiscard]] std::size_t link_count() const { return link_count_; }

  /// The annotation row of a node. Valid for live nodes only.
  [[nodiscard]] TritSpan annotation(Pst::NodeId node) const {
    return TritSpan(flat_.data() + static_cast<std::size_t>(node) * link_count_, link_count_);
  }

  /// Recomputes everything from the current tree state in one forward pass
  /// (children before parents).
  void rebuild();

  /// Incremental update after Pst::add / Pst::remove. Must be called with
  /// the mutation result of every tree change, in order.
  void apply(const Pst::Mutation& mutation);

  /// True when the stored epoch matches the tree's (no missed mutations).
  [[nodiscard]] bool in_sync() const { return epoch_ == tree_->epoch(); }

  /// Test hook: verifies the incremental annotation equals a from-scratch
  /// recomputation. Throws std::logic_error on divergence.
  void check_consistency() const;

 private:
  struct Deferred {};
  /// Validates the parameters without computing any row.
  AnnotatedPst(const Pst& tree, std::size_t link_count, SubscriptionLinkFn link_of, Deferred);
  /// Recomputes every row of several annotations of one tree.
  static void rebuild_all(const Pst& tree, std::span<AnnotatedPst> annotations);

  [[nodiscard]] MutableTritSpan row(Pst::NodeId node);
  /// Writes the annotation of `node`, derived from its children's stored
  /// rows, into `out` (which must not be a child's row). `covers_domain` is
  /// the node's Pst::eq_children_cover_domain.
  void compute_into(Pst::NodeId node, MutableTritSpan out, bool covers_domain) const;
  void ensure_capacity();
  void recompute_spine(Pst::NodeId from);

  const Pst* tree_;
  std::size_t link_count_;
  SubscriptionLinkFn link_of_;
  std::vector<Trit> flat_;  // node_slot_count rows of link_count trits
  std::uint64_t epoch_{0};
};

}  // namespace gryphon
