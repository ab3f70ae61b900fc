// Trit annotation of a parallel search tree (paper Section 3.1).
//
// Leaves are annotated with Yes at link l when one of the leaf's subscribers
// is reached through link l, No otherwise. Annotations propagate toward the
// root: sibling value-branches merge with Alternative Combine — including an
// implicit all-No alternative representing event values for which no value
// branch exists (unless the branches cover the attribute's entire declared
// finite domain) — and the result merges with the `*` branch via Parallel
// Combine. Rows are folded by the same helpers (packed::fold_leaf,
// packed::fold_interior) as CompiledAnnotation's, which also state how
// general branches (range and not-equals tests) are annotated.
//
// The annotation is maintained incrementally: after a subscribe/unsubscribe
// touches a leaf, only the changed spine (leaf to root, stopping early when
// a node's annotation is unchanged) is recomputed. link_match
// (link_matcher.h) searches it with the compiled search's refinement over
// a walk of the Pst.
//
// Storage is one flat bit-plane row per node id (routing/trit.h,
// "Bit-plane form"), in the plane word trit.h's "Row width" rule picks from
// the link count, so a broker network holding one annotation set per
// broker stays compact.
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
  /// Builds one annotation per link map over `tree`, sharing one traversal
  /// order of the tree, so annotating one tree for many brokers costs
  /// little more than the rows.
  static std::vector<AnnotatedPst> build_all(const Pst& tree, std::span<const LinkMap> maps);

  [[nodiscard]] const Pst& tree() const { return *tree_; }
  [[nodiscard]] std::size_t link_count() const { return link_count_; }
  /// 64-bit words per plane of a mask: a mask is 2 * words() TritWords.
  [[nodiscard]] std::size_t words() const { return trit_words(link_count_); }
  /// Bytes per stored plane word: 1, 2, 4 or 8 (trit.h, "Row width").
  [[nodiscard]] std::size_t plane_bytes() const { return gryphon::plane_bytes(rows_); }

  /// The rows when planes are `Plane` words (precondition: sizeof(Plane)
  /// == plane_bytes()). Node n's row is the 2 * row_plane_words<Plane>(
  /// words()) words at n times that; rows of free node ids are all-No.
  template <class Plane>
  [[nodiscard]] const Plane* planes() const {
    return std::get<std::vector<Plane>>(rows_).data();
  }

  /// The annotation row of a live node, widened to a packed mask
  /// (2 * words() TritWords). For tests and diagnostics.
  [[nodiscard]] std::vector<TritWord> annotation(Pst::NodeId node) const;

  /// Bytes this annotation occupies: the object and its rows (the tree is
  /// shared and not counted).
  [[nodiscard]] std::size_t memory_bytes() const;

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
  /// Recomputes every row over `children_first`, an order of the tree's
  /// live nodes with every node after its children.
  void rebuild_rows(std::span<const Pst::NodeId> children_first);

  /// Writes the annotation of `node`, derived from its children's stored
  /// rows, into `out` (which must not be a child's row).
  template <class Plane>
  void compute_into(Pst::NodeId node, Plane* out) const;
  template <class Plane>
  void recompute_spine(std::vector<Plane>& rows, Pst::NodeId from);

  const Pst* tree_;
  std::size_t link_count_;
  SubscriptionLinkFn link_of_;
  PlaneArena rows_;  // node_slot_count rows
  std::uint64_t epoch_{0};
};

}  // namespace gryphon
