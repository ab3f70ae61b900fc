#include "routing/link_matcher.h"

#include <algorithm>
#include <stdexcept>

#include "routing/refinement_search.h"

namespace gryphon {

namespace {

// PstWalk walks the mutable Pst and tests the event at every node it
// visits, reading an AnnotatedPst's rows, which are indexed by node id
// (link_match). Under trivial-test elimination no position is a star-only
// node: the walk steps down each star-only chain to the first node that
// tests something, as the compiled kernel, which holds no such chains,
// does. It lists children in the kernel's order.
struct PstWalk {
  using Pos = Pst::NodeId;
  static constexpr bool kLocal = false;
  const Pst& tree;
  const Event& event;
  bool skip_star_chains;  // trivial-test elimination
  bool delayed_star;

  [[nodiscard]] Pos root() const { return skip(tree.root()); }
  [[nodiscard]] std::size_t row(Pos pos) const { return static_cast<std::size_t>(pos); }
  [[nodiscard]] bool is_leaf(Pos pos) const { return tree.is_leaf(pos); }
  template <class Visit>
  void for_each_child(Pos pos, Visit&& visit) const {
    const Value& v = event.value(tree.order()[static_cast<std::size_t>(tree.level(pos))]);
    const Pos star = tree.star_child(pos);
    if (!delayed_star && star != Pst::kNoNode) visit(skip(star));
    for (const auto& [test, child] : tree.other_children(pos)) {
      if (test.accepts(v)) visit(skip(child));
    }
    const auto eq = tree.eq_children(pos);
    const auto it = std::lower_bound(
        eq.begin(), eq.end(), v,
        [](const auto& entry, const Value& key) { return entry.first < key; });
    if (it != eq.end() && it->first == v) visit(skip(it->second));
    if (delayed_star && star != Pst::kNoNode) visit(skip(star));
  }
  // A star-only node's row equals its star child's, so the chain refines
  // nothing and performs no test.
  [[nodiscard]] Pos skip(Pos node) const {
    if (!skip_star_chains) return node;
    while (!tree.is_leaf(node) && tree.eq_children(node).empty() &&
           tree.other_children(node).empty() && tree.star_child(node) != Pst::kNoNode) {
      node = tree.star_child(node);
    }
    return node;
  }
};

}  // namespace

std::uint64_t link_match(const AnnotatedPst& annotated, const Event& event,
                         PackedTrits initialization_mask, MatchScratch& scratch,
                         MutablePackedTrits out_mask) {
  detail::start_masks("link_match", annotated.link_count(), initialization_mask, out_mask);
  if (!annotated.in_sync()) {
    throw std::logic_error("link_match: annotation is stale (missed tree mutation)");
  }
  // No Maybe: nothing downstream could ever match; the mask is already final.
  if (!packed::has_maybe(out_mask.data(), annotated.words())) return 0;
  const Pst& tree = annotated.tree();
  return detail::run_search(
      annotated,
      PstWalk{tree, event, tree.options().trivial_test_elimination, tree.options().delayed_star},
      LinkIndex{}, scratch, nullptr, out_mask);
}

}  // namespace gryphon
