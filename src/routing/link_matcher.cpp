#include "routing/link_matcher.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace gryphon {

namespace {

class Search {
 public:
  Search(const AnnotatedPst& annotated, const Event& event)
      : annotated_(annotated),
        tree_(annotated.tree()),
        event_(event),
        tte_(tree_.options().trivial_test_elimination),
        delayed_star_(tree_.options().delayed_star),
        width_(annotated.link_count()),
        level_masks_((tree_.level_count() + 1) * width_) {}

  /// Refines `mask` in place. A subsearch from recursion depth d works on
  /// the d-th row of one per-search buffer, so a search allocates once,
  /// not once per subsearch.
  void run(Pst::NodeId node, MutableTritSpan mask, std::size_t depth) {
    // Trivial-test elimination: a star-only node's annotation equals its
    // star child's, so the chain refines nothing and performs no test.
    if (tte_) {
      while (!tree_.is_leaf(node) && is_star_only(node)) node = tree_.star_child(node);
    }
    ++steps_;

    // Step 2: refinement against this node's annotation.
    refine_with(mask, annotated_.annotation(node));
    if (!has_maybe(mask)) return;

    if (tree_.is_leaf(node)) {
      // A leaf annotation holds only Yes/No, so refinement above cannot
      // leave a Maybe; defensive for robustness.
      maybes_to_no(mask);
      return;
    }

    // Step 3: perform the test, subsearch each selected child.
    const std::size_t attr = tree_.order()[static_cast<std::size_t>(tree_.level(node))];
    const Value& v = event_.value(attr);

    const auto subsearch = [&](Pst::NodeId child) {
      const MutableTritSpan child_mask(level_masks_.data() + depth * width_, width_);
      std::copy(mask.begin(), mask.end(), child_mask.begin());
      run(child, child_mask, depth + 1);
      promote_yes_from(mask, child_mask);
    };

    const Pst::NodeId star = tree_.star_child(node);
    if (!delayed_star_ && star != Pst::kNoNode) subsearch(star);

    if (has_maybe(mask)) {
      for (const auto& [test, child] : tree_.other_children(node)) {
        if (test.accepts(v)) {
          subsearch(child);
          if (!has_maybe(mask)) break;
        }
      }
    }
    if (has_maybe(mask)) {
      const auto eq = tree_.eq_children(node);
      const auto it = std::lower_bound(
          eq.begin(), eq.end(), v,
          [](const auto& entry, const Value& key) { return entry.first < key; });
      if (it != eq.end() && it->first == v) subsearch(it->second);
    }
    if (delayed_star_ && star != Pst::kNoNode && has_maybe(mask)) subsearch(star);

    maybes_to_no(mask);
  }

  [[nodiscard]] std::uint64_t steps() const { return steps_; }

 private:
  [[nodiscard]] bool is_star_only(Pst::NodeId node) const {
    return tree_.eq_children(node).empty() && tree_.other_children(node).empty() &&
           tree_.star_child(node) != Pst::kNoNode;
  }

  const AnnotatedPst& annotated_;
  const Pst& tree_;
  const Event& event_;
  bool tte_;
  bool delayed_star_;
  std::size_t width_;
  std::vector<Trit> level_masks_;  // one row per recursion depth
  std::uint64_t steps_{0};
};

}  // namespace

LinkMatchResult link_match(const AnnotatedPst& annotated, const Event& event,
                           const TritVector& initialization_mask) {
  if (initialization_mask.size() != annotated.link_count()) {
    throw std::invalid_argument("link_match: mask width != link count");
  }
  if (!annotated.in_sync()) {
    throw std::logic_error("link_match: annotation is stale (missed tree mutation)");
  }
  LinkMatchResult result;
  if (!initialization_mask.has_maybe()) {
    // Nothing downstream could ever match; the mask is already final.
    result.mask = initialization_mask;
    return result;
  }
  Search search(annotated, event);
  result.mask = initialization_mask;
  search.run(annotated.tree().root(), result.mask.mutable_span(), 0);
  result.steps = search.steps();
  return result;
}

}  // namespace gryphon
