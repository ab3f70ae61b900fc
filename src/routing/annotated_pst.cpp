#include "routing/annotated_pst.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace gryphon {

AnnotatedPst::AnnotatedPst(const Pst& tree, std::size_t link_count, SubscriptionLinkFn link_of)
    : AnnotatedPst(tree, link_count, std::move(link_of), Deferred{}) {
  rebuild();
}

AnnotatedPst::AnnotatedPst(const Pst& tree, std::size_t link_count, SubscriptionLinkFn link_of,
                           Deferred)
    : tree_(&tree), link_count_(link_count), link_of_(std::move(link_of)) {
  if (!link_of_) throw std::invalid_argument("AnnotatedPst: null link function");
  if (link_count_ == 0) throw std::invalid_argument("AnnotatedPst: zero links");
}

std::vector<AnnotatedPst> AnnotatedPst::build_all(const Pst& tree,
                                                  std::span<const LinkMap> maps) {
  std::vector<AnnotatedPst> out;
  out.reserve(maps.size());
  for (const LinkMap& map : maps) {
    out.push_back(AnnotatedPst(tree, map.link_count, map.link_of, Deferred{}));
  }
  rebuild_all(tree, out);
  return out;
}

MutableTritSpan AnnotatedPst::row(Pst::NodeId node) {
  return MutableTritSpan(flat_.data() + static_cast<std::size_t>(node) * link_count_,
                         link_count_);
}

void AnnotatedPst::compute_into(Pst::NodeId node, MutableTritSpan out,
                                bool covers_domain) const {
  if (tree_->is_leaf(node)) {
    std::fill(out.begin(), out.end(), Trit::No);
    for (const SubscriptionId sub : tree_->subscribers(node)) {
      const LinkIndex link = link_of_(sub);
      if (!link.valid() || static_cast<std::size_t>(link.value) >= link_count_) {
        throw std::logic_error("AnnotatedPst: subscription resolved to a bad link");
      }
      out[static_cast<std::size_t>(link.value)] = Trit::Yes;
    }
    return;
  }

  // Alternative-combine the non-star branches, including the implicit
  // all-No alternative for event values with no branch. The implicit
  // alternative is skippable only when the equality branches cover the
  // attribute's whole finite domain and no general (range / not-equals)
  // branches exist.
  //
  // The paper restricts annotation to equality-only trees (Section 3.1) and
  // defers the general case to a "parallel search graph". The treatment
  // here is the sound conservative generalization: general branches join
  // the Alternative combine, and because they force the implicit all-No
  // alternative, the merge can only produce Maybe or No for them — a Yes
  // can then only arise from the `*` branch's Parallel combine. Overlapping
  // branches firing simultaneously never break soundness: Yes still means
  // "some subscriber on this link must match", No still means "none can".
  bool first = true;
  if (!covers_domain) {
    std::fill(out.begin(), out.end(), Trit::No);
    first = false;
  }
  const auto fold = [&](Pst::NodeId child) {
    const TritSpan child_row = annotation(child);
    if (first) {
      std::copy(child_row.begin(), child_row.end(), out.begin());
      first = false;
    } else {
      alternative_with(out, child_row);
    }
  };
  for (const auto& [value, child] : tree_->eq_children(node)) {
    (void)value;
    fold(child);
  }
  for (const auto& [test, child] : tree_->other_children(node)) {
    (void)test;
    fold(child);
  }
  if (first) std::fill(out.begin(), out.end(), Trit::No);  // no branches at all

  const Pst::NodeId star = tree_->star_child(node);
  if (star != Pst::kNoNode) parallel_with(out, annotation(star));
}

void AnnotatedPst::ensure_capacity() {
  if (tree_->node_slot_count() * link_count_ > flat_.size()) {
    flat_.resize(tree_->node_slot_count() * link_count_, Trit::No);
  }
}

void AnnotatedPst::rebuild() { rebuild_all(*tree_, std::span<AnnotatedPst>(this, 1)); }

void AnnotatedPst::rebuild_all(const Pst& tree, std::span<AnnotatedPst> annotations) {
  // One forward pass over a children-before-parents order (the reverse of
  // a preorder), each row computed in place from its children's final rows.
  std::vector<Pst::NodeId> stack{tree.root()};
  std::vector<Pst::NodeId> preorder;
  preorder.reserve(tree.live_node_count());
  while (!stack.empty()) {
    const Pst::NodeId n = stack.back();
    stack.pop_back();
    preorder.push_back(n);
    if (tree.is_leaf(n)) continue;
    for (const auto& [value, child] : tree.eq_children(n)) {
      (void)value;
      stack.push_back(child);
    }
    for (const auto& [test, child] : tree.other_children(n)) {
      (void)test;
      stack.push_back(child);
    }
    if (tree.star_child(n) != Pst::kNoNode) stack.push_back(tree.star_child(n));
  }
  for (AnnotatedPst& a : annotations) {
    a.flat_.assign(tree.node_slot_count() * a.link_count_, Trit::No);
  }
  for (auto it = preorder.rbegin(); it != preorder.rend(); ++it) {
    const bool covers = tree.eq_children_cover_domain(*it);
    for (AnnotatedPst& a : annotations) a.compute_into(*it, a.row(*it), covers);
  }
  for (AnnotatedPst& a : annotations) a.epoch_ = tree.epoch();
}

void AnnotatedPst::recompute_spine(Pst::NodeId from) {
  std::vector<Trit> fresh(link_count_);
  Pst::NodeId node = from;
  while (node != Pst::kNoNode) {
    compute_into(node, fresh, tree_->eq_children_cover_domain(node));
    const TritSpan stored = annotation(node);
    if (std::equal(fresh.begin(), fresh.end(), stored.begin())) break;  // no change upward
    std::copy(fresh.begin(), fresh.end(), row(node).begin());
    node = tree_->parent(node);
  }
  epoch_ = tree_->epoch();
}

void AnnotatedPst::apply(const Pst::Mutation& mutation) {
  ensure_capacity();
  // Zero pruned rows so a later arena reuse of the slot can never alias a
  // stale annotation. With that guarantee, a node whose freshly computed
  // row equals its stored row is genuinely unchanged (a node's row always
  // contains a Yes or Maybe once any subscriber is reachable below it, so
  // an all-No fresh slot can't accidentally match), and the early exit of
  // recompute_spine is sound.
  for (const Pst::NodeId freed : mutation.freed) {
    const MutableTritSpan r = row(freed);
    std::fill(r.begin(), r.end(), Trit::No);
  }
  const Pst::NodeId start = mutation.leaf != Pst::kNoNode ? mutation.leaf : mutation.start;
  if (start == Pst::kNoNode) {
    epoch_ = tree_->epoch();
    return;
  }
  recompute_spine(start);
}

void AnnotatedPst::check_consistency() const {
  AnnotatedPst fresh(*tree_, link_count_, link_of_);
  std::vector<Pst::NodeId> stack{tree_->root()};
  while (!stack.empty()) {
    const Pst::NodeId n = stack.back();
    stack.pop_back();
    const TritSpan have = annotation(n);
    const TritSpan want = fresh.annotation(n);
    if (!std::equal(have.begin(), have.end(), want.begin(), want.end())) {
      std::string have_s, want_s;
      for (const Trit t : have) have_s.push_back(to_char(t));
      for (const Trit t : want) want_s.push_back(to_char(t));
      throw std::logic_error("AnnotatedPst: incremental annotation diverged at node " +
                             std::to_string(n) + " (have " + have_s + ", want " + want_s + ")");
    }
    if (tree_->is_leaf(n)) continue;
    for (const auto& [value, child] : tree_->eq_children(n)) {
      (void)value;
      stack.push_back(child);
    }
    for (const auto& [test, child] : tree_->other_children(n)) {
      (void)test;
      stack.push_back(child);
    }
    if (tree_->star_child(n) != Pst::kNoNode) stack.push_back(tree_->star_child(n));
  }
}

}  // namespace gryphon
