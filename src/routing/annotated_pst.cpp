#include "routing/annotated_pst.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace gryphon {

namespace {

// The tree's live nodes, every node after its children: the reverse of a
// preorder.
std::vector<Pst::NodeId> children_first_order(const Pst& tree) {
  std::vector<Pst::NodeId> stack{tree.root()};
  std::vector<Pst::NodeId> order;
  order.reserve(tree.live_node_count());
  while (!stack.empty()) {
    const Pst::NodeId n = stack.back();
    stack.pop_back();
    order.push_back(n);
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
  std::reverse(order.begin(), order.end());
  return order;
}

}  // namespace

AnnotatedPst::AnnotatedPst(const Pst& tree, std::size_t link_count, SubscriptionLinkFn link_of)
    : AnnotatedPst(tree, link_count, std::move(link_of), Deferred{}) {
  rebuild();
}

AnnotatedPst::AnnotatedPst(const Pst& tree, std::size_t link_count, SubscriptionLinkFn link_of,
                           Deferred)
    : tree_(&tree),
      link_count_(link_count),
      link_of_(std::move(link_of)),
      rows_(plane_arena(link_count)) {
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
  const std::vector<Pst::NodeId> order = children_first_order(tree);
  for (AnnotatedPst& annotated : out) annotated.rebuild_rows(order);
  return out;
}

template <class Plane>
void AnnotatedPst::compute_into(Pst::NodeId node, Plane* out) const {
  const std::size_t words = row_plane_words<Plane>(this->words());
  const Plane* const rows = planes<Plane>();
  const auto row_of = [&](Pst::NodeId n) { return rows + static_cast<std::size_t>(n) * 2 * words; };
  if (tree_->is_leaf(node)) {
    packed::fold_leaf(out, words, link_count_, [&](auto&& set) {
      for (const SubscriptionId sub : tree_->subscribers(node)) set(link_of_(sub));
    });
    return;
  }
  const Pst::NodeId star = tree_->star_child(node);
  packed::fold_interior(
      out, words, tree_->eq_children_cover_domain(node),
      [&](auto&& fold) {
        for (const auto& [value, child] : tree_->eq_children(node)) {
          (void)value;
          fold(row_of(child));
        }
        for (const auto& [test, child] : tree_->other_children(node)) {
          (void)test;
          fold(row_of(child));
        }
      },
      star == Pst::kNoNode ? nullptr : row_of(star));
}

void AnnotatedPst::rebuild() { rebuild_rows(children_first_order(*tree_)); }

void AnnotatedPst::rebuild_rows(std::span<const Pst::NodeId> children_first) {
  std::visit(
      [&](auto& rows) {
        using Plane = typename std::decay_t<decltype(rows)>::value_type;
        const std::size_t row_words = 2 * row_plane_words<Plane>(words());
        rows.assign(tree_->node_slot_count() * row_words, Plane{0});
        // Each row computed in place from its children's final rows.
        for (const Pst::NodeId n : children_first) {
          compute_into(n, rows.data() + static_cast<std::size_t>(n) * row_words);
        }
      },
      rows_);
  epoch_ = tree_->epoch();
}

template <class Plane>
void AnnotatedPst::recompute_spine(std::vector<Plane>& rows, Pst::NodeId from) {
  const std::size_t row_words = 2 * row_plane_words<Plane>(words());
  std::vector<Plane> fresh(row_words);
  for (Pst::NodeId node = from; node != Pst::kNoNode; node = tree_->parent(node)) {
    compute_into(node, fresh.data());
    Plane* const stored = rows.data() + static_cast<std::size_t>(node) * row_words;
    if (std::equal(fresh.begin(), fresh.end(), stored)) break;  // no change upward
    std::copy(fresh.begin(), fresh.end(), stored);
  }
}

void AnnotatedPst::apply(const Pst::Mutation& mutation) {
  std::visit(
      [&](auto& rows) {
        using Plane = typename std::decay_t<decltype(rows)>::value_type;
        const std::size_t row_words = 2 * row_plane_words<Plane>(words());
        if (tree_->node_slot_count() * row_words > rows.size()) {
          rows.resize(tree_->node_slot_count() * row_words, Plane{0});
        }
        // Zero pruned rows so a later arena reuse of the slot can never
        // alias a stale annotation. With that guarantee, a node whose
        // freshly computed row equals its stored row is genuinely unchanged
        // (a node's row always contains a Yes or Maybe once any subscriber
        // is reachable below it, so an all-No fresh slot can't accidentally
        // match), and the early exit of recompute_spine is sound.
        for (const Pst::NodeId freed : mutation.freed) {
          std::fill_n(rows.data() + static_cast<std::size_t>(freed) * row_words, row_words,
                      Plane{0});
        }
        const Pst::NodeId start = mutation.leaf != Pst::kNoNode ? mutation.leaf : mutation.start;
        if (start != Pst::kNoNode) recompute_spine(rows, start);
      },
      rows_);
  epoch_ = tree_->epoch();
}

std::vector<TritWord> AnnotatedPst::annotation(Pst::NodeId node) const {
  const std::size_t words = this->words();
  std::vector<TritWord> out(2 * words);
  std::visit(
      [&](const auto& rows) {
        using Plane = typename std::decay_t<decltype(rows)>::value_type;
        const std::size_t row_words = row_plane_words<Plane>(words);
        const Plane* const row = rows.data() + static_cast<std::size_t>(node) * 2 * row_words;
        for (std::size_t w = 0; w < row_words; ++w) {
          out[w] = row[w];
          out[words + w] = row[row_words + w];
        }
      },
      rows_);
  return out;
}

std::size_t AnnotatedPst::memory_bytes() const {
  return sizeof(*this) +
         std::visit([](const auto& rows) { return rows.capacity() * sizeof(rows.front()); },
                    rows_);
}

void AnnotatedPst::check_consistency() const {
  const AnnotatedPst fresh(*tree_, link_count_, link_of_);
  for (const Pst::NodeId n : children_first_order(*tree_)) {
    if (annotation(n) != fresh.annotation(n)) {
      throw std::logic_error("AnnotatedPst: incremental annotation diverged at node " +
                             std::to_string(n));
    }
  }
}

}  // namespace gryphon
