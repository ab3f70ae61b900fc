#include "matching/pst.h"

#include <algorithm>
#include <stdexcept>

namespace gryphon {

Pst::Pst(SchemaPtr schema, std::vector<std::size_t> order, Options options)
    : schema_(std::move(schema)), order_(std::move(order)), options_(options) {
  if (!schema_) throw std::invalid_argument("Pst: null schema");
  std::vector<bool> seen(schema_->attribute_count(), false);
  for (const std::size_t attr : order_) {
    if (attr >= schema_->attribute_count()) throw std::invalid_argument("Pst: bad order index");
    if (seen[attr]) throw std::invalid_argument("Pst: repeated attribute in order");
    seen[attr] = true;
  }
  root_ = new_node(kNoNode, 0);
}

Pst::NodeId Pst::new_node(NodeId parent, int level) {
  NodeId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    nodes_[id] = Node{};
  } else {
    id = static_cast<NodeId>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[id].parent = parent;
  nodes_[id].level = level;
  ++live_nodes_;
  return id;
}

void Pst::free_node(NodeId n) {
  nodes_[n] = Node{};
  nodes_[n].parent = kNoNode;
  free_list_.push_back(n);
  --live_nodes_;
}

Pst::NodeId Pst::find_eq_child(NodeId n, const Value& v) const {
  const auto& eq = nodes_[n].eq;
  const auto it = std::lower_bound(eq.begin(), eq.end(), v,
                                   [](const auto& entry, const Value& key) {
                                     return entry.first < key;
                                   });
  if (it != eq.end() && it->first == v) return it->second;
  return kNoNode;
}

bool Pst::eq_children_cover_domain(NodeId n) const {
  const Node& node = nodes_[n];
  if (!node.other.empty()) return false;
  if (is_leaf(n)) return false;
  const Attribute& attr = schema_->attribute(order_[static_cast<std::size_t>(node.level)]);
  if (!attr.has_finite_domain()) return false;
  if (node.eq.size() != attr.domain.size()) return false;
  for (const Value& v : attr.domain) {
    if (find_eq_child(n, v) == kNoNode) return false;
  }
  return true;
}

Pst::Mutation Pst::add(SubscriptionId id, const Subscription& subscription) {
  if (subscription.schema()->attribute_count() != schema_->attribute_count()) {
    throw std::invalid_argument("Pst::add: subscription schema arity mismatch");
  }
  NodeId n = root_;
  for (std::size_t d = 0; d < order_.size(); ++d) {
    const AttributeTest& test = subscription.test(order_[d]);
    const int child_level = static_cast<int>(d) + 1;
    Node& node = nodes_[n];
    NodeId child = kNoNode;
    if (test.is_dont_care()) {
      if (node.star == kNoNode) {
        child = new_node(n, child_level);
        nodes_[n].star = child;  // (new_node may reallocate nodes_)
      } else {
        child = node.star;
      }
    } else if (test.kind() == TestKind::kEquals) {
      child = find_eq_child(n, test.operand());
      if (child == kNoNode) {
        child = new_node(n, child_level);
        auto& eq = nodes_[n].eq;
        const auto it = std::lower_bound(eq.begin(), eq.end(), test.operand(),
                                         [](const auto& entry, const Value& key) {
                                           return entry.first < key;
                                         });
        eq.insert(it, {test.operand(), child});
      }
    } else {
      for (const auto& [branch_test, branch_child] : node.other) {
        if (branch_test == test) {
          child = branch_child;
          break;
        }
      }
      if (child == kNoNode) {
        child = new_node(n, child_level);
        nodes_[n].other.emplace_back(test, child);
      }
    }
    n = child;
  }
  auto& subs = nodes_[n].subs;
  if (std::find(subs.begin(), subs.end(), id) != subs.end()) {
    throw std::invalid_argument("Pst::add: duplicate subscription id at leaf");
  }
  subs.push_back(id);
  ++subscription_count_;
  ++epoch_;
  return Mutation{n, n, {}};
}

std::optional<Pst::Mutation> Pst::remove(SubscriptionId id, const Subscription& subscription) {
  NodeId n = root_;
  for (std::size_t d = 0; d < order_.size(); ++d) {
    const AttributeTest& test = subscription.test(order_[d]);
    const Node& node = nodes_[n];
    NodeId child = kNoNode;
    if (test.is_dont_care()) {
      child = node.star;
    } else if (test.kind() == TestKind::kEquals) {
      child = find_eq_child(n, test.operand());
    } else {
      for (const auto& [branch_test, branch_child] : node.other) {
        if (branch_test == test) {
          child = branch_child;
          break;
        }
      }
    }
    if (child == kNoNode) return std::nullopt;
    n = child;
  }
  auto& subs = nodes_[n].subs;
  const auto it = std::find(subs.begin(), subs.end(), id);
  if (it == subs.end()) return std::nullopt;
  subs.erase(it);
  --subscription_count_;
  ++epoch_;

  Mutation result;
  result.leaf = n;
  // Prune the now-useless tail of the path.
  while (n != root_ && nodes_[n].childless() && nodes_[n].subs.empty()) {
    const NodeId parent_id = nodes_[n].parent;
    detach_child(parent_id, n);
    free_node(n);
    result.freed.push_back(n);
    if (result.leaf == n) result.leaf = kNoNode;
    n = parent_id;
  }
  result.start = n;
  return result;
}

void Pst::detach_child(NodeId parent_id, NodeId child_id) {
  Node& parent = nodes_[parent_id];
  if (parent.star == child_id) {
    parent.star = kNoNode;
    return;
  }
  for (auto it = parent.eq.begin(); it != parent.eq.end(); ++it) {
    if (it->second == child_id) {
      parent.eq.erase(it);
      return;
    }
  }
  for (auto it = parent.other.begin(); it != parent.other.end(); ++it) {
    if (it->second == child_id) {
      parent.other.erase(it);
      return;
    }
  }
  throw std::logic_error("Pst::detach_child: child not found under parent");
}

void Pst::match(const Event& event, std::vector<SubscriptionId>& out, MatchStats* stats) const {
  if (subscription_count_ == 0) return;
  std::vector<NodeId> stack;
  stack.reserve(16);
  stack.push_back(root_);
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    // Trivial-test elimination: star-only chains perform no test.
    if (options_.trivial_test_elimination) {
      while (!is_leaf(n) && nodes_[n].star_only()) n = nodes_[n].star;
    }
    if (stats != nullptr) ++stats->nodes_visited;
    const Node& node = nodes_[n];
    if (is_leaf(n)) {
      out.insert(out.end(), node.subs.begin(), node.subs.end());
      continue;
    }
    const Value& v = event.value(order_[static_cast<std::size_t>(node.level)]);
    // Push the star branch first so non-star branches pop (run) before it —
    // the "delayed branching" exploration order of Section 2.1.
    if (options_.delayed_star && node.star != kNoNode) stack.push_back(node.star);
    for (const auto& [test, child] : node.other) {
      if (stats != nullptr) ++stats->tests_evaluated;
      if (test.accepts(v)) stack.push_back(child);
    }
    if (!node.eq.empty()) {
      if (stats != nullptr) ++stats->tests_evaluated;
      const NodeId child = find_eq_child(n, v);
      if (child != kNoNode) stack.push_back(child);
    }
    if (!options_.delayed_star && node.star != kNoNode) stack.push_back(node.star);
  }
}

void Pst::check_invariants() const {
  std::vector<NodeId> stack{root_};
  std::size_t reached = 0;
  std::size_t subs_found = 0;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    ++reached;
    const Node& node = nodes_[n];
    if (n != root_ && node.parent == kNoNode) {
      throw std::logic_error("Pst invariant: non-root node without parent");
    }
    if (is_leaf(n)) {
      if (!node.eq.empty() || !node.other.empty() || node.star != kNoNode) {
        throw std::logic_error("Pst invariant: leaf with children");
      }
      subs_found += node.subs.size();
      continue;
    }
    if (!node.subs.empty()) throw std::logic_error("Pst invariant: interior node with subs");
    if (n != root_ && node.childless()) {
      throw std::logic_error("Pst invariant: childless interior node not pruned");
    }
    if (!std::is_sorted(node.eq.begin(), node.eq.end(),
                        [](const auto& a, const auto& b) { return a.first < b.first; })) {
      throw std::logic_error("Pst invariant: equality branches not sorted");
    }
    const auto check_child = [&](NodeId child) {
      if (nodes_[child].parent != n) {
        throw std::logic_error("Pst invariant: child parent pointer wrong");
      }
      if (nodes_[child].level != node.level + 1) {
        throw std::logic_error("Pst invariant: child level wrong");
      }
      stack.push_back(child);
    };
    for (const auto& [value, child] : node.eq) {
      (void)value;
      check_child(child);
    }
    for (const auto& [test, child] : node.other) {
      if (test.is_dont_care()) {
        throw std::logic_error("Pst invariant: don't-care test on non-star branch");
      }
      check_child(child);
    }
    if (node.star != kNoNode) check_child(node.star);
  }
  if (reached != live_nodes_) {
    throw std::logic_error("Pst invariant: live node count mismatch");
  }
  if (reached + free_list_.size() != nodes_.size()) {
    throw std::logic_error("Pst invariant: arena accounting mismatch");
  }
  if (subs_found != subscription_count_) {
    throw std::logic_error("Pst invariant: subscription count mismatch");
  }
}

std::size_t Pst::memory_bytes() const {
  std::size_t total = sizeof(*this) + nodes_.capacity() * sizeof(Node) +
                      free_list_.capacity() * sizeof(NodeId) +
                      order_.capacity() * sizeof(std::size_t);
  for (const Node& node : nodes_) {
    total += node.eq.capacity() * sizeof(node.eq.front());
    for (const auto& [value, child] : node.eq) total += value.heap_bytes();
    total += node.other.capacity() * sizeof(node.other.front());
    for (const auto& [test, child] : node.other) total += test.heap_bytes();
    total += node.subs.capacity() * sizeof(SubscriptionId);
  }
  return total;
}

}  // namespace gryphon
