#include "matching/compiled_pst.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "event/event.h"

namespace gryphon {
namespace {

// Order-preserving lowerings into u64. Every node's equality branch set is
// monotyped (Subscription construction validates operand types against the
// schema), so keys of different encodings are never compared.
std::uint64_t encode_int(std::int64_t v) {
  return static_cast<std::uint64_t>(v) ^ (std::uint64_t{1} << 63);
}

std::uint64_t encode_double(double v) {
  if (v == 0.0) v = 0.0;  // collapse -0.0 onto +0.0 (Value treats them equal)
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  // Flip all bits of negatives, just the sign bit of non-negatives: total
  // order matching double comparison for every non-NaN value.
  return (bits & (std::uint64_t{1} << 63)) != 0 ? ~bits : (bits | (std::uint64_t{1} << 63));
}

std::uint64_t encode_bool(bool v) { return v ? 1 : 0; }

}  // namespace

CompiledPst::CompiledPst(const Pst& tree)
    : schema_(tree.schema()),
      order_(tree.order()),
      delayed_star_(tree.options().delayed_star),
      subscription_count_(tree.subscription_count()) {
  level_types_.reserve(order_.size());
  for (const std::size_t attr : order_) level_types_.push_back(schema_->attribute(attr).type);

  if (subscription_count_ == 0) return;

  // Pass 1 (string-typed levels only): intern every string equality
  // operand. Ids are assigned in lexicographic order so the key transform
  // is monotone and each node's Value-sorted equality slice stays sorted
  // by key.
  if (std::find(level_types_.begin(), level_types_.end(), AttributeType::kString) !=
      level_types_.end()) {
    std::vector<const std::string*> strings;
    std::vector<Pst::NodeId> stack{tree.root()};
    while (!stack.empty()) {
      const Pst::NodeId n = stack.back();
      stack.pop_back();
      if (tree.is_leaf(n)) continue;
      for (const auto& [value, child] : tree.eq_children(n)) {
        if (value.is_string()) strings.push_back(&value.as_string());
        stack.push_back(child);
      }
      for (const auto& [test, child] : tree.other_children(n)) stack.push_back(child);
      if (tree.star_child(n) != Pst::kNoNode) stack.push_back(tree.star_child(n));
    }
    std::sort(strings.begin(), strings.end(),
              [](const std::string* a, const std::string* b) { return *a < *b; });
    strings.erase(std::unique(strings.begin(), strings.end(),
                              [](const std::string* a, const std::string* b) { return *a == *b; }),
                  strings.end());
    pool_.reserve(strings.size());
    for (std::size_t i = 0; i < strings.size(); ++i) pool_.emplace(*strings[i], i);
  }

  // Pass 2: one DFS (equality, general, then `*` branches) assigns ids in
  // first-visit order and appends each node to bottom_up_ once its
  // children are done. Star-only chains are skipped: the parent's edge
  // points straight at the first node that tests anything. Branch and leaf
  // slices are appended after a node's children return, so each slice is
  // contiguous in its arena. Recursion depth is bounded by the level count.
  nodes_.reserve(tree.live_node_count());
  bottom_up_.reserve(tree.live_node_count());
  subtree_end_.reserve(tree.live_node_count());
  subs_.reserve(subscription_count_);
  std::vector<NodeId> pending;
  std::vector<std::pair<std::uint64_t, NodeId>> eq;
  const auto convert = [&](const auto& self, Pst::NodeId n) -> NodeId {
    while (!tree.is_leaf(n) && tree.eq_children(n).empty() && tree.other_children(n).empty() &&
           tree.star_child(n) != Pst::kNoNode) {
      n = tree.star_child(n);
    }
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.emplace_back();
    subtree_end_.emplace_back();
    nodes_[static_cast<std::size_t>(id)].level = static_cast<std::uint16_t>(tree.level(n));

    if (tree.is_leaf(n)) {
      const auto subs = tree.subscribers(n);
      Node& node = nodes_[static_cast<std::size_t>(id)];
      node.flags = kLeafFlag;
      node.subs_begin = static_cast<std::uint32_t>(subs_.size());
      node.subs_count = static_cast<std::uint32_t>(subs.size());
      subs_.insert(subs_.end(), subs.begin(), subs.end());
      std::sort(subs_.begin() + node.subs_begin, subs_.end());
      bottom_up_.push_back(id);
      subtree_end_[static_cast<std::size_t>(id)] = static_cast<NodeId>(nodes_.size());
      return id;
    }

    // Children first (their arena slices land before this node's). Child
    // ids wait on the shared `pending` stack; deeper frames leave it as
    // they found it.
    const std::size_t first_child = pending.size();
    for (const auto& [value, child] : tree.eq_children(n)) {
      const NodeId c = self(self, child);
      pending.push_back(c);
    }
    for (const auto& [test, child] : tree.other_children(n)) {
      const NodeId c = self(self, child);
      pending.push_back(c);
    }
    const NodeId star =
        tree.star_child(n) != Pst::kNoNode ? self(self, tree.star_child(n)) : kNoNode;

    // Monotone encodings keep the Value-sorted input key-sorted already;
    // sort anyway so the binary-search invariant never depends on it.
    const auto eq_children = tree.eq_children(n);
    eq.clear();
    for (std::size_t i = 0; i < eq_children.size(); ++i) {
      eq.emplace_back(key_of(eq_children[i].first), pending[first_child + i]);
    }
    std::sort(eq.begin(), eq.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    Node& node = nodes_[static_cast<std::size_t>(id)];
    node.star = star;
    if (tree.eq_children_cover_domain(n)) node.flags |= kCoversDomainFlag;
    node.eq_begin = static_cast<std::uint32_t>(eq_keys_.size());
    node.eq_count = static_cast<std::uint32_t>(eq.size());
    for (const auto& [key, child] : eq) {
      eq_keys_.push_back(key);
      eq_targets_.push_back(child);
    }
    node.other_begin = static_cast<std::uint32_t>(other_tests_.size());
    node.other_count = static_cast<std::uint32_t>(tree.other_children(n).size());
    std::size_t next = first_child + eq_children.size();
    for (const auto& [test, child] : tree.other_children(n)) {
      other_tests_.push_back(test);
      other_targets_.push_back(pending[next++]);
    }
    pending.resize(first_child);
    bottom_up_.push_back(id);
    subtree_end_[static_cast<std::size_t>(id)] = static_cast<NodeId>(nodes_.size());
    return id;
  };
  root_ = convert(convert, tree.root());
  nodes_.shrink_to_fit();
  bottom_up_.shrink_to_fit();
  subtree_end_.shrink_to_fit();
}

std::uint64_t CompiledPst::key_of(const Value& v) const {
  if (v.is_int()) return encode_int(v.as_int());
  if (v.is_double()) return encode_double(v.as_double());
  if (v.is_bool()) return encode_bool(v.as_bool());
  if (v.is_string()) {
    const auto it = pool_.find(v.as_string());
    return it != pool_.end() ? it->second : kUnknownKey;
  }
  return kUnknownKey;  // unset
}

void CompiledPst::resolve(const Event& event, std::vector<std::uint64_t>& keys) const {
  // gryphon-analyze: allow(alloc): the key buffer grows to the deepest
  // level order seen, then every later resolve reuses it.
  keys.resize(order_.size());
  for (std::size_t d = 0; d < order_.size(); ++d) {
    const Value& v = event.value(order_[d]);
    switch (level_types_[d]) {
      case AttributeType::kInt:
        keys[d] = encode_int(v.as_int());
        break;
      case AttributeType::kDouble:
        keys[d] = encode_double(v.as_double());
        break;
      case AttributeType::kBool:
        keys[d] = encode_bool(v.as_bool());
        break;
      case AttributeType::kString: {
        const auto it = pool_.find(v.as_string());
        keys[d] = it != pool_.end() ? it->second : kUnknownKey;
        break;
      }
    }
  }
}

CompiledPst::NodeId CompiledPst::eq_child(const Node& node, std::uint64_t key) const {
  const std::uint64_t* keys = eq_keys_.data() + node.eq_begin;
  const NodeId* targets = eq_targets_.data() + node.eq_begin;
  const std::uint32_t n = node.eq_count;
  if (n <= kLinearScanMax) {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (keys[i] == key) return targets[i];
    }
    return kNoNode;
  }
  // Branchless binary search: `base` advances by conditional move only.
  std::size_t base = 0;
  std::size_t len = n;
  while (len > 1) {
    const std::size_t half = len / 2;
    base += (keys[base + half - 1] < key) ? half : 0;
    len -= half;
  }
  return keys[base] == key ? targets[base] : kNoNode;
}

void CompiledPst::match(const Event& event, std::vector<SubscriptionId>& out,
                        MatchScratch& scratch, MatchStats* stats) const {
  if (subscription_count_ == 0 || root_ == kNoNode) return;
  resolve(event, scratch.value_keys());
  const std::uint64_t* keys = scratch.value_keys().data();

  std::vector<std::int32_t>& stack = scratch.node_stack();
  stack.clear();
  stack.push_back(root_);
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    // The kernel is a tree: every node is reached at most once, so the
    // walk needs no visited marks.
    if (stats != nullptr) ++stats->nodes_visited;

    const Node& node = nodes_[static_cast<std::size_t>(n)];
    if ((node.flags & kLeafFlag) != 0) {
      out.insert(out.end(), subs_.begin() + node.subs_begin,
                 subs_.begin() + node.subs_begin + node.subs_count);
      continue;
    }
    if (delayed_star_ && node.star != kNoNode) stack.push_back(node.star);
    if (node.other_count != 0) {
      const Value& v = event.value(order_[node.level]);
      for (std::uint32_t i = 0; i < node.other_count; ++i) {
        if (stats != nullptr) ++stats->tests_evaluated;
        if (other_tests_[node.other_begin + i].accepts(v)) {
          stack.push_back(other_targets_[node.other_begin + i]);
        }
      }
    }
    if (node.eq_count != 0) {
      if (stats != nullptr) ++stats->tests_evaluated;
      const NodeId child = eq_child(node, keys[node.level]);
      if (child != kNoNode) stack.push_back(child);
    }
    if (!delayed_star_ && node.star != kNoNode) stack.push_back(node.star);
  }
}

void CompiledPst::reach(const Event& event, EventReach& out, MatchScratch& scratch) const {
  out.entries.clear();
  if (subscription_count_ == 0 || root_ == kNoNode) return;
  resolve(event, scratch.value_keys());
  const std::uint64_t* keys = scratch.value_keys().data();
  // Recursion depth is bounded by the level count.
  const auto visit = [&](const auto& self, NodeId n) -> void {
    const std::size_t at = out.entries.size();
    out.entries.push_back({n, 0});
    if (!is_leaf(n)) {
      for_each_reached_child(n, event, keys, [&](NodeId child) { self(self, child); });
    }
    out.entries[at].end = static_cast<std::uint32_t>(out.entries.size());
  };
  visit(visit, root_);
}

std::size_t CompiledPst::memory_bytes() const {
  std::size_t total = sizeof(*this);
  total += nodes_.capacity() * sizeof(Node);
  total += eq_keys_.capacity() * sizeof(std::uint64_t);
  total += eq_targets_.capacity() * sizeof(NodeId);
  total += other_tests_.capacity() * sizeof(AttributeTest);
  for (const AttributeTest& test : other_tests_) total += test.heap_bytes();
  total += other_targets_.capacity() * sizeof(NodeId);
  total += subs_.capacity() * sizeof(SubscriptionId);
  total += bottom_up_.capacity() * sizeof(NodeId);
  total += subtree_end_.capacity() * sizeof(NodeId);
  for (const auto& [str, id] : pool_) {
    total += sizeof(std::pair<const std::string, std::uint64_t>) + str.capacity();
  }
  return total;
}

}  // namespace gryphon
