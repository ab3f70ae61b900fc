#include "matching/pst_matcher.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "matching/attribute_order.h"

namespace gryphon {

FactoringIndex::FactoringIndex(SchemaPtr schema, std::vector<std::size_t> factored)
    : schema_(std::move(schema)), factored_(std::move(factored)) {
  if (!schema_) throw std::invalid_argument("FactoringIndex: null schema");
  for (const std::size_t attr : factored_) {
    if (attr >= schema_->attribute_count()) {
      throw std::invalid_argument("FactoringIndex: bad attribute index");
    }
    if (!schema_->attribute(attr).has_finite_domain()) {
      throw std::invalid_argument("FactoringIndex: factored attribute '" +
                                  schema_->attribute(attr).name +
                                  "' must declare a finite domain");
    }
  }
}

void FactoringIndex::event_key_into(const Event& event, Key& out) const {
  // gryphon-analyze: allow(alloc): the scratch key grows once per factoring
  // shape; element-wise assignment below reuses its capacity after that.
  out.resize(factored_.size());
  // Element-wise assignment: a string slot reuses its existing capacity,
  // so a warm scratch key allocates nothing.
  for (std::size_t i = 0; i < factored_.size(); ++i) out[i] = event.value(factored_[i]);
}

std::vector<FactoringIndex::Key> FactoringIndex::subscription_keys(
    const Subscription& subscription) const {
  std::vector<Key> keys{Key{}};
  for (const std::size_t attr : factored_) {
    const AttributeTest& test = subscription.test(attr);
    std::vector<Value> accepted;
    for (const Value& v : schema_->attribute(attr).domain) {
      if (test.accepts(v)) accepted.push_back(v);
    }
    std::vector<Key> extended;
    extended.reserve(keys.size() * accepted.size());
    for (const Key& prefix : keys) {
      for (const Value& v : accepted) {
        Key next = prefix;
        next.push_back(v);
        extended.push_back(std::move(next));
      }
    }
    keys = std::move(extended);
    if (keys.empty()) break;  // contradictory test: lives in no bucket
  }
  return keys;
}

PstMatcher::PstMatcher(SchemaPtr schema, PstMatcherOptions options)
    : schema_(std::move(schema)), options_(std::move(options)) {
  if (!schema_) throw std::invalid_argument("PstMatcher: null schema");
  if (options_.attribute_order.empty()) {
    options_.attribute_order = identity_order(schema_);
  }
  if (options_.attribute_order.size() != schema_->attribute_count()) {
    throw std::invalid_argument("PstMatcher: attribute order must cover the schema");
  }
  if (options_.factoring_levels > schema_->attribute_count()) {
    throw std::invalid_argument("PstMatcher: factoring_levels exceeds attribute count");
  }
  const auto& order = options_.attribute_order;
  if (options_.factoring_levels > 0) {
    std::vector<std::size_t> factored(order.begin(),
                                      order.begin() + static_cast<std::ptrdiff_t>(
                                                          options_.factoring_levels));
    factoring_ = std::make_unique<FactoringIndex>(schema_, std::move(factored));
    residual_order_.assign(order.begin() + static_cast<std::ptrdiff_t>(options_.factoring_levels),
                           order.end());
  } else {
    residual_order_ = order;
    single_ = make_tree();
  }
}

PstMatcher::Tree PstMatcher::make_tree() const {
  return Tree{std::make_unique<Pst>(schema_, residual_order_, options_.tree), nullptr};
}

const Subscription* PstMatcher::find_subscription(SubscriptionId id) const {
  const auto it = registry_.find(id);
  return it == registry_.end() ? nullptr : it->second.get();
}

PstMatcher::TouchedTrees PstMatcher::add_with_result(SubscriptionId id,
                                                     SubscriptionRef ref) {
  if (ref == nullptr) throw std::invalid_argument("PstMatcher::add: null subscription");
  if (registry_.contains(id)) throw std::invalid_argument("PstMatcher::add: duplicate id");
  const Subscription& subscription = *ref;
  if (subscription.schema()->attribute_count() != schema_->attribute_count()) {
    throw std::invalid_argument("PstMatcher::add: schema arity mismatch");
  }
  TouchedTrees touched;
  if (single_.pst) {
    touched.push_back({single_.pst.get(), single_.pst->add(id, subscription), false});
    single_.kernel.reset();
  } else {
    for (const auto& key : factoring_->subscription_keys(subscription)) {
      auto it = buckets_.find(key);
      bool created = false;
      if (it == buckets_.end()) {
        it = buckets_.emplace(key, make_tree()).first;
        created = true;
      }
      touched.push_back({it->second.pst.get(), it->second.pst->add(id, subscription), created});
      it->second.kernel.reset();
    }
  }
  registry_.emplace(id, std::move(ref));
  return touched;
}

PstMatcher::TouchedTrees PstMatcher::remove_with_result(SubscriptionId id) {
  const auto it = registry_.find(id);
  if (it == registry_.end()) return {};
  const Subscription& subscription = *it->second;
  TouchedTrees touched;
  if (single_.pst) {
    if (auto mutation = single_.pst->remove(id, subscription)) {
      touched.push_back({single_.pst.get(), *mutation, false});
      single_.kernel.reset();
    }
  } else {
    for (const auto& key : factoring_->subscription_keys(subscription)) {
      const auto bucket = buckets_.find(key);
      if (bucket == buckets_.end()) continue;
      if (auto mutation = bucket->second.pst->remove(id, subscription)) {
        touched.push_back({bucket->second.pst.get(), *mutation, false});
        bucket->second.kernel.reset();
      }
      // Empty bucket trees are kept: callers hold per-tree annotation state
      // keyed by tree identity, and buckets are typically reused.
    }
  }
  registry_.erase(it);
  return touched;
}

void PstMatcher::add(SubscriptionId id, const Subscription& subscription) {
  add_with_result(id, std::make_shared<const Subscription>(subscription));
}

void PstMatcher::add(SubscriptionId id, SubscriptionRef subscription) {
  add_with_result(id, std::move(subscription));
}

bool PstMatcher::remove(SubscriptionId id) {
  if (!registry_.contains(id)) return false;
  remove_with_result(id);
  return true;
}

const PstMatcher::Tree* PstMatcher::find_tree(const Event& event,
                                              FactoringIndex::Key& key) const {
  if (single_.pst) return &single_;
  factoring_->event_key_into(event, key);
  const auto it = buckets_.find(key);
  return it == buckets_.end() ? nullptr : &it->second;
}

const Pst* PstMatcher::tree_for_event(const Event& event) const {
  FactoringIndex::Key key;
  return tree_for_event(event, key);
}

const Pst* PstMatcher::tree_for_event(const Event& event,
                                      FactoringIndex::Key& scratch_key) const {
  const Tree* tree = find_tree(event, scratch_key);
  return tree == nullptr ? nullptr : tree->pst.get();
}

void PstMatcher::freeze() {
  const auto freeze_tree = [](Tree& tree) {
    if (tree.kernel == nullptr && tree.pst->subscription_count() > 0) {
      tree.kernel = std::make_shared<const CompiledPst>(*tree.pst);
    }
  };
  if (single_.pst) {
    freeze_tree(single_);
    return;
  }
  for (auto& [key, tree] : buckets_) freeze_tree(tree);
}

void PstMatcher::match_into(const Event& event, std::vector<SubscriptionId>& out,
                            MatchStats* stats) const {
  match_into(event, out, thread_match_scratch(), stats);
}

void PstMatcher::match_into(const Event& event, std::vector<SubscriptionId>& out,
                            MatchScratch& scratch, MatchStats* stats) const {
  const Tree* tree = find_tree(event, scratch.factoring_key());
  if (factoring_ && stats != nullptr) ++stats->nodes_visited;  // the index probe
  if (tree == nullptr) return;
  // CompiledPst collapses star chains structurally, so the frozen kernel
  // reproduces the mutable walk's step counts only under trivial-test
  // elimination.
  if (tree->kernel != nullptr && options_.tree.trivial_test_elimination) {
    tree->kernel->match(event, out, scratch, stats);
    return;
  }
  tree->pst->match(event, out, stats);
}

MatchResult PstMatcher::match(const Event& event) const {
  MatchResult result;
  match_into(event, result.ids, &result.stats);
  return result;
}

std::size_t PstMatcher::reference_bytes() const {
  // One hash node per entry (next pointer + key + reference) and the
  // bucket array.
  return registry_.bucket_count() * sizeof(void*) +
         registry_.size() * (sizeof(void*) + sizeof(SubscriptionId) + sizeof(SubscriptionRef));
}

std::size_t PstMatcher::registry_bytes() const {
  std::size_t total = reference_bytes();
  for (const auto& [id, subscription] : registry_) total += subscription->memory_bytes();
  return total;
}

std::size_t PstMatcher::tree_bytes() const {
  std::size_t total = 0;
  for_each_bucket([&](const FactoringIndex::Key* key, const Pst& tree, const auto&) {
    if (key != nullptr) total += key->capacity() * sizeof(Value);
    total += tree.memory_bytes();
  });
  return total;
}

std::size_t PstMatcher::kernel_bytes() const {
  std::size_t total = 0;
  for_each_bucket([&](const FactoringIndex::Key*, const Pst&, const auto& kernel) {
    if (kernel != nullptr) total += kernel->memory_bytes();
  });
  return total;
}

}  // namespace gryphon
