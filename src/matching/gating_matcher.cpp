#include "matching/gating_matcher.h"

#include <algorithm>
#include <stdexcept>

namespace gryphon {

GatingMatcher::GatingMatcher(SchemaPtr schema) : schema_(std::move(schema)) {
  if (!schema_) throw std::invalid_argument("GatingMatcher: null schema");
  scan_gates_.resize(schema_->attribute_count());
}

void GatingMatcher::erase_id(std::vector<SubscriptionId>& v, SubscriptionId id) {
  v.erase(std::remove(v.begin(), v.end(), id), v.end());
}

void GatingMatcher::add(SubscriptionId id, const Subscription& subscription) {
  if (registry_.contains(id)) throw std::invalid_argument("GatingMatcher::add: duplicate id");
  if (subscription.schema()->attribute_count() != schema_->attribute_count()) {
    throw std::invalid_argument("GatingMatcher::add: schema arity mismatch");
  }
  // Choose the gating test: first equality wins, then first non-*.
  for (std::size_t i = 0; i < subscription.tests().size(); ++i) {
    const AttributeTest& t = subscription.test(i);
    if (t.kind() == TestKind::kEquals) {
      eq_gates_[EqKey{i, t.operand()}].push_back(id);
      registry_.emplace(id, subscription);
      return;
    }
  }
  for (std::size_t i = 0; i < subscription.tests().size(); ++i) {
    const AttributeTest& t = subscription.test(i);
    if (!t.is_dont_care()) {
      scan_gates_[i].push_back(ScanEntry{id, t});
      registry_.emplace(id, subscription);
      return;
    }
  }
  match_all_.push_back(id);
  registry_.emplace(id, subscription);
}

bool GatingMatcher::remove(SubscriptionId id) {
  const auto it = registry_.find(id);
  if (it == registry_.end()) return false;
  const Subscription& sub = it->second;
  bool gated = false;
  for (std::size_t i = 0; i < sub.tests().size() && !gated; ++i) {
    const AttributeTest& t = sub.test(i);
    if (t.kind() == TestKind::kEquals) {
      const auto gate = eq_gates_.find(EqKey{i, t.operand()});
      if (gate != eq_gates_.end()) {
        erase_id(gate->second, id);
        if (gate->second.empty()) eq_gates_.erase(gate);
      }
      gated = true;
    }
  }
  for (std::size_t i = 0; i < sub.tests().size() && !gated; ++i) {
    if (!sub.test(i).is_dont_care()) {
      auto& entries = scan_gates_[i];
      entries.erase(std::remove_if(entries.begin(), entries.end(),
                                   [&](const ScanEntry& e) { return e.id == id; }),
                    entries.end());
      gated = true;
    }
  }
  if (!gated) erase_id(match_all_, id);
  registry_.erase(it);
  return true;
}

void GatingMatcher::match_into(const Event& event, std::vector<SubscriptionId>& out,
                               MatchStats* stats) const {
  const auto evaluate_residual = [&](SubscriptionId id) {
    const Subscription& sub = registry_.at(id);
    if (stats != nullptr) {
      ++stats->nodes_visited;
      stats->tests_evaluated += sub.tests().size();
    }
    if (sub.matches(event)) out.push_back(id);
  };

  for (std::size_t i = 0; i < schema_->attribute_count(); ++i) {
    const auto gate = eq_gates_.find(EqKey{i, event.value(i)});
    if (stats != nullptr) ++stats->tests_evaluated;
    if (gate != eq_gates_.end()) {
      for (const SubscriptionId id : gate->second) evaluate_residual(id);
    }
    for (const ScanEntry& entry : scan_gates_[i]) {
      if (stats != nullptr) ++stats->tests_evaluated;
      if (entry.gate.accepts(event.value(i))) evaluate_residual(entry.id);
    }
  }
  for (const SubscriptionId id : match_all_) evaluate_residual(id);
}

MatchResult GatingMatcher::match(const Event& event) const {
  MatchResult result;
  match_into(event, result.ids, &result.stats);
  return result;
}

}  // namespace gryphon
