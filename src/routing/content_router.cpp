#include "routing/content_router.h"

#include <stdexcept>
#include <string>

namespace gryphon {

ContentRoutingNetwork::ContentRoutingNetwork(const BrokerNetwork& network, SchemaPtr schema,
                                             std::vector<BrokerId> tree_roots,
                                             PstMatcherOptions matcher_options)
    : network_(&network), schema_(std::move(schema)), routing_(network) {
  if (tree_roots.empty()) {
    throw std::invalid_argument("ContentRoutingNetwork: need at least one tree root");
  }
  matcher_ = std::make_unique<PstMatcher>(schema_, std::move(matcher_options));

  for (const BrokerId root : tree_roots) {
    if (!trees_.contains(root)) {
      trees_.emplace(root, std::make_unique<SpanningTree>(network, routing_, root));
    }
  }

  const std::size_t n = network.broker_count();
  broker_states_.resize(n);
  for (std::size_t b = 0; b < n; ++b) {
    const BrokerId broker{static_cast<BrokerId::rep_type>(b)};
    BrokerState& state = broker_states_[b];
    state.link_count = network.ports(broker).size();
    // Group spanning trees by their destination->link map at this broker.
    std::map<std::vector<LinkIndex::rep_type>, std::size_t> by_signature;  // -> group index
    for (const auto& [root, tree] : trees_) {
      std::vector<LinkIndex::rep_type> signature;
      signature.reserve(n);
      for (std::size_t d = 0; d < n; ++d) {
        signature.push_back(
            tree->tree_next_hop(broker, BrokerId{static_cast<BrokerId::rep_type>(d)}).value);
      }
      const auto [group_it, created] =
          by_signature.try_emplace(std::move(signature), state.groups.size());
      if (created) {
        auto group = std::make_unique<Group>();
        const SpanningTree* rep = tree.get();
        group->link_of = [this, rep, broker](SubscriptionId id) {
          return rep->tree_next_hop_to_client(broker, destinations_.at(id));
        };
        state.groups.push_back(std::move(group));
      }
      RootView& view = state.roots[root];
      view.group = group_it->second;

      // Initialization mask: Maybe on links with descendant destinations.
      const auto& ports = network.ports(broker);
      view.init_mask = TritVector(ports.size(), Trit::No);
      for (std::size_t pi = 0; pi < ports.size(); ++pi) {
        if (tree->downstream_client_count(broker, LinkIndex{static_cast<LinkIndex::rep_type>(
                                                      pi)}) > 0) {
          view.init_mask.set(pi, Trit::Maybe);
        }
      }
    }
  }
}

const SpanningTree& ContentRoutingNetwork::spanning_tree(BrokerId root) const {
  const auto it = trees_.find(root);
  if (it == trees_.end()) {
    throw std::invalid_argument("ContentRoutingNetwork: unknown spanning tree root");
  }
  return *it->second;
}

void ContentRoutingNetwork::apply_touched(const PstMatcher::TouchedTrees& touched) {
  // FrozenPsg collapses star chains structurally, so the compiled kernel's
  // step counts equal link_match's only under trivial-test elimination.
  const bool compilable = matcher_->options().tree.trivial_test_elimination;
  for (const auto& t : touched) {
    TreeState& state = tree_states_[t.tree];
    if (state.incremental) {
      for (BrokerState& broker : broker_states_) {
        for (const auto& group : broker.groups) group->annotations.at(t.tree)->apply(t.mutation);
      }
      continue;
    }
    // Never read since it last changed: compile lazily at the next read.
    if (state.owned == nullptr && compilable) continue;
    // Mutated after a read: this tree churns. Switch it to incremental
    // annotations for good, built from the tree (which already reflects
    // the mutation).
    state.compiled.store(nullptr, std::memory_order_relaxed);
    state.owned.reset();
    state.incremental = true;
    std::vector<AnnotatedPst::LinkMap> maps;
    for (const BrokerState& broker : broker_states_) {
      for (const auto& group : broker.groups) maps.push_back({broker.link_count, group->link_of});
    }
    std::vector<AnnotatedPst> built = AnnotatedPst::build_all(*t.tree, maps);
    auto next = built.begin();
    for (BrokerState& broker : broker_states_) {
      for (const auto& group : broker.groups) {
        group->annotations[t.tree] = std::make_unique<AnnotatedPst>(std::move(*next++));
      }
    }
  }
}

void ContentRoutingNetwork::subscribe(SubscriptionId id, const Subscription& subscription,
                                      ClientId subscriber) {
  if (!subscriber.valid() ||
      static_cast<std::size_t>(subscriber.value) >= network_->client_count()) {
    throw std::invalid_argument("ContentRoutingNetwork::subscribe: bad subscriber");
  }
  if (destinations_.contains(id)) {
    throw std::invalid_argument("ContentRoutingNetwork::subscribe: duplicate id");
  }
  destinations_.emplace(id, subscriber);
  PstMatcher::TouchedTrees touched;
  try {
    touched = matcher_->add_with_result(id, subscription);
  } catch (...) {
    destinations_.erase(id);
    throw;
  }
  apply_touched(touched);
}

bool ContentRoutingNetwork::unsubscribe(SubscriptionId id) {
  if (!destinations_.contains(id)) return false;
  const PstMatcher::TouchedTrees touched = matcher_->remove_with_result(id);
  apply_touched(touched);
  destinations_.erase(id);
  return true;
}

ClientId ContentRoutingNetwork::destination_of(SubscriptionId id) const {
  const auto it = destinations_.find(id);
  if (it == destinations_.end()) {
    throw std::invalid_argument("ContentRoutingNetwork: unknown subscription");
  }
  return it->second;
}

ContentRoutingNetwork::RouteResult ContentRoutingNetwork::route(BrokerId broker,
                                                                const Event& event,
                                                                BrokerId tree_root) const {
  MatchScratch& scratch = thread_match_scratch();
  const auto b = static_cast<std::size_t>(broker.value);
  const BrokerState& state = broker_states_.at(b);
  const auto view_it = state.roots.find(tree_root);
  if (view_it == state.roots.end()) {
    throw std::invalid_argument("ContentRoutingNetwork::route: unknown tree root");
  }
  const RootView& view = view_it->second;
  RouteResult result;
  const Pst* tree = matcher_->tree_for_event(event, scratch.factoring_key());
  if (matcher_->options().factoring_levels > 0) ++result.steps;  // bucket index probe
  // No tree, or a tree with no subscriptions: no subscription anywhere can
  // match this event.
  if (tree == nullptr || tree->subscription_count() == 0) return result;

  const TreeState& tree_state = tree_states_.at(tree);
  if (tree_state.incremental) {
    const auto& annotations = state.groups[view.group]->annotations;
    const auto ann_it = annotations.find(tree);
    if (ann_it == annotations.end()) {
      throw std::logic_error("ContentRoutingNetwork::route: missing annotation for tree");
    }
    const LinkMatchResult lm = link_match(*ann_it->second, event, view.init_mask);
    result.links = lm.mask.yes_links();
    result.steps += lm.steps;
    return result;
  }

  const CompiledTree* compiled = tree_state.compiled.load(std::memory_order_acquire);
  if (compiled == nullptr) compiled = &compile(*tree, tree_state);
  if (compiled->epoch != tree->epoch()) {
    throw std::logic_error("ContentRoutingNetwork::route: compiled tree is stale");
  }
  const MutableTritSpan mask = dispatch_mask_slot(scratch, 0, state.link_count);
  result.steps += compiled_dispatch_into(compiled->annotations[b], view.group, event,
                                         view.init_mask.span(), scratch, nullptr, mask);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] == Trit::Yes) {
      result.links.push_back(LinkIndex{static_cast<LinkIndex::rep_type>(i)});
    }
  }
  return result;
}

const ContentRoutingNetwork::CompiledTree& ContentRoutingNetwork::compile(
    const Pst& tree, const TreeState& state) const {
  MutexLock lock(compile_mutex_);
  // Another thread may have compiled it while this one waited.
  if (const CompiledTree* done = state.compiled.load(std::memory_order_acquire)) return *done;
  auto compiled = std::make_unique<CompiledTree>(tree);
  compiled->annotations.reserve(broker_states_.size());
  std::vector<SubscriptionLinkFn> link_fns;
  for (const BrokerState& broker : broker_states_) {
    link_fns.clear();
    for (const auto& group : broker.groups) link_fns.push_back(group->link_of);
    compiled->annotations.emplace_back(compiled->kernel, broker.link_count,
                                       std::span<const SubscriptionLinkFn>(link_fns),
                                       LinkIndex{});
  }
  state.owned = std::move(compiled);
  state.compiled.store(state.owned.get(), std::memory_order_release);
  return *state.owned;
}

void ContentRoutingNetwork::compile_all() const {
  for (const auto& [tree, state] : tree_states_) {
    if (!state.incremental && state.compiled.load(std::memory_order_acquire) == nullptr &&
        tree->subscription_count() > 0) {
      compile(*tree, state);
    }
  }
}

ContentRoutingNetwork::KernelCounts ContentRoutingNetwork::kernel_counts() const {
  KernelCounts counts;
  for (const auto& entry : tree_states_) {
    const TreeState& state = entry.second;
    if (state.incremental) {
      ++counts.incremental;
    } else if (state.compiled.load(std::memory_order_acquire) != nullptr) {
      ++counts.compiled;
    } else {
      ++counts.pending;
    }
  }
  return counts;
}

std::vector<SubscriptionId> ContentRoutingNetwork::match(const Event& event,
                                                         MatchStats* stats) const {
  std::vector<SubscriptionId> out;
  matcher_->match_into(event, out, stats);
  return out;
}

const TritVector& ContentRoutingNetwork::initialization_mask(BrokerId broker,
                                                             BrokerId tree_root) const {
  return broker_states_.at(static_cast<std::size_t>(broker.value)).roots.at(tree_root).init_mask;
}

std::size_t ContentRoutingNetwork::annotation_group_count(BrokerId broker) const {
  return broker_states_.at(static_cast<std::size_t>(broker.value)).groups.size();
}

void ContentRoutingNetwork::check_consistency() const {
  for (const BrokerState& state : broker_states_) {
    for (const auto& group : state.groups) {
      for (const auto& [tree, annotated] : group->annotations) {
        (void)tree;
        annotated->check_consistency();
      }
    }
  }
  for (const auto& [tree, state] : tree_states_) {
    const CompiledTree* compiled = state.compiled.load(std::memory_order_acquire);
    if (compiled != nullptr && compiled->epoch != tree->epoch()) {
      throw std::logic_error("ContentRoutingNetwork: compiled tree is stale (epoch " +
                             std::to_string(compiled->epoch) + ", tree at " +
                             std::to_string(tree->epoch()) + ")");
    }
  }
}

}  // namespace gryphon
