#include "routing/content_router.h"

#include <optional>
#include <stdexcept>
#include <string>

#include "common/parallel_for.h"

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
  root_index_.assign(n, -1);
  std::vector<const SpanningTree*> trees;
  trees.reserve(trees_.size());
  for (const auto& entry : trees_) {
    root_index_.at(static_cast<std::size_t>(entry.first.value)) =
        static_cast<std::int32_t>(trees.size());
    trees.push_back(entry.second.get());
  }
  broker_states_.resize(n);
  std::size_t groups = 0;
  for (std::size_t b = 0; b < n; ++b) {
    const BrokerId broker{static_cast<BrokerId::rep_type>(b)};
    BrokerState& state = broker_states_[b];
    const auto& ports = network.ports(broker);
    state.link_count = ports.size();
    state.first_group = groups;
    const std::vector<std::size_t> group_of = group_by_link_map(broker, trees);
    state.roots.resize(trees.size());
    for (std::size_t t = 0; t < trees.size(); ++t) {
      const SpanningTree& tree = *trees[t];
      if (group_of[t] == state.groups.size()) state.groups.push_back(&tree);
      RootView& view = state.roots[t];
      view.group = group_of[t];
      // Initialization mask: Maybe on links with descendant destinations.
      view.init_mask.assign(2 * trit_words(ports.size()), 0);
      for (std::size_t pi = 0; pi < ports.size(); ++pi) {
        if (tree.downstream_client_count(broker, LinkIndex{static_cast<LinkIndex::rep_type>(
                                                     pi)}) > 0) {
          packed::set(view.init_mask, pi, Trit::Maybe);
        }
      }
    }
    groups += state.groups.size();
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
  // CompiledPst collapses star chains structurally, so the compiled kernel's
  // step counts equal link_match's only under trivial-test elimination.
  const bool compilable = matcher_->options().tree.trivial_test_elimination;
  for (const auto& t : touched) {
    const auto [it, created] = tree_states_.try_emplace(t.tree);
    TreeState& state = it->second;
    if (created) state.incremental = !compilable;
    if (state.owned_annotated != nullptr) {
      for (AnnotatedPst& annotated : *state.owned_annotated) annotated.apply(t.mutation);
      continue;
    }
    // Not read since it last changed: its form is built at the next read.
    if (state.owned == nullptr) continue;
    // Mutated after a read: this tree churns. Route it incrementally for
    // good, from annotations built at its next read.
    state.compiled.store(nullptr, std::memory_order_relaxed);
    state.owned.reset();
    state.incremental = true;
  }
}

void ContentRoutingNetwork::subscribe(SubscriptionId id, SubscriptionRef subscription,
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
    touched = matcher_->add_with_result(id, std::move(subscription));
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
  RouteResult result;
  result.steps = route_into(broker, event, tree_root, result.links);
  return result;
}

const ContentRoutingNetwork::RootView& ContentRoutingNetwork::root_view(
    BrokerId broker, BrokerId tree_root) const {
  const auto b = static_cast<std::size_t>(broker.value);
  if (!broker.valid() || b >= broker_states_.size()) {
    throw std::invalid_argument("ContentRoutingNetwork::route: unknown broker");
  }
  const auto r = static_cast<std::size_t>(tree_root.value);
  if (!tree_root.valid() || r >= root_index_.size() || root_index_[r] < 0) {
    throw std::invalid_argument("ContentRoutingNetwork::route: unknown tree root");
  }
  return broker_states_[b].roots[static_cast<std::size_t>(root_index_[r])];
}

const ContentRoutingNetwork::CompiledTree& ContentRoutingNetwork::compiled_for_read(
    const Pst& tree, const TreeState& state) const {
  const CompiledTree* compiled = state.compiled.load(std::memory_order_acquire);
  if (compiled == nullptr) compiled = &compile(tree, state, nullptr, 1);
  if (compiled->epoch != tree.epoch()) {
    throw std::logic_error("ContentRoutingNetwork::route: compiled tree is stale");
  }
  return *compiled;
}

const ContentRoutingNetwork::AnnotatedTree& ContentRoutingNetwork::annotated_for_read(
    const Pst& tree, const TreeState& state) const {
  if (const AnnotatedTree* built = state.annotated.load(std::memory_order_acquire)) return *built;
  MutexLock lock(compile_mutex_);
  // Another thread may have built it while this one waited.
  if (const AnnotatedTree* built = state.annotated.load(std::memory_order_acquire)) return *built;
  std::vector<AnnotatedPst::LinkMap> maps;
  for (std::size_t b = 0; b < broker_states_.size(); ++b) {
    const BrokerId broker{static_cast<BrokerId::rep_type>(b)};
    for (const SpanningTree* group : broker_states_[b].groups) {
      maps.push_back({broker_states_[b].link_count, [this, group, broker](SubscriptionId id) {
                        return group->tree_next_hop_to_client(broker, destinations_.at(id));
                      }});
    }
  }
  state.owned_annotated = std::make_unique<AnnotatedTree>(AnnotatedPst::build_all(tree, maps));
  state.annotated.store(state.owned_annotated.get(), std::memory_order_release);
  return *state.owned_annotated;
}

void ContentRoutingNetwork::append_yes_links(PackedTrits mask,
                                             std::vector<LinkIndex>& links) {
  packed::for_each_yes(mask, [&](std::size_t i) {
    links.push_back(LinkIndex{static_cast<LinkIndex::rep_type>(i)});
  });
}

std::uint64_t ContentRoutingNetwork::route_into(BrokerId broker, const Event& event,
                                                BrokerId tree_root,
                                                std::vector<LinkIndex>& links) const {
  links.clear();
  MatchScratch& scratch = thread_match_scratch();
  const auto b = static_cast<std::size_t>(broker.value);
  const RootView& view = root_view(broker, tree_root);
  const BrokerState& state = broker_states_[b];
  std::uint64_t steps = 0;
  const Pst* tree = matcher_->tree_for_event(event, scratch.factoring_key());
  if (matcher_->options().factoring_levels > 0) ++steps;  // bucket index probe
  // No tree, or a tree with no subscriptions: no subscription anywhere can
  // match this event.
  if (tree == nullptr || tree->subscription_count() == 0) return steps;

  const TreeState& tree_state = tree_states_.at(tree);
  const MutablePackedTrits mask = dispatch_mask_slot(scratch, 0, state.link_count);
  if (tree_state.incremental) {
    const AnnotatedTree& annotated = annotated_for_read(*tree, tree_state);
    steps += link_match(annotated[state.first_group + view.group], event, view.init_mask,
                        scratch, mask);
  } else {
    const CompiledTree& compiled = compiled_for_read(*tree, tree_state);
    steps += compiled_dispatch_into(compiled.annotations[b], view.group, event, view.init_mask,
                                    scratch, nullptr, mask);
  }
  append_yes_links(mask, links);
  return steps;
}

EventRoute ContentRoutingNetwork::prepare(const Event& event) const {
  EventRoute route;
  route.event_ = &event;
  MatchScratch& scratch = thread_match_scratch();
  const Pst* tree = matcher_->tree_for_event(event, scratch.factoring_key());
  if (tree == nullptr || tree->subscription_count() == 0) return route;
  route.tree_ = tree;
  route.epoch_ = tree->epoch();
  const TreeState& tree_state = tree_states_.at(tree);
  if (tree_state.incremental) return route;
  const CompiledTree& compiled = compiled_for_read(*tree, tree_state);
  route.annotations_ = &compiled.annotations;
  // Walk into a reused buffer, then keep an exact-size copy: one
  // allocation per route, and no capacity beyond the entries.
  thread_local EventReach walked;
  compiled.kernel->reach(event, walked, scratch);
  route.reach_.entries.assign(walked.entries.begin(), walked.entries.end());
  return route;
}

std::uint64_t ContentRoutingNetwork::route_into(BrokerId broker, const EventRoute& route,
                                                BrokerId tree_root,
                                                std::vector<LinkIndex>& links) const {
  links.clear();
  const RootView& view = root_view(broker, tree_root);
  std::uint64_t steps = matcher_->options().factoring_levels > 0 ? 1 : 0;  // bucket probe
  if (route.tree_ == nullptr) return steps;
  if (route.tree_->epoch() != route.epoch_) {
    throw std::logic_error("ContentRoutingNetwork::route: event route is stale");
  }
  if (route.annotations_ == nullptr) {
    // An incremental tree: no compiled rows to refine, search from the event.
    return route_into(broker, *route.event_, tree_root, links);
  }
  const auto b = static_cast<std::size_t>(broker.value);
  MatchScratch& scratch = thread_match_scratch();
  const MutablePackedTrits mask =
      dispatch_mask_slot(scratch, 0, broker_states_[b].link_count);
  steps += compiled_dispatch_into((*route.annotations_)[b], view.group, route.reach_,
                                  view.init_mask, scratch, mask);
  append_yes_links(mask, links);
  return steps;
}

const std::vector<std::vector<LinkIndex>>& ContentRoutingNetwork::client_links(
    std::size_t b) const {
  const BrokerState& state = broker_states_[b];
  if (state.client_links.empty()) {
    const BrokerId broker{static_cast<BrokerId::rep_type>(b)};
    const std::size_t clients = network_->client_count();
    state.client_links.resize(state.groups.size());
    for (std::size_t g = 0; g < state.groups.size(); ++g) {
      std::vector<LinkIndex>& links = state.client_links[g];
      links.reserve(clients);
      for (std::size_t c = 0; c < clients; ++c) {
        links.push_back(state.groups[g]->tree_next_hop_to_client(
            broker, ClientId{static_cast<ClientId::rep_type>(c)}));
      }
    }
  }
  return state.client_links;
}

const ContentRoutingNetwork::CompiledTree& ContentRoutingNetwork::compile(
    const Pst& tree, const TreeState& state, std::shared_ptr<const CompiledPst> kernel,
    std::size_t threads) const {
  MutexLock lock(compile_mutex_);
  // Another thread may have compiled it while this one waited.
  if (const CompiledTree* done = state.compiled.load(std::memory_order_acquire)) return *done;
  if (kernel == nullptr) kernel = std::make_shared<const CompiledPst>(tree);
  auto compiled = std::make_unique<CompiledTree>(CompiledTree{tree.epoch(), std::move(kernel), {}});
  // Each subscriber's destination client, once for every broker.
  const auto arena = compiled->kernel->subscriber_arena();
  std::vector<std::uint32_t> owners;
  owners.reserve(arena.size());
  for (const SubscriptionId id : arena) {
    owners.push_back(static_cast<std::uint32_t>(destinations_.at(id).value));
  }
  // Brokers' annotations are independent; each task writes its own slot.
  std::vector<std::optional<CompiledAnnotation>> built(broker_states_.size());
  parallel_for(threads, broker_states_.size(), [&](std::size_t b) {
    built[b].emplace(*compiled->kernel, broker_states_[b].link_count, owners, client_links(b),
                     LinkIndex{});
  });
  compiled->annotations.reserve(built.size());
  for (std::optional<CompiledAnnotation>& annotation : built) {
    compiled->annotations.push_back(std::move(*annotation));
  }
  state.owned = std::move(compiled);
  state.compiled.store(state.owned.get(), std::memory_order_release);
  return *state.owned;
}

void ContentRoutingNetwork::compile_all(std::size_t threads) {
  // Without trivial-test elimination every tree is incremental.
  if (!matcher_->options().tree.trivial_test_elimination) return;
  matcher_->freeze();
  matcher_->for_each_bucket([&](const FactoringIndex::Key*, const Pst& tree,
                                std::shared_ptr<const CompiledPst> kernel) {
    const TreeState& state = tree_states_.at(&tree);
    if (kernel != nullptr && !state.incremental &&
        state.compiled.load(std::memory_order_acquire) == nullptr) {
      compile(tree, state, std::move(kernel), threads);
    }
  });
}

const CompiledPst* ContentRoutingNetwork::routing_kernel(const Pst& tree) const {
  const CompiledTree* compiled = tree_states_.at(&tree).compiled.load(std::memory_order_acquire);
  return compiled == nullptr ? nullptr : compiled->kernel.get();
}

const CompiledAnnotation* ContentRoutingNetwork::routing_annotation(const Pst& tree,
                                                                    BrokerId broker) const {
  const CompiledTree* compiled = tree_states_.at(&tree).compiled.load(std::memory_order_acquire);
  return compiled == nullptr ? nullptr
                             : &compiled->annotations.at(static_cast<std::size_t>(broker.value));
}

ContentRoutingNetwork::KernelCounts ContentRoutingNetwork::kernel_counts() const {
  KernelCounts counts;
  for (const auto& entry : tree_states_) {
    const TreeState& state = entry.second;
    if (state.compiled.load(std::memory_order_acquire) != nullptr ||
        state.annotated.load(std::memory_order_acquire) != nullptr) {
      ++counts.annotated;
    }
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

std::size_t ContentRoutingNetwork::annotation_bytes() const {
  std::size_t total = 0;
  for (const auto& entry : tree_states_) {
    if (const CompiledTree* compiled = entry.second.compiled.load(std::memory_order_acquire)) {
      for (const CompiledAnnotation& annotation : compiled->annotations) {
        total += annotation.memory_bytes();
      }
    }
    if (const AnnotatedTree* maintained = entry.second.annotated.load(std::memory_order_acquire)) {
      for (const AnnotatedPst& annotation : *maintained) total += annotation.memory_bytes();
    }
  }
  return total;
}

std::vector<SubscriptionId> ContentRoutingNetwork::match(const Event& event,
                                                         MatchStats* stats) const {
  std::vector<SubscriptionId> out;
  matcher_->match_into(event, out, stats);
  return out;
}

PackedTrits ContentRoutingNetwork::initialization_mask(BrokerId broker,
                                                         BrokerId tree_root) const {
  return root_view(broker, tree_root).init_mask;
}

std::size_t ContentRoutingNetwork::annotation_group_count(BrokerId broker) const {
  return broker_states_.at(static_cast<std::size_t>(broker.value)).groups.size();
}

void ContentRoutingNetwork::check_consistency() const {
  for (const auto& [tree, state] : tree_states_) {
    if (state.owned_annotated != nullptr) {
      for (const AnnotatedPst& annotated : *state.owned_annotated) annotated.check_consistency();
    }
    const CompiledTree* compiled = state.compiled.load(std::memory_order_acquire);
    if (compiled != nullptr && compiled->epoch != tree->epoch()) {
      throw std::logic_error("ContentRoutingNetwork: compiled tree is stale (epoch " +
                             std::to_string(compiled->epoch) + ", tree at " +
                             std::to_string(tree->epoch()) + ")");
    }
  }
}

}  // namespace gryphon
