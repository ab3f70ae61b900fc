#include "broker/broker_core.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>

namespace gryphon {

BrokerCore::BrokerCore(BrokerId self, const BrokerNetwork& topology,
                       std::vector<SchemaPtr> spaces, PstMatcherOptions matcher_options,
                       ControlPlaneOptions control)
    : self_(self), topology_(&topology), routing_(topology) {
  // Construction is single-threaded by the language; state that once for
  // the whole body so guarded members can be initialized.
  control_plane_.assert_serialized();
  if (!self.valid() || static_cast<std::size_t>(self.value) >= topology.broker_count()) {
    throw std::invalid_argument("BrokerCore: bad self id");
  }
  if (spaces.empty()) throw std::invalid_argument("BrokerCore: need at least one space");
  matcher_options_ = matcher_options;
  control_options_ = control;
  if (control_options_.delta_segment_target == 0) control_options_.delta_segment_target = 1;
  if (control_options_.max_delta_segments == 0) control_options_.max_delta_segments = 1;

  const auto& ports = topology.ports(self);
  for (const auto& port : ports) {
    if (port.kind != BrokerNetwork::PortKind::kBroker) {
      throw std::invalid_argument(
          "BrokerCore: the static topology must contain brokers only (clients attach "
          "dynamically)");
    }
    neighbors_.push_back(port.peer_broker);
  }
  link_count_ = ports.size() + 1;  // + pseudo-local
  local_link_ = LinkIndex{static_cast<LinkIndex::rep_type>(ports.size())};

  for (std::size_t r = 0; r < topology.broker_count(); ++r) {
    const BrokerId root{static_cast<BrokerId::rep_type>(r)};
    trees_.emplace(root, std::make_unique<SpanningTree>(topology, routing_, root));
  }

  // Spanning trees with one owner-broker -> link map at self share a group;
  // each group's map (the pseudo-local link at self) is its link table for
  // the snapshot builder.
  std::vector<const SpanningTree*> trees;
  trees.reserve(trees_.size());
  for (const auto& entry : trees_) trees.push_back(entry.second.get());
  const std::vector<std::size_t> group_of = group_by_link_map(self_, trees);
  std::vector<std::vector<LinkIndex>> group_links;
  for (std::size_t t = 0; t < trees.size(); ++t) {
    const SpanningTree* tree = trees[t];
    if (group_of[t] == group_links.size()) {
      const auto map = tree->next_hops(self_);
      std::vector<LinkIndex>& links = group_links.emplace_back(map.begin(), map.end());
      links[static_cast<std::size_t>(self_.value)] = local_link_;
    }
    group_index_of_root_.emplace(tree->root(), group_of[t]);

    // Initialization mask: Maybe toward tree children (any broker may have
    // subscribers) and on the pseudo-local link; No elsewhere.
    std::vector<TritWord> mask(2 * trit_words(link_count_), 0);
    for (std::size_t pi = 0; pi < ports.size(); ++pi) {
      const BrokerId peer = ports[pi].peer_broker;
      if (tree->parent(peer) == self_) packed::set(mask, pi, Trit::Maybe);
    }
    packed::set(mask, static_cast<std::size_t>(local_link_.value), Trit::Maybe);
    init_masks_.emplace(tree->root(), std::move(mask));
  }

  spaces_.reserve(spaces.size());
  for (SchemaPtr& schema : spaces) {
    Space space;
    if (!schema) throw std::invalid_argument("BrokerCore: null schema");
    space.segments.push_back(std::make_unique<PstMatcher>(schema, matcher_options_));
    if (control_options_.covering) {
      space.covering = std::make_unique<CoveringIndex>(schema, self_);
    }
    space.schema = std::move(schema);
    spaces_.push_back(std::move(space));
  }
  space_counts_.assign(spaces_.size(), 0);

  // The owner function runs only inside snapshot freezing, which the
  // control plane serializes; the lambda re-states that for the analysis
  // (lambdas do not inherit the caller's capability set).
  builder_ = std::make_unique<SnapshotBuilder>(
      link_count_, local_link_,
      [this](SubscriptionId id) {
        control_plane_.assert_serialized();
        return static_cast<std::uint32_t>(owner_of(id).value);
      },
      std::move(group_links));

  // Publish the initial (all-empty) snapshot.
  std::vector<SnapshotBuilder::SpaceSources> sources;
  sources.reserve(spaces_.size());
  for (const Space& sp : spaces_) sources.push_back(sources_of(sp));
  snapshot_.store(builder_->initial_snapshot(sources));
}

const BrokerCore::Space& BrokerCore::space_at(SpaceId space) const {
  if (!space.valid() || static_cast<std::size_t>(space.value) >= spaces_.size()) {
    throw std::invalid_argument("BrokerCore: bad space index");
  }
  return spaces_[static_cast<std::size_t>(space.value)];
}

const SchemaPtr& BrokerCore::schema(SpaceId space) const { return space_at(space).schema; }

SnapshotBuilder::SpaceSources BrokerCore::sources_of(const Space& sp) const {
  SnapshotBuilder::SpaceSources sources;
  sources.reserve(sp.segments.size());
  for (const auto& matcher : sp.segments) sources.push_back(matcher.get());
  return sources;
}

void BrokerCore::publish_snapshot(SpaceId touched) {
  const auto i = static_cast<std::size_t>(touched.value);
  Space& sp = spaces_[i];
  const auto current = snapshot_.load();
  CompileStats compile;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& matcher : sp.segments) matcher->freeze();
  auto next = builder_->next_snapshot(*current, i, sources_of(sp), &compile);
  const auto elapsed_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                            t0)
          .count());
  snapshot_.store(std::move(next));
  sp.dirty = false;
  stats_.segments_compiled += compile.segments_compiled;
  stats_.segments_reused += compile.segments_reused;
  if (compile.segments_reused > 0) {
    ++stats_.delta_publishes;
  } else {
    ++stats_.full_publishes;
  }
  ++stats_.compile_publishes;
  stats_.compile_us_total += elapsed_us;
  const std::size_t bucket =
      elapsed_us == 0 ? 0
                      : std::min<std::size_t>(std::bit_width(elapsed_us) - 1,
                                              ControlPlaneStats::kHistogramBuckets - 1);
  ++stats_.compile_us_histogram[bucket];
}

void BrokerCore::maybe_grow_segments(SpaceId space) {
  const auto i = static_cast<std::size_t>(space.value);
  Space& sp = spaces_[i];
  if (sp.segments.size() >= control_options_.max_delta_segments) return;
  std::size_t frontier = 0;
  for (const auto& matcher : sp.segments) frontier += matcher->subscription_count();
  if (frontier <= sp.segments.size() * control_options_.delta_segment_target) return;

  // Double the slice count and redistribute. The new matchers carry no
  // kernels yet, so the next publish compiles every slice from scratch.
  const std::size_t next_count =
      std::min(control_options_.max_delta_segments, sp.segments.size() * 2);
  std::vector<std::unique_ptr<PstMatcher>> next;
  next.reserve(next_count);
  for (std::size_t j = 0; j < next_count; ++j) {
    next.push_back(std::make_unique<PstMatcher>(sp.schema, matcher_options_));
  }
  for (const auto& [id, reg] : registry_) {
    if (static_cast<std::size_t>(reg.space.value) != i) continue;
    if (sp.covering != nullptr && sp.covering->is_parked(id)) continue;
    next[segment_of(id, next_count)]->add(id, reg.subscription);
  }
  sp.segments = std::move(next);
}

void BrokerCore::add_subscription(SpaceId space, SubscriptionId id,
                                  SubscriptionRef subscription, BrokerId owner,
                                  SnapshotPolicy policy) {
  const Space& checked = space_at(space);
  Space& sp = spaces_[static_cast<std::size_t>(space.value)];
  if (subscription == nullptr) throw std::invalid_argument("BrokerCore: null subscription");
  if (registry_.contains(id)) throw std::invalid_argument("BrokerCore: duplicate subscription");
  if (!owner.valid() || static_cast<std::size_t>(owner.value) >= topology_->broker_count()) {
    throw std::invalid_argument("BrokerCore: bad owner broker");
  }
  // Replicate the matcher's shape check up front: a parked subscription
  // never reaches a matcher, and covering on/off must reject identically.
  if (subscription->schema()->attribute_count() != checked.schema->attribute_count()) {
    throw std::invalid_argument("BrokerCore: schema arity mismatch");
  }
  registry_.emplace(id, Registered{space, owner, subscription});
  bool parked = false;
  try {
    if (sp.covering != nullptr) {
      const CoveringIndex::AddResult result = sp.covering->add(id, subscription, owner);
      if (result.parked) {
        parked = true;
      } else {
        // The new subscription covers `demoted`: pull them out of their
        // slices (they are parked under it now), then insert it.
        for (const SubscriptionId demoted : result.demoted) {
          sp.segments[segment_of(demoted, sp.segments.size())]->remove(demoted);
        }
        sp.segments[segment_of(id, sp.segments.size())]->add(id, std::move(subscription));
      }
    } else {
      sp.segments[segment_of(id, sp.segments.size())]->add(id, std::move(subscription));
    }
  } catch (...) {
    registry_.erase(id);
    throw;
  }
  ++space_counts_[static_cast<std::size_t>(space.value)];
  if (!parked) {
    sp.dirty = true;
    maybe_grow_segments(space);
  }
  if (policy == SnapshotPolicy::kPublish) publish_space(space);
}

bool BrokerCore::remove_subscription(SubscriptionId id, SnapshotPolicy policy) {
  const auto it = registry_.find(id);
  if (it == registry_.end()) return false;
  const Registered reg = it->second;
  Space& sp = spaces_[static_cast<std::size_t>(reg.space.value)];
  bool parked = false;
  if (sp.covering != nullptr) {
    CoveringIndex::RemoveResult result = sp.covering->remove(id);
    if (result.was_parked) {
      parked = true;
    } else {
      sp.segments[segment_of(id, sp.segments.size())]->remove(id);
      // Uncovering: children that no remaining frontier entry covers go
      // back into the compiled plane.
      for (const CoveringIndex::Promoted& promoted : result.promoted) {
        sp.segments[segment_of(promoted.id, sp.segments.size())]->add(promoted.id,
                                                                      promoted.subscription);
      }
    }
  } else {
    sp.segments[segment_of(id, sp.segments.size())]->remove(id);
  }
  registry_.erase(it);
  --space_counts_[static_cast<std::size_t>(reg.space.value)];
  if (!parked) sp.dirty = true;
  if (policy == SnapshotPolicy::kPublish) publish_space(reg.space);
  return true;
}

void BrokerCore::publish_space(SpaceId space) {
  if (space_at(space).dirty) publish_snapshot(space);
}

void BrokerCore::publish_all() {
  for (std::size_t s = 0; s < spaces_.size(); ++s) {
    publish_space(SpaceId{static_cast<SpaceId::rep_type>(s)});
  }
}

std::size_t BrokerCore::frontier_count(SpaceId space) const {
  const Space& sp = space_at(space);
  std::size_t n = 0;
  for (const auto& matcher : sp.segments) n += matcher->subscription_count();
  return n;
}

std::size_t BrokerCore::covered_count(SpaceId space) const {
  const Space& sp = space_at(space);
  return sp.covering == nullptr ? 0 : sp.covering->parked_count();
}

std::size_t BrokerCore::segment_count(SpaceId space) const {
  return space_at(space).segments.size();
}

ControlPlaneStats BrokerCore::control_plane_stats() const {
  ControlPlaneStats out = stats_;
  for (const Space& sp : spaces_) {
    for (const auto& matcher : sp.segments) {
      out.frontier_subscriptions += matcher->subscription_count();
    }
    if (sp.covering != nullptr) out.covered_subscriptions += sp.covering->parked_count();
  }
  return out;
}

BrokerId BrokerCore::owner_of(SubscriptionId id) const {
  const auto it = registry_.find(id);
  if (it == registry_.end()) throw std::invalid_argument("BrokerCore: unknown subscription");
  return it->second.owner;
}

void BrokerCore::dispatch_pinned(const CoreSnapshot& snapshot, SpaceId space, const Event& event,
                                 BrokerId tree_root, MatchScratch& scratch,
                                 Decision& out) const {
  out.reset();
  const FrozenSpace& fs = *snapshot.spaces[static_cast<std::size_t>(space.value)];
  if (fs.factored()) ++out.steps;  // the bucket index probe
  const FrozenBucket* bucket = fs.bucket_for(event, scratch.factoring_key());
  // No bucket: nothing can match anywhere in the network.
  if (bucket == nullptr) return;

  // Walk every live delta segment of the bucket in slice order and union
  // the refined masks (Parallel Combine) — exact, because the slices
  // partition the frontier and a link is forwarded iff some frontier
  // subscription behind it matches.
  const std::size_t group = group_index_of_root_.at(tree_root);
  const std::vector<TritWord>& init_mask = init_masks_.at(tree_root);
  const std::size_t words = init_mask.size() / 2;
  // Per-segment masks accumulate in the scratch's caller word slots (see
  // kDispatchCallerSlots in routing/compiled_annotation.h) instead of
  // temporaries, so a warm dispatch allocates nothing.
  const MutablePackedTrits acc = dispatch_mask_slot(scratch, 0, link_count_);
  const MutablePackedTrits seg = dispatch_mask_slot(scratch, 1, link_count_);
  bool first = true;
  for (const auto& segment : bucket->segments) {
    if (segment == nullptr) continue;
    const MutablePackedTrits dst = first ? acc : seg;
    out.steps += compiled_dispatch_into(*segment->annotations, group, event, init_mask, scratch,
                                        &out.local_matches, dst);
    if (first) {
      first = false;
    } else {
      packed::parallel_with(acc.data(), seg.data(), words);
    }
  }
  if (first) return;  // no live segments

  // No parked-child enumeration here: locally-owned subscriptions never
  // park (CoveringIndex excludes the local broker), so local_matches is
  // already complete, and remote parked children cannot change the mask —
  // their same-owner coverer is live in the frontier behind the same links.
  const auto local = static_cast<std::size_t>(local_link_.value);
  packed::for_each_yes(acc, [&](std::size_t l) {
    if (l == local) return;
    // gryphon-analyze: allow(alloc): forward staging reuses the
    // Decision's capacity once the batch is warm.
    out.forward.push_back(neighbors_[l]);
  });
}

std::span<const BrokerCore::Decision> BrokerCore::dispatch(DispatchBatch& batch) const {
  const std::size_t n = batch.items_.size();
  // gryphon-analyze: allow(alloc): decision storage grows to the largest
  // batch seen, then every later dispatch reuses it.
  if (batch.decisions_.size() < n) batch.decisions_.resize(n);
  if (n == 0) return {};
  for (const DispatchBatch::Item& item : batch.items_) {
    if (!group_index_of_root_.contains(item.tree_root)) {
      throw std::invalid_argument("BrokerCore::dispatch: unknown tree root");
    }
    if (!has_space(item.space)) throw std::invalid_argument("BrokerCore: bad space index");
  }
  // Pin the snapshot once for the whole batch: everything below touches
  // only immutable state, so concurrent subscription churn can swap in new
  // snapshots freely while we drain.
  const auto snapshot = snapshot_.load();
  for (std::size_t i = 0; i < n; ++i) {
    const DispatchBatch::Item& item = batch.items_[i];
    dispatch_pinned(*snapshot, item.space, *item.event, item.tree_root, batch.scratch_,
                    batch.decisions_[i]);
  }
  return batch.decisions();
}

BrokerCore::Decision BrokerCore::dispatch(SpaceId space, const Event& event, BrokerId tree_root,
                                          MatchScratch& scratch) const {
  if (!group_index_of_root_.contains(tree_root)) {
    throw std::invalid_argument("BrokerCore::dispatch: unknown tree root");
  }
  if (!space.valid() || static_cast<std::size_t>(space.value) >= spaces_.size()) {
    throw std::invalid_argument("BrokerCore: bad space index");
  }
  Decision decision;
  const auto snapshot = snapshot_.load();
  dispatch_pinned(*snapshot, space, event, tree_root, scratch, decision);
  return decision;
}

std::vector<SubscriptionId> BrokerCore::match_all(SpaceId space, const Event& event) const {
  const Space& sp = space_at(space);
  std::vector<SubscriptionId> out;
  MatchScratch& scratch = thread_match_scratch();
  for (const auto& segment : sp.segments) segment->match_into(event, out, scratch);
  // Parked subscriptions of matched coverers, re-tested against the event
  // (a coverer matching does not imply its tighter child does).
  if (sp.covering != nullptr) {
    const std::size_t frontier_matches = out.size();
    for (std::size_t m = 0; m < frontier_matches; ++m) {
      for (const SubscriptionId child : sp.covering->children_of(out[m])) {
        if (sp.covering->find(child)->matches(event)) out.push_back(child);
      }
    }
  }
  return out;
}

}  // namespace gryphon
