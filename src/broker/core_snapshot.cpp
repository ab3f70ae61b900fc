#include "broker/core_snapshot.h"

#include <stdexcept>

namespace gryphon {

std::shared_ptr<const CompiledSegment> SnapshotBuilder::annotate_segment(
    std::shared_ptr<const CompiledPst> kernel, std::size_t subscriptions) const {
  auto segment = std::make_shared<CompiledSegment>();
  segment->subscriptions = subscriptions;
  segment->kernel = std::move(kernel);
  // Each subscriber's owner, resolved once for every group.
  std::vector<std::uint32_t> owners;
  owners.reserve(segment->kernel->subscriber_arena().size());
  for (const SubscriptionId id : segment->kernel->subscriber_arena()) {
    owners.push_back(owner_of_(id));
  }
  segment->annotations = std::make_unique<const CompiledAnnotation>(
      *segment->kernel, link_count_, owners, group_links_, local_link_);
  return segment;
}

std::shared_ptr<const FrozenSpace> SnapshotBuilder::freeze(const SpaceSources& sources,
                                                           const FrozenSpace* previous,
                                                           CompileStats* stats) const {
  auto space = std::make_shared<FrozenSpace>();
  const std::size_t seg_count = sources.segments.size();
  space->factoring_ = sources.segments.front()->factoring();
  space->router_ = router_;
  space->covering_ = sources.covering;
  auto table = std::make_shared<FrozenSpace::Table>();
  if (space->factoring_ != nullptr) table->shards.resize(router_.shard_count());
  for (const PstMatcher* segment : sources.segments) {
    table->subscription_count += segment->subscription_count();
  }

  // Aggregate the live trees per factoring key across every frontier
  // slice: slice j contributes at most one tree per key, landing at index
  // j of that key's FrozenBucket. Empty trees are dropped — a missing
  // bucket/segment already means "nothing can match", and skipping them
  // keeps snapshots small after heavy unsubscribe churn.
  struct Contribution {
    std::size_t segment;
    std::size_t subscriptions;
    std::shared_ptr<const CompiledPst> kernel;
  };
  std::unordered_map<FactoringIndex::Key, std::vector<Contribution>, FactoringIndex::KeyHash>
      by_key;
  std::vector<Contribution> single;
  for (std::size_t j = 0; j < seg_count; ++j) {
    sources.segments[j]->for_each_bucket([&](const FactoringIndex::Key* key, const Pst& tree,
                                             std::shared_ptr<const CompiledPst> kernel) {
      if (tree.subscription_count() == 0) return;
      if (kernel == nullptr) throw std::logic_error("SnapshotBuilder: segment not frozen");
      auto& into = key == nullptr ? single : by_key[*key];
      into.push_back({j, tree.subscription_count(), std::move(kernel)});
    });
  }

  // Reuse: the segment was annotated against the very kernel its tree
  // still carries (`previous` keeps old kernels alive, so a new one cannot
  // reuse an old address). A bucket whose every live segment is reusable
  // keeps its FrozenBucket object outright.
  const auto build_bucket = [&](const std::vector<Contribution>& contributions,
                                const std::shared_ptr<const FrozenBucket>& old)
      -> std::shared_ptr<const FrozenBucket> {
    if (old != nullptr && old->segments.size() == seg_count) {
      std::size_t live = 0;
      for (const auto& segment : old->segments) {
        if (segment != nullptr) ++live;
      }
      bool reusable = live == contributions.size();
      for (const Contribution& c : contributions) {
        if (!reusable) break;
        const auto& segment = old->segments[c.segment];
        reusable = segment != nullptr && segment->kernel == c.kernel;
      }
      if (reusable) {
        if (stats != nullptr) stats->segments_reused += contributions.size();
        return old;
      }
    }
    auto bucket = std::make_shared<FrozenBucket>();
    bucket->segments.assign(seg_count, nullptr);
    for (const Contribution& c : contributions) {
      std::shared_ptr<const CompiledSegment> segment;
      if (old != nullptr && c.segment < old->segments.size()) {
        const auto& prev = old->segments[c.segment];
        if (prev != nullptr && prev->kernel == c.kernel) {
          segment = prev;
          if (stats != nullptr) ++stats->segments_reused;
        }
      }
      if (segment == nullptr) {
        segment = annotate_segment(c.kernel, c.subscriptions);
        if (stats != nullptr) ++stats->segments_compiled;
      }
      bucket->subscriptions += segment->subscriptions;
      bucket->segments[c.segment] = std::move(segment);
    }
    return bucket;
  };

  if (space->factoring_ == nullptr) {
    if (!single.empty()) {
      table->single =
          build_bucket(single, previous != nullptr ? previous->table_->single : nullptr);
    }
  } else {
    for (const auto& [key, contributions] : by_key) {
      // Shard placement is deterministic in the key, so both the reuse
      // probe into `previous` and the emplace below land in the same shard.
      const std::size_t shard = router_.shard_of_key(key);
      std::shared_ptr<const FrozenBucket> old;
      if (previous != nullptr && shard < previous->table_->shards.size()) {
        const auto& old_buckets = previous->table_->shards[shard].buckets;
        const auto it = old_buckets.find(key);
        if (it != old_buckets.end()) old = it->second;
      }
      auto bucket = build_bucket(contributions, old);
      table->shards[shard].subscription_count += bucket->subscriptions;
      table->shards[shard].buckets.emplace(key, std::move(bucket));
    }
  }
  space->table_ = std::move(table);
  return space;
}

std::shared_ptr<const CoreSnapshot> SnapshotBuilder::initial_snapshot(
    const std::vector<SpaceSources>& spaces) const {
  auto snapshot = std::make_shared<CoreSnapshot>();
  snapshot->version = 0;
  snapshot->spaces.reserve(spaces.size());
  for (const SpaceSources& sources : spaces) {
    snapshot->spaces.push_back(freeze(sources, nullptr, nullptr));
  }
  return snapshot;
}

std::shared_ptr<const CoreSnapshot> SnapshotBuilder::next_snapshot(
    const CoreSnapshot& current, std::size_t touched, const SpaceSources& sources,
    CompileStats* stats) const {
  auto next = std::make_shared<CoreSnapshot>();
  next->version = current.version + 1;
  next->spaces = current.spaces;  // untouched spaces carry over wholesale
  next->spaces[touched] = freeze(sources, current.spaces[touched].get(), stats);
  return next;
}

std::shared_ptr<const CoreSnapshot> SnapshotBuilder::next_snapshot_covering_only(
    const CoreSnapshot& current, std::size_t touched,
    std::shared_ptr<const CoveringSnapshot> covering) const {
  auto next = std::make_shared<CoreSnapshot>();
  next->version = current.version + 1;
  next->spaces = current.spaces;
  const FrozenSpace& old = *current.spaces[touched];
  auto space = std::make_shared<FrozenSpace>();
  space->factoring_ = old.factoring_;
  space->router_ = old.router_;
  space->table_ = old.table_;  // the whole compiled plane, shared
  space->covering_ = std::move(covering);
  next->spaces[touched] = std::move(space);
  return next;
}

}  // namespace gryphon
