// Immutable routing state snapshots for the concurrent broker core.
//
// A BrokerCore serves two kinds of traffic: a low-rate control plane
// (subscribe / unsubscribe) and a high-rate data plane (event dispatch).
// Rather than lock the matching trees around every event, the core keeps
// its live Pst trees writer-only and publishes an immutable *snapshot* of
// the derived read-side state after every control-plane change:
//
//   CoreSnapshot -> FrozenSpace (per information space)
//                -> FrozenBucket (per factoring bucket)
//                -> CompiledSegment (per delta segment)
//                -> CompiledPst + CompiledAnnotation (all groups).
//
// Freezing *compiles* a tree: PstMatcher::freeze() compiles the mutable
// Pst in one pass into a CompiledPst — the struct-of-arrays kernel with
// star-only chains collapsed and interned u64 equality keys — which the
// builder shares and annotates with the flat per-group trit rows of
// CompiledAnnotation. Readers only ever touch the compiled form.
//
// Buckets: a factored space keeps one hash map from factoring key to
// bucket (the paper's factoring index, Section 2.1), so finding the
// subtree that serves an event is one probe. An unfactored space has one
// bucket, held directly.
//
// Delta segmentation: the control plane slices each space's frontier into
// `segments` independent PstMatchers by hashing the subscription id
// (broker_core.h). A bucket therefore holds up to one CompiledSegment per
// slice, and a churn event recompiles only the slices whose trees actually
// mutated — every other CompiledSegment is carried into the next snapshot
// byte-for-byte (shared_ptr), identified by the kernel PstMatcher::freeze()
// left on its tree. Dispatch walks a bucket's segments in slice order
// and unions their refined masks (Parallel Combine), which is exact because
// the slices partition the frontier. A whole unchanged space still carries
// over wholesale, and a bucket whose every segment is reusable keeps its
// FrozenBucket object too.
//
// Covering: the frontier is all a snapshot holds. Subscriptions parked
// under a coverer (matching/covering_index.h) stay in the control plane;
// they cannot change a forwarding or delivery decision, so churn that only
// parks or unparks publishes nothing.
//
// The current snapshot hangs off a SnapshotSlot in BrokerCore; readers pin
// it once per event batch and then touch only deeply-immutable objects, so
// dispatch never blocks on subscription churn for longer than a pointer
// copy and any number of threads can match concurrently (each with its own
// MatchScratch).
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "matching/compiled_pst.h"
#include "matching/pst_matcher.h"
#include "routing/compiled_annotation.h"

namespace gryphon {

/// One delta segment of one factoring bucket, frozen and compiled: the flat
/// match kernel PstMatcher::freeze() compiled for the segment's tree (also
/// the reuse key) and its trit annotations for every spanning-tree group
/// of the owning broker.
struct CompiledSegment {
  std::size_t subscriptions{0};
  std::shared_ptr<const CompiledPst> kernel;
  std::unique_ptr<const CompiledAnnotation> annotations;
};

/// One factoring bucket: the compiled segments of every frontier slice that
/// has subscriptions in this bucket, indexed by slice (null entries mark
/// slices empty here). Buckets with no subscriptions in any slice are
/// omitted from the table: a missing bucket means nothing in the network
/// can match.
struct FrozenBucket {
  std::size_t subscriptions{0};  // sum over segments
  std::vector<std::shared_ptr<const CompiledSegment>> segments;
};

/// One information space, frozen.
class FrozenSpace {
 public:
  /// The bucket an event would be matched against, or nullptr. Computes
  /// the factoring key into the reused scratch buffer
  /// (MatchScratch::factoring_key()), so a warm lookup allocates nothing.
  [[nodiscard]] const FrozenBucket* bucket_for(const Event& event,
                                               FactoringIndex::Key& scratch_key) const {
    if (factoring_ == nullptr) return single_.get();
    factoring_->event_key_into(event, scratch_key);
    const auto it = buckets_.find(scratch_key);
    return it == buckets_.end() ? nullptr : it->second.get();
  }

  [[nodiscard]] bool factored() const { return factoring_ != nullptr; }
  /// Frontier subscription replicas in the compiled tables (parked
  /// subscriptions are in none).
  [[nodiscard]] std::size_t subscription_count() const { return subscription_count_; }

 private:
  friend class SnapshotBuilder;

  const FactoringIndex* factoring_{nullptr};  // owned by the core's matcher
  std::shared_ptr<const FrozenBucket> single_;  // unfactored spaces only
  std::unordered_map<FactoringIndex::Key, std::shared_ptr<const FrozenBucket>,
                     FactoringIndex::KeyHash>
      buckets_;  // factored spaces only
  std::size_t subscription_count_{0};
};

/// The read-side state of a whole BrokerCore at one control-plane version.
struct CoreSnapshot {
  std::uint64_t version{0};
  std::vector<std::shared_ptr<const FrozenSpace>> spaces;
};

/// The publication point: holds the current snapshot, swapped atomically by
/// the writer, pinned (copied) by readers. A hand-rolled mutexed slot
/// instead of std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic is a
/// pointer-packed spinlock whose relaxed unlock ThreadSanitizer cannot
/// model, and the critical section here — one refcount bump — is the same
/// cost either way.
class SnapshotSlot {
 public:
  [[nodiscard]] std::shared_ptr<const CoreSnapshot> load() const {
    MutexLock lock(mutex_);
    return current_;
  }
  void store(std::shared_ptr<const CoreSnapshot> next) {
    MutexLock lock(mutex_);
    current_ = std::move(next);
  }

 private:
  mutable Mutex mutex_;
  std::shared_ptr<const CoreSnapshot> current_ GUARDED_BY(mutex_);
};

/// Compile work accounting for one freeze, so the control plane can expose
/// delta- vs full-recompile behaviour (Broker::Stats, bench/churn_bench).
struct CompileStats {
  std::size_t segments_compiled{0};
  std::size_t segments_reused{0};
};

/// Builds FrozenSpace instances and assembles CoreSnapshots for BrokerCore.
/// Stateless besides the broker-shape parameters; call the build methods
/// under the writer serialization. This is the *only* place CoreSnapshots
/// are constructed — gryphon-analyze (tools/analyze) enforces that
/// statically, so
/// every snapshot the data plane can ever pin went through the compile/reuse
/// pipeline below.
class SnapshotBuilder {
 public:
  /// Resolves a subscription to its owner: the index its group link
  /// tables are keyed by.
  using OwnerFn = std::function<std::uint32_t(SubscriptionId)>;

  /// `group_links[g][owner]` is the link an owner's subscriptions take
  /// under spanning-tree group g (CompiledAnnotation's flat tables).
  SnapshotBuilder(std::size_t link_count, LinkIndex local_link, OwnerFn owner_of,
                  std::vector<std::vector<LinkIndex>> group_links)
      : link_count_(link_count),
        local_link_(local_link),
        owner_of_(std::move(owner_of)),
        group_links_(std::move(group_links)) {}

  /// The mutable sources of one space at freeze time: its frontier
  /// slices, indexed by segment id, each frozen; at least one, all sharing
  /// one schema/options shape. Segment 0's factoring index is the space's
  /// event-key authority.
  using SpaceSources = std::vector<const PstMatcher*>;

  /// Freezes the current state of `sources`, reusing compiled segments
  /// from `previous` (may be null) whose kernel the source tree still
  /// carries. `stats` (may be null) accumulates compile/reuse counts.
  /// Throws std::logic_error on a non-empty tree without a kernel.
  [[nodiscard]] std::shared_ptr<const FrozenSpace> freeze(const SpaceSources& sources,
                                                          const FrozenSpace* previous,
                                                          CompileStats* stats) const;

  /// The initial (version 0) snapshot: every space frozen from scratch.
  [[nodiscard]] std::shared_ptr<const CoreSnapshot> initial_snapshot(
      const std::vector<SpaceSources>& spaces) const;

  /// The successor of `current`: space `touched` is re-frozen (reusing its
  /// unchanged segments), every other space carries over wholesale.
  [[nodiscard]] std::shared_ptr<const CoreSnapshot> next_snapshot(
      const CoreSnapshot& current, std::size_t touched, const SpaceSources& sources,
      CompileStats* stats) const;

 private:
  [[nodiscard]] std::shared_ptr<const CompiledSegment> annotate_segment(
      std::shared_ptr<const CompiledPst> kernel, std::size_t subscriptions) const;

  std::size_t link_count_;
  LinkIndex local_link_;
  OwnerFn owner_of_;
  std::vector<std::vector<LinkIndex>> group_links_;
};

}  // namespace gryphon
