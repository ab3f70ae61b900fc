// BrokerCore: the transport-free matching/routing engine of one broker node.
//
// Holds, per information space, the network-wide subscription set organized
// as a PST (every broker has a copy of all subscriptions — Section 3.1),
// trit-annotated for this broker's outgoing links. Link positions 0..m-1
// are this broker's inter-broker ports in the shared topology; position m
// is a pseudo-link standing for "some local subscriber" — when it refines
// to Yes, the owning Broker fans out to the matching local clients through
// the client protocol (brokers "forward messages to its subscribers based
// on their subscriptions", Section 1).
//
// Subscription destinations here are *owner brokers* (the broker a
// subscriber is attached to), so clients can come and go without touching
// other brokers' annotations.
//
// Threading contract: the control plane (add_subscription /
// remove_subscription, and the registry reads owner_of / space_of /
// has_subscription / for_each_subscription) must be externally serialized —
// the owning Broker's mutex does this. The data plane (dispatch, match_all)
// never blocks beyond a pointer copy and is safe to call from any number of
// threads concurrently with the control plane: control-plane changes are
// compiled into a fresh immutable CoreSnapshot published through the
// SnapshotSlot — per change, or once per burst when the caller defers with
// SnapshotPolicy::kDefer and publishes before the next read — and a
// dispatch pins one snapshot for the duration of the event (see
// core_snapshot.h). Dispatch and match_all run on the compiled flat kernel
// (matching/compiled_pst.h); the mutable trees are writer-only.
//
// The contract is machine-checked: control-plane methods carry
// REQUIRES(control_plane_) on a ControlPlaneCapability, so a Clang build
// with -Werror=thread-safety rejects any call path that has not either
// locked the serializing mutex and asserted the capability (what Broker
// does) or asserted single-threaded ownership (what tests and the simulator
// do). See docs/static-analysis.md.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "broker/core_snapshot.h"
#include "broker/dispatch_batch.h"
#include "common/hash.h"
#include "common/thread_annotations.h"
#include "matching/covering_index.h"
#include "matching/match_scratch.h"
#include "matching/pst_matcher.h"
#include "routing/compiled_annotation.h"
#include "topology/network.h"
#include "topology/routing_table.h"
#include "topology/spanning_tree.h"

namespace gryphon {

/// Control-plane behaviour of one BrokerCore: subscription covering and
/// incremental (delta) snapshot compilation. Both default on; the
/// differential suites (tests/test_covering.cpp) hold the on/off configs to
/// bit-identical match sets.
struct ControlPlaneOptions {
  /// Park covered subscriptions (matching/covering_index.h) instead of
  /// inserting them into the PSTs.
  bool covering{true};
  /// Target frontier subscriptions per delta segment: a space's frontier
  /// is sliced into independently compiled PstMatchers, doubling the slice
  /// count whenever the frontier exceeds segments * target (so one churn
  /// event recompiles ~target subscriptions, not the whole space). The
  /// default keeps small/medium spaces in a single slice — identical to
  /// the pre-delta layout.
  std::size_t delta_segment_target{16384};
  /// Upper bound on slices per space (growth stops here).
  std::size_t max_delta_segments{64};
};

/// Control-plane observability counters (satellite of the covering/delta
/// work): how churn was absorbed, exposed through Broker::Stats + brokerd.
struct ControlPlaneStats {
  /// log2-bucketed publish latency: bucket i counts publishes that took
  /// [2^i, 2^(i+1)) microseconds (bucket 0 also takes sub-microsecond).
  static constexpr std::size_t kHistogramBuckets = 20;

  std::uint64_t frontier_subscriptions{0};  // live in compiled kernels
  std::uint64_t covered_subscriptions{0};   // parked under coverers
  std::uint64_t delta_publishes{0};         // >= 1 compiled segment reused
  std::uint64_t full_publishes{0};          // nothing reusable
  std::uint64_t covering_only_publishes{0};  // O(1) table-sharing publishes
  std::uint64_t segments_compiled{0};
  std::uint64_t segments_reused{0};
  std::uint64_t compile_publishes{0};   // publishes that froze trees
  std::uint64_t compile_us_total{0};
  std::array<std::uint64_t, kHistogramBuckets> compile_us_histogram{};
};

/// Whether a control-plane mutation publishes a fresh snapshot before
/// returning (the default) or defers publication until publish_space() —
/// the bulk-load shape: pay one compile for a million subscribes. Broker
/// defers every mutation and publishes just before it stages an event.
enum class SnapshotPolicy : std::uint8_t { kPublish = 0, kDefer = 1 };

/// A zero-cost capability standing for "the BrokerCore control plane is
/// serialized". BrokerCore owns no lock of its own: the real exclusion is
/// external (the owning Broker's mutex_, or plain single-threaded use), so
/// callers state it to the analysis by calling assert_serialized() after
/// establishing whichever invariant applies. Clang's -Wthread-safety then
/// proves every control-plane call site sits on a serialized path; at
/// runtime the capability is an empty object.
class CAPABILITY("control_plane") ControlPlaneCapability {
 public:
  /// Declares that the calling scope is on the serialized control-plane
  /// path (lock held, or provably single-threaded). No runtime effect.
  void assert_serialized() const ASSERT_CAPABILITY(this) {}
};

class BrokerCore {
 public:
  /// `topology` must contain brokers and inter-broker links only (clients
  /// attach dynamically through the Broker layer and are not part of the
  /// static routing topology). Every broker is a potential spanning-tree
  /// root (any broker may host publishers).
  /// `data_plane_shards` partitions each factored space's compiled buckets
  /// into that many independently matchable shards (clamped to >= 1);
  /// unfactored spaces always have one effective shard. `control` selects
  /// covering/delta-compilation behaviour (both on by default).
  BrokerCore(BrokerId self, const BrokerNetwork& topology, std::vector<SchemaPtr> spaces,
             PstMatcherOptions matcher_options = PstMatcherOptions(),
             std::size_t data_plane_shards = 1, ControlPlaneOptions control = {});

  [[nodiscard]] BrokerId self() const { return self_; }
  [[nodiscard]] std::size_t space_count() const { return spaces_.size(); }
  [[nodiscard]] bool has_space(SpaceId space) const {
    return space.valid() && static_cast<std::size_t>(space.value) < spaces_.size();
  }
  [[nodiscard]] const SchemaPtr& schema(SpaceId space) const;
  /// Neighbor broker on each inter-broker port, in port order.
  [[nodiscard]] const std::vector<BrokerId>& neighbors() const { return neighbors_; }
  /// Whether `root` names a spanning tree this core can dispatch on (any
  /// broker in the topology). Immutable after construction, so callers can
  /// validate events before staging them into a DispatchBatch instead of
  /// letting one bad event poison a whole batch with an exception.
  [[nodiscard]] bool known_tree_root(BrokerId root) const {
    return group_index_of_root_.contains(root);
  }

  /// The capability serializing this core's control plane. Hold the owning
  /// broker's mutex (or be provably single-threaded), then
  /// `core.control_plane().assert_serialized()` to unlock the writer API
  /// for the current scope.
  [[nodiscard]] ControlPlaneCapability& control_plane() const
      RETURN_CAPABILITY(control_plane_) {
    return control_plane_;
  }

  /// Registers a subscription replica. `owner` is the broker whose client
  /// created it. Throws on duplicate id / bad space / schema mismatch.
  /// Publishes a new snapshot before returning unless `policy` defers it.
  void add_subscription(SpaceId space, SubscriptionId id, const Subscription& subscription,
                        BrokerId owner, SnapshotPolicy policy = SnapshotPolicy::kPublish)
      REQUIRES(control_plane_);
  /// Removes a replica; false when unknown. Publishes a new snapshot
  /// unless `policy` defers it.
  bool remove_subscription(SubscriptionId id,
                           SnapshotPolicy policy = SnapshotPolicy::kPublish)
      REQUIRES(control_plane_);
  /// Publishes any churn deferred with SnapshotPolicy::kDefer for `space`:
  /// an O(1) covering-only publish when the pending churn only parked or
  /// unparked subscriptions, a (delta) compile otherwise. No-op when
  /// nothing is pending, so callers may invoke it before every read.
  void publish_space(SpaceId space) REQUIRES(control_plane_);
  /// publish_space over every space.
  void publish_all() REQUIRES(control_plane_);
  [[nodiscard]] bool has_subscription(SubscriptionId id) const REQUIRES(control_plane_) {
    return registry_.contains(id);
  }
  [[nodiscard]] std::size_t subscription_count() const REQUIRES(control_plane_) {
    return registry_.size();
  }
  /// Subscription replicas registered for one information space.
  [[nodiscard]] std::size_t subscription_count(SpaceId space) const REQUIRES(control_plane_) {
    return space_counts_.at(static_cast<std::size_t>(space.value));
  }
  /// Frontier subscriptions of one space — what the compiled kernels carry.
  [[nodiscard]] std::size_t frontier_count(SpaceId space) const REQUIRES(control_plane_);
  /// Subscriptions of one space parked under coverers (0 when covering off).
  [[nodiscard]] std::size_t covered_count(SpaceId space) const REQUIRES(control_plane_);
  /// Current delta-segment (frontier slice) count of one space.
  [[nodiscard]] std::size_t segment_count(SpaceId space) const REQUIRES(control_plane_);
  /// Control-plane churn counters, with the live/covered totals filled in.
  [[nodiscard]] ControlPlaneStats control_plane_stats() const REQUIRES(control_plane_);

  /// The full outcome of dispatching one event at this broker. Defined in
  /// broker/dispatch_batch.h next to the batch context that carries it.
  using Decision = gryphon::Decision;

  /// Dispatches every event staged in `batch` against one pinned snapshot:
  /// the forwarding decision *and* the locally-owned matches for each
  /// event, published via its spanning tree, in one pruned search per
  /// event. This is the native call shape of the data plane — the snapshot
  /// is pinned once for the whole batch and events are matched grouped by
  /// (space, serving shard) so each shard's compiled tables stay hot. The
  /// returned span lives in `batch`, one Decision per staged event in
  /// add() order, valid until the batch is cleared or re-dispatched.
  std::span<const Decision> dispatch(DispatchBatch& batch) const;

  /// Scalar shim over the batch path for call sites that genuinely handle
  /// one event (tests, the simulator). `scratch` provides the caller-thread
  /// memoization arena; there is deliberately no scratch-defaulting
  /// overload — batch contexts own scratch now (see DispatchBatch).
  [[nodiscard]] Decision dispatch(SpaceId space, const Event& event, BrokerId tree_root,
                                  MatchScratch& scratch) const;

  /// Shards serving one space in the published snapshot (1 unless the
  /// space is factored and the core was built with data_plane_shards > 1).
  [[nodiscard]] std::size_t shard_count(SpaceId space) const;

  /// All subscriptions (network-wide replica set) matching the event.
  [[nodiscard]] std::vector<SubscriptionId> match_all(SpaceId space, const Event& event) const;

  /// The currently published snapshot (monotonically increasing version).
  [[nodiscard]] std::uint64_t snapshot_version() const {
    return snapshot_.load()->version;
  }

  /// Owner broker of a subscription; throws when unknown.
  [[nodiscard]] BrokerId owner_of(SubscriptionId id) const REQUIRES(control_plane_);

  /// Information space of a subscription; nullopt when unknown.
  [[nodiscard]] std::optional<SpaceId> space_of(SubscriptionId id) const
      REQUIRES(control_plane_) {
    const auto it = registry_.find(id);
    if (it == registry_.end()) return std::nullopt;
    return it->second.space;
  }

  /// Iterates every registered subscription replica:
  /// fn(space, id, owner, subscription). Used for state synchronization
  /// when a broker link is (re-)established. Parked subscriptions are
  /// included — covering is a local compilation strategy, not protocol
  /// state, so peers see the full replica set.
  template <typename Fn>
  void for_each_subscription(Fn&& fn) const REQUIRES(control_plane_) {
    for (const auto& [id, reg] : registry_) {
      const Space& sp = spaces_[static_cast<std::size_t>(reg.space.value)];
      if (sp.covering != nullptr) {
        if (const auto subscription = sp.covering->find(id)) {
          fn(reg.space, id, reg.owner, *subscription);
        }
        continue;
      }
      const Subscription* subscription =
          sp.segments[segment_of(id, sp.segments.size())]->find_subscription(id);
      if (subscription != nullptr) fn(reg.space, id, reg.owner, *subscription);
    }
  }

 private:
  struct Space {
    SchemaPtr schema;
    /// Frontier slices, indexed by segment_of(id); writer-only. One slice
    /// until growth (see ControlPlaneOptions::delta_segment_target).
    std::vector<std::unique_ptr<PstMatcher>> segments;
    std::unique_ptr<CoveringIndex> covering;  // null when covering off
    // Unpublished churn. A burst that only parked or unparked covered
    // subscriptions publishes in O(1) (the compiled tables are shared);
    // anything that touched a frontier slice pays a delta compile.
    bool trees_dirty{false};
    bool covering_dirty{false};
  };
  struct Registered {
    SpaceId space;
    BrokerId owner;
  };

  /// The frontier slice a subscription id lives in — a pure function, so
  /// add/remove/growth all agree.
  [[nodiscard]] static std::size_t segment_of(SubscriptionId id, std::size_t count) {
    return count <= 1 ? 0 : splitmix64(static_cast<std::uint64_t>(id.value)) % count;
  }

  [[nodiscard]] const Space& space_at(SpaceId space) const;
  [[nodiscard]] SnapshotBuilder::SpaceSources sources_of(const Space& sp) const
      REQUIRES(control_plane_);
  /// Recompiles the touched space's frozen state (reusing unchanged
  /// segments) and atomically publishes a new snapshot. Writer-side only.
  void publish_snapshot(SpaceId touched) REQUIRES(control_plane_);
  /// O(1) publish for covering-only churn: shares the compiled tables,
  /// swaps the covering sidecar.
  void publish_covering_only(SpaceId touched) REQUIRES(control_plane_);
  /// Doubles the space's slice count when the frontier outgrows
  /// delta_segment_target per slice, redistributing every frontier
  /// subscription (the next publish compiles every slice from scratch).
  void maybe_grow_segments(SpaceId space) REQUIRES(control_plane_);
  /// Matches one event against an already-pinned snapshot and fills `out`.
  /// The shared hot path under both dispatch shapes; data-plane pure.
  void dispatch_pinned(const CoreSnapshot& snapshot, SpaceId space, const Event& event,
                       BrokerId tree_root, MatchScratch& scratch, Decision& out) const;

  BrokerId self_;
  const BrokerNetwork* topology_;
  RoutingTable routing_;
  std::map<BrokerId, std::unique_ptr<SpanningTree>> trees_;
  std::vector<BrokerId> neighbors_;
  std::size_t link_count_{0};  // broker ports + 1 pseudo-local
  LinkIndex local_link_;
  std::vector<Space> spaces_;
  // Groups (their link tables live in builder_) and masks are shared across
  // spaces (they depend on topology and owner mapping only).
  std::unordered_map<BrokerId, std::size_t> group_index_of_root_;
  std::unordered_map<BrokerId, std::vector<TritWord>> init_masks_;  // packed
  mutable ControlPlaneCapability control_plane_;
  std::unordered_map<SubscriptionId, Registered> registry_ GUARDED_BY(control_plane_);
  std::vector<std::size_t> space_counts_ GUARDED_BY(control_plane_);
  PstMatcherOptions matcher_options_;  // slice shape, reused by growth
  ControlPlaneOptions control_options_;
  ControlPlaneStats stats_ GUARDED_BY(control_plane_);
  std::unique_ptr<SnapshotBuilder> builder_;
  SnapshotSlot snapshot_;
};

}  // namespace gryphon
