// ContentRoutingNetwork: the complete link-matching control plane for a
// broker network (paper Section 3).
//
// Every broker in the network holds a copy of all subscriptions organized
// into a PST (Section 3.1). This class keeps ONE shared PstMatcher (the
// trees are identical at every broker anyway) and, per broker:
//   * one trit-annotation set per distinct destination->link map. On
//     acyclic ("tree-like") networks every spanning tree induces the same
//     map, so brokers hold a single annotation set; with lateral links a
//     broker holds one per distinct map, deduplicated by signature — the
//     "virtual links" refinement sketched in the paper's footnote 1;
//   * one initialization mask per spanning tree (Section 3.2): Maybe on
//     links leading to descendant destinations, No elsewhere.
//
// route(broker, event, tree_root) performs the mask-refinement search of
// Section 3.3 and returns the links (broker links and local client links)
// the event must be forwarded on; route_into() writes them into a
// caller-owned buffer instead, so a per-hop caller allocates nothing.
//
// Every broker on an event's spanning tree searches the same kernel with
// the same event; only its annotation rows differ. prepare(event) does
// the event-only part once — the factoring bucket probe, the compiled
// tree, and the kernel nodes the event reaches (an EventRoute) — and
// route_into(broker, route, tree_root, links) then only refines that
// broker's rows along the reached nodes. The result, steps included, is
// the same as route()'s.
//
// Each PST (the single tree, or one per factoring bucket) is routed by one
// of two kernels, chosen from how the tree is used. Each is built at the
// tree's first read by route(), or by compile_all(), never before: a
// network that is never routed (the simulator's flooding and match-first
// runs) holds no annotations.
//   * compiled: one CompiledPst shared by every broker, plus one
//     CompiledAnnotation per broker holding that broker's spanning-tree
//     groups (only the rows a search can reach; see compiled_annotation.h,
//     "Stored rows"), searched with compiled_dispatch_into, the broker's
//     allocation-free kernel. subscribe() only marks the tree; a burst of
//     subscriptions costs one compile (compile_all() pays it up front,
//     sharing the matcher's frozen kernel and building the brokers'
//     annotations on several threads). A compile resolves each kernel
//     subscriber's destination client once; every broker's rows then read
//     dense client -> link tables, one per group;
//   * incremental: per-group AnnotatedPsts, maintained spine by spine on
//     every subscribe/unsubscribe once built and searched with link_match.
//     A tree mutated after it has been read switches to it for good.
//     Recompiling per change would cost a full compile of the tree and of
//     every broker's annotation rows per operation (compile_all of a
//     4,000-subscription Figure 6 tree: 8-12 ms on 1 thread, 3-4 ms on 4)
//     where a spine update costs 53-60 us per subscribe over 39 brokers;
//     a per-hop route costs 0.6-0.7 us compiled and 4.8-5.4 us incremental
//     (see EXPERIMENTS.md).
// Both kernels produce the same links and the same step counts. The
// compiled kernel is used only when the trees apply trivial-test
// elimination, which CompiledPst always does structurally; without it
// every tree is routed incrementally.
//
// Concurrency: any number of threads may call route() concurrently (each
// searches with its own thread-local MatchScratch); subscribe() and
// unsubscribe() must not overlap route(). A steady-state route() takes no
// lock — one acquire load of the tree's compiled form. The first read of
// a changed tree compiles it under a mutex and publishes the result with a
// release store.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "matching/compiled_pst.h"
#include "matching/match_scratch.h"
#include "matching/pst_matcher.h"
#include "routing/annotated_pst.h"
#include "routing/compiled_annotation.h"
#include "routing/link_matcher.h"
#include "routing/trit.h"
#include "topology/network.h"
#include "topology/routing_table.h"
#include "topology/spanning_tree.h"

namespace gryphon {

class ContentRoutingNetwork;

/// One event's routing state, computed once by
/// ContentRoutingNetwork::prepare() and read by every hop: the bucket tree
/// the event falls in and, when that tree is compiled, its annotations and
/// the kernel nodes the event reaches (CompiledPst::reach).
///
/// A route is valid only while its tree is unmutated: a subscribe or
/// unsubscribe that touches the tree frees the compiled form the route
/// points into. route_into() checks the tree's mutation epoch and throws
/// std::logic_error on a stale route. A run whose subscriptions churn
/// therefore routes every hop from the event instead. The route also
/// refers to prepare()'s event, which must outlive it.
class EventRoute {
 private:
  friend class ContentRoutingNetwork;
  EventRoute() = default;
  const Event* event_{nullptr};
  const Pst* tree_{nullptr};  // null: no subscription can match
  std::uint64_t epoch_{0};    // tree_'s epoch when prepared
  /// The compiled tree's annotations, by broker; null when the tree is
  /// routed incrementally (the route then carries no reach list).
  const std::vector<CompiledAnnotation>* annotations_{nullptr};
  EventReach reach_;
};

class ContentRoutingNetwork {
 public:
  /// `tree_roots` are the brokers that host publishers — one spanning tree
  /// is built per entry (Section 3.2: "at worst, there will be one spanning
  /// tree for each broker that has publisher neighbors").
  ContentRoutingNetwork(const BrokerNetwork& network, SchemaPtr schema,
                        std::vector<BrokerId> tree_roots,
                        PstMatcherOptions matcher_options = PstMatcherOptions());

  [[nodiscard]] const BrokerNetwork& network() const { return *network_; }
  [[nodiscard]] const RoutingTable& routing() const { return routing_; }
  [[nodiscard]] const SpanningTree& spanning_tree(BrokerId root) const;
  [[nodiscard]] const PstMatcher& matcher() const { return *matcher_; }
  [[nodiscard]] const SchemaPtr& schema() const { return schema_; }
  [[nodiscard]] std::size_t subscription_count() const {
    return matcher_->subscription_count();
  }

  /// Registers a subscription for `subscriber` network-wide: the shared PST
  /// is extended; a tree already read by route() switches to (or stays on)
  /// incrementally maintained annotations, any other builds its form at
  /// its next read.
  /// The network keeps `subscription` itself (its matcher's registry
  /// references it), not a copy.
  void subscribe(SubscriptionId id, SubscriptionRef subscription, ClientId subscriber);
  /// As above for a caller holding a value: moves (or copies) it once
  /// into the object the matcher references.
  void subscribe(SubscriptionId id, Subscription subscription, ClientId subscriber) {
    subscribe(id, std::make_shared<const Subscription>(std::move(subscription)), subscriber);
  }

  /// Removes a subscription network-wide; false when the id is unknown.
  bool unsubscribe(SubscriptionId id);

  [[nodiscard]] ClientId destination_of(SubscriptionId id) const;

  struct RouteResult {
    /// Ports of `broker` (broker links and client links) with a final Yes.
    std::vector<LinkIndex> links;
    /// Matching steps spent at this broker (node visitations + index probe).
    std::uint64_t steps{0};
  };

  /// The per-hop forwarding decision of the link-matching protocol: which
  /// of `broker`'s links should carry `event`, published via the spanning
  /// tree rooted at `tree_root`. Searches with the calling thread's
  /// scratch (thread_match_scratch()).
  [[nodiscard]] RouteResult route(BrokerId broker, const Event& event,
                                  BrokerId tree_root) const;

  /// route() into a caller-owned buffer: clears `links`, appends the Yes
  /// ports in increasing order and returns the matching steps. On compiled
  /// trees a warm buffer makes the hop allocation-free.
  std::uint64_t route_into(BrokerId broker, const Event& event, BrokerId tree_root,
                           std::vector<LinkIndex>& links) const;

  /// The event-only part of every hop's route(): the bucket probe, the
  /// tree's compiled form (compiling it on its first read, as route()
  /// does) and the kernel nodes the event reaches. See EventRoute for how
  /// long the result stays valid.
  [[nodiscard]] EventRoute prepare(const Event& event) const;

  /// route_into() for a prepared event: refines `broker`'s annotation rows
  /// along the route's reach list, with no kernel walk. Same links and
  /// steps as route_into(broker, event, tree_root, links).
  std::uint64_t route_into(BrokerId broker, const EventRoute& route, BrokerId tree_root,
                           std::vector<LinkIndex>& links) const;

  /// Freezes the shared matcher and compiles every tree that is neither
  /// compiled nor churning around the kernel the freeze left on it, so
  /// route() and match() share one compile per tree. The brokers'
  /// annotations are built on up to `threads` threads (1: on the caller
  /// only); the result does not depend on the count. The simulator calls
  /// it at the end of construction. Like subscribe(), must not overlap
  /// route().
  void compile_all(std::size_t threads = 1);

  /// Freezes the shared matcher, so match() searches compiled kernels,
  /// without building any routing annotation. Like subscribe(), must not
  /// overlap route().
  void freeze_matcher() { matcher_->freeze(); }

  /// How many trees each kernel currently serves (observability and test
  /// hook).
  struct KernelCounts {
    std::size_t compiled{0};     ///< compiled, current
    std::size_t incremental{0};  ///< AnnotatedPst + link_match (built or not)
    std::size_t pending{0};      ///< compilable, not read since it changed
    std::size_t annotated{0};    ///< holding annotations of either form
  };
  [[nodiscard]] KernelCounts kernel_counts() const;

  /// Bytes of every published compiled tree's annotations
  /// (CompiledAnnotation::memory_bytes, all brokers). The kernels are the
  /// matcher's (PstMatcher::kernel_bytes) and not counted here.
  [[nodiscard]] std::size_t annotation_bytes() const;

  /// Test hook: the kernel route() searches `tree` with (null if none).
  [[nodiscard]] const CompiledPst* routing_kernel(const Pst& tree) const;
  /// Test hook: `broker`'s annotation rows for `tree` (null unless the
  /// tree is compiled).
  [[nodiscard]] const CompiledAnnotation* routing_annotation(const Pst& tree,
                                                             BrokerId broker) const;

  /// Centralized matching (Section 2): the full destination list, as the
  /// match-first baseline would compute at the publisher's broker.
  [[nodiscard]] std::vector<SubscriptionId> match(const Event& event,
                                                  MatchStats* stats = nullptr) const;

  /// The initialization mask of `broker` for the given spanning tree.
  [[nodiscard]] const TritVector& initialization_mask(BrokerId broker,
                                                      BrokerId tree_root) const;

  /// Distinct annotation sets held by a broker (1 on acyclic networks).
  [[nodiscard]] std::size_t annotation_group_count(BrokerId broker) const;

  /// Test hook: re-derives every incremental annotation from scratch and
  /// compares it with the maintained state, and checks that every compiled
  /// tree is current with its Pst's mutation epoch. Throws
  /// std::logic_error on drift or staleness.
  void check_consistency() const;

 private:
  /// A broker's view of one spanning tree.
  struct RootView {
    std::size_t group{0};  // index into BrokerState::groups
    TritVector init_mask;  // byte form, for link_match on incremental trees
    std::vector<TritWord> packed_init_mask;  // the same mask, for the compiled kernel
  };
  struct BrokerState {
    std::size_t link_count{0};
    /// One spanning tree per group (group_by_link_map): its destination ->
    /// link map is the group's.
    std::vector<const SpanningTree*> groups;
    /// The broker's first group's index in a tree's incremental
    /// annotations, which hold every broker's groups in broker order.
    std::size_t first_group{0};
    std::vector<RootView> roots;  // by root_index_
    /// [group][client]: the link toward each client under each group, for
    /// the compiled annotation. Empty until the broker's first compile,
    /// which fills it under compile_mutex_ (each broker's slot from one
    /// thread).
    mutable std::vector<std::vector<LinkIndex>> client_links;
  };
  /// A tree's compiled form: one kernel shared by every broker, plus each
  /// broker's annotation rows (one row block per group).
  struct CompiledTree {
    std::uint64_t epoch;
    std::shared_ptr<const CompiledPst> kernel;
    std::vector<CompiledAnnotation> annotations;  // by broker
  };
  /// A tree's incremental form: one AnnotatedPst per (broker, group), at
  /// BrokerState::first_group + group.
  using AnnotatedTree = std::vector<AnnotatedPst>;
  struct TreeState {
    /// Routed by the incremental form, for good: the tree churned after a
    /// read, or the trees skip trivial-test elimination.
    bool incremental{false};
    /// The published form of each kind; null until the tree's first read
    /// (of its kind). Written under compile_mutex_ by route(); subscribe()
    /// and unsubscribe() reset the compiled form and update the incremental
    /// one.
    mutable std::atomic<const CompiledTree*> compiled{nullptr};
    mutable std::unique_ptr<const CompiledTree> owned;
    mutable std::atomic<const AnnotatedTree*> annotated{nullptr};
    mutable std::unique_ptr<AnnotatedTree> owned_annotated;
  };

  void apply_touched(const PstMatcher::TouchedTrees& touched);
  /// `broker`'s view of the spanning tree rooted at `tree_root`; throws
  /// std::invalid_argument for a broker or root the network lacks.
  const RootView& root_view(BrokerId broker, BrokerId tree_root) const;
  /// The compiled form route() searches `tree` with, compiled here on the
  /// tree's first read.
  const CompiledTree& compiled_for_read(const Pst& tree, const TreeState& state) const;
  /// The incremental form route() searches `tree` with, built here on the
  /// tree's first read as incremental.
  const AnnotatedTree& annotated_for_read(const Pst& tree, const TreeState& state) const;
  /// Appends the Yes links of a packed refined mask to `links`.
  static void append_yes_links(PackedTritSpan mask, std::vector<LinkIndex>& links);
  /// Publishes `tree`'s compiled form around `kernel` (null: compile here),
  /// building the brokers' annotations on up to `threads` threads.
  const CompiledTree& compile(const Pst& tree, const TreeState& state,
                              std::shared_ptr<const CompiledPst> kernel,
                              std::size_t threads) const;
  /// The client -> link table of every group of broker `b`, built on the
  /// broker's first compile.
  const std::vector<std::vector<LinkIndex>>& client_links(std::size_t b) const;

  const BrokerNetwork* network_;
  SchemaPtr schema_;
  RoutingTable routing_;
  std::map<BrokerId, std::unique_ptr<SpanningTree>> trees_;
  /// By broker id: the root's index into BrokerState::roots (its rank in
  /// trees_), or -1 for a broker that roots no tree.
  std::vector<std::int32_t> root_index_;
  std::unique_ptr<PstMatcher> matcher_;
  std::unordered_map<SubscriptionId, ClientId> destinations_;
  std::vector<BrokerState> broker_states_;
  /// Bucket trees are never freed while the matcher lives, so the tree
  /// pointer is a stable key (and map nodes never move).
  std::unordered_map<const Pst*, TreeState> tree_states_;
  mutable Mutex compile_mutex_;
};

}  // namespace gryphon
