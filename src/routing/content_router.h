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
// Each PST (the single tree, or one per factoring bucket) is routed by one
// of two kernels, chosen from how the tree is used:
//   * compiled on first read: a tree is compiled the first time route()
//     reads it after it changed — one CompiledPst shared by every broker,
//     plus one CompiledAnnotation per broker holding that broker's
//     spanning-tree groups — and searched with compiled_dispatch_into, the
//     broker's allocation-free kernel. subscribe() only marks the tree;
//     a burst of subscriptions costs one compile (compile_all() pays it
//     up front, sharing the matcher's frozen kernel and building the
//     brokers' annotations on several threads). A compile resolves each
//     kernel subscriber's destination client once; every broker's rows
//     then read dense client -> link tables, one per group;
//   * incremental once churning: a tree mutated after it has been read
//     switches, for good, to per-group AnnotatedPsts maintained spine by
//     spine on every subscribe/unsubscribe and searched with link_match.
//     Recompiling per change would cost a full compile of the tree and of
//     every broker's annotation rows per operation (36-50 ms per op on the
//     Figure 6 churn workload vs <= 0.2 ms for a spine update; see
//     EXPERIMENTS.md).
// Both kernels produce the same links and the same step counts. The
// compiled kernel is used only when the trees apply trivial-test
// elimination, which CompiledPst always does structurally.
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
  /// incrementally maintained annotations, any other is compiled at its
  /// next read.
  void subscribe(SubscriptionId id, const Subscription& subscription, ClientId subscriber);

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

  /// Freezes the shared matcher and compiles every tree that is neither
  /// compiled nor churning around the kernel the freeze left on it, so
  /// route() and match() share one compile per tree. The brokers'
  /// annotations are built on up to `threads` threads (1: on the caller
  /// only); the result does not depend on the count. The simulator calls
  /// it at the end of construction. Like subscribe(), must not overlap
  /// route().
  void compile_all(std::size_t threads = 1);

  /// How many trees each kernel currently serves (observability and test
  /// hook).
  struct KernelCounts {
    std::size_t compiled{0};     ///< compiled, current
    std::size_t incremental{0};  ///< churning: AnnotatedPst + link_match
    std::size_t pending{0};      ///< changed since created, not yet read
  };
  [[nodiscard]] KernelCounts kernel_counts() const;

  /// Test hook: the kernel route() searches `tree` with (null if none).
  [[nodiscard]] const CompiledPst* routing_kernel(const Pst& tree) const;

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
  struct Group {
    /// The spanning tree whose destination -> link map the group shares.
    const SpanningTree* representative{nullptr};
    SubscriptionLinkFn link_of;
    /// Incremental annotations, for churning trees only.
    std::unordered_map<const Pst*, std::unique_ptr<AnnotatedPst>> annotations;
  };
  /// A broker's view of one spanning tree.
  struct RootView {
    std::size_t group{0};  // index into BrokerState::groups
    TritVector init_mask;  // byte form, for link_match on churning trees
    std::vector<TritWord> packed_init_mask;  // the same mask, for the compiled kernel
  };
  struct BrokerState {
    std::size_t link_count{0};
    std::vector<std::unique_ptr<Group>> groups;
    std::unordered_map<BrokerId, RootView> roots;
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
  struct TreeState {
    /// Churning: routed by the per-group AnnotatedPsts, for good.
    bool incremental{false};
    /// The published compiled form; null until the first read. Written
    /// under compile_mutex_ by route(), reset by subscribe/unsubscribe.
    mutable std::atomic<const CompiledTree*> compiled{nullptr};
    mutable std::unique_ptr<const CompiledTree> owned;
  };

  void apply_touched(const PstMatcher::TouchedTrees& touched);
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
  std::unique_ptr<PstMatcher> matcher_;
  std::unordered_map<SubscriptionId, ClientId> destinations_;
  std::vector<BrokerState> broker_states_;
  /// Bucket trees are never freed while the matcher lives, so the tree
  /// pointer is a stable key (and map nodes never move).
  std::unordered_map<const Pst*, TreeState> tree_states_;
  mutable Mutex compile_mutex_;
};

}  // namespace gryphon
