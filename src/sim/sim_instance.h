// Internal shared state between the Simulation front-door (which builds it
// from a SimSpec) and the engine (which runs it). Not part of the public
// API — include sim/simulation.h instead.
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "matching/pst_matcher.h"
#include "routing/content_router.h"
#include "sim/link_channel.h"
#include "sim/partitioning.h"
#include "sim/sim_spec.h"
#include "sim/simulation.h"
#include "topology/routing_table.h"
#include "topology/spanning_tree.h"

namespace gryphon {

/// One scripted churn operation. Unsubscribes carry a reference to the
/// subscription they remove so the post-run rollback can restore it;
/// subscribes hold the only reference to theirs until applied.
struct ChurnOp {
  Ticks time{0};
  bool subscribe{true};
  SimSubscription sub;
};

struct SimInstance {
  SimSpec spec;
  SchemaPtr schema;
  GeneratedTopology topo;
  std::vector<BrokerId> publishers;
  /// The subscription store: each subscription once. The control plane's
  /// matchers and the churn script reference these objects.
  std::vector<SimSubscription> subscriptions;
  std::vector<Event> events;
  std::vector<PublishRecord> base_schedule;
  std::size_t event_payload_bytes{0};
  /// True when the aggregate (scale) control plane is active.
  bool aggregate{false};

  // Exact control plane (nullptr under aggregate).
  std::unique_ptr<ContentRoutingNetwork> crn;
  // Aggregate control plane (nullptr under exact; the exact plane exposes
  // the same pieces through the CRN).
  std::unique_ptr<RoutingTable> routing;
  std::map<BrokerId, std::unique_ptr<SpanningTree>> trees;
  std::unique_ptr<PstMatcher> shared_matcher;
  std::unordered_map<SubscriptionId, ClientId> destinations;

  /// Per-broker matchers over local clients' subscriptions (flooding in
  /// both modes; link matching under aggregate). Empty otherwise.
  std::vector<std::unique_ptr<PstMatcher>> local_matchers;

  /// Per-spanning-tree acceleration: resolved child ports, and (aggregate
  /// only) DFS entry/exit indices for O(log n) subtree membership tests on
  /// the matched-home lists.
  struct TreeAux {
    std::vector<std::vector<std::pair<BrokerId, LinkIndex>>> children_ports;
    std::vector<std::uint32_t> pre, post;
  };
  std::map<BrokerId, TreeAux> tree_aux;

  // Per-event precompute. Empty when churn is enabled (the control plane
  // mutates mid-run, so publishers match live instead).
  std::vector<std::uint64_t> event_match_steps;       // central match steps per event
  std::vector<std::vector<ClientId>> event_dests;     // sorted unique destinations
  /// Aggregate link matching: matched home brokers as sorted DFS indices of
  /// the event's spanning tree, keyed (event, tree root).
  std::map<std::pair<std::uint32_t, BrokerId::rep_type>,
           std::shared_ptr<const std::vector<std::uint32_t>>>
      event_homes;
  std::vector<char> oracle_selected;
  double oracle_fraction{1.0};
  std::size_t oracle_events{0};
  std::uint64_t centralized_steps{0};  // over oracle-selected events

  // Dynamics.
  std::vector<ChurnOp> churn;
  bool churn_enabled{false};
  std::vector<std::vector<std::pair<Ticks, Ticks>>> outage_storage;
  std::vector<std::vector<LinkChannel>> channels;  // [broker][port]
  std::uint64_t link_outages{0};

  [[nodiscard]] const RoutingTable& routing_table() const {
    return crn ? crn->routing() : *routing;
  }
  [[nodiscard]] const SpanningTree& tree(BrokerId root) const {
    return crn ? crn->spanning_tree(root) : *trees.at(root);
  }
  [[nodiscard]] const PstMatcher& matcher() const {
    return crn ? crn->matcher() : *shared_matcher;
  }
  [[nodiscard]] ClientId destination_of(SubscriptionId id) const {
    return crn ? crn->destination_of(id) : destinations.at(id);
  }

  /// Registers (removes) one subscription in every live control-plane
  /// structure: the CRN or the shared matcher, and its home broker's local
  /// matcher. The structures reference `sub`'s subscription.
  void add_to_control_plane(const SimSubscription& sub);
  void remove_from_control_plane(const SimSubscription& sub);

  /// Applies one churn operation to every live control-plane structure and
  /// records its inverse for rollback_churn().
  void apply_churn_op(const ChurnOp& op);
  /// Undoes every applied churn operation (reverse order) so a Simulation
  /// can be run repeatedly with identical results.
  void rollback_churn();

  std::vector<ChurnOp> rollback_log;

  /// The engine's broker partitioning for `threads` workers, computed on
  /// first use and reused by every later run.
  const PartitionPlan& partition_plan(std::size_t threads);

  std::map<std::size_t, PartitionPlan> partition_plans;  // keyed by threads
};

}  // namespace gryphon
