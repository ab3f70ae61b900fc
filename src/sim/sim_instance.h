// Internal shared state between the Simulation front-door (which builds it
// from a SimSpec) and the engine (which runs it). Not part of the public
// API — include sim/simulation.h instead.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "matching/pst_matcher.h"
#include "routing/content_router.h"
#include "sim/link_channel.h"
#include "sim/partitioning.h"
#include "sim/sim_spec.h"
#include "sim/simulation.h"

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

  /// The control plane in every protocol: routing table, one spanning tree
  /// per publishing broker (`tree_roots`), the shared matcher and the
  /// destination map. Only link matching routes through it, so only link
  /// matching builds its annotation rows.
  std::unique_ptr<ContentRoutingNetwork> crn;
  std::vector<BrokerId> tree_roots;

  /// Flooding only: per-broker matchers over local clients'
  /// subscriptions. Empty otherwise.
  std::vector<std::unique_ptr<PstMatcher>> local_matchers;

  // Per-event precompute. Empty when churn is enabled (the control plane
  // mutates mid-run, so publishers match live instead).
  std::vector<std::uint64_t> event_match_steps;       // central match steps per event
  std::vector<std::vector<ClientId>> event_dests;     // sorted unique destinations
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

  /// Registers (removes) one subscription in every live control-plane
  /// structure: the CRN, and its home broker's local matcher. The
  /// structures reference `sub`'s subscription.
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
