// SimSpec: the declarative description of one simulation campaign point.
//
// A spec bundles everything a run needs — topology, workload, protocol, cost
// model, verification policy, and engine options — behind a single top-level
// seed. Every stochastic component (topology generation, subscriptions,
// events, the publication schedule, churn, link faults, background load,
// oracle sampling) draws from its own splitmix-derived sub-stream of that
// seed, so two specs that differ only in `protocol` or `engine` produce
// bit-identical topologies, workloads, and schedules: protocol comparisons
// and serial-vs-parallel differentials are apples-to-apples by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "event/event.h"
#include "event/schema.h"
#include "event/subscription.h"
#include "matching/pst_matcher.h"
#include "topology/builders.h"
#include "workload/generators.h"

namespace gryphon {

enum class Protocol : std::uint8_t { kLinkMatching = 0, kFlooding = 1, kMatchFirst = 2 };

const char* to_string(Protocol protocol) noexcept;

/// A subscription held by reference that reads as a `const Subscription&`.
/// Built from a Subscription value, it moves (or copies) that value once
/// into a new shared object; copies of the handle share the object. So a
/// scripted workload holds each subscription once, and every instance
/// built from it, and every matcher in that instance, references the same
/// object.
class SharedSubscription {
 public:
  // Implicit both ways, so code that scripts and reads subscriptions as
  // values keeps compiling unchanged.
  SharedSubscription(Subscription subscription)
      : ref_(std::make_shared<const Subscription>(std::move(subscription))) {}
  explicit SharedSubscription(SubscriptionRef ref) : ref_(std::move(ref)) {}

  operator const Subscription&() const { return *ref_; }
  const Subscription* operator->() const { return ref_.get(); }
  [[nodiscard]] const SubscriptionRef& ref() const { return ref_; }

 private:
  SubscriptionRef ref_;
};

/// One subscription in a simulation setup.
struct SimSubscription {
  SubscriptionId id;
  SharedSubscription subscription;
  ClientId subscriber;
};

/// One scheduled publication: `event_index` into the run's event list,
/// injected at the given broker at the given virtual time.
struct PublishRecord {
  Ticks time{0};
  BrokerId broker;
  std::size_t event_index{0};
};

enum class TopologyKind : std::uint8_t {
  kFigure6 = 0,   // the paper's 39-broker WAN (three regional trees)
  kLine,          // path of `brokers` brokers
  kStar,          // hub + spokes
  kRandomTree,    // random tree (+ `extra_links` lateral links)
  kFatTree,       // three-tier data-center fat-tree (`fat_tree` options)
  kWaxman,        // Waxman random graph (`waxman` options)
  kWan,           // multi-region WAN with per-region delay bands (`wan`)
};

const char* to_string(TopologyKind kind) noexcept;

struct TopologySpec {
  TopologyKind kind{TopologyKind::kFigure6};
  /// Broker count for kLine / kStar / kRandomTree. kFigure6, kFatTree,
  /// kWaxman, and kWan size themselves from their own option structs.
  std::size_t brokers{8};
  std::size_t clients_per_broker{10};
  double client_delay_ms{1.0};
  /// Inter-broker delay band for kLine / kStar / kRandomTree.
  double min_delay_ms{5.0};
  double max_delay_ms{5.0};
  /// kRandomTree: lateral links beyond the tree.
  std::size_t extra_links{0};
  Figure6Options figure6{};
  FatTreeOptions fat_tree{};
  WaxmanOptions waxman{};
  WanOptions wan{};
};

/// Builds the topology a spec describes. Generator randomness comes from the
/// spec seed's topology sub-stream, so identical (spec, seed) pairs yield
/// identical networks. Exposed separately from Simulation so tests can
/// inspect a topology without paying for a control plane.
GeneratedTopology build_topology(const TopologySpec& topology, std::uint64_t seed);

struct ArrivalSpec {
  enum class Kind : std::uint8_t { kPoisson = 0, kBursty } kind{Kind::kPoisson};
  /// kBursty: exponentially distributed ON/OFF period means. The ON rate is
  /// scaled so the long-run average equals the configured aggregate rate.
  double mean_on_seconds{0.5};
  double mean_off_seconds{2.0};
};

/// Fully scripted pieces override their generated counterparts; any field
/// left empty is generated from the spec. Lets tests pin exact
/// subscriptions, events, or publication times while keeping the rest.
struct ScriptedWorkload {
  std::vector<SimSubscription> subscriptions;
  std::vector<Event> events;
  std::vector<PublishRecord> schedule;
};

struct WorkloadSpec {
  std::size_t subscriptions{400};
  std::size_t events{60};
  /// Aggregate tracked-publisher rate (events/second) of the base schedule.
  double rate_eps{40.0};
  /// Tracked publishers: spread evenly over the topology's client-hosting
  /// brokers (kFigure6 uses its canonical P1..P3 brokers when this is 3).
  /// Event i publishes from publishers[i % P], the paper's shape.
  std::size_t publishers{3};
  ArrivalSpec arrivals{};
  /// Synthetic subscriptions and events take per-region zipf rank
  /// permutations ("locality of interest") on multi-region topologies, and
  /// events draw values with zipf skew 1.
  SubscriptionWorkloadConfig subscription_config{};
  /// Subscription churn during the run: subscribe/unsubscribe operations at
  /// this aggregate Poisson rate (0 = static subscription set), half of
  /// them unsubscribes. Delivery verification is skipped under churn — the
  /// publish-time oracle cannot account for in-flight events.
  double churn_rate_eps{0.0};
  /// Link down/up dynamics: each inter-broker link fails with this mean
  /// time between failures (0 = no faults) and heals after an
  /// exponentially distributed repair time. A downed link holds frames and
  /// releases them on heal (the PR 4 reliable-session abstraction), so
  /// deliveries are delayed, never lost.
  double link_mtbf_seconds{0.0};
  double link_mttr_seconds{2.0};
  ScriptedWorkload scripted{};
};

/// The per-message CPU costs are fixed (the paper's one cost model; see
/// engine.cpp); only the background load varies.
struct CostSpec {
  /// Background load (Section 4.1): each broker additionally receives
  /// untracked messages at this Poisson rate (events/second), each burning
  /// a fixed CPU cost and nothing else.
  double background_rate_per_broker{0.0};
};

struct LimitSpec {
  /// A broker whose input queue reaches this length is overloaded.
  std::size_t overload_backlog_threshold{100};
  /// Give the network this long after the last publication to drain;
  /// failing to drain also marks the run overloaded.
  Ticks drain_limit{ticks_from_seconds(60)};
};

struct VerifySpec {
  /// Check delivered sets against the centralized matching oracle.
  bool verify_deliveries{true};
  /// Check that no (event, link) pair ever carries two copies.
  bool verify_single_copy_per_link{false};
  /// Fraction of events whose delivered set is verified. 0 selects the auto
  /// policy: full verification for small runs, sampled once
  /// events * clients exceeds ~10M tracked deliveries. The fraction
  /// actually used is reported as SimResult::oracle_sampled_fraction —
  /// sampling is never silent.
  double oracle_sample{0.0};
};

/// How link matching routes a hop. Every mode holds the same control
/// plane (one ContentRoutingNetwork); the mode picks the link-matching
/// model only, and both stay because each answers what the other cannot.
/// Exact gives the paper's per-hop step counts but its annotation rows
/// grow with brokers x kernel nodes x groups: 95 MiB at fattree-180
/// (50,000 subscriptions), 1.8 GiB at waxman-500 with 50,000 of its
/// 200,000, 340 MiB at wan-1000 with 40,000 of its 1,000,000. Aggregate
/// builds no rows and reproduces the traffic (DESIGN.md, section 5).
enum class ControlPlaneMode : std::uint8_t {
  /// kExact up to 64 brokers and 20,000 subscriptions, kAggregate beyond
  /// either.
  kAuto = 0,
  /// Every broker holds annotation rows for each tree an event reaches
  /// and runs the paper's mask-refinement search per hop. Exact step
  /// counts; memory and compile cost scale with brokers x subscriptions.
  kExact,
  /// Scale mode: the per-event match set is computed once (shared matcher)
  /// and link-matching forwarding is derived from spanning-tree subtree
  /// membership of the matched home brokers. Deliveries, messages, and
  /// bytes equal the exact model's on static subscriptions; per-hop
  /// matching steps are modeled (SimResult::steps_exact == false).
  kAggregate,
};

struct EngineSpec {
  /// Worker threads for the event loop, and for the independent pieces of
  /// construction (per-broker annotations and matchers, the oracle's
  /// per-event matches). 1 = serial. Results are identical across thread
  /// counts (conservative synchronization, deterministic event ordering,
  /// construction pieces writing disjoint slots); only wall_seconds
  /// changes.
  std::size_t threads{1};
  ControlPlaneMode control_plane{ControlPlaneMode::kAuto};
};

struct SimSpec {
  /// The single top-level seed; every stochastic component derives its own
  /// sub-stream from it (see SimStream / sim_stream_seed).
  std::uint64_t seed{42};
  Protocol protocol{Protocol::kLinkMatching};
  /// Synthetic schema shape (ignored when `schema` is set).
  std::size_t attributes{10};
  std::size_t values_per_attribute{5};
  /// Optional explicit schema for scripted workloads.
  SchemaPtr schema{};
  TopologySpec topology{};
  WorkloadSpec workload{};
  PstMatcherOptions matcher{};
  CostSpec costs{};
  LimitSpec limits{};
  VerifySpec verify{};
  EngineSpec engine{};
};

/// Named sub-streams of the spec seed. Adding a stream never perturbs the
/// existing ones (each is an independent splitmix64 mix of seed and label).
enum class SimStream : std::uint64_t {
  kTopology = 1,
  kSubscriptions,
  kEvents,
  kSchedule,
  kChurn,
  kLinkFaults,
  kBackground,
  kOracle,
};

std::uint64_t sim_stream_seed(std::uint64_t seed, SimStream stream) noexcept;

}  // namespace gryphon
