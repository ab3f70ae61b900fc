// Discrete-event simulation of a broker network (paper Section 4.1).
//
// Time advances in ticks of a virtual clock (~12 us). An event spends time
// traversing links (hop delay), waiting in a broker's input queue, being
// matched (CPU cost proportional to matching steps), and being sent
// (software latency per outgoing copy). Each broker is a single-server FIFO
// queue; a broker is overloaded when its input queue grows beyond what the
// processor can drain (Section 4.1, "Network Loading Results").
//
// Three routing protocols are simulated over identical topologies and
// workloads:
//   * kLinkMatching — the paper's protocol: each broker runs the
//     mask-refinement search and forwards on Yes links only;
//   * kFlooding     — events follow the whole spanning tree to every broker,
//     which matches against its local clients' subscriptions only;
//   * kMatchFirst   — the full destination list is computed at the
//     publisher's broker and attached to the message; relays split the list
//     by next hop (the "match-first" straw man of Sections 1 and 5).
//
// A run is described declaratively by a SimSpec (sim_spec.h) and executed
// by the engine (engine.h): per-broker servers fed by an explicit event
// queue over link channels, partitioned across worker threads with
// conservative lookahead. Results are bit-identical across thread counts.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "sim/sim_spec.h"
#include "topology/network.h"

namespace gryphon {

struct HopStats {
  std::uint64_t deliveries{0};
  std::uint64_t cumulative_steps{0};  // matching steps summed over the path

  [[nodiscard]] double mean_steps() const {
    return deliveries == 0 ? 0.0
                           : static_cast<double>(cumulative_steps) /
                                 static_cast<double>(deliveries);
  }

  friend bool operator==(const HopStats& a, const HopStats& b) {
    return a.deliveries == b.deliveries && a.cumulative_steps == b.cumulative_steps;
  }
};

struct SimResult {
  Protocol protocol{Protocol::kLinkMatching};
  std::size_t events_published{0};
  std::uint64_t deliveries{0};
  std::uint64_t duplicate_deliveries{0};
  std::uint64_t missing_deliveries{0};
  std::uint64_t spurious_deliveries{0};
  std::uint64_t broker_messages{0};     // broker-to-broker copies sent
  std::uint64_t client_messages{0};     // broker-to-client copies sent
  std::uint64_t bytes_on_wire{0};       // sum over all copies (incl. dest lists)
  std::uint64_t total_matching_steps{0};
  /// Steps a pure central match would take, summed over the verified
  /// (oracle-sampled) events; normalize by oracle_events_verified.
  std::uint64_t centralized_steps{0};
  std::uint64_t max_backlog{0};
  double max_utilization{0.0};          // busiest broker's busy fraction
  bool overloaded{false};
  bool drained{true};
  Ticks end_time{0};
  /// Delivery latency summed in whole ticks (exact; order-independent).
  Ticks latency_ticks{0};
  double mean_delivery_latency_ms{0.0};
  /// Chart 2: deliveries and cumulative matching steps keyed by hop count
  /// (number of brokers the event visited on its way to the subscriber).
  std::map<int, HopStats> per_hop;
  /// Single-copy violations found (only when verify_single_copy_per_link).
  std::uint64_t duplicate_link_copies{0};

  // --- run provenance (excluded from same_outcome) ---
  double wall_seconds{0.0};             // engine loop wall clock
  std::size_t engine_threads{1};
  /// Always "exact" and true: every run measures its matching steps. Kept
  /// only because perfbench's sim workload still reads them.
  const char* control_plane{"exact"};
  bool steps_exact{true};
  /// Fraction of events whose delivered set was checked against the oracle
  /// (1.0 = full verification, 0.0 = verification off).
  double oracle_sampled_fraction{1.0};
  std::size_t oracle_events_verified{0};
  std::size_t subscriptions{0};
  std::size_t broker_count{0};
  std::uint64_t churn_subscribes{0};
  std::uint64_t churn_unsubscribes{0};
  std::uint64_t link_outages{0};
  /// Conservative rounds the engine ran (each one ends at two barriers when
  /// parallel).
  std::uint64_t engine_rounds{0};
  /// The rounds' lookahead: smallest delay of a link crossing partitions
  /// (0 with one partition, where nothing crosses).
  Ticks engine_lookahead_ticks{0};
  /// Arrivals at the busiest partition over the mean per partition (1.0 =
  /// perfectly balanced; 0.0 when nothing arrived).
  double engine_partition_load{0.0};
};

/// True when two runs agree on every deterministic output — everything
/// except wall clock and thread count. The serial-vs-parallel differential
/// gate compares with this.
bool same_outcome(const SimResult& a, const SimResult& b);

/// Bytes a built instance holds, by component. Accounted from the
/// structures' own sizes (vector capacities, hash nodes, heap blocks of
/// values); the allocator's per-block overhead and heap it keeps after a
/// free are not, so total() reads below the process's resident set.
struct SimMemory {
  /// Subscriptions: every distinct Subscription object the instance's
  /// store and matchers reference, each counted once, plus the holders'
  /// references (the store's entries and every matcher registry's nodes).
  std::size_t subscriptions{0};
  /// What `subscriptions` reads when every holder references the store:
  /// one copy of the store's subscriptions plus the same references. A
  /// holder keeping its own copy lifts `subscriptions` above it.
  std::size_t subscriptions_floor{0};
  /// Mutable PSTs: the shared matcher's and the per-broker matchers'.
  std::size_t trees{0};
  /// Compiled kernels (CompiledPst) those matchers' freeze() left.
  std::size_t kernels{0};
  /// The routing network's per-broker annotation rows (link matching).
  std::size_t annotations{0};

  [[nodiscard]] std::size_t total() const {
    return subscriptions + trees + kernels + annotations;
  }
};

struct SimInstance;

/// A materialized simulation: topology, workload, and control plane built
/// once from a SimSpec; run() executes the engine (repeatable — runs do not
/// mutate the instance observably, churn is rolled back on completion).
class Simulation {
 public:
  explicit Simulation(SimSpec spec);
  ~Simulation();
  Simulation(Simulation&&) noexcept;
  Simulation& operator=(Simulation&&) noexcept;

  /// Runs the base schedule described by the spec.
  SimResult run();

  /// Runs a fresh Poisson/bursty schedule at the given aggregate rate
  /// (same events, same publishers). `schedule_salt` decorrelates repeated
  /// probes at the same rate (saturation search).
  SimResult run_at_rate(double events_per_second, std::uint64_t schedule_salt = 0);

  /// Runs the base schedule with a temporary engine thread-count override:
  /// the scale campaign's serial-vs-parallel differential reuses one
  /// instance (and one control-plane build) across both runs. Outcome is
  /// identical to run() with the same thread count in the spec.
  SimResult run_with_threads(std::size_t threads);

  [[nodiscard]] const SimSpec& spec() const;
  [[nodiscard]] const BrokerNetwork& network() const;
  [[nodiscard]] const std::vector<PublishRecord>& schedule() const;
  [[nodiscard]] const std::vector<BrokerId>& publishers() const;
  [[nodiscard]] const std::vector<Event>& events() const;
  [[nodiscard]] std::size_t subscription_count() const;
  /// What the built instance holds, by component (see SimMemory).
  [[nodiscard]] SimMemory memory() const;

  /// Consumes the simulation and hands back its subscriptions and events
  /// (the schedule is left empty: it is rebuilt from the seed). Passed as
  /// the next spec's `workload.scripted`, they build an instance on the
  /// same workload without generating or copying it again.
  [[nodiscard]] ScriptedWorkload release_workload() &&;

 private:
  std::unique_ptr<SimInstance> inst_;
};

/// One-shot convenience: build and run.
SimResult simulate(const SimSpec& spec);

}  // namespace gryphon
