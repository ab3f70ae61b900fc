#include "sim/simulation.h"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/zipf.h"
#include "sim/engine.h"
#include "sim/sim_instance.h"
#include "workload/arrivals.h"

namespace gryphon {
namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t label) {
  std::uint64_t state = seed ^ (kGolden * (label + 1));
  return splitmix64(state);
}

double unit_double(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Per-region zipf rank permutations, or empty when locality does not apply
/// (off, custom schema, or a single region).
std::vector<std::vector<std::uint32_t>> region_permutations(const SimSpec& spec,
                                                            std::size_t region_count) {
  std::vector<std::vector<std::uint32_t>> perms;
  if (!spec.workload.locality || spec.schema != nullptr || region_count <= 1) return perms;
  perms.reserve(region_count);
  for (std::size_t r = 0; r < region_count; ++r) {
    perms.push_back(
        locality_permutation(spec.values_per_attribute, static_cast<std::uint32_t>(r)));
  }
  return perms;
}

const std::vector<std::uint32_t>* perm_for(
    const std::vector<std::vector<std::uint32_t>>& perms, const SimInstance& inst,
    BrokerId broker) {
  if (perms.empty()) return nullptr;
  const auto region =
      static_cast<std::size_t>(inst.topo.region_of[static_cast<std::size_t>(broker.value)]);
  return &perms[region % perms.size()];
}

std::vector<PublishRecord> make_schedule(const SimInstance& inst, double rate_eps,
                                         std::uint64_t salt) {
  const WorkloadSpec& w = inst.spec.workload;
  std::vector<PublishRecord> schedule;
  const std::size_t count = inst.events.size();
  if (count == 0) return schedule;
  if (rate_eps <= 0.0) throw std::invalid_argument("simulation: publish rate must be > 0");
  if (inst.publishers.empty()) {
    throw std::invalid_argument("simulation: no publisher brokers available");
  }

  std::uint64_t seed = sim_stream_seed(inst.spec.seed, SimStream::kSchedule);
  if (salt != 0) seed = mix_seed(seed, salt);
  Rng rng(seed);

  std::unique_ptr<ArrivalProcess> process;
  if (w.arrivals.kind == ArrivalSpec::Kind::kBursty) {
    const double on = std::max(1e-9, w.arrivals.mean_on_seconds);
    const double on_rate = rate_eps * (on + w.arrivals.mean_off_seconds) / on;
    process = std::make_unique<BurstyArrivals>(on_rate, w.arrivals.mean_on_seconds,
                                               w.arrivals.mean_off_seconds);
  } else {
    process = std::make_unique<PoissonArrivals>(rate_eps);
  }

  schedule.reserve(count);
  Ticks t = 0;
  const std::size_t pubs = inst.publishers.size();
  for (std::size_t i = 0; i < count; ++i) {
    t += std::max<Ticks>(1, process->next_gap(rng));
    const BrokerId broker = w.assignment == PublisherAssignment::kRoundRobin
                                ? inst.publishers[i % pubs]
                                : inst.publishers[rng.below(pubs)];
    schedule.push_back(PublishRecord{t, broker, i});
  }
  return schedule;
}

/// Builds per-run link channels: one per port, broker links of both
/// directions sharing one outage list drawn from the link-fault sub-stream.
void build_channels(SimInstance& inst, const std::vector<PublishRecord>& schedule) {
  const BrokerNetwork& net = inst.topo.network;
  const std::size_t n = net.broker_count();
  const WorkloadSpec& w = inst.spec.workload;

  inst.outage_storage.clear();
  inst.link_outages = 0;
  std::map<std::pair<std::int32_t, std::int32_t>, std::size_t> outage_of;

  if (w.link_mtbf_seconds > 0.0 && !schedule.empty()) {
    Ticks last = 0;
    for (const PublishRecord& record : schedule) last = std::max(last, record.time);
    const Ticks horizon = last + inst.spec.limits.drain_limit;
    const double mtbf_ticks = w.link_mtbf_seconds * 1e6 / kMicrosPerTick;
    const double mttr_ticks = std::max(1.0, w.link_mttr_seconds * 1e6 / kMicrosPerTick);
    const std::uint64_t faults_seed = sim_stream_seed(inst.spec.seed, SimStream::kLinkFaults);
    for (std::size_t b = 0; b < n; ++b) {
      for (const auto& port : net.ports(BrokerId{static_cast<std::int32_t>(b)})) {
        if (port.kind != BrokerNetwork::PortKind::kBroker) continue;
        const std::int32_t peer = port.peer_broker.value;
        if (peer <= static_cast<std::int32_t>(b)) continue;
        const std::pair<std::int32_t, std::int32_t> key{static_cast<std::int32_t>(b), peer};
        if (outage_of.count(key) != 0) continue;
        Rng rng(mix_seed(faults_seed, static_cast<std::uint64_t>(b) * n +
                                          static_cast<std::uint64_t>(peer)));
        std::vector<std::pair<Ticks, Ticks>> intervals;
        Ticks t = 0;
        while (true) {
          const Ticks up =
              std::max<Ticks>(1, static_cast<Ticks>(rng.exponential(1.0 / mtbf_ticks)));
          const Ticks down_at = t + up;
          if (down_at > horizon) break;
          const Ticks repair =
              std::max<Ticks>(1, static_cast<Ticks>(rng.exponential(1.0 / mttr_ticks)));
          intervals.emplace_back(down_at, down_at + repair);
          t = down_at + repair;
        }
        inst.link_outages += intervals.size();
        outage_of[key] = inst.outage_storage.size();
        inst.outage_storage.push_back(std::move(intervals));
      }
    }
  }

  inst.channels.assign(n, {});
  for (std::size_t b = 0; b < n; ++b) {
    const auto& ports = net.ports(BrokerId{static_cast<std::int32_t>(b)});
    auto& row = inst.channels[b];
    row.reserve(ports.size());
    for (const auto& port : ports) {
      const std::vector<std::pair<Ticks, Ticks>>* outages = nullptr;
      if (port.kind == BrokerNetwork::PortKind::kBroker) {
        const auto self = static_cast<std::int32_t>(b);
        const auto it = outage_of.find(
            {std::min(self, port.peer_broker.value), std::max(self, port.peer_broker.value)});
        if (it != outage_of.end()) outages = &inst.outage_storage[it->second];
      }
      row.emplace_back(port.delay, outages);
    }
  }
}

void build_publishers(SimInstance& inst) {
  const WorkloadSpec& w = inst.spec.workload;
  const std::size_t want = std::max<std::size_t>(1, w.publishers);
  if (!inst.topo.default_publishers.empty() && want == inst.topo.default_publishers.size()) {
    inst.publishers = inst.topo.default_publishers;
    return;
  }
  const auto& edge = inst.topo.edge_brokers;
  if (edge.empty()) {
    if (w.events == 0 && w.scripted.events.empty()) return;  // nothing to publish
    throw std::invalid_argument("simulation: topology has no client-hosting brokers");
  }
  const std::size_t count = std::min(want, edge.size());
  inst.publishers.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    inst.publishers.push_back(edge[i * edge.size() / count]);
  }
}

void build_subscriptions(SimInstance& inst,
                         const std::vector<std::vector<std::uint32_t>>& perms) {
  const WorkloadSpec& w = inst.spec.workload;
  if (!w.scripted.subscriptions.empty()) {
    inst.subscriptions = w.scripted.subscriptions;
    return;
  }
  if (w.subscriptions == 0) return;
  if (inst.topo.subscribers.empty()) {
    throw std::invalid_argument("simulation: topology has no clients to subscribe");
  }
  SubscriptionGenerator generator(inst.schema, w.subscription_config);
  Rng rng(sim_stream_seed(inst.spec.seed, SimStream::kSubscriptions));
  inst.subscriptions.reserve(w.subscriptions);
  for (std::size_t i = 0; i < w.subscriptions; ++i) {
    const ClientId subscriber = inst.topo.subscribers[i % inst.topo.subscribers.size()];
    const auto* perm = perm_for(perms, inst, inst.topo.network.client_home(subscriber));
    inst.subscriptions.push_back(
        SimSubscription{SubscriptionId{static_cast<std::int64_t>(i)},
                        generator.generate(rng, perm), subscriber});
  }
}

void build_events(SimInstance& inst, const std::vector<std::vector<std::uint32_t>>& perms) {
  const WorkloadSpec& w = inst.spec.workload;
  if (!w.scripted.events.empty()) {
    inst.events = w.scripted.events;
    return;
  }
  if (w.events == 0) return;
  EventGenerator generator(inst.schema, w.event_zipf_skew);
  Rng rng(sim_stream_seed(inst.spec.seed, SimStream::kEvents));
  inst.events.reserve(w.events);
  const std::size_t pubs = std::max<std::size_t>(1, inst.publishers.size());
  for (std::size_t i = 0; i < w.events; ++i) {
    const auto* perm = inst.publishers.empty()
                           ? nullptr
                           : perm_for(perms, inst, inst.publishers[i % pubs]);
    inst.events.push_back(generator.generate(rng, perm));
  }
}

void build_control_plane(SimInstance& inst) {
  const SimSpec& spec = inst.spec;
  const BrokerNetwork& net = inst.topo.network;

  switch (spec.engine.control_plane) {
    case ControlPlaneMode::kExact:
      inst.aggregate = false;
      break;
    case ControlPlaneMode::kAggregate:
      inst.aggregate = true;
      break;
    case ControlPlaneMode::kAuto:
      inst.aggregate = net.broker_count() > spec.engine.exact_max_brokers ||
                       inst.subscriptions.size() > spec.engine.exact_max_subscriptions;
      break;
  }

  // One spanning tree per broker that publishes (Section 3.2).
  std::vector<BrokerId> roots = inst.publishers;
  for (const PublishRecord& record : inst.base_schedule) roots.push_back(record.broker);
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  if (roots.empty() && net.broker_count() > 0) roots.push_back(BrokerId{0});

  if (!inst.aggregate) {
    inst.crn = std::make_unique<ContentRoutingNetwork>(net, inst.schema, roots, spec.matcher);
    for (const SimSubscription& sub : inst.subscriptions) {
      inst.crn->subscribe(sub.id, sub.subscription, sub.subscriber);
    }
    // Only link matching routes through the CRN: compile every tree now,
    // so the cost lands in construction, not in the first run.
    if (spec.protocol == Protocol::kLinkMatching) inst.crn->compile_all();
  } else {
    inst.routing = std::make_unique<RoutingTable>(net);
    for (const BrokerId root : roots) {
      inst.trees.emplace(root, std::make_unique<SpanningTree>(net, *inst.routing, root));
    }
    inst.shared_matcher = std::make_unique<PstMatcher>(inst.schema, spec.matcher);
    for (const SimSubscription& sub : inst.subscriptions) {
      inst.shared_matcher->add(sub.id, sub.subscription);
      inst.destinations[sub.id] = sub.subscriber;
    }
  }

  const bool need_local = spec.protocol == Protocol::kFlooding ||
                          (spec.protocol == Protocol::kLinkMatching && inst.aggregate);
  if (need_local) {
    inst.local_matchers.reserve(net.broker_count());
    for (std::size_t b = 0; b < net.broker_count(); ++b) {
      inst.local_matchers.push_back(std::make_unique<PstMatcher>(inst.schema, spec.matcher));
    }
    for (const SimSubscription& sub : inst.subscriptions) {
      const BrokerId home = net.client_home(sub.subscriber);
      inst.local_matchers[static_cast<std::size_t>(home.value)]->add(sub.id,
                                                                     sub.subscription);
    }
  }

  // Per-tree acceleration: child ports for every broker, plus DFS pre/post
  // indices (subtree membership tests for the aggregate link matcher).
  for (const BrokerId root : roots) {
    const SpanningTree& tree = inst.tree(root);
    SimInstance::TreeAux aux;
    const std::size_t n = net.broker_count();
    aux.children_ports.resize(n);
    for (std::size_t b = 0; b < n; ++b) {
      const BrokerId broker{static_cast<std::int32_t>(b)};
      for (const BrokerId child : tree.children(broker)) {
        aux.children_ports[b].emplace_back(child, net.port_to_broker(broker, child));
      }
    }
    aux.pre.assign(n, 0);
    aux.post.assign(n, 0);
    std::uint32_t counter = 0;
    std::vector<std::pair<BrokerId, std::size_t>> stack{{root, 0}};
    aux.pre[static_cast<std::size_t>(root.value)] = counter++;
    while (!stack.empty()) {
      auto& [broker, next] = stack.back();
      const auto b = static_cast<std::size_t>(broker.value);
      if (next < aux.children_ports[b].size()) {
        const BrokerId child = aux.children_ports[b][next].first;
        ++next;
        aux.pre[static_cast<std::size_t>(child.value)] = counter++;
        stack.emplace_back(child, 0);
      } else {
        aux.post[b] = counter;
        stack.pop_back();
      }
    }
    inst.tree_aux.emplace(root, std::move(aux));
  }
}

void build_churn(SimInstance& inst, const std::vector<std::vector<std::uint32_t>>& perms) {
  const WorkloadSpec& w = inst.spec.workload;
  inst.churn_enabled = w.churn_rate_eps > 0.0 && !inst.base_schedule.empty();
  if (!inst.churn_enabled) return;
  if (inst.topo.subscribers.empty()) {
    throw std::invalid_argument("simulation: churn requires clients");
  }
  Ticks window = 0;
  for (const PublishRecord& record : inst.base_schedule) {
    window = std::max(window, record.time);
  }
  const double rate_per_tick = w.churn_rate_eps * kMicrosPerTick / 1e6;
  Rng rng(sim_stream_seed(inst.spec.seed, SimStream::kChurn));
  SubscriptionGenerator generator(inst.schema, w.subscription_config);

  // Script the operations against a simulated live set so every unsubscribe
  // names a subscription that is actually registered when it fires.
  std::vector<SimSubscription> live = inst.subscriptions;
  std::int64_t next_id = 0;
  for (const SimSubscription& sub : inst.subscriptions) {
    next_id = std::max(next_id, sub.id.value + 1);
  }

  Ticks t = 0;
  while (true) {
    t += std::max<Ticks>(1, static_cast<Ticks>(rng.exponential(rate_per_tick)));
    if (t > window) break;
    const bool unsubscribe = rng.chance(w.churn_unsubscribe_fraction) && !live.empty();
    if (unsubscribe) {
      const std::size_t pick = rng.below(live.size());
      ChurnOp op{t, false, live[pick]};
      live[pick] = std::move(live.back());
      live.pop_back();
      inst.churn.push_back(std::move(op));
    } else {
      const ClientId subscriber =
          inst.topo.subscribers[rng.below(inst.topo.subscribers.size())];
      const auto* perm = perm_for(perms, inst, inst.topo.network.client_home(subscriber));
      SimSubscription sub{SubscriptionId{next_id++}, generator.generate(rng, perm),
                          subscriber};
      live.push_back(sub);
      inst.churn.push_back(ChurnOp{t, true, std::move(sub)});
    }
  }
}

void build_oracle_and_precompute(SimInstance& inst) {
  const SimSpec& spec = inst.spec;
  const std::size_t count = inst.events.size();
  const bool lm_aggregate = spec.protocol == Protocol::kLinkMatching && inst.aggregate;
  const bool need_all = spec.protocol == Protocol::kMatchFirst || lm_aggregate;

  if (inst.churn_enabled) {
    // The publish-time oracle cannot account for in-flight events while the
    // subscription set mutates; publishers match live instead (engine.cpp).
    inst.oracle_fraction = 0.0;
    return;
  }

  double fraction = 0.0;
  if (spec.verify.verify_deliveries && count > 0) {
    if (spec.verify.oracle_sample > 0.0) {
      fraction = std::min(1.0, spec.verify.oracle_sample);
    } else {
      const double work = static_cast<double>(count) *
                          static_cast<double>(inst.topo.network.client_count());
      fraction = work <= 1e7 ? 1.0 : 1e7 / work;
    }
  }
  inst.oracle_fraction = fraction;

  if (fraction > 0.0) {
    inst.oracle_selected.assign(count, 0);
    const std::uint64_t oracle_seed = sim_stream_seed(spec.seed, SimStream::kOracle);
    for (std::size_t e = 0; e < count; ++e) {
      if (fraction >= 1.0 || unit_double(mix_seed(oracle_seed, e)) < fraction) {
        inst.oracle_selected[e] = 1;
        ++inst.oracle_events;
      }
    }
    if (inst.oracle_events == 0) {
      inst.oracle_selected[0] = 1;
      inst.oracle_events = 1;
    }
  }

  if (!need_all && fraction <= 0.0) return;
  inst.event_match_steps.assign(count, 0);
  inst.event_dests.resize(count);

  std::vector<SubscriptionId> matched;
  for (std::size_t e = 0; e < count; ++e) {
    const bool selected = !inst.oracle_selected.empty() && inst.oracle_selected[e] != 0;
    if (!need_all && !selected) continue;
    matched.clear();
    MatchStats stats;
    inst.matcher().match_into(inst.events[e], matched, &stats);
    inst.event_match_steps[e] = stats.nodes_visited;
    if (selected) inst.centralized_steps += stats.nodes_visited;

    std::vector<ClientId>& dests = inst.event_dests[e];
    dests.reserve(matched.size());
    for (const SubscriptionId id : matched) dests.push_back(inst.destination_of(id));
    std::sort(dests.begin(), dests.end());
    dests.erase(std::unique(dests.begin(), dests.end()), dests.end());

    if (lm_aggregate) {
      for (const auto& [root, aux] : inst.tree_aux) {
        auto homes = std::make_shared<std::vector<std::uint32_t>>();
        homes->reserve(dests.size());
        for (const ClientId dest : dests) {
          const BrokerId home = inst.topo.network.client_home(dest);
          homes->push_back(aux.pre[static_cast<std::size_t>(home.value)]);
        }
        std::sort(homes->begin(), homes->end());
        homes->erase(std::unique(homes->begin(), homes->end()), homes->end());
        inst.event_homes.emplace(
            std::make_pair(static_cast<std::uint32_t>(e), root.value), std::move(homes));
      }
    }
  }
}

std::unique_ptr<SimInstance> build_instance(SimSpec spec) {
  auto inst = std::make_unique<SimInstance>();
  inst->spec = std::move(spec);
  SimSpec& s = inst->spec;
  if (s.engine.threads == 0) s.engine.threads = 1;
  if (s.schema == nullptr && (s.attributes == 0 || s.values_per_attribute == 0)) {
    throw std::invalid_argument("simulation: schema shape must be non-empty");
  }

  inst->schema =
      s.schema ? s.schema : make_synthetic_schema(s.attributes, s.values_per_attribute);
  inst->event_payload_bytes = inst->schema->attribute_count() * 8 + 16;
  inst->topo = build_topology(s.topology, s.seed);
  if (inst->topo.region_of.size() != inst->topo.network.broker_count()) {
    throw std::logic_error("simulation: topology region map is inconsistent");
  }

  const auto perms = region_permutations(s, inst->topo.region_count);
  build_publishers(*inst);
  build_subscriptions(*inst, perms);
  build_events(*inst, perms);
  inst->base_schedule = s.workload.scripted.schedule.empty()
                            ? make_schedule(*inst, s.workload.rate_eps, 0)
                            : s.workload.scripted.schedule;
  for (const PublishRecord& record : inst->base_schedule) {
    if (record.event_index >= inst->events.size() ||
        !record.broker.valid() ||
        static_cast<std::size_t>(record.broker.value) >=
            inst->topo.network.broker_count()) {
      throw std::invalid_argument("simulation: scripted schedule is out of range");
    }
  }
  build_control_plane(*inst);
  build_churn(*inst, perms);
  build_oracle_and_precompute(*inst);
  return inst;
}

}  // namespace

void SimInstance::apply_churn_op(const ChurnOp& op) {
  const auto home =
      static_cast<std::size_t>(topo.network.client_home(op.sub.subscriber).value);
  if (op.subscribe) {
    if (crn) {
      crn->subscribe(op.sub.id, op.sub.subscription, op.sub.subscriber);
    } else {
      shared_matcher->add(op.sub.id, op.sub.subscription);
      destinations[op.sub.id] = op.sub.subscriber;
    }
    if (!local_matchers.empty()) local_matchers[home]->add(op.sub.id, op.sub.subscription);
  } else {
    if (crn) {
      crn->unsubscribe(op.sub.id);
    } else {
      shared_matcher->remove(op.sub.id);
      destinations.erase(op.sub.id);
    }
    if (!local_matchers.empty()) local_matchers[home]->remove(op.sub.id);
  }
  rollback_log.push_back(op);
}

void SimInstance::rollback_churn() {
  for (auto it = rollback_log.rbegin(); it != rollback_log.rend(); ++it) {
    const ChurnOp& op = *it;
    const auto home =
        static_cast<std::size_t>(topo.network.client_home(op.sub.subscriber).value);
    if (op.subscribe) {
      if (crn) {
        crn->unsubscribe(op.sub.id);
      } else {
        shared_matcher->remove(op.sub.id);
        destinations.erase(op.sub.id);
      }
      if (!local_matchers.empty()) local_matchers[home]->remove(op.sub.id);
    } else {
      if (crn) {
        crn->subscribe(op.sub.id, op.sub.subscription, op.sub.subscriber);
      } else {
        shared_matcher->add(op.sub.id, op.sub.subscription);
        destinations[op.sub.id] = op.sub.subscriber;
      }
      if (!local_matchers.empty()) local_matchers[home]->add(op.sub.id, op.sub.subscription);
    }
  }
  rollback_log.clear();
}

bool same_outcome(const SimResult& a, const SimResult& b) {
  return a.protocol == b.protocol && a.events_published == b.events_published &&
         a.deliveries == b.deliveries && a.duplicate_deliveries == b.duplicate_deliveries &&
         a.missing_deliveries == b.missing_deliveries &&
         a.spurious_deliveries == b.spurious_deliveries &&
         a.broker_messages == b.broker_messages && a.client_messages == b.client_messages &&
         a.bytes_on_wire == b.bytes_on_wire &&
         a.total_matching_steps == b.total_matching_steps &&
         a.centralized_steps == b.centralized_steps && a.max_backlog == b.max_backlog &&
         a.max_utilization == b.max_utilization && a.overloaded == b.overloaded &&
         a.drained == b.drained && a.end_time == b.end_time &&
         a.latency_ticks == b.latency_ticks &&
         a.mean_delivery_latency_ms == b.mean_delivery_latency_ms &&
         a.per_hop == b.per_hop && a.duplicate_link_copies == b.duplicate_link_copies &&
         a.churn_subscribes == b.churn_subscribes &&
         a.churn_unsubscribes == b.churn_unsubscribes && a.link_outages == b.link_outages;
}

Simulation::Simulation(SimSpec spec) : inst_(build_instance(std::move(spec))) {}
Simulation::~Simulation() = default;
Simulation::Simulation(Simulation&&) noexcept = default;
Simulation& Simulation::operator=(Simulation&&) noexcept = default;

SimResult Simulation::run() {
  build_channels(*inst_, inst_->base_schedule);
  return run_engine(*inst_, inst_->base_schedule);
}

SimResult Simulation::run_with_threads(std::size_t threads) {
  const std::size_t saved = inst_->spec.engine.threads;
  inst_->spec.engine.threads = std::max<std::size_t>(1, threads);
  SimResult result;
  try {
    result = run();
  } catch (...) {
    inst_->spec.engine.threads = saved;
    throw;
  }
  inst_->spec.engine.threads = saved;
  return result;
}

SimResult Simulation::run_at_rate(double events_per_second, std::uint64_t schedule_salt) {
  const std::vector<PublishRecord> schedule =
      make_schedule(*inst_, events_per_second, schedule_salt);
  build_channels(*inst_, schedule);
  return run_engine(*inst_, schedule);
}

const SimSpec& Simulation::spec() const { return inst_->spec; }
const BrokerNetwork& Simulation::network() const { return inst_->topo.network; }
const std::vector<PublishRecord>& Simulation::schedule() const {
  return inst_->base_schedule;
}
const std::vector<BrokerId>& Simulation::publishers() const { return inst_->publishers; }
const std::vector<Event>& Simulation::events() const { return inst_->events; }
std::size_t Simulation::subscription_count() const { return inst_->subscriptions.size(); }

SimResult simulate(const SimSpec& spec) { return Simulation(spec).run(); }

}  // namespace gryphon
