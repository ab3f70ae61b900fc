#include "sim/engine.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/mutex.h"
#include "sim/broker_server.h"
#include "sim/event_queue.h"
#include "sim/partitioning.h"
#include "sim/round_barrier.h"

namespace gryphon {
namespace {

constexpr Ticks kNoPending = std::numeric_limits<Ticks>::max();

// The paper's cost model (Section 4.1), in ticks of CPU per message.
/// One matching step (node visitation). The paper estimates "a few
/// microseconds" per step; 0.25 ticks = 3 us.
constexpr double kStepCostTicks = 0.25;
/// Pushing one outgoing copy through the transport.
constexpr double kSendCostTicks = 4.0;
/// Fixed per-message receive/parse cost. Calibrated so transport costs
/// outweigh matching (Section 4.2: a 200 MHz broker tops out near 14,000
/// events/sec, ~70 us per message; 6 ticks = 72 us).
constexpr double kBaseCostTicks = 6.0;
/// Match-first only: per-destination list handling cost at relays.
constexpr double kPerDestinationCostTicks = 0.25;
/// One untracked background message (CostSpec::background_rate_per_broker).
constexpr Ticks kBackgroundCostTicks = 8;

struct PartitionStats {
  std::uint64_t broker_messages{0};
  std::uint64_t client_messages{0};
  std::uint64_t bytes_on_wire{0};
  std::uint64_t total_matching_steps{0};
  std::uint64_t deliveries{0};
  Ticks latency_ticks{0};
  Ticks end_time{0};
  std::vector<HopStats> per_hop;  // by hop count
  std::vector<std::pair<std::uint32_t, ClientId>> delivered;  // oracle-selected only
  std::unordered_set<std::uint64_t> link_copies;
  std::uint64_t duplicate_link_copies{0};
};

// One arrival's outcome. Each partition keeps one and clears it per
// arrival, so the vectors' capacity is reused across hops.
struct Decision {
  std::uint64_t steps{0};
  double extra_cost{0.0};
  std::vector<std::pair<LinkIndex, SimMessage>> forwards;
  std::vector<ClientId> local;

  void clear() {
    steps = 0;
    extra_cost = 0.0;
    forwards.clear();
    local.clear();
  }
};

struct Partition {
  EventQueue queue;
  std::vector<BrokerServer> servers;  // indexed by PartitionPlan::local_index
  Ticks local_min{kNoPending};
  std::uint64_t arrivals{0};
  PartitionStats stats;
  std::exception_ptr error;
  Decision decision;                   // reused by every arrival
  std::vector<LinkIndex> route_links;  // ContentRoutingNetwork::route_into output

  Mutex inbox_mutex;
  std::vector<Arrival> inbox GUARDED_BY(inbox_mutex);
};

struct RoundPlan {
  Ticks horizon{0};
  bool done{false};
  bool aborted{false};
  Ticks abort_time{0};
};

class EngineRun {
 public:
  EngineRun(SimInstance& inst, const std::vector<PublishRecord>& schedule)
      : inst_(inst), schedule_(schedule) {}

  SimResult run();

 private:
  void setup_partitions();
  void inject_schedule();
  void plan_round();
  void drain_and_report(Partition& part);
  void process_round(Partition& part);
  void process(Partition& part, Arrival arrival);
  void decide(Partition& part, BrokerId broker, SimMessage& msg, Decision& d);
  void note_copy(Partition& part, std::uint32_t event_index, BrokerId broker, LinkIndex port);
  void finalize(SimResult& result);
  void verify(SimResult& result);

  SimInstance& inst_;
  const std::vector<PublishRecord>& schedule_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  const PartitionPlan* layout_{nullptr};
  Ticks last_publish_{0};
  Ticks deadline_{0};
  RoundPlan plan_;
  std::uint64_t rounds_{0};
  std::size_t churn_next_{0};
  std::uint64_t churn_subscribes_{0};
  std::uint64_t churn_unsubscribes_{0};
};

void EngineRun::setup_partitions() {
  layout_ = &inst_.partition_plan(inst_.spec.engine.threads);
  partitions_.clear();
  const double ticks_per_second = 1e6 / kMicrosPerTick;
  const double bg_rate_per_tick =
      inst_.spec.costs.background_rate_per_broker / ticks_per_second;
  const std::uint64_t bg_seed = sim_stream_seed(inst_.spec.seed, SimStream::kBackground);
  for (const std::vector<std::uint32_t>& members : layout_->members) {
    auto part = std::make_unique<Partition>();
    part->servers.resize(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      const std::uint32_t b = members[i];
      BrokerServer& server = part->servers[i];
      server.set_overload_threshold(inst_.spec.limits.overload_backlog_threshold);
      if (inst_.spec.costs.background_rate_per_broker > 0) {
        std::uint64_t mix = bg_seed ^ (0x9e3779b97f4a7c15ULL * (b + 1));
        server.configure_background(splitmix64(mix), bg_rate_per_tick, kBackgroundCostTicks,
                                    last_publish_);
      }
    }
    partitions_.push_back(std::move(part));
  }
}

void EngineRun::inject_schedule() {
  std::vector<std::vector<ScheduledPublication>> by_partition(partitions_.size());
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    const PublishRecord& record = schedule_[i];
    if (record.event_index >= inst_.events.size()) {
      throw std::invalid_argument("simulation: bad event index in schedule");
    }
    by_partition[layout_->part_of[static_cast<std::size_t>(record.broker.value)]].push_back(
        {EventKey{record.time, 0, i}, record.broker,
         static_cast<std::uint32_t>(record.event_index)});
  }
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    partitions_[p]->queue.set_publications(std::move(by_partition[p]));
  }
}

void EngineRun::plan_round() {
  Ticks global_min = kNoPending;
  for (const auto& part : partitions_) global_min = std::min(global_min, part->local_min);
  if (global_min == kNoPending) {
    plan_.done = true;
    return;
  }
  while (churn_next_ < inst_.churn.size() && inst_.churn[churn_next_].time <= global_min) {
    const ChurnOp& op = inst_.churn[churn_next_];
    inst_.apply_churn_op(op);
    if (op.subscribe) {
      ++churn_subscribes_;
    } else {
      ++churn_unsubscribes_;
    }
    ++churn_next_;
  }
  if (global_min > deadline_) {
    plan_.done = true;
    plan_.aborted = true;
    plan_.abort_time = global_min;
    return;
  }
  // Conservative lookahead: the smallest delay of any link crossing a
  // partition boundary (unbounded with one partition — the horizon is then
  // bounded by deadline/churn only).
  const Ticks lookahead = layout_->lookahead;
  Ticks horizon = lookahead >= kNoPending - global_min ? kNoPending - 1
                                                       : global_min + lookahead;
  horizon = std::min(horizon, deadline_);
  if (churn_next_ < inst_.churn.size()) {
    horizon = std::min(horizon, inst_.churn[churn_next_].time - 1);
  }
  plan_.horizon = horizon;
  ++rounds_;
}

void EngineRun::drain_and_report(Partition& part) {
  {
    MutexLock lock(part.inbox_mutex);
    for (Arrival& arrival : part.inbox) part.queue.push(std::move(arrival));
    part.inbox.clear();
  }
  part.local_min = part.queue.empty() ? kNoPending : part.queue.top_key().time;
}

void EngineRun::process_round(Partition& part) {
  if (part.error) {
    part.queue.clear();
    return;
  }
  try {
    while (!part.queue.empty() && part.queue.top_key().time <= plan_.horizon) {
      process(part, part.queue.pop());
    }
  } catch (...) {
    if (!part.error) part.error = std::current_exception();
    part.queue.clear();  // fail fast, keep the barrier protocol
  }
}

void EngineRun::note_copy(Partition& part, std::uint32_t event_index, BrokerId broker,
                          LinkIndex port) {
  if (!inst_.spec.verify.verify_single_copy_per_link) return;
  const std::uint64_t key = (static_cast<std::uint64_t>(event_index) << 40) |
                            (static_cast<std::uint64_t>(broker.value) << 16) |
                            static_cast<std::uint64_t>(port.value);
  if (!part.stats.link_copies.insert(key).second) ++part.stats.duplicate_link_copies;
}

void EngineRun::decide(Partition& part, BrokerId broker, SimMessage& msg, Decision& d) {
  const Event& event = inst_.events[msg.event_index];
  const auto b = static_cast<std::size_t>(broker.value);

  switch (inst_.spec.protocol) {
    case Protocol::kLinkMatching: {
      // Without churn the trees never change mid-run, so the publisher's
      // broker resolves the event against the kernel once and every hop
      // refines its rows along that route (the same rule event_dests
      // follows).
      if (msg.hops == 1 && !inst_.churn_enabled) {
        msg.route = std::make_shared<const EventRoute>(inst_.crn->prepare(event));
      }
      d.steps = msg.route != nullptr
                    ? inst_.crn->route_into(broker, *msg.route, msg.tree_root, part.route_links)
                    : inst_.crn->route_into(broker, event, msg.tree_root, part.route_links);
      const auto& ports = inst_.topo.network.ports(broker);
      for (const LinkIndex link : part.route_links) {
        const auto& port = ports[static_cast<std::size_t>(link.value)];
        if (port.kind == BrokerNetwork::PortKind::kClient) {
          d.local.push_back(port.peer_client);
        } else {
          d.forwards.emplace_back(link, msg);
        }
      }
      break;
    }
    case Protocol::kFlooding: {
      MatchStats stats;
      std::vector<SubscriptionId> matched;
      inst_.local_matchers[b]->match_into(event, matched, &stats);
      d.steps = stats.nodes_visited;
      for (const SubscriptionId id : matched) d.local.push_back(inst_.crn->destination_of(id));
      std::sort(d.local.begin(), d.local.end());
      d.local.erase(std::unique(d.local.begin(), d.local.end()), d.local.end());
      for (const SpanningTree::Child& child :
           inst_.crn->spanning_tree(msg.tree_root).children(broker)) {
        d.forwards.emplace_back(child.port, msg);
      }
      break;
    }
    case Protocol::kMatchFirst: {
      // The destination list this hop splits: the one the message carries,
      // or at the publisher's broker the event's full list.
      const std::vector<ClientId>* dests = &msg.dests;
      if (msg.hops == 1) {
        // The publisher's broker computes and carries the full destination
        // list; it pays the centralized matching cost.
        if (!inst_.churn_enabled) {
          d.steps = inst_.event_match_steps[msg.event_index];
          dests = &inst_.event_dests[msg.event_index];
        } else {
          MatchStats stats;
          std::vector<SubscriptionId> subs;
          inst_.crn->matcher().match_into(event, subs, &stats);
          d.steps = stats.nodes_visited;
          msg.dests.clear();
          msg.dests.reserve(subs.size());
          for (const SubscriptionId id : subs) {
            msg.dests.push_back(inst_.crn->destination_of(id));
          }
          std::sort(msg.dests.begin(), msg.dests.end());
          msg.dests.erase(std::unique(msg.dests.begin(), msg.dests.end()), msg.dests.end());
        }
      } else {
        d.extra_cost += kPerDestinationCostTicks * static_cast<double>(msg.dests.size());
      }
      // Split the destination list by next hop (ordered map: the forward
      // emission order is part of the deterministic event order).
      std::map<LinkIndex::rep_type, std::vector<ClientId>> split;
      const RoutingTable& routing = inst_.crn->routing();
      for (const ClientId dest : *dests) {
        if (inst_.topo.network.client_home(dest) == broker) {
          d.local.push_back(dest);
        } else {
          split[routing.next_hop_to_client(broker, dest).value].push_back(dest);
        }
      }
      // Each forward carries its own part of the list only: drop the
      // carried list so copying the message header copies no destinations.
      msg.dests.clear();
      for (auto& [link_value, link_dests] : split) {
        SimMessage fwd = msg;
        fwd.dests = std::move(link_dests);
        d.forwards.emplace_back(LinkIndex{link_value}, std::move(fwd));
      }
      break;
    }
  }
}

void EngineRun::process(Partition& part, Arrival arrival) {
  const auto b = static_cast<std::size_t>(arrival.broker.value);
  BrokerServer& server = part.servers[layout_->local_index[b]];
  const Ticks now = arrival.key.time;
  ++part.arrivals;
  server.admit(now);

  SimMessage msg = std::move(arrival.message);
  ++msg.hops;

  Decision& d = part.decision;
  d.clear();
  decide(part, arrival.broker, msg, d);

  const double cost = kBaseCostTicks + kStepCostTicks * static_cast<double>(d.steps) +
                      kSendCostTicks * static_cast<double>(d.forwards.size() + d.local.size()) +
                      d.extra_cost;
  const Ticks done = server.serve(now, cost);
  part.stats.end_time = std::max(part.stats.end_time, done);
  part.stats.total_matching_steps += d.steps;
  msg.steps_acc += d.steps;

  const auto& ports = inst_.topo.network.ports(arrival.broker);
  for (auto& [link, fwd] : d.forwards) {
    const auto& port = ports[static_cast<std::size_t>(link.value)];
    fwd.steps_acc = msg.steps_acc;
    note_copy(part, msg.event_index, arrival.broker, link);
    part.stats.broker_messages += 1;
    part.stats.bytes_on_wire += inst_.event_payload_bytes + 8 * fwd.dests.size();
    const Ticks at = inst_.channels[b][static_cast<std::size_t>(link.value)].deliver_at(done);
    Arrival out{EventKey{at, static_cast<std::uint32_t>(b) + 1, server.next_emit_sequence()},
                port.peer_broker, std::move(fwd)};
    const std::uint32_t target =
        layout_->part_of[static_cast<std::size_t>(port.peer_broker.value)];
    Partition& dest = *partitions_[target];
    if (&dest == &part) {
      part.queue.push(std::move(out));
    } else {
      MutexLock lock(dest.inbox_mutex);
      dest.inbox.push_back(std::move(out));
    }
  }

  const bool track = !inst_.oracle_selected.empty() &&
                     inst_.oracle_selected[msg.event_index] != 0;
  for (const ClientId client : d.local) {
    note_copy(part, msg.event_index, arrival.broker, inst_.topo.network.client_port(client));
    part.stats.client_messages += 1;
    part.stats.bytes_on_wire += inst_.event_payload_bytes;
    part.stats.deliveries += 1;
    const Ticks at = done + inst_.topo.network.client_delay(client);
    part.stats.latency_ticks += at - msg.publish_time;
    const auto h = static_cast<std::size_t>(msg.hops);
    // Grows to the longest path once.
    if (h >= part.stats.per_hop.size()) part.stats.per_hop.resize(h + 1);
    HopStats& hop = part.stats.per_hop[h];
    ++hop.deliveries;
    hop.cumulative_steps += msg.steps_acc;
    if (track) part.stats.delivered.emplace_back(msg.event_index, client);
  }
}

void EngineRun::verify(SimResult& result) {
  if (!inst_.spec.verify.verify_deliveries || inst_.oracle_fraction <= 0.0) return;
  // Bucket the sampled deliveries by event (a counting sort: the events
  // are dense indices), so each event's clients sit in one slice.
  const std::size_t events = inst_.events.size();
  std::vector<std::uint32_t> begin(events + 1, 0);
  for (const auto& part : partitions_) {
    for (const auto& [event, client] : part->stats.delivered) ++begin[event + 1];
  }
  for (std::size_t e = 0; e < events; ++e) begin[e + 1] += begin[e];
  std::vector<ClientId> delivered(begin.back());
  {
    std::vector<std::uint32_t> next(begin.begin(), begin.end() - 1);
    for (const auto& part : partitions_) {
      for (const auto& [event, client] : part->stats.delivered) delivered[next[event]++] = client;
    }
  }

  std::vector<char> published(events, 0);
  for (const PublishRecord& record : schedule_) published[record.event_index] = 1;

  for (std::size_t e = 0; e < events; ++e) {
    if (published[e] == 0 || inst_.oracle_selected[e] == 0) continue;
    const auto first = delivered.begin() + begin[e];
    auto last = delivered.begin() + begin[e + 1];
    std::sort(first, last);
    for (auto g = first; g != last && g + 1 != last; ++g) {
      if (*g == *(g + 1)) ++result.duplicate_deliveries;
    }
    last = std::unique(first, last);
    const std::span<const ClientId> got(first, last);
    const std::vector<ClientId>& want = inst_.event_dests[e];
    std::size_t gi = 0, wi = 0;
    while (gi < got.size() || wi < want.size()) {
      if (gi == got.size()) {
        ++result.missing_deliveries;
        ++wi;
      } else if (wi == want.size()) {
        ++result.spurious_deliveries;
        ++gi;
      } else if (got[gi] == want[wi]) {
        ++gi;
        ++wi;
      } else if (got[gi] < want[wi]) {
        ++result.spurious_deliveries;
        ++gi;
      } else {
        ++result.missing_deliveries;
        ++wi;
      }
    }
  }
  if (!result.drained) {
    // An aborted run inevitably misses deliveries; make the count honest
    // even when sampling happened to pick fully-delivered events.
    result.missing_deliveries = std::max<std::uint64_t>(result.missing_deliveries, 1);
  }
}

void EngineRun::finalize(SimResult& result) {
  for (const auto& part : partitions_) {
    const PartitionStats& s = part->stats;
    result.broker_messages += s.broker_messages;
    result.client_messages += s.client_messages;
    result.bytes_on_wire += s.bytes_on_wire;
    result.total_matching_steps += s.total_matching_steps;
    result.deliveries += s.deliveries;
    result.latency_ticks += s.latency_ticks;
    result.end_time = std::max(result.end_time, s.end_time);
    result.duplicate_link_copies += s.duplicate_link_copies;
    for (std::size_t hops = 0; hops < s.per_hop.size(); ++hops) {
      const HopStats& stats = s.per_hop[hops];
      if (stats.deliveries == 0) continue;  // no delivery took this many hops
      HopStats& hop = result.per_hop[static_cast<int>(hops)];
      hop.deliveries += stats.deliveries;
      hop.cumulative_steps += stats.cumulative_steps;
    }
    for (const BrokerServer& server : part->servers) {
      result.max_backlog = std::max(result.max_backlog, server.max_backlog());
      if (server.overloaded()) result.overloaded = true;
    }
  }
  if (plan_.aborted) {
    result.overloaded = true;
    result.drained = false;
    result.end_time = plan_.abort_time;
  }
  const double window = static_cast<double>(std::max<Ticks>(1, last_publish_));
  for (const auto& part : partitions_) {
    for (const BrokerServer& server : part->servers) {
      result.max_utilization = std::max(result.max_utilization, server.busy_accum() / window);
    }
  }
  verify(result);
  if (result.deliveries > 0) {
    result.mean_delivery_latency_ms =
        ticks_to_millis(result.latency_ticks) / static_cast<double>(result.deliveries);
  }
  result.churn_subscribes = churn_subscribes_;
  result.churn_unsubscribes = churn_unsubscribes_;

  result.engine_rounds = rounds_;
  result.engine_lookahead_ticks =
      layout_->lookahead == PartitionPlan::kUnbounded ? 0 : layout_->lookahead;
  std::uint64_t arrivals = 0;
  std::uint64_t busiest = 0;
  for (const auto& part : partitions_) {
    arrivals += part->arrivals;
    busiest = std::max(busiest, part->arrivals);
  }
  if (arrivals > 0) {
    result.engine_partition_load = static_cast<double>(busiest) *
                                   static_cast<double>(partitions_.size()) /
                                   static_cast<double>(arrivals);
  }
}

SimResult EngineRun::run() {
  SimResult result;
  result.protocol = inst_.spec.protocol;
  result.events_published = schedule_.size();
  result.engine_threads = std::max<std::size_t>(1, inst_.spec.engine.threads);
  result.subscriptions = inst_.subscriptions.size();
  result.broker_count = inst_.topo.network.broker_count();
  result.oracle_sampled_fraction = inst_.oracle_fraction;
  result.oracle_events_verified = inst_.oracle_events;
  result.centralized_steps = inst_.centralized_steps;
  result.link_outages = inst_.link_outages;
  if (schedule_.empty()) return result;

  if (inst_.spec.verify.verify_single_copy_per_link) {
    if (inst_.events.size() >= (1ULL << 24) ||
        inst_.topo.network.broker_count() >= (1ULL << 24)) {
      throw std::invalid_argument(
          "simulation: verify_single_copy_per_link supports < 2^24 events/brokers");
    }
  }

  last_publish_ = 0;
  for (const PublishRecord& record : schedule_) {
    last_publish_ = std::max(last_publish_, record.time);
  }
  deadline_ = last_publish_ + inst_.spec.limits.drain_limit;

  setup_partitions();
  inject_schedule();

  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t count = partitions_.size();
  if (count == 1) {
    Partition& part = *partitions_[0];
    while (true) {
      drain_and_report(part);
      plan_round();
      if (plan_.done) break;
      process_round(part);
    }
    if (!plan_.aborted) {
      for (BrokerServer& server : part.servers) server.finish_background();
    }
  } else {
    bool plan_phase = true;
    auto completion = [this, &plan_phase]() noexcept {
      if (plan_phase) plan_round();
      plan_phase = !plan_phase;
    };
    RoundBarrier<decltype(completion)> sync(count, wait_mode_for(count), completion);
    std::vector<std::thread> workers;
    workers.reserve(count);
    for (std::size_t p = 0; p < count; ++p) {
      workers.emplace_back([this, &sync, p]() {
        Partition& part = *partitions_[p];
        while (true) {
          drain_and_report(part);
          sync.arrive_and_wait();
          if (plan_.done) break;
          process_round(part);
          sync.arrive_and_wait();
        }
        if (!plan_.aborted) {
          for (BrokerServer& server : part.servers) server.finish_background();
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  for (const auto& part : partitions_) {
    if (part->error) std::rethrow_exception(part->error);
  }
  finalize(result);
  return result;
}

}  // namespace

SimResult run_engine(SimInstance& inst, const std::vector<PublishRecord>& schedule) {
  EngineRun engine(inst, schedule);
  SimResult result;
  try {
    result = engine.run();
  } catch (...) {
    inst.rollback_churn();
    throw;
  }
  inst.rollback_churn();
  return result;
}

}  // namespace gryphon
