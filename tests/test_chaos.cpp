// Chaos harness (docs/fault-tolerance.md): a broker line under seeded
// transport faults — dropped, duplicated, delayed/reordered frames and
// repeatedly severed/healed (partitioned) links — must still deliver every
// published event to every matching subscriber exactly once, byte-for-byte
// what a fault-free oracle run delivers.
//
// Faults are restricted to the broker-link session frames (EventForward /
// BrokerAck / LinkHeartbeat): that is the machinery under test; client-plane
// frames and the subscription control plane run clean so the oracle
// comparison isolates the link sessions' exactly-once guarantee.
//
// The suite runs per seed (GRYPHON_CHAOS_SEED adds one; tools/ci.sh's chaos
// leg sweeps several via `ctest -R ChaosTest`), both in synchronous matching
// mode and with a match worker pipeline — the latter doubles as a TSan
// target (label: concurrency), sends racing the pump thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "broker/broker.h"
#include "broker/client.h"
#include "broker/fault_transport.h"
#include "broker/inproc_transport.h"
#include "common/rng.h"
#include "topology/builders.h"

namespace gryphon {
namespace {

constexpr int kBrokers = 3;

struct ChaosBed {
  SchemaPtr schema = make_schema("trades", {Attribute{"issue", AttributeType::kString, {}},
                                            Attribute{"price", AttributeType::kDouble, {}},
                                            Attribute{"volume", AttributeType::kInt, {}}});
  BrokerNetwork topo = make_line(kBrokers, 10, 0, 1);
  InProcNetwork net;
  // Match workers read the clock through Options::clock while the test
  // thread advances it between pumps, so the cell must be atomic.
  std::atomic<Ticks> clock{0};
  std::vector<std::unique_ptr<FaultInjectingTransport>> faults;
  std::vector<std::unique_ptr<Broker>> brokers;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<ConnId> link_conns;  // dialer-side conn of link i -> i+1
  std::size_t match_threads{0};
  // Broker-kill machinery (the failover suite): a hot standby shadowing one
  // broker, plus enough bookkeeping to sever every connection the victim
  // holds and stop driving its timers.
  std::unique_ptr<Broker> standby;
  ConnId repl_conn{kInvalidConn};
  std::vector<bool> alive = std::vector<bool>(kBrokers, true);
  std::unordered_map<std::string, ConnId> client_conns;
  std::unordered_map<std::string, int> client_brokers;

  ChaosBed(std::uint64_t seed, bool inject, std::size_t match_threads)
      : match_threads(match_threads) {
    for (int b = 0; b < kBrokers; ++b) {
      auto* endpoint = net.create_endpoint("broker" + std::to_string(b));
      FaultInjectingTransport::Options fopts;
      fopts.seed = seed * 1000003 + static_cast<std::uint64_t>(b);
      if (inject) {
        fopts.drop_rate = 0.15;
        fopts.duplicate_rate = 0.10;
        fopts.delay_rate = 0.15;
        fopts.delay_max_frames = 5;
      }
      fopts.fault_frame_types = {
          static_cast<std::uint8_t>(wire::FrameType::kEventForward),
          static_cast<std::uint8_t>(wire::FrameType::kBrokerAck),
          static_cast<std::uint8_t>(wire::FrameType::kLinkHeartbeat)};
      faults.push_back(std::make_unique<FaultInjectingTransport>(*endpoint, fopts));

      Broker::Options opts;
      opts.session_epoch = 1000 + static_cast<std::uint64_t>(b);
      opts.link_retransmit_timeout = 50;
      opts.link_heartbeat_interval = 200;
      opts.match_threads = match_threads;
      opts.clock = [this] { return clock.load(std::memory_order_relaxed); };
      brokers.push_back(std::make_unique<Broker>(BrokerId{b}, topo,
                                                 std::vector<SchemaPtr>{schema},
                                                 *faults.back(), opts));
      faults.back()->set_handler(brokers.back().get());
      endpoint->set_handler(faults.back().get());
    }
    for (int b = 0; b + 1 < kBrokers; ++b) {
      const ConnId conn = net.connect("broker" + std::to_string(b),
                                      "broker" + std::to_string(b + 1));
      link_conns.push_back(conn);
      brokers[static_cast<std::size_t>(b)]->attach_broker_link(conn, BrokerId{b + 1});
    }
    net.pump();
  }

  Client& add_client(const std::string& name, int broker) {
    auto* endpoint = net.create_endpoint(name);
    clients.push_back(
        std::make_unique<Client>(name, *endpoint, std::vector<SchemaPtr>{schema}));
    endpoint->set_handler(clients.back().get());
    const ConnId conn = net.connect(name, "broker" + std::to_string(broker));
    client_conns[name] = conn;
    client_brokers[name] = broker;
    clients.back()->bind(conn);
    net.pump();
    return *clients.back();
  }

  /// Brings up a hot standby shadowing broker `b` (same BrokerId — promotion
  /// is identity takeover) and dials the replication link. The standby's
  /// transport is the raw endpoint: the replication stream runs clean, only
  /// the link-session frames are under fault injection.
  void attach_standby(int b) {
    auto* endpoint = net.create_endpoint("standby" + std::to_string(b));
    Broker::Options opts;
    opts.session_epoch = 7777;  // replaced by the snapshot's epoch
    opts.standby = true;
    opts.link_retransmit_timeout = 50;
    opts.link_heartbeat_interval = 200;
    opts.match_threads = match_threads;
    opts.clock = [this] { return clock.load(std::memory_order_relaxed); };
    standby = std::make_unique<Broker>(BrokerId{b}, topo, std::vector<SchemaPtr>{schema},
                                       *endpoint, opts);
    endpoint->set_handler(standby.get());
    repl_conn = net.connect("standby" + std::to_string(b), "broker" + std::to_string(b));
    standby->attach_replication_link(repl_conn);
    net.pump();
  }

  /// Full broker death: every connection the victim holds — links, local
  /// clients, the replication stream — drops at once, and its timers stop.
  void kill_broker(int b) {
    if (b > 0) {
      net.drop("broker" + std::to_string(b - 1),
               link_conns[static_cast<std::size_t>(b - 1)]);
    }
    if (b + 1 < kBrokers) {
      net.drop("broker" + std::to_string(b), link_conns[static_cast<std::size_t>(b)]);
    }
    for (const auto& [name, conn] : client_conns) {
      if (client_brokers[name] == b) net.drop(name, conn);
    }
    if (repl_conn != kInvalidConn) {
      net.drop("standby" + std::to_string(b), repl_conn);
      repl_conn = kInvalidConn;
    }
    alive[static_cast<std::size_t>(b)] = false;
    net.pump();
  }

  void tick_all() {
    for (int b = 0; b < kBrokers; ++b) {
      if (alive[static_cast<std::size_t>(b)]) {
        brokers[static_cast<std::size_t>(b)]->tick_links(clock);
      }
    }
    if (standby) standby->tick_links(clock);
  }

  void flush_all() {
    for (auto& broker : brokers) broker->flush();
    if (standby) standby->flush();
    for (auto& fault : faults) fault->flush_delayed();
  }
};

std::vector<int> tags_of(std::vector<Client::Delivery>& into_sorted) {
  std::vector<int> tags;
  tags.reserve(into_sorted.size());
  for (const auto& delivery : into_sorted) {
    tags.push_back(static_cast<int>(delivery.event.value(2).as_int()));
  }
  std::sort(tags.begin(), tags.end());
  return tags;
}

/// Runs the seeded workload + fault schedule on a bed; returns each
/// subscriber's delivered tag multiset (sorted), one per subscriber.
std::vector<std::vector<int>> run_chaos(ChaosBed& bed, std::uint64_t seed, bool inject,
                                        std::vector<int>& published_out) {
  Client& pub = bed.add_client("pub", 0);
  std::vector<Client*> subs = {&bed.add_client("sub0", 0), &bed.add_client("sub1", 1),
                               &bed.add_client("sub2", 2)};
  for (Client* sub : subs) sub->subscribe(0, "volume > 0");
  bed.net.pump();

  // Two decorrelated streams: the workload schedule must be identical
  // between the chaos run and the oracle run, so link-state decisions draw
  // from their own stream.
  Rng workload(seed);
  Rng severs(seed ^ 0xabcddcbaULL);
  std::vector<bool> severed(bed.link_conns.size(), false);

  int next_tag = 1;
  std::vector<std::vector<Client::Delivery>> collected(subs.size());
  for (int round = 0; round < 50; ++round) {
    if (inject) {
      for (std::size_t l = 0; l < bed.link_conns.size(); ++l) {
        if (severs.chance(0.12)) {
          severed[l] = !severed[l];
          if (severed[l]) {
            bed.faults[l]->sever(bed.link_conns[l]);  // partition the link
          } else {
            bed.faults[l]->heal(bed.link_conns[l]);
          }
        }
      }
    } else {
      // Keep the sever stream in lockstep so the workload stream below
      // sees identical draws either way.
      for (std::size_t l = 0; l < bed.link_conns.size(); ++l) (void)severs.chance(0.12);
    }
    const std::uint64_t burst = workload.below(4);
    for (std::uint64_t i = 0; i < burst; ++i) {
      pub.publish(0, Event(bed.schema, {Value("IBM"), Value(100.0 + next_tag),
                                        Value(next_tag)}));
      published_out.push_back(next_tag++);
    }
    bed.net.pump();
    bed.clock += 60;
    bed.tick_all();
    bed.net.pump();
    for (std::size_t s = 0; s < subs.size(); ++s) {
      auto batch = subs[s]->take_deliveries();
      for (auto& d : batch) collected[s].push_back(std::move(d));
    }
  }

  // Quiesce: heal every partition, release held frames, and drive the
  // retransmission timers until the network drains or we give up.
  for (auto& fault : bed.faults) fault->heal_all();
  const auto complete = [&] {
    for (const auto& got : collected) {
      if (got.size() < published_out.size()) return false;
    }
    return true;
  };
  for (int i = 0; i < 400 && !complete(); ++i) {
    bed.clock += 100;  // comfortably past the retransmit timeout
    bed.tick_all();
    bed.flush_all();
    bed.net.pump();
    for (std::size_t s = 0; s < subs.size(); ++s) {
      auto batch = subs[s]->take_deliveries();
      for (auto& d : batch) collected[s].push_back(std::move(d));
    }
  }

  std::vector<std::vector<int>> result;
  result.reserve(collected.size());
  for (auto& got : collected) result.push_back(tags_of(got));
  return result;
}

/// The broker-kill workload: same three-broker line and publish schedule as
/// run_chaos, but halfway through the middle broker dies outright — every
/// connection it holds severed at once — and its hot standby is promoted.
/// Neighbors redial the promoted standby, the orphaned subscriber fails
/// over with its redelivery cursor, and the run must still converge on the
/// oracle's delivered multiset: no silent loss, no duplicates. Any possible
/// loss would have to surface through the client's reported truncation
/// bound — asserted below to be reported, and to be vacuous (nothing was
/// actually lost: the kill lands on a drained replication stream, so the
/// standby is an exact mirror).
std::vector<std::vector<int>> run_failover(ChaosBed& bed, std::uint64_t seed, bool kill,
                                           std::vector<int>& published_out) {
  constexpr int kVictim = 1;
  Client& pub = bed.add_client("pub", 0);
  std::vector<Client*> subs = {&bed.add_client("sub0", 0), &bed.add_client("sub1", 1),
                               &bed.add_client("sub2", 2)};
  for (Client* sub : subs) sub->subscribe(0, "volume > 0");
  bed.net.pump();
  if (kill) bed.attach_standby(kVictim);

  Rng workload(seed);
  int next_tag = 1;
  std::vector<std::vector<Client::Delivery>> collected(subs.size());
  const auto collect = [&] {
    for (std::size_t s = 0; s < subs.size(); ++s) {
      auto batch = subs[s]->take_deliveries();
      for (auto& d : batch) collected[s].push_back(std::move(d));
    }
  };

  for (int round = 0; round < 30; ++round) {
    if (kill && round == 15) {
      // Drive the timers until in-flight frames drain, so the replication
      // stream is fully applied — then the kill is a *clean* failover and
      // the oracle comparison can demand full equality.
      for (int i = 0; i < 8; ++i) {
        bed.clock += 100;
        bed.tick_all();
        bed.flush_all();
        bed.net.pump();
      }
      // The loop above ends with a pump, which can hand the victim fresh
      // match work it has already acked upstream — killed there, the event
      // would be silently lost (accepted, never matched, never replicated).
      // Every frame that enqueues match work or replication traffic bumps a
      // counter at accept time, so drain (no ticks: timers would inject
      // retransmits forever) until an iteration moves no counter: queues
      // empty, update stream fully applied.
      const auto progress = [&] {
        std::uint64_t sum = bed.standby->stats().repl_updates_applied;
        for (const auto& broker : bed.brokers) {
          const Broker::Stats s = broker->stats();
          sum += s.events_published + s.events_relayed + s.events_delivered +
                 s.events_forwarded + s.repl_updates_sent;
        }
        return sum;
      };
      for (std::uint64_t prev = progress();;) {
        bed.flush_all();
        bed.net.pump();
        const std::uint64_t cur = progress();
        if (cur == prev) break;
        prev = cur;
      }
      collect();
      bed.kill_broker(kVictim);
      bed.standby->promote();
      // Neighbors redial the promoted standby under the victim's identity;
      // the orphaned subscriber rebinds with its cursor intact.
      const ConnId left = bed.net.connect("broker0", "standby1");
      bed.brokers[0]->attach_broker_link(left, BrokerId{kVictim});
      const ConnId right = bed.net.connect("broker2", "standby1");
      bed.brokers[2]->attach_broker_link(right, BrokerId{kVictim});
      subs[1]->bind(bed.net.connect("sub1", "standby1"));
      bed.net.pump();
    }
    const std::uint64_t burst = workload.below(4);
    for (std::uint64_t i = 0; i < burst; ++i) {
      pub.publish(0, Event(bed.schema, {Value("IBM"), Value(100.0 + next_tag),
                                        Value(next_tag)}));
      published_out.push_back(next_tag++);
    }
    bed.net.pump();
    bed.clock += 60;
    bed.tick_all();
    bed.net.pump();
    collect();
  }

  for (auto& fault : bed.faults) fault->heal_all();
  const auto complete = [&] {
    for (const auto& got : collected) {
      if (got.size() < published_out.size()) return false;
    }
    return true;
  };
  for (int i = 0; i < 400 && !complete(); ++i) {
    bed.clock += 100;
    bed.tick_all();
    bed.flush_all();
    bed.net.pump();
    collect();
  }

  std::vector<std::vector<int>> result;
  result.reserve(collected.size());
  for (auto& got : collected) result.push_back(tags_of(got));
  return result;
}

class ChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosTest, ExactlyOnceDeliveryUnderLinkFaults) {
  const std::uint64_t seed = GetParam();

  std::vector<int> oracle_published;
  ChaosBed oracle_bed(seed, /*inject=*/false, /*match_threads=*/0);
  const auto oracle = run_chaos(oracle_bed, seed, false, oracle_published);

  std::vector<int> chaos_published;
  ChaosBed chaos_bed(seed, /*inject=*/true, /*match_threads=*/0);
  const auto chaos = run_chaos(chaos_bed, seed, true, chaos_published);

  ASSERT_EQ(chaos_published, oracle_published) << "workload schedules diverged";
  ASSERT_FALSE(chaos_published.empty());
  for (std::size_t s = 0; s < chaos.size(); ++s) {
    EXPECT_EQ(chaos[s], oracle[s])
        << "subscriber " << s << " delivered multiset diverged from oracle (seed " << seed
        << ")";
    EXPECT_EQ(chaos[s], chaos_published)
        << "subscriber " << s << " did not get exactly the published multiset";
  }

  // Sanity: the run actually exercised the machinery.
  std::uint64_t injected = 0;
  std::uint64_t recovered = 0;
  for (const auto& fault : chaos_bed.faults) {
    const auto counters = fault->counters();
    injected += counters.dropped + counters.duplicated + counters.delayed +
                counters.severed_out + counters.severed_in;
  }
  for (const auto& broker : chaos_bed.brokers) {
    const auto stats = broker->stats();
    recovered += stats.retransmits + stats.duplicates_dropped;
  }
  EXPECT_GT(injected, 0u) << "fault injection was a no-op (seed " << seed << ")";
  EXPECT_GT(recovered, 0u) << "no retransmit/dedup activity (seed " << seed << ")";
}

TEST_P(ChaosTest, ExactlyOnceWithMatchWorkerPipeline) {
  // Same property with concurrent match workers: subscription state is
  // fixed before the storm, so out-of-order application cannot change the
  // delivered multiset — and TSan gets sends racing the pump thread.
  const std::uint64_t seed = GetParam();

  std::vector<int> oracle_published;
  ChaosBed oracle_bed(seed, /*inject=*/false, /*match_threads=*/0);
  const auto oracle = run_chaos(oracle_bed, seed, false, oracle_published);

  std::vector<int> chaos_published;
  ChaosBed chaos_bed(seed, /*inject=*/true, /*match_threads=*/2);
  const auto chaos = run_chaos(chaos_bed, seed, true, chaos_published);

  ASSERT_EQ(chaos_published, oracle_published);
  for (std::size_t s = 0; s < chaos.size(); ++s) {
    EXPECT_EQ(chaos[s], oracle[s]) << "subscriber " << s << " (seed " << seed << ")";
  }
}

class FailoverChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailoverChaosTest, BrokerKillPromoteStandbyMatchesOracle) {
  const std::uint64_t seed = GetParam();

  std::vector<int> oracle_published;
  ChaosBed oracle_bed(seed, /*inject=*/false, /*match_threads=*/0);
  const auto oracle = run_failover(oracle_bed, seed, /*kill=*/false, oracle_published);

  std::vector<int> chaos_published;
  ChaosBed chaos_bed(seed, /*inject=*/true, /*match_threads=*/0);
  const auto chaos = run_failover(chaos_bed, seed, /*kill=*/true, chaos_published);

  ASSERT_EQ(chaos_published, oracle_published) << "workload schedules diverged";
  ASSERT_FALSE(chaos_published.empty());
  for (std::size_t s = 0; s < chaos.size(); ++s) {
    EXPECT_EQ(chaos[s], oracle[s])
        << "subscriber " << s << " delivered multiset diverged from oracle across the "
        << "broker kill (seed " << seed << ")";
    EXPECT_EQ(chaos[s], chaos_published)
        << "subscriber " << s << " did not get exactly the published multiset (seed "
        << seed << ")";
  }

  // The takeover actually happened, and the orphaned subscriber was told
  // its honest possible-loss bound (vacuous here — the kill landed on a
  // drained replication stream, so nothing was actually lost).
  const auto standby_stats = chaos_bed.standby->stats();
  EXPECT_EQ(standby_stats.promotions, 1u);
  EXPECT_GT(standby_stats.failover_seq_rebases, 0u);
  EXPECT_GT(chaos_bed.clients[2]->replay_truncated_through(), 0u);  // sub1
}

TEST_P(FailoverChaosTest, BrokerKillWithMatchWorkerPipeline) {
  // Same property with concurrent match workers on every broker including
  // the standby (whose apply loop races its own promotion timers under
  // TSan via the chaos label on this binary).
  const std::uint64_t seed = GetParam();

  std::vector<int> oracle_published;
  ChaosBed oracle_bed(seed, /*inject=*/false, /*match_threads=*/0);
  const auto oracle = run_failover(oracle_bed, seed, /*kill=*/false, oracle_published);

  std::vector<int> chaos_published;
  ChaosBed chaos_bed(seed, /*inject=*/true, /*match_threads=*/2);
  const auto chaos = run_failover(chaos_bed, seed, /*kill=*/true, chaos_published);

  ASSERT_EQ(chaos_published, oracle_published);
  for (std::size_t s = 0; s < chaos.size(); ++s) {
    EXPECT_EQ(chaos[s], oracle[s]) << "subscriber " << s << " (seed " << seed << ")";
  }
  EXPECT_EQ(chaos_bed.standby->stats().promotions, 1u);
}

std::vector<std::uint64_t> chaos_seeds() {
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  if (const char* env = std::getenv("GRYPHON_CHAOS_SEED")) {
    const auto extra = static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
    if (std::find(seeds.begin(), seeds.end(), extra) == seeds.end()) seeds.push_back(extra);
  }
  return seeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest, ::testing::ValuesIn(chaos_seeds()));

/// The broker-kill acceptance bar (ISSUE: "across >= 5 seeds"): a wider
/// fixed sweep than the link-fault suite, plus the GRYPHON_CHAOS_SEED extra.
std::vector<std::uint64_t> failover_seeds() {
  std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};
  if (const char* env = std::getenv("GRYPHON_CHAOS_SEED")) {
    const auto extra = static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
    if (std::find(seeds.begin(), seeds.end(), extra) == seeds.end()) seeds.push_back(extra);
  }
  return seeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailoverChaosTest,
                         ::testing::ValuesIn(failover_seeds()));

}  // namespace
}  // namespace gryphon
