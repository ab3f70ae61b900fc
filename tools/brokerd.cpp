// brokerd — a standalone content-based pub/sub broker over TCP.
//
// Usage:
//   brokerd --id 0 --brokers 3 --links "0-1:10,1-2:25" --listen 7000 ...
//           [--dial "1=127.0.0.1:7001"]... ...
//           --schema "trades issue:string price:double volume:int" ...
//           [--schema "alarms severity:int"]... ...
//           [--gc-seconds 3600] [--match-threads N|auto] [--verbose]
//           [--shards N] [--batch-max N]
//           [--link-rto-ms 50] [--link-heartbeat-ms 500]
//           [--link-idle-timeout-ms 2000] [--redial-backoff-ms 20]
//           [--redial-backoff-max-ms 5000] [--redial-budget 0]
//           [--replica-listen PORT] [--repl-window 4096]
//           [--standby-of HOST:PORT] [--promote-timeout-ms 2000]
//
// Replication (docs/fault-tolerance.md § Replication): a primary started
// with --replica-listen accepts a hot standby on a second port and streams
// every durable mutation to it; the standby is started with --standby-of
// pointing at that port (and no --dial — neighbors redial the standby after
// promotion). The standby keeps redialing its primary while the link is
// down, and promotes itself to the primary's role and identity once the
// replication stream has been idle for --promote-timeout-ms.
//
// Flags are parsed and validated by tools::parse_broker_config (one entry
// point for the whole flag surface; see tool_config.h), so every
// diagnostic here is a BrokerConfig error message plus the usage text.
//
// Every broker in the network must be given the same --brokers/--links
// topology and the same --schema list (information spaces are positional).
// A broker dials the peers listed in --dial; the peer side accepts
// automatically, so each link should be dialed from exactly one end.
// Dialed links are supervised (docs/fault-tolerance.md): heartbeats keep
// them alive, a link idle past --link-idle-timeout-ms is dropped and
// redialed with exponential backoff, and after --redial-budget consecutive
// failures (0 = never) the link is declared dead and forwards to it are
// dropped with a counter instead of queueing forever.
//
// --shards partitions each factored space's compiled matching state into
// independently matchable shards; --batch-max bounds how many events one
// match worker drains into a single DispatchBatch (docs/concurrency.md).
//
// Example three-node line on one machine:
//   brokerd --id 0 --brokers 3 --links 0-1,1-2 --listen 7000 --schema "t a:int" &
//   brokerd --id 1 --brokers 3 --links 0-1,1-2 --listen 7001 ...
//           --dial 0=127.0.0.1:7000 --schema "t a:int" &
//   brokerd --id 2 --brokers 3 --links 0-1,1-2 --listen 7002 ...
//           --dial 1=127.0.0.1:7001 --schema "t a:int" &
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>
#include <unordered_map>

#include "broker/broker.h"
#include "broker/link_supervisor.h"
#include "broker/tcp_transport.h"
#include "common/logging.h"
#include "tool_config.h"

using namespace gryphon;

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

struct Relay : TransportHandler {
  TransportHandler* target{nullptr};
  // Standby side: the replication connection under watch, so the main loop
  // can redial the primary when it drops (transport callbacks run on the
  // reader thread).
  std::atomic<ConnId> repl_watch{kInvalidConn};
  std::atomic<bool> repl_down{false};
  void on_connect(ConnId c) override { target->on_connect(c); }
  void on_frame(ConnId c, std::span<const std::uint8_t> f) override { target->on_frame(c, f); }
  void on_disconnect(ConnId c) override {
    if (c == repl_watch.load()) repl_down.store(true);
    target->on_disconnect(c);
  }
};

[[noreturn]] void usage(const char* argv0, const char* error) {
  std::fprintf(stderr, "error: %s\n", error);
  std::fprintf(stderr,
               "usage: %s --id N --brokers N --links \"0-1:10,...\" --listen PORT\n"
               "          [--dial ID=HOST:PORT]... --schema \"NAME attr:type ...\" ...\n"
               "          [--gc-seconds N] [--match-threads N|auto] [--verbose]\n"
               "          [--shards N] [--batch-max N]\n"
               "          [--no-covering] [--delta-segment-target N] [--max-delta-segments N]\n"
               "          [--link-rto-ms N] [--link-heartbeat-ms N]\n"
               "          [--link-idle-timeout-ms N] [--redial-backoff-ms N]\n"
               "          [--redial-backoff-max-ms N] [--redial-budget N]\n"
               "          [--replica-listen PORT] [--repl-window N]\n"
               "          [--standby-of HOST:PORT] [--promote-timeout-ms N]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  tools::BrokerConfig config;
  try {
    config = tools::parse_broker_config(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::exception& e) {
    usage(argv[0], e.what());
  }
  set_log_level(config.verbose ? LogLevel::kDebug : LogLevel::kWarn);

  try {
    const BrokerNetwork topology = config.topology();

    Broker::Options options;
    options.log_retention = ticks_from_seconds(config.gc_seconds);
    options.match_threads = config.match_threads;
    options.shards = config.shards;
    options.match_batch_max = config.batch_max;
    options.control.covering = config.covering;
    options.control.delta_segment_target = config.delta_segment_target;
    options.control.max_delta_segments = config.max_delta_segments;
    options.link_retransmit_timeout = ticks_from_millis(config.link_rto_ms);
    options.link_heartbeat_interval = ticks_from_millis(config.link_heartbeat_ms);
    options.standby = config.standby();
    options.replicate = config.replica_listen_port >= 0;
    options.repl_log_window = config.repl_window;
    options.repl_retransmit_timeout = ticks_from_millis(config.link_rto_ms);
    Relay relay;
    TcpTransport transport(relay);
    Broker broker(BrokerId{config.id}, topology, config.schemas, transport, options);
    relay.target = &broker;
    const std::uint16_t port =
        transport.listen(static_cast<std::uint16_t>(config.listen_port));
    std::printf(
        "brokerd: broker %d listening on 127.0.0.1:%u (%zu spaces, %zu brokers, "
        "%zu match threads, %zu shards, batch %zu)%s\n",
        config.id, port, config.schemas.size(), config.brokers, config.match_threads,
        config.shards, config.batch_max, config.standby() ? " [standby]" : "");
    if (config.replica_listen_port >= 0) {
      const std::uint16_t replica_port =
          transport.listen(static_cast<std::uint16_t>(config.replica_listen_port));
      std::printf("brokerd: replication stream on 127.0.0.1:%u (window %zu)\n",
                  replica_port, config.repl_window);
    }

    // Dialed links are owned by the supervisor: it makes the initial dial
    // on its first tick and keeps redialing (with backoff) whenever the
    // link drops or goes idle, so a peer that is down at startup or dies
    // mid-run no longer takes this broker with it.
    std::unordered_map<BrokerId, tools::DialTarget> dial_targets;
    for (const tools::DialTarget& target : config.dials) dial_targets[target.peer] = target;
    LinkSupervisor::Options sup_options;
    sup_options.idle_timeout = ticks_from_millis(config.link_idle_timeout_ms);
    sup_options.backoff_initial = ticks_from_millis(config.redial_backoff_ms);
    sup_options.backoff_max = ticks_from_millis(config.redial_backoff_max_ms);
    sup_options.redial_budget = static_cast<std::uint32_t>(config.redial_budget);
    LinkSupervisor supervisor(
        broker,
        [&](BrokerId peer) -> ConnId {
          const auto it = dial_targets.find(peer);
          if (it == dial_targets.end()) return kInvalidConn;
          try {
            const ConnId conn = transport.connect(it->second.host, it->second.port);
            std::printf("brokerd: linked to broker %d at %s:%u\n", peer.value,
                        it->second.host.c_str(), it->second.port);
            return conn;
          } catch (const std::exception& e) {
            GRYPHON_WARN("brokerd") << "dial to broker " << peer.value
                                    << " failed: " << e.what();
            return kInvalidConn;
          }
        },
        sup_options);
    for (const auto& [peer, target] : dial_targets) supervisor.supervise(peer);
    supervisor.start(std::chrono::milliseconds(std::max(
        1, std::min(config.link_heartbeat_ms, config.link_idle_timeout_ms) / 4)));

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    // Standby: dial the primary's replica listener (retried below while the
    // link is down) and auto-promote once the stream has been idle past the
    // promote timeout.
    bool standby_active = config.standby();
    const auto dial_primary = [&] {
      try {
        const ConnId conn = transport.connect(config.standby_host, config.standby_port);
        relay.repl_down.store(false);
        relay.repl_watch.store(conn);
        broker.attach_replication_link(conn);
        std::printf("brokerd: standby shadowing primary at %s:%u (promote after %d ms "
                    "replication idle)\n",
                    config.standby_host.c_str(), config.standby_port,
                    config.promote_timeout_ms);
        return true;
      } catch (const std::exception& e) {
        GRYPHON_WARN("brokerd") << "replication dial to " << config.standby_host << ":"
                                << config.standby_port << " failed: " << e.what();
        return false;
      }
    };
    if (standby_active) dial_primary();
    auto last_gc = std::chrono::steady_clock::now();
    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      if (standby_active) {
        const auto last = broker.replication_last_activity();
        if (last && broker.clock_now() - *last >
                        ticks_from_millis(config.promote_timeout_ms)) {
          std::printf("brokerd: replication stream idle past %d ms -- promoting to "
                      "primary\n",
                      config.promote_timeout_ms);
          broker.promote();
          standby_active = false;
        } else if (!last || relay.repl_down.load()) {
          dial_primary();  // primary unreachable or the link dropped: redial
        }
        continue;  // pre-promotion the primary drives log truncation, not GC
      }
      const auto now = std::chrono::steady_clock::now();
      if (now - last_gc > std::chrono::seconds(30)) {
        const std::size_t collected = broker.collect_garbage();
        if (collected > 0 && config.verbose) {
          std::printf("brokerd: garbage-collected %zu log entries\n", collected);
        }
        last_gc = now;
      }
    }
    supervisor.stop();
    const auto stats = broker.stats();
    std::printf(
        "brokerd: shutting down (published=%llu relayed=%llu forwarded=%llu delivered=%llu "
        "subscriptions=%llu matching_steps=%llu)\n",
        static_cast<unsigned long long>(stats.events_published),
        static_cast<unsigned long long>(stats.events_relayed),
        static_cast<unsigned long long>(stats.events_forwarded),
        static_cast<unsigned long long>(stats.events_delivered),
        static_cast<unsigned long long>(stats.subscriptions_active),
        static_cast<unsigned long long>(stats.matching_steps));
    std::printf(
        "brokerd: link health (retransmits=%llu duplicates_dropped=%llu link_flaps=%llu "
        "frames_rejected=%llu forwards_dropped_dead_link=%llu "
        "forwards_queued_link_down=%llu)\n",
        static_cast<unsigned long long>(stats.retransmits),
        static_cast<unsigned long long>(stats.duplicates_dropped),
        static_cast<unsigned long long>(stats.link_flaps),
        static_cast<unsigned long long>(stats.frames_rejected),
        static_cast<unsigned long long>(stats.forwards_dropped_dead_link),
        static_cast<unsigned long long>(stats.forwards_queued_link_down));
    std::printf(
        "brokerd: replication (repl_updates_sent=%llu repl_snapshots_sent=%llu "
        "repl_updates_applied=%llu repl_snapshots_applied=%llu promotions=%llu "
        "failover_seq_rebases=%llu)\n",
        static_cast<unsigned long long>(stats.repl_updates_sent),
        static_cast<unsigned long long>(stats.repl_snapshots_sent),
        static_cast<unsigned long long>(stats.repl_updates_applied),
        static_cast<unsigned long long>(stats.repl_snapshots_applied),
        static_cast<unsigned long long>(stats.promotions),
        static_cast<unsigned long long>(stats.failover_seq_rebases));
    const auto& cp = stats.control_plane;
    const unsigned long long compiles = cp.compile_publishes;
    std::printf(
        "brokerd: control plane (frontier=%llu covered=%llu delta=%llu full=%llu "
        "covering_only=%llu segments_compiled=%llu segments_reused=%llu "
        "avg_compile_us=%llu)\n",
        static_cast<unsigned long long>(cp.frontier_subscriptions),
        static_cast<unsigned long long>(cp.covered_subscriptions),
        static_cast<unsigned long long>(cp.delta_publishes),
        static_cast<unsigned long long>(cp.full_publishes),
        static_cast<unsigned long long>(cp.covering_only_publishes),
        static_cast<unsigned long long>(cp.segments_compiled),
        static_cast<unsigned long long>(cp.segments_reused),
        compiles == 0 ? 0ULL
                      : static_cast<unsigned long long>(cp.compile_us_total) / compiles);
    if (config.verbose) {
      std::printf("brokerd: compile latency histogram (log2 us buckets):");
      for (std::size_t b = 0; b < ControlPlaneStats::kHistogramBuckets; ++b) {
        if (cp.compile_us_histogram[b] != 0) {
          std::printf(" [%zu]=%llu", b,
                      static_cast<unsigned long long>(cp.compile_us_histogram[b]));
        }
      }
      std::printf("\n");
    }
    transport.shutdown();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "brokerd: %s\n", e.what());
    return 1;
  }
  return 0;
}
