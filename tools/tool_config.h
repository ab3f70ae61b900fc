// Shared command-line configuration parsing for the CLI tools.
//
// Schema spec:    "trades issue:string price:double volume:int urgent:bool"
//                 An int attribute may declare a finite domain:
//                 "synthetic a1:int(0..4) a2:int(0..4)"
// Topology spec:  "0-1:10,1-2:25"   (brokerA-brokerB:one-way-delay-ms)
// Dial spec:      "1=127.0.0.1:7001"
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "event/schema.h"
#include "topology/network.h"

namespace gryphon::tools {

/// Parses a schema spec; throws std::invalid_argument with a usage hint.
SchemaPtr parse_schema_spec(const std::string& spec);

/// Parses a topology spec into a broker-only network with `broker_count`
/// brokers. Delays are milliseconds.
BrokerNetwork parse_topology_spec(std::size_t broker_count, const std::string& spec);

struct DialTarget {
  BrokerId peer;
  std::string host;
  std::uint16_t port{0};
};

/// Parses one dial spec "ID=HOST:PORT".
DialTarget parse_dial_spec(const std::string& spec);

/// Parses a worker-thread count: a non-negative integer, or "auto" for the
/// hardware concurrency (at least 1). 0 means synchronous matching.
std::size_t parse_thread_count(const std::string& spec);

/// Splits a host:port endpoint.
void parse_endpoint(const std::string& spec, std::string& host, std::uint16_t& port);

/// The full validated configuration of one brokerd process: every flag
/// family (identity/topology, schemas, match pipeline,
/// link-session timings, redial policy) behind a single parse + validate
/// entry point, so the tool's main() does no flag plumbing of its own and
/// every tool reusing brokers parses identically.
struct BrokerConfig {
  // Identity and topology (required).
  int id{-1};
  std::size_t brokers{0};
  std::string links;          // "0-1:10,1-2:25"; parsed via parse_topology_spec
  int listen_port{-1};        // 0 picks an ephemeral port
  std::vector<DialTarget> dials;
  std::vector<SchemaPtr> schemas;  // positional information spaces

  // Match pipeline.
  std::size_t match_threads{0};   // 0 = synchronous matching

  // Maintenance.
  int gc_seconds{3600};
  bool verbose{false};

  // Link-session timings (docs/fault-tolerance.md).
  int link_rto_ms{50};
  int link_heartbeat_ms{500};
  int link_idle_timeout_ms{2000};
  int redial_backoff_ms{20};
  int redial_backoff_max_ms{5000};
  int redial_budget{0};  // 0 = redial forever

  // Replication (docs/fault-tolerance.md § Replication). A process is
  // either a primary (optionally exposing --replica-listen for a hot
  // standby to dial) or a standby (--standby-of pointing at its primary's
  // replica listener); the two roles are mutually exclusive, and a standby
  // must not dial broker links either — neighbors redial *it* after
  // promotion.
  std::string standby_host;       // --standby-of HOST:PORT (empty = primary)
  std::uint16_t standby_port{0};
  int replica_listen_port{-1};    // second listen port; -1 = no standby served
  std::size_t repl_window{4096};  // update-log window = snapshot cadence
  int promote_timeout_ms{2000};   // standby: repl idle before auto-promotion

  [[nodiscard]] bool standby() const { return !standby_host.empty(); }

  /// The parsed topology (convenience over brokers + links).
  [[nodiscard]] BrokerNetwork topology() const {
    return parse_topology_spec(brokers, links);
  }
};

/// Parses brokerd-style arguments (argv[1..argc), already split) into a
/// validated BrokerConfig. Throws std::invalid_argument naming the
/// offending flag on: unknown flags, missing values, missing required
/// flags (--id, --brokers, --listen, at least one --schema), non-positive
/// link timings, and an idle timeout that does not exceed the heartbeat
/// interval.
BrokerConfig parse_broker_config(const std::vector<std::string>& args);

}  // namespace gryphon::tools
