// A broker network and its clients, assembled from the public Broker,
// Client and transport APIs over either InProcNetwork (pumped on the
// caller's thread) or TcpTransport on loopback. Every endpoint's transport
// is wrapped in a TracingTransport and every handler sits behind a Relay
// (trace.h), so the same assembly serves traced and untraced runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "broker/client.h"
#include "broker/inproc_transport.h"
#include "broker/tcp_transport.h"
#include "topology/network.h"
#include "trace.h"

namespace perfbench {

enum class Wire : std::uint8_t { kInProc, kTcp };

struct ClusterSpec {
  Wire wire{Wire::kInProc};
  /// Brokers and inter-broker links only (clients attach dynamically).
  const gryphon::BrokerNetwork* topology{nullptr};
  gryphon::SchemaPtr schema;
  std::size_t id_index{0};
  /// Home broker of each client, in client order.
  std::vector<gryphon::BrokerId> client_homes;
  std::size_t match_threads{0};
};

class Cluster {
 public:
  /// Brings up every broker, dials every link, connects and binds every
  /// client. Throws std::runtime_error when TCP links do not come up.
  explicit Cluster(const ClusterSpec& spec);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// In-proc: delivers queued frames until the network is quiescent. TCP:
  /// no-op (transport threads deliver on their own).
  void pump();

  [[nodiscard]] std::size_t broker_count() const { return brokers_.size(); }
  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }
  [[nodiscard]] gryphon::Broker& broker(std::size_t i) { return *brokers_[i]->broker; }
  [[nodiscard]] gryphon::Client& client(std::size_t i) { return *clients_[i]->client; }
  [[nodiscard]] ClientProbe& probe(std::size_t i) { return clients_[i]->probe; }

  /// Blocks (pumping, for in-proc) until every broker holds `replicas`
  /// subscriptions and every listed client token is acknowledged, or the
  /// timeout passes; true on success.
  bool wait_subscribed(std::size_t replicas,
                       const std::vector<std::pair<std::size_t, std::uint64_t>>& tokens,
                       double timeout_s);

  /// Every broker's stats counters summed (the ones the benchmark reports).
  [[nodiscard]] gryphon::Broker::Stats total_stats() const;

 private:
  struct BrokerNode {
    Relay relay;
    std::unique_ptr<gryphon::TcpTransport> tcp;
    std::unique_ptr<TracingTransport> tracing;
    std::unique_ptr<gryphon::Broker> broker;
    std::uint16_t port{0};
    std::string name;
    BrokerNode(std::int32_t id, std::size_t id_index)
        : relay(Layer::kBrokerFrame, id, id_index, nullptr) {}
  };
  struct ClientNode {
    ClientProbe probe;
    Relay relay;
    std::unique_ptr<gryphon::TcpTransport> tcp;
    std::unique_ptr<TracingTransport> tracing;
    std::unique_ptr<gryphon::Client> client;
    ClientNode(std::int32_t index, std::size_t id_index)
        : relay(Layer::kClientFrame, -1 - index, id_index, &probe) {}
  };

  ClusterSpec spec_;
  std::unique_ptr<gryphon::InProcNetwork> net_;  // in-proc only; outlives the nodes
  std::vector<std::unique_ptr<BrokerNode>> brokers_;
  std::vector<std::unique_ptr<ClientNode>> clients_;
};

}  // namespace perfbench
