#include "cluster.h"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "common.h"

namespace perfbench {

using namespace gryphon;

Cluster::Cluster(const ClusterSpec& spec) : spec_(spec) {
  const BrokerNetwork& topo = *spec_.topology;
  if (spec_.wire == Wire::kInProc) net_ = std::make_unique<InProcNetwork>();

  Broker::Options options;
  options.match_threads = spec_.match_threads;
  for (std::size_t b = 0; b < topo.broker_count(); ++b) {
    auto node = std::make_unique<BrokerNode>(static_cast<std::int32_t>(b), spec_.id_index);
    node->name = std::string("b").append(std::to_string(b));
    Transport* raw = nullptr;
    if (net_) {
      InProcEndpoint* endpoint = net_->create_endpoint(node->name);
      endpoint->set_handler(&node->relay);
      raw = endpoint;
    } else {
      node->tcp = std::make_unique<TcpTransport>(node->relay);
      raw = node->tcp.get();
    }
    node->tracing =
        std::make_unique<TracingTransport>(*raw, static_cast<std::int32_t>(b), spec_.id_index);
    node->broker = std::make_unique<Broker>(BrokerId{static_cast<BrokerId::rep_type>(b)}, topo,
                                            std::vector<SchemaPtr>{spec_.schema},
                                            *node->tracing, options);
    node->relay.set_target(node->broker.get());
    if (node->tcp) node->port = node->tcp->listen(0);
    brokers_.push_back(std::move(node));
  }

  // Each link is dialed once, by its lower-numbered end.
  std::size_t link_ends = 0;
  for (std::size_t a = 0; a < topo.broker_count(); ++a) {
    for (const auto& port : topo.ports(BrokerId{static_cast<BrokerId::rep_type>(a)})) {
      if (port.kind != BrokerNetwork::PortKind::kBroker) continue;
      ++link_ends;
      const auto b = static_cast<std::size_t>(port.peer_broker.value);
      if (b < a) continue;
      BrokerNode& from = *brokers_[a];
      const ConnId conn = net_ ? net_->connect(from.name, brokers_[b]->name)
                               : from.tcp->connect("127.0.0.1", brokers_[b]->port);
      from.broker->attach_broker_link(conn, port.peer_broker);
    }
  }
  pump();
  if (!net_) {
    // Both ends of every link must have seen the handshake before clients
    // subscribe, or early subscriptions would not flood across it.
    const std::int64_t deadline = now_ns() + 10'000'000'000LL;
    for (;;) {
      std::size_t up = 0;
      for (std::size_t a = 0; a < topo.broker_count(); ++a) {
        for (const auto& port : topo.ports(BrokerId{static_cast<BrokerId::rep_type>(a)})) {
          if (port.kind == BrokerNetwork::PortKind::kBroker &&
              brokers_[a]->broker->link_up(port.peer_broker)) {
            ++up;
          }
        }
      }
      if (up == link_ends) break;
      if (now_ns() > deadline) throw std::runtime_error("cluster: broker links did not come up");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  for (std::size_t c = 0; c < spec_.client_homes.size(); ++c) {
    auto node = std::make_unique<ClientNode>(static_cast<std::int32_t>(c), spec_.id_index);
    const std::string name = std::string("c").append(std::to_string(c));
    BrokerNode& home = *brokers_[static_cast<std::size_t>(spec_.client_homes[c].value)];
    Transport* raw = nullptr;
    if (net_) {
      InProcEndpoint* endpoint = net_->create_endpoint(name);
      endpoint->set_handler(&node->relay);
      raw = endpoint;
    } else {
      node->tcp = std::make_unique<TcpTransport>(node->relay);
      raw = node->tcp.get();
    }
    node->tracing = std::make_unique<TracingTransport>(*raw, -1 - static_cast<std::int32_t>(c),
                                                       spec_.id_index);
    node->client = std::make_unique<Client>(name, *node->tracing,
                                            std::vector<SchemaPtr>{spec_.schema});
    node->relay.set_target(node->client.get());
    const ConnId conn =
        net_ ? net_->connect(name, home.name) : node->tcp->connect("127.0.0.1", home.port);
    node->client->bind(conn);
    clients_.push_back(std::move(node));
  }
  pump();
}

Cluster::~Cluster() {
  // Stop every transport thread before any handler it calls is destroyed.
  for (auto& node : clients_) {
    if (node->tcp) node->tcp->shutdown();
  }
  for (auto& node : brokers_) {
    if (node->tcp) node->tcp->shutdown();
  }
  clients_.clear();
  brokers_.clear();
}

void Cluster::pump() {
  if (net_) net_->pump();
}

bool Cluster::wait_subscribed(std::size_t replicas,
                              const std::vector<std::pair<std::size_t, std::uint64_t>>& tokens,
                              double timeout_s) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  std::size_t acked = 0;  // tokens are checked in order; acked ones stay acked
  for (;;) {
    pump();
    while (acked < tokens.size() &&
           clients_[tokens[acked].first]->client->subscription_id(tokens[acked].second)) {
      ++acked;
    }
    bool replicated = acked == tokens.size();
    for (std::size_t b = 0; replicated && b < brokers_.size(); ++b) {
      replicated = brokers_[b]->broker->subscription_count() == replicas;
    }
    if (replicated) return true;
    if (now_ns() > deadline) return false;
    if (!net_) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Broker::Stats Cluster::total_stats() const {
  // Only the counters the benchmark reports are summed.
  Broker::Stats total;
  ControlPlaneStats& cp = total.control_plane;
  for (const auto& node : brokers_) {
    const Broker::Stats s = node->broker->stats();
    total.events_forwarded += s.events_forwarded;
    total.events_delivered += s.events_delivered;
    total.matching_steps += s.matching_steps;
    total.retransmits += s.retransmits;
    total.duplicates_dropped += s.duplicates_dropped;
    total.frames_rejected += s.frames_rejected;
    const ControlPlaneStats& sc = s.control_plane;
    cp.frontier_subscriptions += sc.frontier_subscriptions;
    cp.covered_subscriptions += sc.covered_subscriptions;
    cp.segments_compiled += sc.segments_compiled;
    cp.segments_reused += sc.segments_reused;
    cp.compile_publishes += sc.compile_publishes;
    for (std::size_t i = 0; i < ControlPlaneStats::kHistogramBuckets; ++i) {
      cp.compile_us_histogram[i] += sc.compile_us_histogram[i];
    }
  }
  return total;
}

}  // namespace perfbench
