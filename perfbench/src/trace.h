// Tracing for the per-layer run, built only from the layers' public calls.
//
// Two wrappers sit at the layer boundaries of every broker and client:
//  * TracingTransport decorates the Transport an endpoint sends through and
//    records one span per send / send_batch (frame type, frames, bytes);
//  * Relay is the TransportHandler the transport calls; it forwards to the
//    Broker or Client and records one span per on_frame. A relay in front of
//    a client also stamps Deliver frames and SubscribeAcks as they arrive,
//    which is how end-to-end latency is measured in every run.
// Spans nest through a thread-local parent: a send made inside a broker's
// on_frame is that frame's child, so the frame's self time excludes the
// transport. Spans are kept in memory and written out when the run ends.
// With tracing off both wrappers only forward (and stamp deliveries).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "broker/transport.h"

namespace perfbench {

using gryphon::ConnId;

enum class Layer : std::uint8_t { kTransportSend = 0, kBrokerFrame, kClientFrame, kClientPublish };

const char* layer_name(Layer layer);

inline constexpr std::uint32_t kNoEvent = 0xffffffffu;

struct Span {
  std::uint64_t id{0};
  std::uint64_t parent{0};  // 0 = root span
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int64_t child_ns{0};  // time covered by child spans
  std::uint32_t event_id{kNoEvent};
  std::int32_t node{0};      // broker id, or -1 - client index
  Layer layer{Layer::kTransportSend};
  std::uint8_t frame_type{0};
  std::uint32_t frames{0};
  std::uint32_t bytes{0};

  [[nodiscard]] std::int64_t self_ns() const { return end_ns - start_ns - child_ns; }
};

/// The process-wide span store. Recording is off until enable(true).
class SpanLog {
 public:
  static SpanLog& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_release); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed) + 1; }
  void record(const Span& span);
  /// Spans recorded so far (a copy; recording may continue).
  [[nodiscard]] std::vector<Span> snapshot() const;
  [[nodiscard]] std::uint64_t dropped() const;
  /// Writes every span as one TSV row; false when the file cannot be opened.
  bool write(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxSpans = 3'000'000;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t dropped_{0};
};

/// Opens a span whose nested spans become its children; records it on
/// destruction. Only constructed while tracing is on.
class SpanScope {
 public:
  SpanScope(Layer layer, std::int32_t node, std::uint8_t frame_type, std::uint32_t event_id);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_size(std::size_t frames, std::size_t bytes) {
    span_.frames = static_cast<std::uint32_t>(frames);
    span_.bytes = static_cast<std::uint32_t>(bytes);
  }

 private:
  Span span_;
  std::uint64_t saved_parent_;
  std::int64_t saved_child_ns_;
};

/// Transport decorator recording one span per send call.
class TracingTransport final : public gryphon::Transport {
 public:
  TracingTransport(gryphon::Transport& inner, std::int32_t node, std::size_t id_index)
      : inner_(&inner), node_(node), id_index_(id_index) {}

  void send(ConnId conn, std::vector<std::uint8_t> frame) override;
  void send_batch(ConnId conn, std::vector<std::vector<std::uint8_t>> frames) override;
  void close(ConnId conn) override { inner_->close(conn); }

 private:
  gryphon::Transport* inner_;
  std::int32_t node_;
  std::size_t id_index_;
};

/// What a client relay observed: Deliver frame arrivals (event id, time)
/// and SubscribeAck arrivals (request token, time). Filled from transport
/// threads, read by the workload harness.
class ClientProbe {
 public:
  struct Arrival {
    std::uint32_t event_id;
    std::int64_t at_ns;
  };
  void on_deliver(std::uint32_t event_id, std::int64_t at_ns);
  void on_subscribe_ack(std::uint64_t token, std::int64_t at_ns);
  [[nodiscard]] std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::vector<Arrival> arrivals() const;
  /// Ack arrival time of a subscribe token; 0 when not (yet) acknowledged.
  [[nodiscard]] std::int64_t ack_time(std::uint64_t token) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Arrival> arrivals_;
  std::vector<std::pair<std::uint64_t, std::int64_t>> acks_;
  std::atomic<std::uint64_t> delivered_{0};
};

/// The TransportHandler a transport calls: forwards to the real handler
/// (Broker or Client) and, when tracing, wraps on_frame in a span. A relay
/// with a probe stamps client-side arrivals first.
class Relay final : public gryphon::TransportHandler {
 public:
  Relay(Layer layer, std::int32_t node, std::size_t id_index, ClientProbe* probe)
      : layer_(layer), node_(node), id_index_(id_index), probe_(probe) {}

  void set_target(gryphon::TransportHandler* target) { target_ = target; }

  void on_connect(ConnId conn) override;
  void on_frame(ConnId conn, std::span<const std::uint8_t> frame) override;
  void on_disconnect(ConnId conn) override;

 private:
  gryphon::TransportHandler* target_{nullptr};
  Layer layer_;
  std::int32_t node_;
  std::size_t id_index_;
  ClientProbe* probe_;
};

}  // namespace perfbench
