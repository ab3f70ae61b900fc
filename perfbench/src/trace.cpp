#include "trace.h"

#include <cstdio>

#include "broker/wire.h"
#include "common.h"
#include "inputs.h"

namespace perfbench {

namespace {

// The innermost open span on this thread, and the time its finished
// children have covered so far.
thread_local std::uint64_t tl_parent = 0;
thread_local std::int64_t tl_child_ns = 0;

std::uint8_t type_of(std::span<const std::uint8_t> frame) {
  return frame.empty() ? 0 : frame[0];
}

std::uint32_t event_of(std::span<const std::uint8_t> frame, std::size_t id_index) {
  if (frame.empty()) return kNoEvent;
  try {
    return frame_event_id(frame, id_index).value_or(kNoEvent);
  } catch (const std::exception&) {
    return kNoEvent;  // not ours to judge; the broker counts malformed frames
  }
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kTransportSend: return "transport.send";
    case Layer::kBrokerFrame: return "broker.on_frame";
    case Layer::kClientFrame: return "client.on_frame";
    case Layer::kClientPublish: return "client.publish";
  }
  return "?";
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

void SpanLog::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

std::vector<Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::uint64_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "id\tparent\tlayer\tnode\tframe_type\tevent_id\tstart_ns\tend_ns\t"
                     "child_ns\tframes\tbytes\n");
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    std::fprintf(file, "%llu\t%llu\t%s\t%d\t%u\t%lld\t%lld\t%lld\t%lld\t%u\t%u\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), layer_name(s.layer), s.node,
                 s.frame_type, s.event_id == kNoEvent ? -1LL : static_cast<long long>(s.event_id),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.child_ns), s.frames, s.bytes);
  }
  return std::fclose(file) == 0;
}

SpanScope::SpanScope(Layer layer, std::int32_t node, std::uint8_t frame_type,
                     std::uint32_t event_id)
    : saved_parent_(tl_parent), saved_child_ns_(tl_child_ns) {
  span_.id = SpanLog::instance().next_id();
  span_.parent = tl_parent;
  span_.layer = layer;
  span_.node = node;
  span_.frame_type = frame_type;
  span_.event_id = event_id;
  tl_parent = span_.id;
  tl_child_ns = 0;
  span_.start_ns = now_ns();
}

SpanScope::~SpanScope() {
  span_.end_ns = now_ns();
  span_.child_ns = tl_child_ns;
  tl_parent = saved_parent_;
  tl_child_ns = saved_child_ns_ + (span_.end_ns - span_.start_ns);
  SpanLog::instance().record(span_);
}

void TracingTransport::send(ConnId conn, std::vector<std::uint8_t> frame) {
  if (!SpanLog::instance().enabled()) {
    inner_->send(conn, std::move(frame));
    return;
  }
  SpanScope scope(Layer::kTransportSend, node_, type_of(frame), event_of(frame, id_index_));
  scope.set_size(1, frame.size());
  inner_->send(conn, std::move(frame));
}

void TracingTransport::send_batch(ConnId conn, std::vector<std::vector<std::uint8_t>> frames) {
  if (!SpanLog::instance().enabled() || frames.empty()) {
    inner_->send_batch(conn, std::move(frames));
    return;
  }
  // One span per batch; it carries the first frame's type and event.
  std::size_t bytes = 0;
  for (const auto& frame : frames) bytes += frame.size();
  SpanScope scope(Layer::kTransportSend, node_, type_of(frames.front()),
                  event_of(frames.front(), id_index_));
  scope.set_size(frames.size(), bytes);
  inner_->send_batch(conn, std::move(frames));
}

void ClientProbe::on_deliver(std::uint32_t event_id, std::int64_t at_ns) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    arrivals_.push_back(Arrival{event_id, at_ns});
  }
  delivered_.fetch_add(1, std::memory_order_release);
}

void ClientProbe::on_subscribe_ack(std::uint64_t token, std::int64_t at_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  acks_.emplace_back(token, at_ns);
}

std::vector<ClientProbe::Arrival> ClientProbe::arrivals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return arrivals_;
}

std::int64_t ClientProbe::ack_time(std::uint64_t token) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = acks_.rbegin(); it != acks_.rend(); ++it) {
    if (it->first == token) return it->second;
  }
  return 0;
}

void Relay::on_connect(ConnId conn) {
  if (target_ != nullptr) target_->on_connect(conn);
}

void Relay::on_disconnect(ConnId conn) {
  if (target_ != nullptr) target_->on_disconnect(conn);
}

void Relay::on_frame(ConnId conn, std::span<const std::uint8_t> frame) {
  if (probe_ != nullptr && !frame.empty()) {
    const std::int64_t at = now_ns();
    const auto type = static_cast<gryphon::wire::FrameType>(frame[0]);
    if (type == gryphon::wire::FrameType::kDeliver) {
      probe_->on_deliver(event_of(frame, id_index_), at);
    } else if (type == gryphon::wire::FrameType::kSubscribeAck) {
      try {
        probe_->on_subscribe_ack(gryphon::wire::decode_subscribe_ack(frame).token, at);
      } catch (const std::exception&) {
        // Malformed acks are the client's to report.
      }
    }
  }
  if (target_ == nullptr) return;
  if (!SpanLog::instance().enabled()) {
    target_->on_frame(conn, frame);
    return;
  }
  SpanScope scope(layer_, node_, type_of(frame), event_of(frame, id_index_));
  target_->on_frame(conn, frame);
}

}  // namespace perfbench
