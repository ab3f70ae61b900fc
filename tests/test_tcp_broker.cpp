// The broker prototype over real TCP/IP on loopback (paper Section 4.2:
// "broker nodes are implemented ... using TCP/IP as the network protocol").
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <mutex>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "broker/client.h"
#include "broker/tcp_transport.h"
#include "topology/builders.h"

namespace gryphon {
namespace {

SchemaPtr trade_schema() {
  return make_schema("trades", {Attribute{"issue", AttributeType::kString, {}},
                                Attribute{"price", AttributeType::kDouble, {}},
                                Attribute{"volume", AttributeType::kInt, {}}});
}

/// Breaks the handler/transport construction cycle: the transport is built
/// against the relay, then the relay is pointed at the real handler.
struct Relay : TransportHandler {
  TransportHandler* target{nullptr};
  void on_connect(ConnId conn) override {
    if (target != nullptr) target->on_connect(conn);
  }
  void on_frame(ConnId conn, std::span<const std::uint8_t> frame) override {
    if (target != nullptr) target->on_frame(conn, frame);
  }
  void on_disconnect(ConnId conn) override {
    if (target != nullptr) target->on_disconnect(conn);
  }
};

struct TcpBrokerNode {
  Relay relay;
  TcpTransport transport{relay};
  std::unique_ptr<Broker> broker;
  std::uint16_t port{0};

  TcpBrokerNode(BrokerId id, const BrokerNetwork& topo, std::vector<SchemaPtr> spaces) {
    broker = std::make_unique<Broker>(id, topo, std::move(spaces), transport);
    relay.target = broker.get();
    port = transport.listen(0);
  }
  ~TcpBrokerNode() { transport.shutdown(); }
};

struct TcpClientNode {
  Relay relay;
  TcpTransport transport{relay};
  std::unique_ptr<Client> client;

  TcpClientNode(const std::string& name, std::vector<SchemaPtr> spaces, std::uint16_t port) {
    client = std::make_unique<Client>(name, transport, std::move(spaces));
    relay.target = client.get();
    client->bind(transport.connect("127.0.0.1", port));
  }
  ~TcpClientNode() { transport.shutdown(); }
};

TEST(TcpBroker, SingleBrokerPubSub) {
  const auto schema = trade_schema();
  const BrokerNetwork topo = make_line(1, 10, 0, 1);
  TcpBrokerNode node(BrokerId{0}, topo, {schema});

  TcpClientNode sub("sub", {schema}, node.port);
  const auto token = sub.client->subscribe(0, "issue = \"IBM\" & volume > 100");

  // Wait for the subscribe ack before publishing.
  for (int i = 0; i < 200 && !sub.client->subscription_id(token); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(sub.client->subscription_id(token).has_value());

  TcpClientNode pub("pub", {schema}, node.port);
  pub.client->publish(0, Event(schema, {Value("IBM"), Value(10.0), Value(500)}));
  pub.client->publish(0, Event(schema, {Value("IBM"), Value(10.0), Value(50)}));

  ASSERT_TRUE(sub.client->wait_for_deliveries(1, 3000));
  const auto got = sub.client->take_deliveries();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].event.value(2).as_int(), 500);
}

TEST(TcpBroker, TwoBrokersForwardOverTcp) {
  const auto schema = trade_schema();
  const BrokerNetwork topo = make_line(2, 10, 0, 1);
  TcpBrokerNode b0(BrokerId{0}, topo, {schema});
  TcpBrokerNode b1(BrokerId{1}, topo, {schema});

  // Broker 0 dials broker 1.
  const ConnId link = b0.transport.connect("127.0.0.1", b1.port);
  b0.broker->attach_broker_link(link, BrokerId{1});

  TcpClientNode sub("far-sub", {schema}, b1.port);
  const auto token = sub.client->subscribe(0, "price >= 100");
  for (int i = 0; i < 200 && !sub.client->subscription_id(token); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(sub.client->subscription_id(token).has_value());

  // Give the subscription a moment to propagate to broker 0.
  for (int i = 0; i < 200 && b0.broker->subscription_count() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(b0.broker->subscription_count(), 1u);

  TcpClientNode pub("near-pub", {schema}, b0.port);
  pub.client->publish(0, Event(schema, {Value("A"), Value(150.0), Value(1)}));
  pub.client->publish(0, Event(schema, {Value("A"), Value(50.0), Value(1)}));

  ASSERT_TRUE(sub.client->wait_for_deliveries(1, 3000));
  const auto got = sub.client->take_deliveries();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_DOUBLE_EQ(got[0].event.value(1).as_double(), 150.0);
  EXPECT_EQ(b0.broker->stats().events_forwarded, 1u);
}

TEST(TcpBroker, ReconnectReplayOverTcp) {
  const auto schema = trade_schema();
  const BrokerNetwork topo = make_line(1, 10, 0, 1);
  TcpBrokerNode node(BrokerId{0}, topo, {schema});

  auto sub = std::make_unique<TcpClientNode>("flaky", std::vector<SchemaPtr>{schema}, node.port);
  const auto token = sub->client->subscribe(0, "volume > 0");
  for (int i = 0; i < 200 && !sub->client->subscription_id(token); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(sub->client->subscription_id(token).has_value());

  TcpClientNode pub("pub", {schema}, node.port);
  pub.client->publish(0, Event(schema, {Value("A"), Value(1.0), Value(1)}));
  ASSERT_TRUE(sub->client->wait_for_deliveries(1, 3000));
  sub->client->take_deliveries();

  // The delivery ack travels back asynchronously; wait until the broker has
  // collected the logged entry, or the simulated crash below can race the
  // ack away and "A" replays alongside "B"/"C".
  for (int i = 0; i < 600 && node.broker->client_log_size("flaky") != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(node.broker->client_log_size("flaky"), 0u);

  // Kill the subscriber's transport entirely (simulated crash).
  sub.reset();
  // The broker should notice the disconnect and keep logging.
  pub.client->publish(0, Event(schema, {Value("B"), Value(2.0), Value(2)}));
  pub.client->publish(0, Event(schema, {Value("C"), Value(3.0), Value(3)}));
  for (int i = 0; i < 200 && node.broker->client_log_size("flaky") < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(node.broker->client_log_size("flaky"), 2u);

  // Reconnect under the same name; the missed events replay.
  TcpClientNode again("flaky", {schema}, node.port);
  ASSERT_TRUE(again.client->wait_for_deliveries(2, 3000));
  const auto replayed = again.client->take_deliveries();
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].event.value(0).as_string(), "B");
  EXPECT_EQ(replayed[1].event.value(0).as_string(), "C");
}

TEST(TcpBroker, ManyFramesPreserveOrder) {
  const auto schema = trade_schema();
  const BrokerNetwork topo = make_line(1, 10, 0, 1);
  TcpBrokerNode node(BrokerId{0}, topo, {schema});

  TcpClientNode sub("sub", {schema}, node.port);
  const auto token = sub.client->subscribe(0, "volume >= 0");
  for (int i = 0; i < 200 && !sub.client->subscription_id(token); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(sub.client->subscription_id(token).has_value());

  TcpClientNode pub("pub", {schema}, node.port);
  constexpr int kEvents = 200;
  for (int i = 0; i < kEvents; ++i) {
    pub.client->publish(0, Event(schema, {Value("X"), Value(1.0), Value(i)}));
  }
  ASSERT_TRUE(sub.client->wait_for_deliveries(kEvents, 10000));
  const auto got = sub.client->take_deliveries();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].event.value(2).as_int(), i);
  }
}


/// Records, in order, what a TcpTransport hands its handler. Called on the
/// transport's threads and read from the test thread, so under a lock.
struct FrameRecorder : TransportHandler {
  std::mutex mutex;
  ConnId conn{kInvalidConn};
  std::vector<std::vector<std::uint8_t>> frames;
  std::string order;  // 'f' per frame, 'd' per disconnect

  void on_connect(ConnId c) override {
    std::lock_guard<std::mutex> lock(mutex);
    conn = c;
  }
  void on_frame(ConnId, std::span<const std::uint8_t> frame) override {
    std::lock_guard<std::mutex> lock(mutex);
    frames.emplace_back(frame.begin(), frame.end());
    order.push_back('f');
  }
  void on_disconnect(ConnId) override {
    std::lock_guard<std::mutex> lock(mutex);
    order.push_back('d');
  }
  /// Polls until `done(*this)` holds (under the lock) or ~5 s pass.
  template <typename Pred>
  bool wait_for(Pred done) {
    for (int i = 0; i < 1000; ++i) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (done(*this)) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }
};

/// A raw loopback socket dialed to `port`: the framing tests write
/// hand-made byte streams into a transport's reader through it.
int dial_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool write_raw(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Appends `frame` to `stream` behind its u32 little-endian size prefix.
void append_packet(std::vector<std::uint8_t>& stream, const std::vector<std::uint8_t>& frame) {
  const auto size = static_cast<std::uint32_t>(frame.size());
  for (int shift = 0; shift < 32; shift += 8) {
    stream.push_back(static_cast<std::uint8_t>(size >> shift));
  }
  stream.insert(stream.end(), frame.begin(), frame.end());
}

std::vector<std::uint8_t> pattern(std::size_t size, std::size_t salt) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i) bytes[i] = static_cast<std::uint8_t>(i * 7 + salt);
  return bytes;
}

TEST(TcpTransport, GarbageFrameSizeDropsConnection) {
  // A peer announcing an absurd frame length is protocol corruption: the
  // transport must drop the connection rather than try to allocate it.
  FrameRecorder recorder;
  TcpTransport server(recorder);
  const int fd = dial_raw(server.listen(0));
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(recorder.wait_for([](const FrameRecorder& r) { return r.conn != kInvalidConn; }));

  ASSERT_TRUE(write_raw(fd, {0xFF, 0xFF, 0xFF, 0x7F}));  // ~2 GiB frame
  EXPECT_TRUE(recorder.wait_for([](const FrameRecorder& r) { return !r.order.empty(); }));
  EXPECT_EQ(recorder.order, "d");
  ::close(fd);
  server.shutdown();
}

TEST(TcpTransport, ZeroLengthFrameDropsConnection) {
  FrameRecorder recorder;
  TcpTransport server(recorder);
  const int fd = dial_raw(server.listen(0));
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(write_raw(fd, {0, 0, 0, 0}));
  EXPECT_TRUE(recorder.wait_for([](const FrameRecorder& r) { return !r.order.empty(); }));
  EXPECT_EQ(recorder.order, "d");
  ::close(fd);
  server.shutdown();
}

TEST(TcpTransport, FrameWrittenByteAtATimeIsReassembled) {
  FrameRecorder recorder;
  TcpTransport server(recorder);
  const int fd = dial_raw(server.listen(0));
  ASSERT_GE(fd, 0);
  const std::vector<std::uint8_t> frame = pattern(40, 1);
  std::vector<std::uint8_t> stream;
  append_packet(stream, frame);
  for (const std::uint8_t byte : stream) {
    ASSERT_TRUE(write_raw(fd, {byte}));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_TRUE(recorder.wait_for([](const FrameRecorder& r) { return !r.frames.empty(); }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // nothing else may follow
  std::lock_guard<std::mutex> lock(recorder.mutex);
  EXPECT_EQ(recorder.order, "f");
  EXPECT_EQ(recorder.frames[0], frame);
  ::close(fd);
}

TEST(TcpTransport, ThousandFramesInOneWriteArriveInOrder) {
  FrameRecorder recorder;
  TcpTransport server(recorder);
  const int fd = dial_raw(server.listen(0));
  ASSERT_GE(fd, 0);
  constexpr std::size_t kFrames = 1000;
  std::vector<std::vector<std::uint8_t>> sent;
  std::vector<std::uint8_t> stream;
  for (std::size_t i = 0; i < kFrames; ++i) {
    sent.push_back(pattern(1 + i % 97, i));
    append_packet(stream, sent.back());
  }
  ASSERT_TRUE(write_raw(fd, stream));
  ASSERT_TRUE(
      recorder.wait_for([](const FrameRecorder& r) { return r.frames.size() >= kFrames; }));
  std::lock_guard<std::mutex> lock(recorder.mutex);
  EXPECT_EQ(recorder.frames, sent);
  EXPECT_EQ(recorder.order, std::string(kFrames, 'f'));
  ::close(fd);
}

TEST(TcpTransport, OversizedFrameGrowsReadBufferThenShrinksBack) {
  FrameRecorder recorder;
  TcpTransport server(recorder);
  const int fd = dial_raw(server.listen(0));
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(recorder.wait_for([](const FrameRecorder& r) { return r.conn != kInvalidConn; }));
  const ConnId conn = recorder.conn;
  EXPECT_EQ(server.read_buffer_bytes(conn), TcpTransport::kReadBufferBytes);

  constexpr std::size_t kBig = 1u << 20;
  const std::vector<std::uint8_t> big = pattern(kBig, 3);
  std::vector<std::uint8_t> stream;
  append_packet(stream, big);
  const std::size_t half = stream.size() / 2;
  // First half: the reader has seen the size prefix and sized its buffer
  // for the whole frame.
  ASSERT_TRUE(write_raw(fd, std::vector<std::uint8_t>(stream.begin(), stream.begin() + half)));
  bool grown = false;
  for (int i = 0; i < 1000 && !grown; ++i) {
    grown = server.read_buffer_bytes(conn) == kBig + 4;
    if (!grown) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(grown);
  // Second half, then a small frame: once that is handed out the buffer
  // must be back at the default size.
  const std::vector<std::uint8_t> small = pattern(16, 9);
  std::vector<std::uint8_t> rest(stream.begin() + half, stream.end());
  append_packet(rest, small);
  ASSERT_TRUE(write_raw(fd, rest));
  ASSERT_TRUE(recorder.wait_for([](const FrameRecorder& r) { return r.frames.size() >= 2; }));
  EXPECT_EQ(server.read_buffer_bytes(conn), TcpTransport::kReadBufferBytes);
  std::lock_guard<std::mutex> lock(recorder.mutex);
  EXPECT_EQ(recorder.order, "ff");
  EXPECT_EQ(recorder.frames[0], big);
  EXPECT_EQ(recorder.frames[1], small);
  ::close(fd);
}

TEST(TcpTransport, ValidFrameThenBadPrefixDeliversThenDisconnects) {
  FrameRecorder recorder;
  TcpTransport server(recorder);
  const int fd = dial_raw(server.listen(0));
  ASSERT_GE(fd, 0);
  const std::vector<std::uint8_t> frame = pattern(10, 5);
  std::vector<std::uint8_t> stream;
  append_packet(stream, frame);
  stream.insert(stream.end(), {0xFF, 0xFF, 0xFF, 0x7F});  // bad size, same write
  ASSERT_TRUE(write_raw(fd, stream));
  ASSERT_TRUE(recorder.wait_for([](const FrameRecorder& r) { return r.order.size() >= 2; }));
  std::lock_guard<std::mutex> lock(recorder.mutex);
  EXPECT_EQ(recorder.order, "fd");
  EXPECT_EQ(recorder.frames[0], frame);
  ::close(fd);
}

TEST(TcpBroker, MalformedPublishPayloadGetsErrorFrame) {
  const auto schema = trade_schema();
  const BrokerNetwork topo = make_line(1, 10, 0, 1);
  TcpBrokerNode node(BrokerId{0}, topo, {schema});

  TcpClientNode client("messy", {schema}, node.port);
  // Wait for the hello handshake, then push a publish frame whose payload
  // is not a valid event encoding.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  client.transport.send(1, wire::encode(wire::Publish{SpaceId{0}, {0x01, 0x02}}));
  for (int i = 0; i < 200; ++i) {
    if (!client.client->take_errors().empty()) return;  // got the error frame
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  FAIL() << "no error frame received";
}

}  // namespace
}  // namespace gryphon
