// ReliableStream (broker/reliable_stream.h): the one sequenced, acked,
// resumable stream behind link sessions, the replication stream and client
// delivery logs.
//
//   * Unit tests pin the sender's window, floors, replay and ack range, and
//     the receiver's classification.
//   * A seeded property test drives a sender and a receiver over a channel
//     that drops, duplicates and reorders frames, through reconnect
//     handshakes, sender restarts (epoch changes), retention truncation and
//     failover to a replicated clone, against a reference model: every
//     payload arrives at most once and in order, and every payload that
//     never arrives is at or below the sender's truncated_through().
//     GRYPHON_CHAOS_SEED adds one seed (tools/ci.sh chaos sweeps several).
//   * Broker-level tests feed an ack above the last sequence sent on each of
//     the three streams (client Ack, BrokerAck, ReplAck): the frame is
//     rejected and the stream still replays everything.
#include "broker/reliable_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "broker/broker.h"
#include "broker/client.h"
#include "broker/inproc_transport.h"
#include "common/rng.h"
#include "event/parser.h"
#include "topology/builders.h"

namespace gryphon {
namespace {

using Sender = ReliableStream::Sender;
using Receiver = ReliableStream::Receiver;
using Verdict = Receiver::Verdict;

std::vector<std::uint8_t> payload(std::uint64_t id) {
  std::vector<std::uint8_t> bytes(8);
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(id >> (8 * i));
  return bytes;
}

std::uint64_t payload_id(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t id = 0;
  for (int i = 0; i < 8; ++i) id |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  return id;
}

/// A frame rendered for comparison: "e<seq>" for an entry, "f<floor>" for a
/// floor.
std::vector<std::string> render(const auto& run) {
  std::vector<std::string> out;
  run([&](const ReliableStream::Frame& frame) {
    out.push_back(frame.entry != nullptr ? "e" + std::to_string(frame.entry->seq)
                                         : "f" + std::to_string(frame.floor));
  });
  return out;
}

using Frames = std::vector<std::string>;

// --- Sender ----------------------------------------------------------------

TEST(ReliableStreamSender, AckAboveLastSeqIsRefusedAndChangesNothing) {
  Sender out;
  for (std::uint64_t i = 1; i <= 3; ++i) out.append(SpaceId{0}, payload(i), 0);
  EXPECT_EQ(out.ack(1, 0), Sender::AckResult::kAdvanced);
  EXPECT_EQ(out.ack(1000, 0), Sender::AckResult::kRefused);
  EXPECT_EQ(out.ack(4, 0), Sender::AckResult::kRefused);
  EXPECT_EQ(out.ack(1, 0), Sender::AckResult::kStale);
  EXPECT_EQ(out.log().acked_seq(), 1u);
  EXPECT_EQ(out.log().size(), 2u);
  // Entries appended later still replay: the refused ack retired nothing.
  out.append(SpaceId{0}, payload(4), 0);
  EXPECT_EQ(render([&](auto emit) { out.replay(0, 0, emit); }),
            (Frames{"f1", "e2", "e3", "e4"}));
  EXPECT_EQ(out.ack(4, 0), Sender::AckResult::kAdvanced);
  EXPECT_TRUE(out.log().empty());
}

TEST(ReliableStreamSender, RetransmitTimerArmsWhenTheWindowOpens) {
  Sender out;
  const auto tick = [&](Ticks now) {
    return render([&](auto emit) { out.tick(now, 50, 1000, emit); });
  };
  out.append(SpaceId{0}, payload(1), 100);  // window opens at 100
  EXPECT_TRUE(tick(149).empty());
  EXPECT_EQ(tick(150), (Frames{"e1"}));
  EXPECT_TRUE(tick(199).empty());  // the resend restarted the timer
  out.append(SpaceId{0}, payload(2), 180);  // window already open
  EXPECT_EQ(tick(200), (Frames{"e1", "e2"}));
  EXPECT_EQ(out.ack(1, 230), Sender::AckResult::kAdvanced);  // progress restarts it
  EXPECT_TRUE(tick(279).empty());
  EXPECT_EQ(tick(280), (Frames{"e2"}));
  EXPECT_EQ(out.ack(2, 290), Sender::AckResult::kAdvanced);
  EXPECT_TRUE(tick(400).empty());  // nothing unacked
}

TEST(ReliableStreamSender, HeartbeatFloorOnlyWhenIdle) {
  Sender out;
  const auto tick = [&](Ticks now) {
    return render([&](auto emit) { out.tick(now, 50, 100, emit); });
  };
  out.sent(0);
  EXPECT_TRUE(tick(99).empty());
  EXPECT_EQ(tick(100), (Frames{"f0"}));
  out.sent(150);  // any outbound frame defers the next heartbeat
  EXPECT_TRUE(tick(249).empty());
  out.append(SpaceId{0}, payload(1), 0);
  out.append(SpaceId{0}, payload(2), 0);
  EXPECT_EQ(out.collect(1000, 100).dropped, 2u);
  EXPECT_EQ(tick(250), (Frames{"f2"}));  // the floor is truncated_through
}

TEST(ReliableStreamSender, WindowBridgesSequenceGapsWithFloors) {
  Sender out;
  out.append(SpaceId{0}, payload(1), 0);
  out.append(SpaceId{0}, payload(2), 0);
  out.rebase(100, /*report_loss=*/false);  // failover: 3..102 never assigned
  EXPECT_EQ(out.append(SpaceId{0}, payload(3), 0), 103u);
  EXPECT_EQ(out.log().truncated_through(), 0u);
  EXPECT_EQ(out.ack(1, 0), Sender::AckResult::kAdvanced);
  // A floor behind the unacked entry 2 could let a receiver that lost 2
  // rebase past it: the window stops at the gap...
  EXPECT_EQ(render([&](auto emit) { out.tick(1000, 50, 5000, emit); }), (Frames{"e2"}));
  // ...and opens with the floor once 2 is acked.
  EXPECT_EQ(out.ack(2, 1010), Sender::AckResult::kAdvanced);
  EXPECT_EQ(render([&](auto emit) { out.tick(1060, 50, 5000, emit); }),
            (Frames{"f102", "e103"}));
}

TEST(ReliableStreamSender, ConsumerBehindTheAckGetsAFloorFirst) {
  // A consumer that lost its place (it restarted, or the handshake's
  // baseline floor was lost) acks below the sender's ack: without a floor
  // the window would never reach it.
  Sender out;
  for (std::uint64_t i = 1; i <= 3; ++i) out.append(SpaceId{0}, payload(i), 0);
  EXPECT_EQ(out.ack(2, 0), Sender::AckResult::kAdvanced);
  EXPECT_EQ(render([&](auto emit) { out.tick(100, 50, 5000, emit); }), (Frames{"e3"}));
  EXPECT_EQ(out.ack(2, 100), Sender::AckResult::kStale);  // at the ack: no floor
  EXPECT_EQ(render([&](auto emit) { out.tick(200, 50, 5000, emit); }), (Frames{"e3"}));
  EXPECT_EQ(out.ack(0, 200), Sender::AckResult::kStale);
  EXPECT_EQ(render([&](auto emit) { out.tick(300, 50, 5000, emit); }), (Frames{"f2", "e3"}));
  EXPECT_EQ(render([&](auto emit) { out.tick(400, 50, 5000, emit); }), (Frames{"e3"}));
}

TEST(ReliableStreamSender, ReplayDeclaresBaselineSuffixAndTrailingFloor) {
  Sender out;
  for (std::uint64_t i = 1; i <= 4; ++i) out.append(SpaceId{0}, payload(i), i * 100);
  const Sender::Collected gc = out.collect(351, 150);  // entries 1 and 2 die unacked
  EXPECT_EQ(gc.dropped, 2u);
  EXPECT_EQ(gc.drop_through, 2u);
  EXPECT_EQ(out.log().truncated_through(), 2u);
  // A consumer that knows nothing is told the baseline first.
  EXPECT_EQ(render([&](auto emit) { out.replay(0, 0, emit); }), (Frames{"f2", "e3", "e4"}));
  // One that has everything through 3 gets the suffix only.
  EXPECT_EQ(render([&](auto emit) { out.replay(3, 0, emit); }), (Frames{"e4"}));
  // After a failover rebase past the tail, a replay with nothing left to
  // send is a floor at last_seq; one with entries left waits for their ack.
  out.rebase(10, /*report_loss=*/false);
  EXPECT_EQ(render([&](auto emit) { out.replay(3, 0, emit); }), (Frames{"e4"}));
  EXPECT_EQ(render([&](auto emit) { out.replay(4, 0, emit); }), (Frames{"f14"}));
  // Retention that empties the log drops through last_seq.
  EXPECT_EQ(out.collect(10000, 150).drop_through, 14u);
}

TEST(ReliableStreamSender, ReportedFailoverLossStillReplaysRetainedEntries) {
  // Client logs: the skipped range is reported as possibly lost, yet the
  // entries the standby does hold replay (below the bound, not lost), and
  // so does everything delivered after the gap.
  Sender out;
  for (std::uint64_t i = 1; i <= 3; ++i) out.append(SpaceId{0}, payload(i), 100);
  EXPECT_EQ(out.ack(1, 0), Sender::AckResult::kAdvanced);
  out.rebase(1000, /*report_loss=*/true);
  EXPECT_EQ(out.log().truncated_through(), 1003u);
  EXPECT_EQ(out.append(SpaceId{0}, payload(4), 900), 1004u);
  std::vector<std::uint64_t> replayed;
  out.replay(1, 0, [&](const ReliableStream::Frame& frame) {
    if (frame.entry != nullptr) replayed.push_back(frame.entry->seq);
  });
  EXPECT_EQ(replayed, (std::vector<std::uint64_t>{2, 3, 1004}));
  // Retention collecting the retained entries later never shrinks the
  // reported bound.
  EXPECT_EQ(out.collect(1000, 500).dropped, 2u);
  EXPECT_EQ(out.log().truncated_through(), 1003u);
}

TEST(ReliableStreamSender, ImageRoundTripsThroughRestore) {
  Sender out;
  for (std::uint64_t i = 1; i <= 4; ++i) out.append(SpaceId{1}, payload(i), 5, BrokerId{2});
  EXPECT_EQ(out.ack(2, 0), Sender::AckResult::kAdvanced);
  Sender clone;
  clone.restore(out.image(), 77);
  EXPECT_EQ(clone.log().last_seq(), 4u);
  EXPECT_EQ(clone.log().acked_seq(), 2u);
  ASSERT_EQ(clone.log().size(), 2u);
  EXPECT_EQ(clone.log().entries().front().logged_at, 77);  // re-stamped
  EXPECT_EQ(clone.log().entries().front().origin, BrokerId{2});
  EXPECT_EQ(clone.append(SpaceId{0}, payload(5), 0), 5u);
}

// --- Receiver ---------------------------------------------------------------

TEST(ReliableStreamReceiver, SortsFramesAndTracksTheAckDue) {
  Receiver in;
  EXPECT_EQ(in.classify(7, 1), Verdict::kInOrder);
  EXPECT_FALSE(in.ack_due());
  in.advance();
  EXPECT_TRUE(in.ack_due());
  EXPECT_EQ(in.classify(7, 1), Verdict::kDuplicate);
  EXPECT_EQ(in.classify(7, 3), Verdict::kGap);
  EXPECT_EQ(in.ack(), 1u);
  EXPECT_FALSE(in.ack_due());
  // A new epoch restarts the cursor before classifying.
  EXPECT_EQ(in.classify(8, 1), Verdict::kInOrder);
  EXPECT_EQ(in.cursor(), (Receiver::Cursor{8, 0}));
  EXPECT_FALSE(in.adopt(8));
  EXPECT_TRUE(in.adopt(9));
}

TEST(ReliableStreamReceiver, FloorsOnlyMoveTheCursorForward) {
  Receiver in;
  in.restore({5, 10});
  EXPECT_FALSE(in.rebase(5, 4));
  EXPECT_EQ(in.seq(), 10u);
  EXPECT_TRUE(in.rebase(5, 20));
  EXPECT_EQ(in.seq(), 20u);
  EXPECT_EQ(in.classify(5, 21), Verdict::kInOrder);
  // A floor under a new epoch rebases the restarted cursor.
  EXPECT_TRUE(in.rebase(6, 3));
  EXPECT_EQ(in.cursor(), (Receiver::Cursor{6, 3}));
}

// --- Property: sender + receiver over a lossy channel -------------------------

/// One incarnation-tagged frame in flight.
struct WireFrame {
  enum class Kind : std::uint8_t { kData, kFloor, kAck } kind{Kind::kData};
  std::uint64_t epoch{0};
  std::uint64_t seq{0};  // data seq, floor, or acked seq
  std::uint64_t id{0};   // kData: the payload id
};

class StreamModel {
 public:
  explicit StreamModel(std::uint64_t seed) : rng_(seed) {}

  void run(int steps) {
    for (int step = 0; step < steps && !::testing::Test::HasFailure(); ++step) {
      now_ += static_cast<Ticks>(rng_.below(8));
      const std::uint64_t op = rng_.below(1000);
      if (op < 200) {
        append();
      } else if (op < 600) {
        deliver_to_receiver();
      } else if (op < 750) {
        deliver_to_sender();
      } else if (op < 870) {
        tick();
      } else if (op < 910) {
        reconnect();
      } else if (op < 935) {
        disconnect();
      } else if (op < 960) {
        collect();
      } else if (op < 985) {
        barrier();
      } else if (op < 990) {
        failover();
      } else if (op < 993) {
        restart();
      } else if (op < 996) {
        restart_receiver();
      } else if (!connected_) {
        sender_.drop_all();  // the link is declared dead while down
      }
    }
    drain();
  }

  /// After a loss-free drain: every payload owed by the live sender lineage
  /// arrived, or sits at or below the truncation bound its sender — or a
  /// primary that died in this lineage — reported.
  void check_complete() const {
    const std::unordered_set<std::uint64_t> got(delivered_.begin(), delivered_.end());
    const std::uint64_t reported = std::max(dead_reported_, sender_.log().truncated_through());
    for (const auto& [seq, id] : owed_) {
      if (got.contains(id)) continue;
      EXPECT_LE(seq, reported) << "payload " << id << " (seq " << seq << ") lost silently";
    }
    EXPECT_TRUE(sender_.log().empty()) << "the drain left unacked entries";
  }

  std::size_t delivered() const { return delivered_.size(); }
  std::size_t restarts() const { return restarts_; }
  std::size_t failovers() const { return failovers_; }
  std::size_t rebases() const { return rebases_; }

 private:
  static constexpr Ticks kRetransmit = 40;
  static constexpr Ticks kHeartbeat = 60;
  static constexpr Ticks kRetention = 400;
  static constexpr std::uint64_t kFailoverGap = 1u << 20;

  void send(const ReliableStream::Frame& frame) {
    if (!connected_) return;
    if (frame.entry == nullptr) {
      in_flight_.push_back({WireFrame::Kind::kFloor, epoch_, frame.floor, 0});
    } else {
      in_flight_.push_back(
          {WireFrame::Kind::kData, epoch_, frame.entry->seq, payload_id(frame.entry->event)});
    }
    sender_.sent(now_);
  }

  void append() {
    const std::uint64_t id = next_id_++;
    const std::uint64_t seq = sender_.append(SpaceId{0}, payload(id), now_);
    owed_.emplace_back(seq, id);
    send({&sender_.log().back(), 0});
  }

  /// Picks a frame at random (reordering), then drops it, duplicates it, or
  /// delivers it.
  static bool take(Rng& rng, std::vector<WireFrame>& queue, WireFrame& out) {
    if (queue.empty()) return false;
    const std::size_t index = rng.below(std::min<std::size_t>(queue.size(), 4));
    out = queue[index];
    const std::uint64_t fate = rng.below(10);
    if (fate < 8) queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(index));
    return fate != 0;  // 1 in 10 dropped, 1 in 10 duplicated
  }

  void deliver_to_receiver() {
    WireFrame frame;
    for (std::uint64_t batch = 1 + rng_.below(4); batch > 0; --batch) {
      if (take(rng_, in_flight_, frame)) receive(frame);
    }
    // End of the batch: one cumulative ack for everything consumed.
    if (receiver_.ack_due()) ack_now();
  }

  void receive(const WireFrame& frame) {
    if (frame.kind == WireFrame::Kind::kFloor) {
      if (receiver_.rebase(frame.epoch, frame.seq)) {
      ack_now();
      ++rebases_;
    }
      return;
    }
    if (receiver_.classify(frame.epoch, frame.seq) != Verdict::kInOrder) {
      ack_now();  // duplicate or gap
      return;
    }
    receiver_.advance();
    EXPECT_GT(frame.id, last_id_) << "payload " << frame.id << " out of order or duplicated";
    last_id_ = frame.id;
    delivered_.push_back(frame.id);
  }

  void ack_now() {
    acks_.push_back({WireFrame::Kind::kAck, receiver_.epoch(), receiver_.ack(), 0});
  }

  void deliver_to_sender() {
    WireFrame frame;
    if (!take(rng_, acks_, frame) || frame.epoch != epoch_) return;
    EXPECT_NE(sender_.ack(frame.seq, now_), Sender::AckResult::kRefused)
        << "receiver acked " << frame.seq << " past the sender's " << sender_.log().last_seq();
  }

  void tick() {
    if (!connected_) return;
    sender_.tick(now_, kRetransmit, kHeartbeat,
                 [&](const ReliableStream::Frame& frame) { send(frame); });
  }

  /// The link handshake: the receiver reports its cursor, then binds to the
  /// sender's epoch; the sender takes the report as a cumulative ack when it
  /// refers to this incarnation and replays.
  void reconnect() {
    connected_ = true;
    in_flight_.clear();
    acks_.clear();
    const Receiver::Cursor report = receiver_.cursor();
    receiver_.adopt(epoch_);
    const std::uint64_t peer_seen = report.epoch == epoch_ ? report.seq : 0;
    EXPECT_NE(sender_.ack(peer_seen, now_), Sender::AckResult::kRefused);
    sender_.replay(peer_seen, now_, [&](const ReliableStream::Frame& frame) { send(frame); });
  }

  void collect() { sender_.collect(now_, kRetention); }

  /// The primary dies: its replicated clone takes over with the same epoch
  /// and skips the sequence range the dead one may have used. Whatever the
  /// dead primary appended after the barrier is gone with it; what it
  /// truncated after the barrier it reported (its floors), though the clone
  /// never learns the bound.
  void failover() {
    if (!clone_.has_value()) return;
    dead_reported_ = std::max(dead_reported_, sender_.log().truncated_through());
    const std::uint64_t barrier = clone_->log().last_seq();
    sender_ = *clone_;
    clone_.reset();
    sender_.rebase(kFailoverGap, /*report_loss=*/false);
    std::erase_if(owed_, [&](const auto& owed) { return owed.first > barrier; });
    disconnect();
    ++failovers_;
  }

  /// A sender restart: a new incarnation (epoch) with fresh numbering. The
  /// old incarnation is first healed and checked, so every lineage — not
  /// only the last — must deliver or report everything it owed.
  void restart() {
    drain();
    check_complete();
    sender_ = Sender{};
    clone_.reset();
    dead_reported_ = 0;
    ++epoch_;
    owed_.clear();
    disconnect();
    ++restarts_;
  }

  /// The replication barrier: the standby's clone catches up.
  void barrier() {
    clone_ = Sender{};
    clone_->restore(sender_.image(), now_);
  }

  /// A receiver restart with fresh counters. It is a clean one — its last
  /// cumulative ack reached the sender (and its standby) first — so nothing
  /// it consumed is owed to the new incarnation and exactly-once stays
  /// checkable.
  void restart_receiver() {
    if (receiver_.epoch() == epoch_) {
      EXPECT_NE(sender_.ack(receiver_.seq(), now_), Sender::AckResult::kRefused);
      barrier();
    }
    receiver_ = Receiver{};
    disconnect();
  }

  void disconnect() {
    connected_ = false;
    in_flight_.clear();
    acks_.clear();
  }

  /// Heals the channel (reconnecting only if it is down, so a link that
  /// would stall without a handshake fails here), then delivers everything
  /// in order and runs the timers until the window drains.
  void drain() {
    if (!connected_) reconnect();
    for (int round = 0; round < 50 && !sender_.log().empty(); ++round) {
      while (!in_flight_.empty()) {
        receive(in_flight_.front());
        in_flight_.erase(in_flight_.begin());
      }
      if (receiver_.ack_due()) ack_now();
      for (const WireFrame& ack : acks_) {
        if (ack.epoch != epoch_) continue;
        EXPECT_NE(sender_.ack(ack.seq, now_), Sender::AckResult::kRefused);
      }
      acks_.clear();
      now_ += kRetransmit;
      tick();
    }
  }

  Rng rng_;
  Ticks now_{0};
  std::uint64_t epoch_{1};
  Sender sender_;
  std::optional<Sender> clone_;
  Receiver receiver_;
  bool connected_{true};
  std::vector<WireFrame> in_flight_;  // sender -> receiver
  std::vector<WireFrame> acks_;       // receiver -> sender
  std::uint64_t next_id_{1};
  std::uint64_t last_id_{0};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> owed_;  // (seq, id), live lineage
  std::uint64_t dead_reported_{0};  // truncation bound of the lineage's dead primaries
  std::vector<std::uint64_t> delivered_;
  std::size_t restarts_{0};
  std::size_t failovers_{0};
  std::size_t rebases_{0};
};

class ReliableStreamProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReliableStreamProperty, ExactlyOnceInOrderOrReportedLost) {
  StreamModel model(GetParam());
  model.run(4000);
  model.check_complete();
  // The run reached every fault it is meant to cover.
  EXPECT_GT(model.delivered(), 0u);
  EXPECT_GT(model.rebases(), 0u);
  EXPECT_GT(model.restarts(), 0u);
  EXPECT_GT(model.failovers(), 0u);
}

std::vector<std::uint64_t> stream_seeds() {
  std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  if (const char* env = std::getenv("GRYPHON_CHAOS_SEED")) {
    const auto extra = static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
    if (std::find(seeds.begin(), seeds.end(), extra) == seeds.end()) seeds.push_back(extra);
  }
  return seeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReliableStreamProperty, ::testing::ValuesIn(stream_seeds()));

// --- Broker: an ack above the last sequence sent ------------------------------

/// A raw endpoint that speaks the wire directly and records what it gets.
struct RawPeer : TransportHandler {
  std::vector<std::vector<std::uint8_t>> frames;
  int disconnects = 0;
  void on_connect(ConnId) override {}
  void on_frame(ConnId, std::span<const std::uint8_t> frame) override {
    frames.emplace_back(frame.begin(), frame.end());
  }
  void on_disconnect(ConnId) override { ++disconnects; }

  std::vector<std::vector<std::uint8_t>> take(wire::FrameType type) {
    std::vector<std::vector<std::uint8_t>> out;
    for (auto& frame : frames) {
      if (wire::peek_type(frame) == type) out.push_back(frame);
    }
    return out;
  }
};

struct AckBed {
  SchemaPtr schema = make_schema("trades", {Attribute{"issue", AttributeType::kString, {}},
                                            Attribute{"price", AttributeType::kDouble, {}},
                                            Attribute{"volume", AttributeType::kInt, {}}});
  BrokerNetwork topo = make_line(2, 10, 0, 1);
  InProcNetwork net;
  Ticks clock{0};
  std::unique_ptr<Broker> broker;  // BrokerId{0}
  std::unique_ptr<Client> pub;
  RawPeer raw;
  InProcEndpoint* raw_endpoint{nullptr};

  AckBed() {
    auto* endpoint = net.create_endpoint("broker0");
    Broker::Options opts;
    opts.session_epoch = 100;
    opts.clock = [this] { return clock; };
    broker = std::make_unique<Broker>(BrokerId{0}, topo, std::vector<SchemaPtr>{schema},
                                      *endpoint, opts);
    endpoint->set_handler(broker.get());
    auto* pub_endpoint = net.create_endpoint("pub");
    pub = std::make_unique<Client>("pub", *pub_endpoint, std::vector<SchemaPtr>{schema});
    pub_endpoint->set_handler(pub.get());
    pub->bind(net.connect("pub", "broker0"));
    raw_endpoint = net.create_endpoint("raw");
    raw_endpoint->set_handler(&raw);
    net.pump();
  }

  ConnId dial(std::vector<std::vector<std::uint8_t>> frames) {
    const ConnId conn = net.connect("raw", "broker0");
    for (auto& frame : frames) raw_endpoint->send(conn, std::move(frame));
    net.pump();
    return conn;
  }

  void publish(int count) {
    for (int i = 1; i <= count; ++i) {
      pub->publish(0, Event(schema, {Value("IBM"), Value(100.0), Value(i)}));
    }
    net.pump();
  }

  std::vector<std::uint8_t> subscription() const {
    return encode_subscription(parse_subscription(schema, "volume > 0"));
  }
};

TEST(AckRange, ClientAckAboveLastDeliveryIsRejectedAndReplayIsWhole) {
  AckBed bed;
  const ConnId conn = bed.dial({wire::encode(wire::HelloClient{"sub", 0}),
                                wire::encode(wire::SubscribeReq{1, SpaceId{0}, bed.subscription()}),
                                wire::encode(wire::Ack{1000})});
  EXPECT_EQ(bed.broker->stats().frames_rejected, 1u);
  EXPECT_EQ(bed.raw.disconnects, 1);
  bed.net.drop("raw", conn);  // the subscriber goes away either way

  bed.publish(3);
  bed.raw.frames.clear();
  bed.dial({wire::encode(wire::HelloClient{"sub", 0})});

  // HelloAck, then the quench state, then the whole replay.
  ASSERT_EQ(bed.raw.frames.size(), 5u);
  EXPECT_EQ(wire::peek_type(bed.raw.frames[0]), wire::FrameType::kHelloAck);
  EXPECT_EQ(wire::decode_hello_ack(bed.raw.frames[0]).truncated_through, 0u);
  EXPECT_EQ(wire::peek_type(bed.raw.frames[1]), wire::FrameType::kQuench);
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_EQ(wire::peek_type(bed.raw.frames[2 + i]), wire::FrameType::kDeliver);
    EXPECT_EQ(wire::decode_deliver(bed.raw.frames[2 + i]).seq, i + 1);
  }
}

TEST(AckRange, BrokerAckAboveLastForwardIsRejectedAndReplayIsWhole) {
  AckBed bed;
  // The raw peer plays broker 1: handshake, then one subscription of its own.
  const ConnId conn = bed.dial(
      {wire::encode(wire::HelloBroker{BrokerId{1}, 555, 0, 0}),
       wire::encode(wire::SubPropagate{SubscriptionId{(1LL << 40) | 1}, BrokerId{1},
                                       SpaceId{0}, bed.subscription()})});
  bed.publish(1);
  ASSERT_EQ(bed.raw.take(wire::FrameType::kEventForward).size(), 1u);

  bed.raw_endpoint->send(conn, wire::encode(wire::BrokerAck{100, 1000}));
  bed.net.pump();
  EXPECT_EQ(bed.broker->stats().frames_rejected, 1u);
  EXPECT_EQ(bed.raw.disconnects, 1);
  bed.net.drop("raw", conn);

  bed.publish(3);  // queued while the link is down
  bed.raw.frames.clear();
  bed.dial({wire::encode(wire::HelloBroker{BrokerId{1}, 555, 100, 1})});
  std::vector<std::uint64_t> replayed;
  for (const auto& frame : bed.raw.take(wire::FrameType::kEventForward)) {
    replayed.push_back(wire::decode_event_forward(frame).seq);
  }
  EXPECT_EQ(replayed, (std::vector<std::uint64_t>{2, 3, 4}));
}

TEST(AckRange, ReplAckAboveLastUpdateIsRejectedAndResumeNeedsNoSnapshot) {
  AckBed bed;
  auto* sub_endpoint = bed.net.create_endpoint("sub");
  Client sub("sub", *sub_endpoint, {bed.schema});
  sub_endpoint->set_handler(&sub);
  sub.bind(bed.net.connect("sub", "broker0"));
  bed.net.pump();
  // The update log starts at the first hello, which snapshots; the
  // subscription after it is the log's first update.
  const ConnId conn = bed.dial({wire::encode(wire::ReplHello{BrokerId{0}, 0})});
  ASSERT_EQ(bed.raw.take(wire::FrameType::kStateSnapshot).size(), 1u);
  sub.subscribe(0, "volume > 0");
  bed.net.pump();
  const auto updates = bed.raw.take(wire::FrameType::kStateUpdate);
  ASSERT_FALSE(updates.empty());
  const std::uint64_t through = wire::decode_state_update(updates.back()).seq;
  ASSERT_GT(through, 0u);

  bed.raw_endpoint->send(conn, wire::encode(wire::ReplAck{through}));
  bed.raw_endpoint->send(conn, wire::encode(wire::ReplAck{through + 1000}));
  bed.net.pump();
  EXPECT_EQ(bed.broker->stats().frames_rejected, 1u);
  EXPECT_EQ(bed.raw.disconnects, 1);
  bed.net.drop("raw", conn);

  // More durable mutations while detached, then a resume from the cursor the
  // standby really holds: the missing suffix streams, no second snapshot.
  bed.publish(2);
  ASSERT_EQ(sub.take_deliveries().size(), 2u);
  bed.raw.frames.clear();
  bed.dial({wire::encode(wire::ReplHello{BrokerId{0}, through})});
  EXPECT_EQ(bed.broker->stats().repl_snapshots_sent, 1u);
  std::vector<std::uint64_t> resumed;
  for (const auto& frame : bed.raw.take(wire::FrameType::kStateUpdate)) {
    resumed.push_back(wire::decode_state_update(frame).seq);
  }
  ASSERT_FALSE(resumed.empty());
  EXPECT_EQ(resumed.front(), through + 1);
  EXPECT_EQ(resumed.back(), through + resumed.size());
}

}  // namespace
}  // namespace gryphon
