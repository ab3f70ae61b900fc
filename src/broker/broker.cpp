#include "broker/broker.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace gryphon {

namespace {

using Frame = ReliableStream::Frame;
using Cursor = ReliableStream::Receiver::Cursor;

// Unsubscribe tombstones retained (FIFO eviction); they stop a reconnect
// re-flood from resurrecting a removed subscription.
constexpr std::size_t kUnsubTombstoneCap = 4096;

// Events a match worker drains per wakeup into one DispatchBatch. The batch
// amortizes snapshot pinning, codec work, and the apply-side mutex over up
// to this many events.
constexpr std::size_t kMatchBatchMax = 32;

// A fresh epoch per process: a restarted broker must never be confused with
// its previous incarnation, or peers would misapply old sequence state to
// the new session. Wall-clock nanoseconds mixed with the broker id is
// plenty; tests pin Options::session_epoch for determinism.
std::uint64_t derive_session_epoch(BrokerId self) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
  const std::uint64_t mixed =
      static_cast<std::uint64_t>(ns) ^ (static_cast<std::uint64_t>(self.value) << 56);
  return mixed | 1;  // never 0 (0 means "unknown epoch" on the wire)
}

}  // namespace

Broker::Broker(BrokerId self, const BrokerNetwork& topology, std::vector<SchemaPtr> spaces,
               Transport& transport, Options options)
    : core_(self, topology, std::move(spaces), options.matcher),
      transport_(&transport),
      options_(std::move(options)),
      session_epoch_(options_.session_epoch != 0 ? options_.session_epoch
                                                 : derive_session_epoch(self)) {
  standby_ = options_.standby;
  workers_.reserve(options_.match_threads);
  for (std::size_t i = 0; i < options_.match_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Broker::~Broker() {
  {
    MutexLock qlock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

Ticks Broker::now() const {
  if (options_.clock) return options_.clock();
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
  return ticks_from_micros(static_cast<double>(micros));
}

void Broker::flush() {
  MutexUniqueLock qlock(queue_mutex_);
  while (unfinished_events_ != 0) done_cv_.wait(qlock.native());
}

void Broker::attach_broker_link(ConnId conn, BrokerId peer) {
  MutexLock lock(mutex_);
  send_link_hello(conn, bind_link(conn, peer));
}

Broker::LinkSession& Broker::bind_link(ConnId conn, BrokerId peer) {
  conns_[conn] = ConnState{ConnKind::kBroker, {}, peer};
  LinkSession& session = links_[peer];
  session.conn = conn;
  if (session.dead) {
    session.dead = false;  // an explicit attach or the peer's hello revives it
    replicate({.kind = replication::UpdateKind::kLinkDead, .peer = peer, .dead = false});
  }
  session.last_recv = now();
  return session;
}

void Broker::send_link_hello(ConnId conn, LinkSession& session) {
  core_.control_plane().assert_serialized();  // serialized by mutex_
  transport_->send(conn, wire::encode(wire::HelloBroker{core_.self(), session_epoch_,
                                                        session.in.epoch(), session.in.seq()}));
  session.out.sent(now());
  // State synchronization on link (re-)establishment: replay every known
  // subscription replica to the peer. The receiver deduplicates by id and
  // answers tombstoned ids with an UnsubPropagate, so resending after a
  // reconnect is harmless, subscriptions registered while the link was down
  // still reach everyone, and stale replicas get reconciled away.
  std::vector<std::vector<std::uint8_t>> frames;
  core_.for_each_subscription([&](SpaceId space, SubscriptionId id, BrokerId owner,
                                  const Subscription& subscription) {
    frames.push_back(wire::encode(
        wire::SubPropagate{id, owner, space, encode_subscription(subscription)}));
  });
  // The whole replica set goes out as one coalesced flush.
  if (!frames.empty()) transport_->send_batch(conn, std::move(frames));
}

void Broker::on_connect(ConnId conn) {
  MutexLock lock(mutex_);
  conns_.emplace(conn, ConnState{});  // kind resolved by the hello frame
}

void Broker::on_disconnect(ConnId conn) {
  MutexLock lock(mutex_);
  const auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  const ConnState state = it->second;
  conns_.erase(it);
  if (state.kind == ConnKind::kClient) {
    const auto client = clients_.find(state.client_name);
    if (client != clients_.end() && client->second->conn == conn) {
      client->second->conn = kInvalidConn;  // offline; log keeps accumulating
    }
  } else if (state.kind == ConnKind::kBroker) {
    const auto link = links_.find(state.peer);
    if (link != links_.end() && link->second.conn == conn) {
      link->second.conn = kInvalidConn;  // session survives; forwards queue up
      ++stats_.link_flaps;
      // One line per state change; the forwards that queue behind it are
      // counted (forwards_queued_link_down), never logged one by one.
      GRYPHON_WARN("broker") << "broker " << core_.self() << ": link to " << state.peer
                             << " is down; forwards queue for replay";
    }
  } else if (state.kind == ConnKind::kReplica) {
    // Replication sessions survive the drop the same way link sessions do:
    // the primary's update log keeps accumulating and the standby's next
    // ReplHello resumes (or re-snapshots) from its applied cursor.
    if (replica_conn_ == conn) replica_conn_ = kInvalidConn;
    if (repl_conn_ == conn) repl_conn_ = kInvalidConn;
  }
}

void Broker::on_frame(ConnId conn, std::span<const std::uint8_t> frame) {
  bool drop_conn = false;
  {
    MutexLock lock(mutex_);
    {
      // Any inbound frame proves the link is alive.
      const auto it = conns_.find(conn);
      if (it != conns_.end() && it->second.kind == ConnKind::kBroker) {
        const auto link = links_.find(it->second.peer);
        if (link != links_.end() && link->second.conn == conn) {
          link->second.last_recv = now();
        }
      } else if (it != conns_.end() && it->second.kind == ConnKind::kReplica) {
        if (conn == repl_conn_) repl_last_recv_ = now();  // primary liveness
      }
    }
    try {
      const wire::FrameType type = wire::peek_type(frame);
      if (standby_) {
        // A standby shadows its primary; it serves nobody until promoted.
        // Only the replication stream (and its liveness heartbeats) and a
        // promotion order are legitimate traffic — a client or broker that
        // reaches a standby is misconfigured, and humoring it would fork
        // the primary's state.
        switch (type) {
          case wire::FrameType::kStateSnapshot:
          case wire::FrameType::kStateUpdate:
          case wire::FrameType::kPromote:
          case wire::FrameType::kLinkHeartbeat:
            break;
          default:
            throw CodecError("standby: refusing frame type " +
                             std::to_string(static_cast<unsigned>(frame[0])) +
                             " before promotion");
        }
      }
      switch (type) {
        case wire::FrameType::kHelloClient:
          handle_hello_client(conn, wire::decode_hello_client(frame));
          break;
        case wire::FrameType::kHelloBroker:
          handle_hello_broker(conn, wire::decode_hello_broker(frame));
          break;
        case wire::FrameType::kSubscribe:
          handle_subscribe(conn, wire::decode_subscribe(frame));
          break;
        case wire::FrameType::kUnsubscribe:
          handle_unsubscribe(conn, wire::decode_unsubscribe(frame));
          break;
        case wire::FrameType::kPublish:
          handle_publish(conn, wire::decode_publish(frame));
          break;
        case wire::FrameType::kAck:
          handle_ack(conn, wire::decode_ack(frame));
          break;
        case wire::FrameType::kSubPropagate:
          handle_sub_propagate(conn, wire::decode_sub_propagate(frame));
          break;
        case wire::FrameType::kUnsubPropagate:
          handle_unsub_propagate(conn, wire::decode_unsub_propagate(frame));
          break;
        case wire::FrameType::kEventForward:
          handle_event_forward(conn, wire::decode_event_forward(frame));
          break;
        case wire::FrameType::kBrokerAck:
          handle_broker_ack(conn, wire::decode_broker_ack(frame));
          break;
        case wire::FrameType::kLinkHeartbeat:
          handle_link_heartbeat(conn, wire::decode_link_heartbeat(frame));
          break;
        case wire::FrameType::kReplHello:
          handle_repl_hello(conn, wire::decode_repl_hello(frame));
          break;
        case wire::FrameType::kStateSnapshot:
          handle_state_snapshot(conn, wire::decode_state_snapshot(frame));
          break;
        case wire::FrameType::kStateUpdate:
          handle_state_update(conn, wire::decode_state_update(frame));
          break;
        case wire::FrameType::kReplAck:
          handle_repl_ack(conn, wire::decode_repl_ack(frame));
          break;
        case wire::FrameType::kPromote: {
          const wire::Promote order = wire::decode_promote(frame);
          if (order.primary != core_.self()) {
            throw CodecError("promote order for a different broker");
          }
          promote_locked();
          break;
        }
        default:
          // Unknown type byte, or a frame a broker must never receive
          // (kDeliver, kError, ...): a protocol violation, same as garbage.
          throw CodecError("unexpected frame type " +
                           std::to_string(static_cast<unsigned>(frame[0])));
      }
    } catch (const std::exception& e) {
      // A malformed or hostile frame must never take the broker down — and
      // once a stream is misframed nothing after it can be trusted either:
      // count it, log it, and drop the connection. Reliable sessions
      // (client logs, link sessions) resume on reconnect.
      ++stats_.frames_rejected;
      GRYPHON_WARN("broker") << "broker " << core_.self()
                             << ": rejecting malformed frame on conn " << conn << ": "
                             << e.what() << " (dropping connection)";
      drop_conn = true;
    }
  }
  // Close outside the broker mutex: deterministic transports invoke
  // on_disconnect synchronously on this thread, which re-enters mutex_.
  if (drop_conn) transport_->close(conn);
}

void Broker::handle_hello_client(ConnId conn, const wire::HelloClient& hello) {
  ClientRecord& record = client_record(hello.name);
  record.conn = conn;
  conns_[conn] = ConnState{ConnKind::kClient, hello.name, BrokerId{}};
  transport_->send(conn, wire::encode(wire::HelloAck{record.out.log().acked_seq(),
                                                     record.out.log().truncated_through()}));
  send_quench_state(conn);
  // Replay everything the client has not seen (transient-failure recovery)
  // as one batch. A client has no floor frame: HelloAck::truncated_through
  // already told it what is gone.
  record.out.replay(hello.last_seq, now(), [&](const Frame& frame) {
    if (frame.entry == nullptr) return;
    const EventLog::Entry& entry = *frame.entry;
    record.egress.push_back(wire::encode(wire::Deliver{entry.seq, entry.space, entry.event}));
  });
  if (!record.egress.empty()) {
    egress_clients_.push_back(&record);
    flush_egress();
  }
}

Broker::ClientRecord& Broker::client_record(const std::string& name) {
  std::unique_ptr<ClientRecord>& record = clients_[name];
  if (!record) record = std::make_unique<ClientRecord>();
  return *record;
}

void Broker::track_local_sub(const std::string& client, SubscriptionId id, SpaceId space) {
  client_record(client).subscriptions.push_back(id);
  local_sub_client_[id] = client;
  local_sub_space_[id] = space;
}

void Broker::forget_local_sub(SubscriptionId id) {
  const auto named = local_sub_client_.find(id);
  if (named == local_sub_client_.end()) return;
  auto& subs = clients_.at(named->second)->subscriptions;
  subs.erase(std::remove(subs.begin(), subs.end(), id), subs.end());
  local_sub_client_.erase(named);
  local_sub_space_.erase(id);
}

void Broker::handle_hello_broker(ConnId conn, const wire::HelloBroker& hello) {
  // The end that did not dial (conn not yet bound to a broker) replies with
  // its own hello and a subscription sync; the initiator already sent both
  // in attach_broker_link(). Each side then replays from the peer's report.
  const auto existing = conns_.find(conn);
  const bool responder =
      existing == conns_.end() || existing->second.kind != ConnKind::kBroker;
  LinkSession& session = bind_link(conn, hello.broker);
  const Cursor before = session.in.cursor();
  session.in.adopt(hello.epoch);  // a new epoch: the peer's numbering restarted
  replicate_link_cursor(hello.broker, session, before);
  if (responder) send_link_hello(conn, session);
  // When the peer's counters refer to this session its report is a
  // cumulative ack (acks lost in the disconnect are recovered here).
  std::uint64_t peer_seen = 0;
  if (hello.peer_epoch_seen == session_epoch_) {
    peer_seen = hello.peer_last_seq;
    if (accept_ack(session.out, peer_seen, "link handshake")) {
      replicate(
          {.kind = replication::UpdateKind::kLinkAck, .peer = hello.broker, .seq = peer_seen});
    }
  }
  // Baseline floor, then the peer-unseen window or a trailing floor across
  // a failover gap, as one coalesced flush. (Retention GC logged any
  // truncation the baseline declares when it happened.)
  stats_.retransmits += session.out.replay(peer_seen, now(), [&](const Frame& frame) {
    queue_link_frame(session, link_frame(frame));
  });
  flush_egress();
}

void Broker::handle_subscribe(ConnId conn, const wire::SubscribeReq& req) {
  core_.control_plane().assert_serialized();  // serialized by mutex_
  const auto it = conns_.find(conn);
  if (it == conns_.end() || it->second.kind != ConnKind::kClient) {
    send_error(conn, req.token, "subscribe before hello");
    return;
  }
  if (!core_.has_space(req.space)) {
    send_error(conn, req.token, "unknown information space");
    return;
  }
  Subscription subscription = decode_subscription(core_.schema(req.space), req.subscription);
  const SubscriptionId id{
      static_cast<std::int64_t>((static_cast<std::uint64_t>(core_.self().value) << 40) |
                                next_sub_counter_++)};
  const std::size_t count_before = core_.subscription_count(req.space);
  // Deferred: the snapshot is published at the next process_event barrier,
  // before any event this broker handles after the SubscribeAck below.
  core_.add_subscription(req.space, id, std::move(subscription), core_.self(),
                         SnapshotPolicy::kDefer);
  track_local_sub(it->second.client_name, id, req.space);
  ++stats_.subscriptions_active;
  transport_->send(conn, wire::encode(wire::SubscribeAck{req.token, id}));
  replicate({.kind = replication::UpdateKind::kSubAdd,
             .id = id,
             .owner = core_.self(),
             .client = it->second.client_name,
             .space = req.space,
             .payload = req.subscription});
  broadcast_to_links(
      wire::encode(wire::SubPropagate{id, core_.self(), req.space, req.subscription}),
      kInvalidConn);
  maybe_broadcast_quench(req.space, count_before);
}

void Broker::handle_unsubscribe(ConnId conn, const wire::Unsubscribe& req) {
  core_.control_plane().assert_serialized();  // serialized by mutex_
  const auto it = conns_.find(conn);
  if (it == conns_.end() || it->second.kind != ConnKind::kClient) return;
  const auto space_it = local_sub_space_.find(req.id);
  const std::size_t count_before =
      space_it == local_sub_space_.end() ? 0 : core_.subscription_count(space_it->second);
  const SpaceId space = space_it == local_sub_space_.end() ? SpaceId{0} : space_it->second;
  if (!core_.remove_subscription(req.id, SnapshotPolicy::kDefer)) return;
  --stats_.subscriptions_active;
  record_tombstone(req.id);
  forget_local_sub(req.id);
  replicate({.kind = replication::UpdateKind::kSubRemove, .id = req.id});
  broadcast_to_links(wire::encode(wire::UnsubPropagate{req.id}), kInvalidConn);
  maybe_broadcast_quench(space, count_before);
}

void Broker::handle_publish(ConnId conn, const wire::Publish& publish) {
  const auto it = conns_.find(conn);
  if (it == conns_.end() || it->second.kind != ConnKind::kClient) {
    send_error(conn, 0, "publish before hello");
    return;
  }
  if (!core_.has_space(publish.space)) {
    send_error(conn, 0, "unknown information space");
    return;
  }
  ++stats_.events_published;
  // The frame itself was well-formed; an event payload that does not
  // decode against the space's schema is a client-plane error, answered on
  // the client protocol instead of dropping the connection.
  const std::string rejected = process_event(publish.space, publish.event, core_.self());
  if (!rejected.empty()) send_error(conn, 0, rejected);
}

void Broker::handle_ack(ConnId conn, const wire::Ack& ack) {
  const auto it = conns_.find(conn);
  if (it == conns_.end() || it->second.kind != ConnKind::kClient) return;
  if (!accept_ack(clients_.at(it->second.client_name)->out, ack.seq, "client ack")) return;
  replicate({.kind = replication::UpdateKind::kClientAck,
             .client = it->second.client_name,
             .seq = ack.seq});
}

void Broker::handle_sub_propagate(ConnId conn, const wire::SubPropagate& prop) {
  core_.control_plane().assert_serialized();  // serialized by mutex_
  if (tombstones_.contains(prop.id)) {
    // A stale replica from a peer that missed the unsubscription (e.g. its
    // reconnect re-flood): answer with the removal instead of resurrecting.
    transport_->send(conn, wire::encode(wire::UnsubPropagate{prop.id}));
    return;
  }
  if (core_.has_subscription(prop.id)) return;  // flooding deduplication
  if (!core_.has_space(prop.space)) return;
  Subscription subscription = decode_subscription(core_.schema(prop.space), prop.subscription);
  const std::size_t count_before = core_.subscription_count(prop.space);
  core_.add_subscription(prop.space, prop.id, std::move(subscription), prop.owner,
                         SnapshotPolicy::kDefer);
  ++stats_.subscriptions_active;
  replicate({.kind = replication::UpdateKind::kSubAdd,
             .id = prop.id,
             .owner = prop.owner,
             .space = prop.space,
             .payload = prop.subscription});
  broadcast_to_links(wire::encode(prop), conn);
  maybe_broadcast_quench(prop.space, count_before);
}

void Broker::handle_unsub_propagate(ConnId conn, const wire::UnsubPropagate& prop) {
  core_.control_plane().assert_serialized();  // serialized by mutex_
  record_tombstone(prop.id);  // even if already gone: a peer may re-flood it
  const auto space = core_.space_of(prop.id);
  if (!space.has_value()) return;  // already gone: stop the flood
  const std::size_t count_before = core_.subscription_count(*space);
  if (!core_.remove_subscription(prop.id, SnapshotPolicy::kDefer)) return;
  --stats_.subscriptions_active;
  forget_local_sub(prop.id);
  replicate({.kind = replication::UpdateKind::kSubRemove, .id = prop.id});
  broadcast_to_links(wire::encode(prop), conn);
  maybe_broadcast_quench(*space, count_before);
}

void Broker::handle_event_forward(ConnId conn, const wire::EventForward& fwd) {
  const auto it = conns_.find(conn);
  if (it == conns_.end() || it->second.kind != ConnKind::kBroker) return;
  LinkSession& session = links_[it->second.peer];
  const Cursor before = session.in.cursor();
  const ReliableStream::Receiver::Verdict verdict = session.in.classify(fwd.epoch, fwd.seq);
  if (verdict == ReliableStream::Receiver::Verdict::kInOrder) session.in.advance();
  replicate_link_cursor(it->second.peer, session, before);
  if (verdict != ReliableStream::Receiver::Verdict::kInOrder || !core_.has_space(fwd.space)) {
    // A duplicate (our ack was lost or late), a gap (go-back-N: the sender
    // retransmits the rest), or a forward never queued for dispatch: re-ack
    // at once so the sender's window advances.
    if (verdict == ReliableStream::Receiver::Verdict::kDuplicate) ++stats_.duplicates_dropped;
    send_broker_ack(session);
    return;
  }
  ++stats_.events_relayed;
  // Acked cumulatively by the next flush_egress: the end of the running
  // dispatch batch (synchronous mode: this event's own apply), so one ack
  // answers every forward a batch absorbed and none waits longer than that.
  process_event(fwd.space, fwd.event, fwd.tree_root);
}

void Broker::handle_broker_ack(ConnId conn, const wire::BrokerAck& ack) {
  const auto it = conns_.find(conn);
  if (it == conns_.end() || it->second.kind != ConnKind::kBroker) return;
  const auto link = links_.find(it->second.peer);
  if (link == links_.end()) return;
  if (ack.epoch != session_epoch_) return;  // ack for a previous incarnation
  if (accept_ack(link->second.out, ack.seq, "broker ack")) {
    replicate({.kind = replication::UpdateKind::kLinkAck, .peer = it->second.peer, .seq = ack.seq});
  }
}

void Broker::handle_link_heartbeat(ConnId conn, const wire::LinkHeartbeat& hb) {
  const auto it = conns_.find(conn);
  if (it == conns_.end() || it->second.kind != ConnKind::kBroker) return;
  LinkSession& session = links_[it->second.peer];
  const Cursor before = session.in.cursor();
  if (session.in.rebase(hb.epoch, hb.truncated_through)) {
    // The peer can no longer produce anything at or below this baseline
    // (retention GC truncated it, or our counters are fresh while its
    // numbering kept going). Waiting would stall the link forever: rebase
    // and resume from there.
    GRYPHON_INFO("broker") << "broker " << core_.self() << ": rebasing link from "
                           << it->second.peer << " to seq " << hb.truncated_through
                           << " (was " << before.seq << ")";
    send_broker_ack(session);
  }
  replicate_link_cursor(it->second.peer, session, before);
}

void Broker::replicate_link_cursor(BrokerId peer, const LinkSession& session, Cursor before) {
  if (session.in.cursor() == before) return;
  replicate({.kind = replication::UpdateKind::kLinkInSeq,
             .peer = peer,
             .seq = session.in.seq(),
             .epoch = session.in.epoch()});
}

bool Broker::accept_ack(ReliableStream::Sender& out, std::uint64_t seq, const char* what) {
  const ReliableStream::Sender::AckResult result = out.ack(seq, now());
  if (result == ReliableStream::Sender::AckResult::kRefused) {
    throw CodecError(std::string(what) + " " + std::to_string(seq) +
                     " is above the last sequence sent");
  }
  return result == ReliableStream::Sender::AckResult::kAdvanced;
}

void Broker::send_broker_ack(LinkSession& session) {
  const std::uint64_t seq = session.in.ack();
  if (session.conn == kInvalidConn) return;
  transport_->send(session.conn, wire::encode(wire::BrokerAck{session.in.epoch(), seq}));
  ++stats_.link_acks_sent;
  session.out.sent(now());
}

std::optional<Event> Broker::dispatchable_event(SpaceId space,
                                               const std::vector<std::uint8_t>& encoded,
                                               BrokerId tree_root, std::string& why) const {
  if (!core_.known_tree_root(tree_root)) {
    why = "unknown tree root " + std::to_string(tree_root.value);
    GRYPHON_WARN("broker") << "broker " << core_.self() << ": dropping event with " << why;
    return std::nullopt;
  }
  try {
    return decode_event(core_.schema(space), encoded);
  } catch (const std::exception& e) {
    why = e.what();
    GRYPHON_WARN("broker") << "broker " << core_.self()
                           << ": dropping undecodable event: " << why;
    return std::nullopt;
  }
}

std::string Broker::process_event(SpaceId space, const std::vector<std::uint8_t>& encoded,
                                  BrokerId tree_root) {
  // The publish barrier: every control-plane mutation is deferred, and the
  // churn accumulated since the last event is compiled here, once, before
  // this event is staged. Under mutex_, so every change this broker has
  // acknowledged is in the snapshot; the store happens-before the queue
  // push below, so a worker pinning after the pop sees it too.
  core_.control_plane().assert_serialized();  // serialized by mutex_
  core_.publish_space(space);
  if (workers_.empty()) {
    // Deterministic mode: a one-event batch through the same batch-first
    // dispatch path the workers use, applied and flushed inline.
    std::string why;
    const std::optional<Event> event = dispatchable_event(space, encoded, tree_root, why);
    if (event.has_value()) {
      sync_batch_.clear();
      sync_batch_.add(space, *event, tree_root);
      const std::span<const BrokerCore::Decision> decisions = core_.dispatch(sync_batch_);
      apply_decision(space, encoded, tree_root, decisions[0]);
    } else {
      ++stats_.frames_rejected;
    }
    flush_egress();
    return why;
  }
  {
    MutexLock qlock(queue_mutex_);
    queue_.push_back(PendingEvent{space, encoded, tree_root});
    ++unfinished_events_;
  }
  queue_cv_.notify_one();
  return {};
}

void Broker::worker_loop() {
  // Per-worker batch context (it owns the memoization arena); the dispatch
  // itself runs against the core's immutable snapshot, entirely outside
  // the broker mutex.
  DispatchBatch batch;
  std::vector<PendingEvent> items;
  std::vector<Event> events;
  std::vector<std::size_t> staged;  // item index per staged (decodable) event
  for (;;) {
    items.clear();
    {
      MutexUniqueLock qlock(queue_mutex_);
      while (!stop_ && queue_.empty()) queue_cv_.wait(qlock.native());
      if (queue_.empty()) return;  // stopping and drained
      const std::size_t take = std::min(queue_.size(), kMatchBatchMax);
      for (std::size_t i = 0; i < take; ++i) {
        items.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    // Decode and validate the whole batch outside all locks. Bad events
    // (undecodable payload, unknown tree root off the wire) are rejected
    // individually so they cannot poison the rest of the batch.
    std::size_t rejected = 0;
    events.clear();
    events.reserve(items.size());  // no reallocation: the batch borrows &events[i]
    staged.clear();
    batch.clear();
    std::string why;
    for (std::size_t i = 0; i < items.size(); ++i) {
      std::optional<Event> event =
          dispatchable_event(items[i].space, items[i].encoded, items[i].tree_root, why);
      if (!event.has_value()) {
        ++rejected;
        continue;
      }
      events.push_back(std::move(*event));
      batch.add(items[i].space, events.back(), items[i].tree_root);
      staged.push_back(i);
    }
    // One snapshot pin and one match pass for the batch...
    const std::span<const BrokerCore::Decision> decisions = core_.dispatch(batch);
    {
      // ...then one mutex hold applying every decision, with the resulting
      // link frames coalesced into one flush per neighbor.
      MutexLock lock(mutex_);
      stats_.frames_rejected += rejected;
      for (std::size_t j = 0; j < staged.size(); ++j) {
        const PendingEvent& item = items[staged[j]];
        apply_decision(item.space, item.encoded, item.tree_root, decisions[j]);
      }
      flush_egress();
    }
    {
      MutexLock qlock(queue_mutex_);
      unfinished_events_ -= items.size();
      if (unfinished_events_ == 0) done_cv_.notify_all();
    }
  }
}

void Broker::apply_decision(SpaceId space, const std::vector<std::uint8_t>& encoded,
                            BrokerId tree_root, const BrokerCore::Decision& decision) {
  stats_.matching_steps += decision.steps;

  for (const BrokerId peer : decision.forward) {
    LinkSession& session = links_[peer];
    if (session.dead) {
      // The supervisor gave this link up: degrade gracefully rather than
      // queue forever. Counted, not logged: mark_link_dead logged the
      // state change once.
      ++stats_.forwards_dropped_dead_link;
      continue;
    }
    // Log first, send second: the log is the source of truth the session
    // replays or retransmits from, whether or not the link is up right now.
    const std::uint64_t seq = session.out.append(space, encoded, now(), tree_root);
    replicate({.kind = replication::UpdateKind::kLinkForward,
               .peer = peer,
               .origin = tree_root,
               .space = space,
               .seq = seq,
               .payload = encoded});
    if (session.conn == kInvalidConn) {
      // Kept in the log for replay; on_disconnect logged the state change.
      ++stats_.forwards_queued_link_down;
      continue;
    }
    queue_link_frame(session, link_frame({&session.out.log().back(), 0}));
    ++stats_.events_forwarded;
  }

  if (!decision.local_matches.empty()) {
    // Fan out to local subscribers; one copy per client even when several
    // of its subscriptions match.
    std::vector<std::string> targets;
    for (const SubscriptionId id : decision.local_matches) {
      const auto named = local_sub_client_.find(id);
      if (named != local_sub_client_.end()) targets.push_back(named->second);
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    for (const std::string& name : targets) {
      deliver_to_client(name, *clients_.at(name), space, encoded);
    }
  }
}

void Broker::queue_link_frame(LinkSession& session, std::vector<std::uint8_t> frame) {
  session.egress.push_back(std::move(frame));
  session.out.sent(now());
}

std::vector<std::uint8_t> Broker::link_frame(const Frame& frame) const {
  if (frame.entry == nullptr) return wire::encode(wire::LinkHeartbeat{session_epoch_, frame.floor});
  const EventLog::Entry& entry = *frame.entry;
  return wire::encode(
      wire::EventForward{entry.origin, entry.space, entry.event, session_epoch_, entry.seq});
}


void Broker::flush_egress() {
  for ([[maybe_unused]] auto& [peer, session] : links_) {
    if (session.in.ack_due()) {
      const std::uint64_t seq = session.in.ack();
      if (session.conn != kInvalidConn) {
        queue_link_frame(session, wire::encode(wire::BrokerAck{session.in.epoch(), seq}));
        ++stats_.link_acks_sent;
      }
    }
    if (session.egress.empty()) continue;
    // A disconnect cannot race us here (on_disconnect needs mutex_), and a
    // dead/downed link never has staged egress — frames are only queued on
    // live connections within the current hold.
    transport_->send_batch(session.conn, std::move(session.egress));
    session.egress.clear();
  }
  for (ClientRecord* client : egress_clients_) {
    transport_->send_batch(client->conn, std::move(client->egress));
    client->egress.clear();
  }
  egress_clients_.clear();
}

void Broker::deliver_to_client(const std::string& name, ClientRecord& client, SpaceId space,
                               std::vector<std::uint8_t> encoded) {
  const std::uint64_t seq = client.out.append(space, std::move(encoded), now());
  ++stats_.events_delivered;
  replicate({.kind = replication::UpdateKind::kClientDeliver,
             .client = name,
             .space = space,
             .seq = seq,
             .payload = client.out.log().back().event});
  if (client.conn != kInvalidConn) {
    // Staged like link frames: flush_egress sends the hold's deliveries to
    // this client as one batch.
    if (client.egress.empty()) egress_clients_.push_back(&client);
    client.egress.push_back(
        wire::encode(wire::Deliver{seq, space, client.out.log().back().event}));
  }
}

void Broker::broadcast_to_links(const std::vector<std::uint8_t>& frame, ConnId except) {
  for ([[maybe_unused]] const auto& [peer, session] : links_) {
    if (session.conn != kInvalidConn && session.conn != except) {
      transport_->send(session.conn, frame);
    }
  }
}

void Broker::record_tombstone(SubscriptionId id) {
  if (!tombstones_.insert(id).second) return;
  replicate({.kind = replication::UpdateKind::kTombstone, .id = id});
  tombstone_fifo_.push_back(id);
  while (tombstone_fifo_.size() > kUnsubTombstoneCap) {
    tombstones_.erase(tombstone_fifo_.front());
    tombstone_fifo_.pop_front();
  }
}

void Broker::send_error(ConnId conn, std::uint64_t token, std::string message) {
  transport_->send(conn, wire::encode(wire::ErrorFrame{token, std::move(message)}));
}

void Broker::send_quench_state(ConnId conn) {
  core_.control_plane().assert_serialized();  // serialized by mutex_
  for (std::size_t s = 0; s < core_.space_count(); ++s) {
    const SpaceId space{static_cast<SpaceId::rep_type>(s)};
    transport_->send(
        conn, wire::encode(wire::Quench{space, core_.subscription_count(space) > 0}));
  }
}

void Broker::maybe_broadcast_quench(SpaceId space, std::size_t count_before) {
  core_.control_plane().assert_serialized();  // serialized by mutex_
  const std::size_t count_after = core_.subscription_count(space);
  const bool was_active = count_before > 0;
  const bool is_active = count_after > 0;
  if (was_active == is_active) return;
  const auto frame = wire::encode(wire::Quench{space, is_active});
  for (const auto& [name, client] : clients_) {
    (void)name;
    if (client->conn != kInvalidConn) transport_->send(client->conn, frame);
  }
}

std::size_t Broker::collect_garbage() {
  MutexLock lock(mutex_);
  std::size_t collected = 0;
  const Ticks t = now();
  // Each truncation is mirrored so the standby's log never outgrows ours.
  for (auto& [name, client] : clients_) {
    const ReliableStream::Sender::Collected gc = client->out.collect(t, options_.log_retention);
    collected += gc.dropped;
    if (gc.dropped == 0) continue;
    replicate({.kind = replication::UpdateKind::kClientTruncate,
               .client = name,
               .seq = gc.drop_through,
               .truncated_through = client->out.log().truncated_through()});
  }
  for (auto& [peer, session] : links_) {
    const ReliableStream::Sender::Collected gc = session.out.collect(t, options_.log_retention);
    collected += gc.dropped;
    if (gc.dropped == 0) continue;
    replicate({.kind = replication::UpdateKind::kLinkTruncate,
               .peer = peer,
               .seq = gc.drop_through,
               .truncated_through = session.out.log().truncated_through()});
    GRYPHON_WARN("broker") << "broker " << core_.self() << ": retention GC truncated link "
                           << peer << " replay window through "
                           << session.out.log().truncated_through();
  }
  return collected;
}

void Broker::tick_links(Ticks now_ticks) {
  MutexLock lock(mutex_);
  // Every stream runs the same timers: the unacked window goes again once
  // its ack stalls past the retransmit timeout, and an idle stream carries
  // heartbeats — for links the peer's liveness and floor signal, for the
  // replication stream the standby's deadman timer (brokerd's
  // promote-on-silence loop), so it only fires when the primary is gone.
  for ([[maybe_unused]] auto& [peer, session] : links_) {
    if (session.conn == kInvalidConn || session.dead) continue;
    stats_.retransmits += session.out.tick(
        now_ticks, options_.link_retransmit_timeout, options_.link_heartbeat_interval,
        [&](const Frame& frame) { queue_link_frame(session, link_frame(frame)); });
  }
  flush_egress();
  if (replica_conn_ == kInvalidConn) return;
  std::vector<std::vector<std::uint8_t>> frames;
  stats_.repl_updates_sent += replica_.tick(
      now_ticks, options_.link_retransmit_timeout, options_.link_heartbeat_interval,
      [&](const Frame& frame) { frames.push_back(repl_frame(frame)); });
  if (!frames.empty()) transport_->send_batch(replica_conn_, std::move(frames));
}

bool Broker::link_up(BrokerId peer) const {
  MutexLock lock(mutex_);
  const auto it = links_.find(peer);
  return it != links_.end() && it->second.conn != kInvalidConn;
}

std::optional<Ticks> Broker::link_last_activity(BrokerId peer) const {
  MutexLock lock(mutex_);
  const auto it = links_.find(peer);
  if (it == links_.end()) return std::nullopt;
  return it->second.last_recv;
}

void Broker::drop_link(BrokerId peer) {
  ConnId conn = kInvalidConn;
  {
    MutexLock lock(mutex_);
    const auto it = links_.find(peer);
    if (it != links_.end()) conn = it->second.conn;
  }
  // Close outside the mutex (see on_frame).
  if (conn != kInvalidConn) transport_->close(conn);
}

void Broker::mark_link_dead(BrokerId peer) {
  ConnId conn = kInvalidConn;
  {
    MutexLock lock(mutex_);
    LinkSession& session = links_[peer];
    conn = session.conn;
    session.conn = kInvalidConn;
    session.dead = true;
    const std::size_t lost = session.out.drop_all();
    stats_.forwards_dropped_dead_link += lost;
    replicate({.kind = replication::UpdateKind::kLinkDead, .peer = peer, .dead = true});
    GRYPHON_WARN("broker") << "broker " << core_.self() << ": declaring link to " << peer
                           << " dead (" << lost << " queued forwards dropped)";
  }
  if (conn != kInvalidConn) transport_->close(conn);
}

// --- Replication (the Clone pattern; docs/fault-tolerance.md) -------------

void Broker::replicate(const replication::Update& update) {
  if (!repl_enabled_ || standby_) return;
  const std::uint64_t seq =
      replica_.append(SpaceId{0}, replication::encode_update(update), now());
  if (replica_.log().size() > options_.repl_log_window) {
    // Overflow: shed the oldest retained updates. A standby that has not
    // applied past the new floor can no longer resume from the log — its
    // next ack (or hello) below the floor triggers a full snapshot instead.
    const std::uint64_t drop_through = seq - options_.repl_log_window;
    replica_.log().truncate_to(drop_through, drop_through);
  }
  if (replica_conn_ != kInvalidConn) {
    transport_->send(replica_conn_, repl_frame({&replica_.log().back(), 0}));
    replica_.sent(now());
    ++stats_.repl_updates_sent;
  }
}

std::vector<std::uint8_t> Broker::repl_frame(const Frame& frame) const {
  // The standby reads a floor only as liveness: it never skips updates, a
  // gap it cannot fill is answered with a snapshot.
  if (frame.entry == nullptr) return wire::encode(wire::LinkHeartbeat{session_epoch_, frame.floor});
  return wire::encode(wire::StateUpdate{frame.entry->seq, frame.entry->event});
}

void Broker::send_repl_snapshot(ConnId conn) {
  transport_->send(conn, wire::encode(wire::StateSnapshot{
                             replica_.log().last_seq(),
                             replication::encode_snapshot(build_snapshot_image())}));
  replica_.ack(replica_.log().last_seq(), now());
  replica_.sent(now());
  ++stats_.repl_snapshots_sent;
}

void Broker::handle_repl_hello(ConnId conn, const wire::ReplHello& hello) {
  if (hello.primary != core_.self()) {
    throw CodecError("replication hello addressed to a different primary");
  }
  conns_[conn] = ConnState{ConnKind::kReplica, {}, BrokerId{}};
  replica_conn_ = conn;
  // The update log starts at this incarnation's first hello, so it covers
  // the broker's history only once that hello's snapshot (which carries the
  // full state) has been sent. The first hello therefore always snapshots,
  // whatever sequence the standby reports: a standby of a previous
  // incarnation holds state this log never saw, and ReplHello carries no
  // epoch to tell it apart. A standby that has never applied anything
  // (applied_seq == 0) always gets a snapshot too: the session epoch and
  // subscription-id counter travel only in snapshots, and promotion is
  // identity takeover — the standby cannot come up on an epoch of its own.
  const bool log_covers_history = repl_enabled_;
  repl_enabled_ = true;
  const std::uint64_t resume_floor =
      std::max(replica_.log().acked_seq(), replica_.log().truncated_through());
  if (!log_covers_history || hello.applied_seq == 0 || hello.applied_seq < resume_floor ||
      hello.applied_seq > replica_.log().last_seq()) {
    // Fresh standby, or one from before the retained window: re-baseline
    // with a full state image.
    send_repl_snapshot(conn);
    return;
  }
  // The standby already holds everything through applied_seq: ship only
  // the missing suffix.
  replica_.ack(hello.applied_seq, now());
  std::vector<std::vector<std::uint8_t>> frames;
  stats_.repl_updates_sent += replica_.replay(
      hello.applied_seq, now(), [&](const Frame& frame) { frames.push_back(repl_frame(frame)); });
  if (!frames.empty()) transport_->send_batch(conn, std::move(frames));
}

void Broker::handle_repl_ack(ConnId conn, const wire::ReplAck& ack) {
  if (conn != replica_conn_) return;
  if (ack.seq < replica_.log().truncated_through()) {
    // The standby fell behind the retained update window (overflow shed the
    // entries it still needs): re-baseline with a fresh snapshot — the Clone
    // pattern's catch-up path.
    send_repl_snapshot(conn);
    return;
  }
  accept_ack(replica_, ack.seq, "replication ack");
}

void Broker::handle_state_snapshot(ConnId conn, const wire::StateSnapshot& snap) {
  if (!standby_ || conn != repl_conn_) return;
  install_snapshot(replication::decode_snapshot(snap.state));
  repl_in_.restore({0, snap.through_seq});
  ++stats_.repl_snapshots_applied;
  transport_->send(conn, wire::encode(wire::ReplAck{repl_in_.ack()}));
}

void Broker::handle_state_update(ConnId conn, const wire::StateUpdate& update) {
  if (!standby_ || conn != repl_conn_) return;
  // Strictly in order; a duplicate or a gap is re-acked (go-back-N, exactly
  // as on broker links): the primary re-streams the suffix, or re-baselines
  // with a snapshot if the missing updates were shed from its window.
  if (repl_in_.classify(0, update.seq) == ReliableStream::Receiver::Verdict::kInOrder) {
    apply_update(replication::decode_update(update.update));
    repl_in_.advance();
    ++stats_.repl_updates_applied;
  }
  transport_->send(conn, wire::encode(wire::ReplAck{repl_in_.ack()}));
}

void Broker::apply_update(const replication::Update& update) {
  core_.control_plane().assert_serialized();  // serialized by mutex_
  const Ticks t = now();  // local clock: replicated timestamps would skew GC
  switch (update.kind) {
    case replication::UpdateKind::kSubAdd: {
      if (!core_.has_space(update.space) || core_.has_subscription(update.id)) break;
      // Deferred like every other mutation: a standby dispatches nothing,
      // so its first compile happens at promotion.
      core_.add_subscription(update.space, update.id,
                             decode_subscription(core_.schema(update.space), update.payload),
                             update.owner, SnapshotPolicy::kDefer);
      ++stats_.subscriptions_active;
      if (update.owner == core_.self()) {
        // Track the primary's id counter (we shadow its identity), so ids
        // assigned after promotion continue the sequence instead of
        // colliding with replicated ones.
        const std::uint64_t counter =
            static_cast<std::uint64_t>(update.id.value) & ((std::uint64_t{1} << 40) - 1);
        next_sub_counter_ = std::max(next_sub_counter_, counter + 1);
      }
      if (!update.client.empty()) track_local_sub(update.client, update.id, update.space);
      break;
    }
    case replication::UpdateKind::kSubRemove:
      if (!core_.remove_subscription(update.id, SnapshotPolicy::kDefer)) break;
      --stats_.subscriptions_active;
      forget_local_sub(update.id);
      break;
    case replication::UpdateKind::kTombstone:
      record_tombstone(update.id);
      break;
    case replication::UpdateKind::kClientDeliver:
      client_record(update.client).out.log().append_at(update.seq, update.space,
                                                       update.payload, t);
      break;
    case replication::UpdateKind::kClientAck: {
      const auto it = clients_.find(update.client);
      if (it != clients_.end()) it->second->out.log().acknowledge(update.seq);
      break;
    }
    case replication::UpdateKind::kClientTruncate: {
      const auto it = clients_.find(update.client);
      if (it != clients_.end()) {
        it->second->out.log().truncate_to(update.seq, update.truncated_through);
      }
      break;
    }
    case replication::UpdateKind::kLinkForward:
      links_[update.peer].out.log().append_at(update.seq, update.space, update.payload, t,
                                              update.origin);
      break;
    case replication::UpdateKind::kLinkAck:
      links_[update.peer].out.log().acknowledge(update.seq);
      break;
    case replication::UpdateKind::kLinkTruncate:
      links_[update.peer].out.log().truncate_to(update.seq, update.truncated_through);
      break;
    case replication::UpdateKind::kLinkInSeq:
      links_[update.peer].in.restore({update.epoch, update.seq});
      break;
    case replication::UpdateKind::kLinkDead: {
      LinkSession& session = links_[update.peer];
      session.dead = update.dead;
      if (update.dead) session.out.drop_all();
      break;
    }
  }
}

replication::SnapshotImage Broker::build_snapshot_image() {
  core_.control_plane().assert_serialized();  // serialized by mutex_
  replication::SnapshotImage image;
  image.session_epoch = session_epoch_;
  image.next_sub_counter = next_sub_counter_;
  core_.for_each_subscription([&](SpaceId space, SubscriptionId id, BrokerId owner,
                                  const Subscription& subscription) {
    replication::SubImage sub;
    sub.id = id;
    sub.owner = owner;
    sub.space = space;
    const auto named = local_sub_client_.find(id);
    if (named != local_sub_client_.end()) sub.client = named->second;
    sub.subscription = encode_subscription(subscription);
    image.subscriptions.push_back(std::move(sub));
  });
  image.tombstones.assign(tombstone_fifo_.begin(), tombstone_fifo_.end());
  for (const auto& [peer, session] : links_) {
    replication::LinkImage link;
    link.peer = peer;
    link.dead = session.dead;
    link.in_epoch = session.in.epoch();
    link.in_seq = session.in.seq();
    link.out_log = session.out.image();
    image.links.push_back(std::move(link));
  }
  for (const auto& [name, client] : clients_) {
    replication::ClientImage ci;
    ci.name = name;
    ci.log = client->out.image();
    image.clients.push_back(std::move(ci));
  }
  return image;
}

void Broker::install_snapshot(const replication::SnapshotImage& image) {
  core_.control_plane().assert_serialized();  // serialized by mutex_
  // Wholesale replacement: a snapshot re-baselines, it does not merge.
  // (Pre-promotion a standby has no client or broker connections — the
  // on_frame gate refuses them — so there is no live state to preserve.)
  std::vector<SubscriptionId> existing;
  core_.for_each_subscription(
      [&](SpaceId, SubscriptionId id, BrokerId, const Subscription&) {
        existing.push_back(id);
      });
  for (const SubscriptionId id : existing) {
    core_.remove_subscription(id, SnapshotPolicy::kDefer);
  }
  clients_.clear();
  local_sub_client_.clear();
  local_sub_space_.clear();
  links_.clear();
  tombstones_.clear();
  tombstone_fifo_.clear();
  // Identity takeover includes the primary's link-session epoch and its
  // subscription-id counter: after promotion, peers must see the same
  // session continue, not a new incarnation.
  session_epoch_ = image.session_epoch;
  next_sub_counter_ = image.next_sub_counter;
  stats_.subscriptions_active = 0;
  const Ticks t = now();
  for (const replication::SubImage& sub : image.subscriptions) {
    if (!core_.has_space(sub.space) || core_.has_subscription(sub.id)) continue;
    core_.add_subscription(sub.space, sub.id,
                           decode_subscription(core_.schema(sub.space), sub.subscription),
                           sub.owner, SnapshotPolicy::kDefer);
    ++stats_.subscriptions_active;
    if (!sub.client.empty()) track_local_sub(sub.client, sub.id, sub.space);
  }
  // No publish here: the restored registry compiles once, at promotion.
  for (const SubscriptionId id : image.tombstones) record_tombstone(id);
  for (const replication::LinkImage& link : image.links) {
    LinkSession& session = links_[link.peer];
    session.dead = link.dead;
    session.in.restore({link.in_epoch, link.in_seq});
    session.out.restore(link.out_log, t);
  }
  for (const replication::ClientImage& ci : image.clients) {
    client_record(ci.name).out.restore(ci.log, t);
  }
}

void Broker::promote_locked() {
  core_.control_plane().assert_serialized();  // serialized by mutex_
  if (!standby_) return;
  standby_ = false;
  ++stats_.promotions;
  // Everything replicated while shadowing was deferred: publish it in one
  // compile per space before the promoted broker can stage an event.
  core_.publish_all();
  // The dead primary may have assigned sequences past everything it
  // replicated. Skip a gap no real assignment could have crossed, so
  // nothing numbered after promotion can collide with something a peer or
  // client already consumed. Link peers cross the gap via the heartbeat
  // floor rule; clients see it reported as an honest truncation bound.
  const std::uint64_t gap = options_.failover_seq_gap;
  for (auto& link : links_) link.second.out.rebase(gap, /*report_loss=*/false);
  for (auto& client : clients_) client.second->out.rebase(gap, /*report_loss=*/true);
  stats_.failover_seq_rebases += links_.size() + clients_.size();
  next_sub_counter_ += gap;
  repl_conn_ = kInvalidConn;
  GRYPHON_INFO("broker") << "broker " << core_.self() << ": standby promoted to primary ("
                         << repl_in_.seq() << " updates applied, epoch "
                         << session_epoch_ << ")";
}

void Broker::promote() {
  ConnId stale = kInvalidConn;
  {
    MutexLock lock(mutex_);
    stale = repl_conn_;
    promote_locked();
  }
  // Close outside the mutex (see on_frame); a dead primary's conn is
  // usually already gone, but an operator-driven promotion may race one.
  if (stale != kInvalidConn) transport_->close(stale);
}

Broker::Role Broker::role() const {
  MutexLock lock(mutex_);
  return standby_ ? Role::kStandby : Role::kPrimary;
}

void Broker::attach_replication_link(ConnId conn) {
  MutexLock lock(mutex_);
  if (!standby_) return;  // promoted (or never a standby): nothing to attach
  conns_[conn] = ConnState{ConnKind::kReplica, {}, BrokerId{}};
  repl_conn_ = conn;
  repl_last_recv_ = now();
  repl_attached_ = true;
  transport_->send(conn, wire::encode(wire::ReplHello{core_.self(), repl_in_.seq()}));
}

std::optional<Ticks> Broker::replication_last_activity() const {
  MutexLock lock(mutex_);
  if (!repl_attached_) return std::nullopt;
  return repl_last_recv_;
}

std::uint64_t Broker::replication_applied_seq() const {
  MutexLock lock(mutex_);
  return repl_in_.seq();
}

Broker::Stats Broker::stats() const {
  MutexLock lock(mutex_);
  core_.control_plane().assert_serialized();  // serialized by mutex_
  Stats out = stats_;
  out.control_plane = core_.control_plane_stats();
  return out;
}

std::uint64_t Broker::client_log_size(const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = clients_.find(name);
  return it == clients_.end() ? 0 : it->second->out.log().size();
}

}  // namespace gryphon
