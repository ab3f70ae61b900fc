// The broker node (paper Section 4.2, Figure 7).
//
// Components, mirroring the paper's figure: the matching engine (BrokerCore:
// subscription manager + parallel search trees + trit annotations), an event
// parser (the binary codec, un-marshaling events against the pre-defined
// event schema), the client protocol (hello / subscribe / publish / deliver
// / ack, with a per-client event log that replays deliveries missed across
// transient disconnects and a garbage collector bounding the logs), the
// broker protocol (subscription propagation and link-matched event
// forwarding), and a connection manager over the pluggable transport.
//
// Subscriptions are replicated to every broker by flooding with id-based
// deduplication; published events are multicast hop-by-hop with the link
// matching protocol (the publisher's broker is the spanning-tree root).
//
// Broker links are robust to transient failures, symmetrically with the
// client plane (docs/fault-tolerance.md): each broker<->broker link carries
// a *session* — forwards are sequenced per neighbor under a per-process
// epoch, logged until the peer's cumulative BrokerAck, retransmitted
// go-back-N when acks stall (tick_links), deduplicated and re-ordered at the
// receiver, and replayed after a reconnect handshake that also reconciles
// the subscription replica set (id-deduplicated re-flood, with unsubscribe
// tombstones so a stale replica cannot resurrect a removed subscription).
// Malformed frames never take the broker down: they are counted, logged,
// and the offending connection is dropped.
//
// Event pipeline: with Options::match_threads == 0 every event is matched
// and applied synchronously inside the frame handler (deterministic — the
// historical behavior), one-event batches through the same batch-first
// dispatch API the workers use. With N > 0, a pool of N match workers
// drains events in batches (up to Options::match_batch_max per wakeup):
// each batch is decoded outside all locks, dispatched against one pinned
// core snapshot (events grouped by serving shard), and applied under a
// single broker-mutex hold whose link frames coalesce into one
// send_batch flush per neighbor. Matching — the expensive part — then
// runs in parallel with frame handling and with other matches. Events may
// be applied out of arrival order across publishers; per-client delivery
// sequence numbers remain monotonic. flush() quiesces the pipeline.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "broker/broker_core.h"
#include "broker/event_log.h"
#include "broker/replication.h"
#include "broker/transport.h"
#include "broker/wire.h"
#include "common/mutex.h"

namespace gryphon {

class Broker : public TransportHandler {
 public:
  struct Options {
    PstMatcherOptions matcher;
    /// Unacknowledged log entries older than this are garbage collected
    /// (client delivery logs and broker-link forward logs alike).
    Ticks log_retention{ticks_from_seconds(3600)};
    /// Match workers. 0 = synchronous matching inside the frame handler.
    std::size_t match_threads{0};
    /// Data-plane shards per factored space (clamped to >= 1): the core's
    /// compiled buckets are partitioned so concurrent match workers tend to
    /// touch disjoint shard tables. Meaningless without factoring
    /// (Options::matcher.factoring_levels > 0).
    std::size_t shards{1};
    /// Covering aggregation and delta-compilation behaviour of the core's
    /// control plane (both on by default; see broker_core.h).
    ControlPlaneOptions control{};
    /// Events a match worker drains per wakeup into one DispatchBatch
    /// (clamped to >= 1). The batch amortizes snapshot pinning, codec work,
    /// and the apply-side mutex over up to this many events.
    std::size_t match_batch_max{32};
    /// Link-session epoch; 0 derives one from the wall clock at
    /// construction. Restarted brokers must come up with a fresh epoch so
    /// peers never misapply old sequence state; tests pin it for
    /// determinism.
    std::uint64_t session_epoch{0};
    /// Go-back-N: unacked forwards older than this are retransmitted by
    /// tick_links().
    Ticks link_retransmit_timeout{ticks_from_millis(50)};
    /// tick_links() sends a heartbeat on links idle (outbound) this long.
    Ticks link_heartbeat_interval{ticks_from_millis(500)};
    /// Unsubscribe tombstones retained (FIFO eviction); they stop a
    /// reconnect re-flood from resurrecting a removed subscription.
    std::size_t unsub_tombstone_cap{4096};
    // Replication (docs/fault-tolerance.md § Replication).
    /// Come up as a hot standby: refuse client/broker traffic, apply the
    /// primary's state stream (attach_replication_link), and serve only
    /// after promote(). The broker must be constructed with the primary's
    /// BrokerId — promotion is identity takeover.
    bool standby{false};
    /// Primary side: append every durable mutation to the replication
    /// update log from construction on (a standby attaching later resumes
    /// without a snapshot). Off by default — a ReplHello enables streaming
    /// dynamically either way; this flag only pre-arms the log.
    bool replicate{false};
    /// Primary side: retained updates in the replication log. This is the
    /// snapshot cadence: a standby reattaching from further back than this
    /// window gets a full StateSnapshot instead of an update replay, and
    /// the log never holds more than this many unacknowledged updates.
    std::size_t repl_log_window{4096};
    /// Go-back-N retransmit timeout for the replication session (the same
    /// machinery as broker links).
    Ticks repl_retransmit_timeout{ticks_from_millis(50)};
    /// Sequence-space gap a promoted standby inserts into every client
    /// delivery log and link forward log (and the subscription-id
    /// counter): the dead primary may have assigned up to this many
    /// sequences that were never replicated, and the standby must not
    /// reuse them. Clients see the skipped client-log range reported as
    /// HelloAck::truncated_through — an honest possible-loss bound —
    /// and link peers cross the link-log gap via the heartbeat floor rule
    /// in tick_links.
    std::uint64_t failover_seq_gap{1ull << 20};
    /// Test hook: overrides the broker's clock (ticks). Default: real
    /// steady-clock time since construction.
    std::function<Ticks()> clock;
  };

  Broker(BrokerId self, const BrokerNetwork& topology, std::vector<SchemaPtr> spaces,
         Transport& transport, Options options);
  Broker(BrokerId self, const BrokerNetwork& topology, std::vector<SchemaPtr> spaces,
         Transport& transport)
      : Broker(self, topology, std::move(spaces), transport, Options()) {}
  ~Broker() override;

  [[nodiscard]] BrokerId self() const { return core_.self(); }
  /// Direct core access; safe only when no transport thread can be
  /// delivering frames (deterministic pumped transports, or quiesced TCP).
  /// Subscription changes reach the core's published snapshot only when
  /// the broker next stages an event, so its data-plane reads
  /// (match_all, dispatch) may lag the registry until then.
  [[nodiscard]] const BrokerCore& core() const { return core_; }
  /// Thread-safe subscription count (for polling from other threads).
  [[nodiscard]] std::size_t subscription_count() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    core_.control_plane().assert_serialized();  // serialized by mutex_
    return core_.subscription_count();
  }

  /// Blocks until every event enqueued to the match workers so far has been
  /// dispatched and applied. Immediate when match_threads == 0. Do not call
  /// from inside a transport callback.
  void flush() EXCLUDES(mutex_, queue_mutex_);

  /// Registers an *outbound* broker link this node initiated: sends the
  /// broker hello so the peer can bind the reverse mapping. Re-attaching
  /// after a drop resumes the existing link session (unacked forwards
  /// replay once the peer's hello reply reports what it already has).
  void attach_broker_link(ConnId conn, BrokerId peer) EXCLUDES(mutex_);

  // TransportHandler:
  void on_connect(ConnId conn) override EXCLUDES(mutex_);
  void on_frame(ConnId conn, std::span<const std::uint8_t> frame) override EXCLUDES(mutex_);
  void on_disconnect(ConnId conn) override EXCLUDES(mutex_);

  /// The periodic log garbage collector; returns entries collected (client
  /// delivery logs plus broker-link forward logs).
  std::size_t collect_garbage() EXCLUDES(mutex_);

  /// Drives link-session maintenance: retransmits unacked forwards whose
  /// ack has stalled past Options::link_retransmit_timeout (go-back-N) and
  /// sends heartbeats on outbound-idle links. Deterministic given `now`;
  /// the LinkSupervisor calls this every tick.
  void tick_links(Ticks now) EXCLUDES(mutex_);

  /// The broker's clock (Options::clock if set); what tick_links expects.
  [[nodiscard]] Ticks clock_now() const { return now(); }

  // Link-state introspection and control for the LinkSupervisor.
  [[nodiscard]] bool link_up(BrokerId peer) const EXCLUDES(mutex_);
  /// Ticks of the last inbound frame on the peer's link; nullopt when the
  /// link has never been up.
  [[nodiscard]] std::optional<Ticks> link_last_activity(BrokerId peer) const EXCLUDES(mutex_);
  /// Closes the peer's connection (both sides observe a disconnect). Used
  /// by the supervisor when a link goes silent past the idle timeout.
  void drop_link(BrokerId peer) EXCLUDES(mutex_);
  /// Marks a link permanently dead (redial budget exhausted): its forward
  /// log is purged and future forwards to it are counted and dropped
  /// instead of retained. attach_broker_link() revives it.
  void mark_link_dead(BrokerId peer) EXCLUDES(mutex_);

  // Replication (the Clone pattern; docs/fault-tolerance.md).
  enum class Role : std::uint8_t { kPrimary, kStandby };
  [[nodiscard]] Role role() const EXCLUDES(mutex_);
  /// Standby side: registers the connection this standby dialed to its
  /// primary and sends ReplHello (attach or resume — the hello reports the
  /// last applied update, so a reattach replays only the missing suffix).
  void attach_replication_link(ConnId conn) EXCLUDES(mutex_);
  /// Standby -> primary: stop shadowing and assume the primary's role,
  /// identity, and link-session epoch. Rebases every sequence space by
  /// Options::failover_seq_gap past anything the dead primary might have
  /// assigned but not replicated (see the option's comment for how peers
  /// and clients cross the gap). No-op on a broker that is already
  /// primary. Also triggered by a kPromote frame.
  void promote() EXCLUDES(mutex_);
  /// Standby side: ticks of the last frame seen on the replication link
  /// (nullopt before the first attach). brokerd's standby loop promotes
  /// when this goes idle past its promote timeout.
  [[nodiscard]] std::optional<Ticks> replication_last_activity() const EXCLUDES(mutex_);
  /// Standby side: the last state-update sequence applied (test hook).
  [[nodiscard]] std::uint64_t replication_applied_seq() const EXCLUDES(mutex_);

  struct Stats {
    std::uint64_t events_published{0};   // local client publications
    std::uint64_t events_forwarded{0};   // copies sent to neighbor brokers
    std::uint64_t events_delivered{0};   // copies delivered to local clients
    std::uint64_t events_relayed{0};     // EventForward frames handled
    std::uint64_t subscriptions_active{0};
    std::uint64_t matching_steps{0};
    // Robustness counters (docs/fault-tolerance.md).
    std::uint64_t retransmits{0};            // forwards re-sent (timeout or handshake)
    std::uint64_t duplicates_dropped{0};     // already-consumed forwards discarded
    std::uint64_t link_flaps{0};             // broker-link disconnects observed
    std::uint64_t frames_rejected{0};        // malformed frames dropped
    std::uint64_t forwards_dropped_dead_link{0};  // forwards lost to a dead link
    std::uint64_t forwards_queued_link_down{0};   // forwards logged while the link was down
    // Replication counters (docs/fault-tolerance.md § Replication).
    std::uint64_t repl_updates_sent{0};      // StateUpdate frames streamed to the standby
    std::uint64_t repl_snapshots_sent{0};    // full StateSnapshot images sent
    std::uint64_t repl_updates_applied{0};   // updates applied by this standby
    std::uint64_t repl_snapshots_applied{0}; // snapshots installed by this standby
    std::uint64_t promotions{0};             // standby -> primary takeovers
    std::uint64_t failover_seq_rebases{0};   // logs gap-rebased at promotion
    /// Control-plane churn counters (covering + delta compilation), read
    /// from the core at stats() time.
    ControlPlaneStats control_plane{};
  };
  [[nodiscard]] Stats stats() const EXCLUDES(mutex_);

  /// Test hook: the current sequence state of a named client's log.
  [[nodiscard]] std::uint64_t client_log_size(const std::string& name) const EXCLUDES(mutex_);

 private:
  enum class ConnKind : std::uint8_t { kUnknown, kClient, kBroker, kReplica };
  struct ConnState {
    ConnKind kind{ConnKind::kUnknown};
    std::string client_name;  // kClient
    BrokerId peer;            // kBroker
  };
  struct ClientRecord {
    ConnId conn{kInvalidConn};  // kInvalidConn while offline
    EventLog log;
    std::vector<SubscriptionId> subscriptions;
  };
  /// Per-neighbor link session. Outlives any one connection: the forward
  /// log, sequence counters, and inbound dedup state persist across drops
  /// so a reconnect resumes where the link left off.
  struct LinkSession {
    ConnId conn{kInvalidConn};  // kInvalidConn while the link is down
    bool dead{false};           // supervisor gave up; forwards are dropped
    EventLog out_log;           // sequenced forwards awaiting the peer's ack
    Ticks last_send{0};         // last outbound frame (heartbeat scheduling)
    Ticks last_resend{0};       // last (re)transmission of the unacked window
    Ticks last_recv{0};         // last inbound frame (idle detection)
    std::uint64_t in_epoch{0};  // peer epoch the inbound counter refers to
    std::uint64_t in_seq{0};    // highest forward seq consumed from the peer
    /// Frames staged for the next coalesced flush (queue_link_frame /
    /// flush_link_egress): a batch of forwards or a retransmit window
    /// reaches the transport as one send_batch instead of per-frame sends.
    std::vector<std::vector<std::uint8_t>> egress;
  };
  struct PendingEvent {
    SpaceId space;
    std::vector<std::uint8_t> encoded;
    BrokerId tree_root;
  };
  /// Primary-side replication session: the sequenced update stream to the
  /// hot standby, retransmitted go-back-N exactly like a link session
  /// (each log entry's event bytes hold one encoded replication::Update).
  struct ReplicaSession {
    ConnId conn{kInvalidConn};  // kInvalidConn while no standby is attached
    EventLog log;
    Ticks last_send{0};
    Ticks last_resend{0};
  };

  [[nodiscard]] Ticks now() const;
  void handle_hello_client(ConnId conn, const wire::HelloClient& hello) REQUIRES(mutex_);
  void handle_hello_broker(ConnId conn, const wire::HelloBroker& hello) REQUIRES(mutex_);
  void handle_subscribe(ConnId conn, const wire::SubscribeReq& req) REQUIRES(mutex_);
  void handle_unsubscribe(ConnId conn, const wire::Unsubscribe& req) REQUIRES(mutex_);
  void handle_publish(ConnId conn, const wire::Publish& publish) REQUIRES(mutex_);
  void handle_ack(ConnId conn, const wire::Ack& ack) REQUIRES(mutex_);
  void handle_sub_propagate(ConnId conn, const wire::SubPropagate& prop) REQUIRES(mutex_);
  void handle_unsub_propagate(ConnId conn, const wire::UnsubPropagate& prop) REQUIRES(mutex_);
  void handle_event_forward(ConnId conn, const wire::EventForward& fwd) REQUIRES(mutex_);
  void handle_broker_ack(ConnId conn, const wire::BrokerAck& ack) REQUIRES(mutex_);
  void handle_link_heartbeat(ConnId conn, const wire::LinkHeartbeat& hb) REQUIRES(mutex_);
  void handle_repl_hello(ConnId conn, const wire::ReplHello& hello) REQUIRES(mutex_);
  void handle_state_snapshot(ConnId conn, const wire::StateSnapshot& snap) REQUIRES(mutex_);
  void handle_state_update(ConnId conn, const wire::StateUpdate& update) REQUIRES(mutex_);
  void handle_repl_ack(ConnId conn, const wire::ReplAck& ack) REQUIRES(mutex_);

  // Replication plumbing (broker/replication.h holds the codecs).
  /// Primary side: appends one durable mutation to the replication update
  /// log (capped at Options::repl_log_window — overflow truncates, forcing
  /// a snapshot on the standby's next attach) and streams it to the
  /// attached standby. No-op until replication is enabled.
  void replicate(const replication::Update& update) REQUIRES(mutex_);
  /// Standby side: applies one decoded update to the shadowed state.
  void apply_update(const replication::Update& update) REQUIRES(mutex_);
  /// Primary side: the full durable-state image for a StateSnapshot.
  [[nodiscard]] replication::SnapshotImage build_snapshot_image() REQUIRES(mutex_);
  /// Standby side: replaces all durable state with the image.
  void install_snapshot(const replication::SnapshotImage& image) REQUIRES(mutex_);
  void send_repl_ack(ConnId conn) REQUIRES(mutex_);
  /// promote() body; also invoked by a kPromote frame inside the handler.
  void promote_locked() REQUIRES(mutex_);

  /// Shared by local publications and forwarded events. Synchronous mode:
  /// decode + dispatch + apply inline (mutex_ held by the caller). Pipeline
  /// mode: enqueue for the match workers. May throw (decode errors) only in
  /// synchronous mode.
  void process_event(SpaceId space, const std::vector<std::uint8_t>& encoded,
                     BrokerId tree_root) REQUIRES(mutex_);
  /// Applies a dispatch decision: forwards, delivers, accounts.
  void apply_decision(SpaceId space, const std::vector<std::uint8_t>& encoded,
                      BrokerId tree_root, const BrokerCore::Decision& decision)
      REQUIRES(mutex_);
  void worker_loop() EXCLUDES(mutex_, queue_mutex_);
  /// Stages a link frame on the session's egress buffer. The frames queued
  /// during one mutex_ hold MUST be flushed by flush_link_egress() before
  /// the hold ends, or they would interleave out of order with direct
  /// sends from later holds.
  void queue_link_frame(LinkSession& session, std::vector<std::uint8_t> frame)
      REQUIRES(mutex_);
  /// Hands every session's staged egress to the transport as one
  /// send_batch per neighbor (the coalesced writev-style flush).
  void flush_link_egress() REQUIRES(mutex_);
  void deliver_to_client(const std::string& name, ClientRecord& client, SpaceId space,
                         std::vector<std::uint8_t> encoded) REQUIRES(mutex_);
  void sync_subscriptions_to(ConnId conn) REQUIRES(mutex_);
  /// Replays the peer-unseen suffix of the link's forward log and updates
  /// its ack state from the peer's handshake report.
  void replay_forwards_to(LinkSession& session, const wire::HelloBroker& hello)
      REQUIRES(mutex_);
  void send_broker_ack(LinkSession& session) REQUIRES(mutex_);
  void record_tombstone(SubscriptionId id) REQUIRES(mutex_);
  /// Broadcasts a quench update to every connected client when a space
  /// transitions between "has subscribers" and "has none" (Elvin-style
  /// quenching, paper Section 5).
  void maybe_broadcast_quench(SpaceId space, std::size_t count_before) REQUIRES(mutex_);
  void send_quench_state(ConnId conn) REQUIRES(mutex_);
  void propagate_subscription(const wire::SubPropagate& prop, ConnId except) REQUIRES(mutex_);
  void propagate_unsubscription(const wire::UnsubPropagate& prop, ConnId except)
      REQUIRES(mutex_);
  void send_error(ConnId conn, std::uint64_t token, std::string message);

  // Lock order: mutex_ before queue_mutex_ (handlers enqueue while holding
  // mutex_); workers never hold both. Declared to the analysis via
  // ACQUIRED_BEFORE, so an inverted acquisition is a compile error.
  mutable Mutex mutex_ ACQUIRED_BEFORE(queue_mutex_);
  BrokerCore core_;
  Transport* transport_;
  Options options_;
  std::uint64_t session_epoch_;
  std::unordered_map<ConnId, ConnState> conns_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::unique_ptr<ClientRecord>> clients_ GUARDED_BY(mutex_);
  std::unordered_map<SubscriptionId, std::string> local_sub_client_ GUARDED_BY(mutex_);
  std::unordered_map<SubscriptionId, SpaceId> local_sub_space_ GUARDED_BY(mutex_);
  std::unordered_map<BrokerId, LinkSession> links_ GUARDED_BY(mutex_);
  std::unordered_set<SubscriptionId> tombstones_ GUARDED_BY(mutex_);
  std::deque<SubscriptionId> tombstone_fifo_ GUARDED_BY(mutex_);
  std::uint64_t next_sub_counter_ GUARDED_BY(mutex_){1};
  // Replication state. standby_ flips exactly once (promote); session_epoch_
  // is non-const only because a standby adopts the primary's epoch from the
  // snapshot (identity takeover includes the epoch).
  bool standby_ GUARDED_BY(mutex_){false};
  bool repl_enabled_ GUARDED_BY(mutex_){false};    // primary: log mutations
  ReplicaSession replica_ GUARDED_BY(mutex_);      // primary -> standby stream
  ConnId repl_conn_ GUARDED_BY(mutex_){kInvalidConn};  // standby: link to primary
  std::uint64_t repl_applied_seq_ GUARDED_BY(mutex_){0};  // standby cursor
  Ticks repl_last_recv_ GUARDED_BY(mutex_){0};     // standby: primary liveness
  bool repl_attached_ GUARDED_BY(mutex_){false};   // standby: ever attached
  Stats stats_ GUARDED_BY(mutex_);
  /// Batch context for the synchronous (match_threads == 0) path, so the
  /// deterministic mode exercises the same batch-first dispatch API as the
  /// worker pipeline. Workers own their own per-thread batches.
  DispatchBatch sync_batch_ GUARDED_BY(mutex_);
  std::chrono::steady_clock::time_point epoch_{std::chrono::steady_clock::now()};

  // Match-worker pipeline.
  Mutex queue_mutex_;
  std::condition_variable queue_cv_;  // work available / stopping
  std::condition_variable done_cv_;   // pipeline drained
  std::deque<PendingEvent> queue_ GUARDED_BY(queue_mutex_);
  std::size_t unfinished_events_ GUARDED_BY(queue_mutex_){0};  // queued + dispatching
  bool stop_ GUARDED_BY(queue_mutex_){false};
  std::vector<std::thread> workers_;
};

}  // namespace gryphon
