// TCP/IP transport.
//
// Frames are length-prefixed (u32 little-endian, then the frame bytes).
// Sending is asynchronous, exactly as the paper describes (Section 4.2):
// send() enqueues the frame on the connection's outgoing queue and returns;
// a pool of two sending threads monitors the queues and drains them to the
// sockets. A sender is woken only when a connection becomes dirty (its
// queue goes from idle to non-empty); frames queued while a sender already
// owns the connection are picked up by that sender, which re-checks the
// queue under the lock before it lets go. Adjacent queued packets are
// gathered into one socket write.
//
// One reader thread per connection parses inbound frames with buffered
// framing: each recv() reads up to kReadBufferBytes into a per-connection
// buffer, every complete frame in it is handed to on_frame as a span into
// that buffer, and a partial tail waits for the next read. A frame larger
// than the buffer grows it while the frame is assembled; the buffer goes
// back to the default size afterwards. A size prefix of 0 or above 16 MiB
// is protocol corruption and drops the connection. An acceptor thread
// serves the listening socket.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "broker/transport.h"
#include "common/mutex.h"

namespace gryphon {

class TcpTransport final : public Transport {
 public:
  /// Default size of each connection's receive buffer: the most one recv()
  /// asks for unless a larger frame is being assembled.
  static constexpr std::size_t kReadBufferBytes = 64u * 1024;

  explicit TcpTransport(TransportHandler& handler);
  ~TcpTransport() override;

  /// Starts listening on 127.0.0.1:`port` (0 picks an ephemeral port).
  /// Returns the bound port. Throws std::runtime_error on failure.
  /// May be called more than once to serve several ports from one
  /// transport (each gets its own acceptor thread; connections share the
  /// ConnId space) — brokerd uses a second port to keep replication
  /// traffic off the client/broker endpoint.
  std::uint16_t listen(std::uint16_t port);

  /// Dials host:port; returns the connection id. Throws on failure.
  ConnId connect(const std::string& host, std::uint16_t port);

  void send(ConnId conn, std::vector<std::uint8_t> frame) override;
  /// Enqueues every frame under one queue lock (waking a sender only if the
  /// connection was idle), so a coalesced flush costs one lock round-trip
  /// instead of one per frame. The sender side then gathers adjacent queued
  /// packets into a single socket write (see sender_loop).
  void send_batch(ConnId conn, std::vector<std::vector<std::uint8_t>> frames) override;
  void close(ConnId conn) override;

  /// Current size of the connection's receive buffer (0 for an unknown
  /// connection): kReadBufferBytes, except while a larger frame is being
  /// assembled. Lets tests observe that the buffer shrinks back.
  [[nodiscard]] std::size_t read_buffer_bytes(ConnId conn) const EXCLUDES(mutex_);

  /// Stops the acceptor, closes every connection, joins all threads.
  /// Called by the destructor; safe to call twice.
  void shutdown();

 private:
  struct Conn {
    int fd{-1};
    std::deque<std::vector<std::uint8_t>> outgoing;
    bool draining{false};  // a sender thread currently owns this queue
    /// Set under mutex_; the reader also polls it between buffered frames
    /// so nothing after a close reaches the handler.
    std::atomic<bool> closed{false};
    std::atomic<std::size_t> read_buffer_bytes{kReadBufferBytes};  // set by the reader
    std::thread reader;
  };

  ConnId register_fd(int fd) EXCLUDES(mutex_);
  /// `conn` stays valid until shutdown() has joined this reader.
  void reader_loop(ConnId id, Conn& conn) EXCLUDES(mutex_);
  /// Hands a connection with freshly queued packets to the senders. True
  /// when it was idle and is now on dirty_ (the caller wakes one sender);
  /// false when a sender already owns it and will drain the new packets.
  bool mark_dirty(ConnId id, Conn& conn) REQUIRES(mutex_);
  void sender_loop() EXCLUDES(mutex_);
  void accept_loop(int listen_fd) EXCLUDES(mutex_);
  void close_locked(ConnId id) REQUIRES(mutex_);

  TransportHandler* handler_;

  mutable Mutex mutex_;
  std::condition_variable send_cv_;
  std::unordered_map<ConnId, std::unique_ptr<Conn>> conns_ GUARDED_BY(mutex_);
  std::deque<ConnId> dirty_ GUARDED_BY(mutex_);  // connections with queued frames
  ConnId next_conn_ GUARDED_BY(mutex_){1};
  bool stopping_ GUARDED_BY(mutex_){false};

  std::vector<int> listen_fds_ GUARDED_BY(mutex_);
  std::vector<std::thread> acceptors_;
  std::vector<std::thread> senders_;
};

}  // namespace gryphon
