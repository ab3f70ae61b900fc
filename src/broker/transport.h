// Transport abstraction (paper Section 4.2, Figure 7).
//
// "The transport layer sends and receives messages to and from clients and
// other brokers in the network." Sends are asynchronous: implementations
// enqueue the frame and return immediately (the TCP transport drains the
// per-connection queues with a pool of sending threads, exactly as the
// paper describes, waking a sender only when a connection's queue goes
// from idle to dirty).
//
// Two implementations:
//  * InProcTransport — deterministic in-process message passing for tests
//    and examples (frames pumped explicitly);
//  * TcpTransport    — real TCP/IP with length-prefixed frames and buffered
//    framing: one recv() can carry many frames, each handed to on_frame as
//    a span into the connection's receive buffer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gryphon {

/// Transport-level connection handle; unique within one Transport.
using ConnId = std::int64_t;
inline constexpr ConnId kInvalidConn = -1;

/// Callbacks a transport delivers to its owner (a broker or a client).
/// Implementations must tolerate calls from transport-internal threads.
class TransportHandler {
 public:
  virtual ~TransportHandler() = default;
  /// A new inbound connection was accepted.
  virtual void on_connect(ConnId conn) = 0;
  /// One whole frame arrived. `frame` is valid only for the duration of
  /// the call (the TCP transport points it into its receive buffer).
  virtual void on_frame(ConnId conn, std::span<const std::uint8_t> frame) = 0;
  /// The connection is gone (peer close or failure). `conn` is dead.
  virtual void on_disconnect(ConnId conn) = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Enqueues one frame for asynchronous delivery. Frames on one connection
  /// preserve order. Sending on a dead connection is a silent no-op (the
  /// disconnect callback governs cleanup).
  virtual void send(ConnId conn, std::vector<std::uint8_t> frame) = 0;

  /// Enqueues a group of frames for one connection as a single flush.
  /// Ordering is exactly `send` called per frame in sequence; the batch
  /// form lets implementations amortize queue locking and coalesce the
  /// frames into one writev-style wire write (each frame keeps its own
  /// length prefix, so receiver framing is unchanged). The default is the
  /// per-frame loop — decorators (fault injection) and deterministic test
  /// transports inherit per-frame semantics unchanged.
  virtual void send_batch(ConnId conn, std::vector<std::vector<std::uint8_t>> frames) {
    for (std::vector<std::uint8_t>& frame : frames) send(conn, std::move(frame));
  }

  /// Closes the connection; the peer observes a disconnect.
  virtual void close(ConnId conn) = 0;

 protected:
  Transport() = default;
};

}  // namespace gryphon
