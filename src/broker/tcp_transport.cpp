#include "broker/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "common/logging.h"

namespace gryphon {

namespace {

// Senders gather adjacent queued packets into one socket write up to this
// many bytes.
constexpr std::size_t kGatherBytes = 64u * 1024;

constexpr std::size_t kSenderThreads = 2;

// A size prefix above this is protocol corruption: the connection drops.
constexpr std::uint32_t kMaxFrameBytes = 16u * 1024 * 1024;

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

bool write_all(int fd, const std::uint8_t* buffer, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, buffer + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Length-prefix framing: u32 little-endian size, then the frame bytes.
std::vector<std::uint8_t> frame_packet(const std::vector<std::uint8_t>& frame) {
  std::vector<std::uint8_t> packet;
  packet.reserve(frame.size() + 4);
  const auto size = static_cast<std::uint32_t>(frame.size());
  packet.push_back(static_cast<std::uint8_t>(size));
  packet.push_back(static_cast<std::uint8_t>(size >> 8));
  packet.push_back(static_cast<std::uint8_t>(size >> 16));
  packet.push_back(static_cast<std::uint8_t>(size >> 24));
  packet.insert(packet.end(), frame.begin(), frame.end());
  return packet;
}

}  // namespace

TcpTransport::TcpTransport(TransportHandler& handler) : handler_(&handler) {
  for (std::size_t i = 0; i < kSenderThreads; ++i) {
    senders_.emplace_back([this] { sender_loop(); });
  }
}

TcpTransport::~TcpTransport() { shutdown(); }

std::uint16_t TcpTransport::listen(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("TcpTransport: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("TcpTransport: bind() failed");
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("TcpTransport: listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  {
    MutexLock lock(mutex_);
    listen_fds_.push_back(fd);
  }
  acceptors_.emplace_back([this, fd] { accept_loop(fd); });
  return ntohs(addr.sin_port);
}

ConnId TcpTransport::connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("TcpTransport: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("TcpTransport: bad host address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("TcpTransport: connect() failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return register_fd(fd);
}

ConnId TcpTransport::register_fd(int fd) {
  MutexUniqueLock lock(mutex_);
  const ConnId id = next_conn_++;
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  Conn& raw = *conn;
  conn->reader = std::thread([this, id, &raw] { reader_loop(id, raw); });
  conns_.emplace(id, std::move(conn));
  return id;
}

void TcpTransport::accept_loop(int listen_fd) {
  while (true) {
    int fd;
    {
      MutexLock lock(mutex_);
      if (stopping_) return;
      fd = listen_fd;
    }
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    const int accepted = ::accept(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    if (accepted < 0) {
      MutexLock lock(mutex_);
      if (stopping_) return;
      continue;
    }
    const int one = 1;
    ::setsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const ConnId id = register_fd(accepted);
    handler_->on_connect(id);
  }
}

void TcpTransport::reader_loop(ConnId id, Conn& conn) {
  const int fd = conn.fd;
  // Not value-initialized: a page is touched only once a read reaches it.
  std::size_t capacity = kReadBufferBytes;
  auto buffer = std::make_unique_for_overwrite<std::uint8_t[]>(capacity);
  std::size_t end = 0;  // bytes [0, end) are received but not yet handed out
  while (true) {
    const ssize_t n = ::recv(fd, buffer.get() + end, capacity - end, 0);
    if (n <= 0) break;
    end += static_cast<std::size_t>(n);
    // Hand every complete frame to the handler, straight out of the buffer.
    std::size_t begin = 0;
    std::uint32_t size = 0;  // size prefix of the partial frame at `begin`, if known
    bool bad = false;
    while (end - begin >= 4 && !conn.closed) {
      size = read_u32(buffer.get() + begin);
      if (size == 0 || size > kMaxFrameBytes) {
        GRYPHON_WARN("tcp") << "conn " << id << ": bad frame size " << size;
        bad = true;
        break;
      }
      if (end - begin - 4 < size) break;  // partial frame: wait for the rest
      handler_->on_frame(id, std::span<const std::uint8_t>(buffer.get() + begin + 4, size));
      begin += 4 + static_cast<std::size_t>(size);
      size = 0;
    }
    if (bad || conn.closed) break;
    // Keep the partial tail at the front. A frame larger than the default
    // buffer gets a buffer exactly its size; once it is handed out (the
    // tail is then empty or a new frame) the buffer returns to the default.
    const std::size_t tail = end - begin;
    if (begin != 0 && tail != 0) std::memmove(buffer.get(), buffer.get() + begin, tail);
    end = tail;
    const std::size_t want = std::max(kReadBufferBytes, std::size_t{4} + size);
    if (capacity != want) {
      auto resized = std::make_unique_for_overwrite<std::uint8_t[]>(want);
      std::memcpy(resized.get(), buffer.get(), tail);
      buffer = std::move(resized);
      capacity = want;
      conn.read_buffer_bytes = want;
    }
  }
  bool notify;
  {
    MutexUniqueLock lock(mutex_);
    const auto it = conns_.find(id);
    notify = it != conns_.end() && !it->second->closed && !stopping_;
    if (it != conns_.end()) {
      it->second->closed = true;
      ::shutdown(it->second->fd, SHUT_RDWR);
    }
  }
  if (notify) handler_->on_disconnect(id);
}

std::size_t TcpTransport::read_buffer_bytes(ConnId conn) const {
  MutexLock lock(mutex_);
  const auto it = conns_.find(conn);
  return it == conns_.end() ? 0 : it->second->read_buffer_bytes.load();
}

bool TcpTransport::mark_dirty(ConnId id, Conn& conn) {
  if (conn.draining) return false;  // its sender re-checks the queue before letting go
  conn.draining = true;
  dirty_.push_back(id);
  return true;
}

void TcpTransport::send(ConnId conn, std::vector<std::uint8_t> frame) {
  std::vector<std::uint8_t> packet = frame_packet(frame);
  bool wake;
  {
    MutexLock lock(mutex_);
    const auto it = conns_.find(conn);
    if (it == conns_.end() || it->second->closed) return;  // silent drop, by contract
    it->second->outgoing.push_back(std::move(packet));
    wake = mark_dirty(conn, *it->second);
  }
  if (wake) send_cv_.notify_one();
}

void TcpTransport::send_batch(ConnId conn, std::vector<std::vector<std::uint8_t>> frames) {
  if (frames.empty()) return;
  // Frame the packets outside the lock and enqueue them all under one lock
  // hold.
  std::vector<std::vector<std::uint8_t>> packets;
  packets.reserve(frames.size());
  for (const std::vector<std::uint8_t>& frame : frames) packets.push_back(frame_packet(frame));
  bool wake;
  {
    MutexLock lock(mutex_);
    const auto it = conns_.find(conn);
    if (it == conns_.end() || it->second->closed) return;  // silent drop, by contract
    for (std::vector<std::uint8_t>& packet : packets) {
      it->second->outgoing.push_back(std::move(packet));
    }
    wake = mark_dirty(conn, *it->second);
  }
  if (wake) send_cv_.notify_one();
}

void TcpTransport::sender_loop() {
  MutexUniqueLock lock(mutex_);
  while (true) {
    while (!stopping_ && dirty_.empty()) send_cv_.wait(lock.native());
    if (stopping_) return;
    const ConnId id = dirty_.front();
    dirty_.pop_front();
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn& conn = *it->second;
    // Drain this connection's queue; `draining` keeps other senders off it
    // so frame order is preserved. Adjacent queued packets are gathered
    // into one buffer (up to kGatherBytes) so a batch flush reaches the
    // socket as a single write instead of one syscall per frame — every
    // packet already carries its own length prefix, so the receiver's
    // framing is unaffected by how writes are grouped.
    std::vector<std::uint8_t> gather;
    while (!conn.outgoing.empty() && !conn.closed) {
      gather.clear();
      gather.swap(conn.outgoing.front());
      conn.outgoing.pop_front();
      while (!conn.outgoing.empty() &&
             gather.size() + conn.outgoing.front().size() <= kGatherBytes) {
        const std::vector<std::uint8_t>& next = conn.outgoing.front();
        gather.insert(gather.end(), next.begin(), next.end());
        conn.outgoing.pop_front();
      }
      const int fd = conn.fd;
      lock.unlock();
      const bool ok = write_all(fd, gather.data(), gather.size());
      lock.lock();
      if (!ok) {
        conn.closed = true;
        ::shutdown(conn.fd, SHUT_RDWR);  // reader observes and reports
        break;
      }
    }
    conn.draining = false;
  }
}

void TcpTransport::close(ConnId conn) {
  MutexLock lock(mutex_);
  close_locked(conn);
}

void TcpTransport::close_locked(ConnId id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  it->second->closed = true;
  ::shutdown(it->second->fd, SHUT_RDWR);
}

void TcpTransport::shutdown() {
  std::vector<std::thread> readers;
  {
    MutexUniqueLock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    for (const int fd : listen_fds_) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
    listen_fds_.clear();
    for (auto& [id, conn] : conns_) {
      (void)id;
      conn->closed = true;
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  send_cv_.notify_all();
  for (std::thread& t : senders_) {
    if (t.joinable()) t.join();
  }
  for (std::thread& t : acceptors_) {
    if (t.joinable()) t.join();
  }
  {
    MutexUniqueLock lock(mutex_);
    for (auto& [id, conn] : conns_) {
      (void)id;
      readers.push_back(std::move(conn->reader));
    }
  }
  for (std::thread& t : readers) {
    if (t.joinable()) t.join();
  }
  MutexUniqueLock lock(mutex_);
  for (auto& [id, conn] : conns_) {
    (void)id;
    ::close(conn->fd);
  }
  conns_.clear();
}

}  // namespace gryphon
