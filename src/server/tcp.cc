#include "server/tcp.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "server/broker.h"
#include "server/wire.h"
#include "util/logging.h"

namespace streamasp {

namespace {

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return InternalError(std::string("fcntl(O_NONBLOCK): ") +
                         std::strerror(errno));
  }
  return OkStatus();
}

}  // namespace

/// One accepted client: its non-blocking socket, the broker serving it,
/// and the frame decoder reassembling requests from the read stream.
/// Reads happen only on the event-loop thread; writes (replies and
/// subscription events) come from whichever thread produced them,
/// serialized by write_mutex_.
struct TcpServer::Connection {
  int fd = -1;
  FrameDecoder decoder;
  std::unique_ptr<SessionBroker> broker;

  std::mutex write_mutex_;
  bool write_failed = false;

  /// Sends one framed payload; after the first failure the connection
  /// goes write-dead (the loop notices EOF/reset and tears down). The
  /// socket is non-blocking, so a full send buffer (EAGAIN) briefly
  /// parks this writer in poll(POLLOUT) — writers are reasoner-pool
  /// threads delivering session events, or the loop thread replying to a
  /// request (and delivering the events a shedding push completes), and
  /// the payloads are small, so the wait is bounded by the client
  /// draining.
  void SendFramed(const std::string& payload) {
    const std::string frame = EncodeFrame(payload);
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (write_failed) return;
    size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd writable{};
        writable.fd = fd;
        writable.events = POLLOUT;
        if (::poll(&writable, 1, /*timeout_ms=*/1000) > 0) continue;
        // A client that drains nothing for a full second is treated as a
        // slow-consumer failure rather than blocking the writer forever.
        write_failed = true;
        return;
      }
      write_failed = true;
      return;
    }
  }
};

TcpServer::TcpServer(StreamServer* server, Options options)
    : server_(server), options_(options) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_) return FailedPreconditionError("TcpServer already started");
    started_ = true;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return InternalError(std::string("socket: ") + std::strerror(errno));
  }
  int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return InternalError("bind: " + error);
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return InternalError("listen: " + error);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return InternalError("getsockname: " + error);
  }
  port_ = ntohs(bound.sin_port);
  Status status = SetNonBlocking(listen_fd_);
  if (status.ok()) status = loop_.Watch(listen_fd_, [this] { OnAcceptable(); });
  if (status.ok()) status = loop_.Start();
  if (!status.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  return OkStatus();
}

size_t TcpServer::num_connections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return connections_.size();
}

void TcpServer::OnAcceptable() {
  // Level-triggered: drain the accept queue so one wakeup admits every
  // pending client.
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (queue drained) or listener shut down.
    }
    bool at_capacity;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      at_capacity =
          stopping_ || connections_.size() >= options_.max_connections;
    }
    if (at_capacity || !SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    connection->broker = std::make_unique<SessionBroker>(
        server_, [connection_raw = connection.get()](std::string payload) {
          connection_raw->SendFramed(payload);
        });
    {
      std::lock_guard<std::mutex> lock(mutex_);
      connections_.emplace(fd, connection);
    }
    Status watched =
        loop_.Watch(fd, [this, connection] { OnReadable(connection); });
    if (!watched.ok()) {
      STREAMASP_LOG(kWarning)
          << "tcp connection rejected: " << watched.ToString();
      TeardownConnection(connection);
    }
  }
}

void TcpServer::OnReadable(const std::shared_ptr<Connection>& connection) {
  // Level-triggered: drain the socket so one wakeup consumes everything
  // buffered, then dispatch each complete frame inline, as a view into
  // the decoder's buffer (valid until the next Feed).
  char buffer[16384];
  for (;;) {
    const ssize_t n = ::recv(connection->fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) {
      TeardownConnection(connection);  // EOF or fatal error.
      return;
    }
    connection->decoder.Feed(std::string_view(buffer, static_cast<size_t>(n)));
    std::string_view payload;
    while (connection->decoder.Next(&payload)) {
      connection->broker->HandleRequest(payload);
    }
    if (!connection->decoder.status().ok()) {
      STREAMASP_LOG(kWarning) << "tcp connection dropped: "
                              << connection->decoder.status().ToString();
      TeardownConnection(connection);
      return;
    }
  }
}

void TcpServer::TeardownConnection(
    const std::shared_ptr<Connection>& connection) {
  loop_.Unwatch(connection->fd);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections_.erase(connection->fd);
  }
  // Destroying the broker drains this connection's sessions; their final
  // emissions still flow through SendFramed (which no-ops once the peer
  // is gone and the first send fails).
  connection->broker.reset();
  ::shutdown(connection->fd, SHUT_RDWR);
  ::close(connection->fd);
}

void TcpServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_ || stopping_) return;
    stopping_ = true;
  }
  // Stop the loop first: afterwards no handler runs, so this thread owns
  // every connection and may Unwatch/teardown freely (the EventLoop
  // contract allows Watch/Unwatch while the loop is not running).
  loop_.Stop();
  std::vector<std::shared_ptr<Connection>> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    doomed.reserve(connections_.size());
    for (auto& [fd, connection] : connections_) doomed.push_back(connection);
    connections_.clear();
  }
  for (auto& connection : doomed) {
    loop_.Unwatch(connection->fd);
    connection->broker.reset();  // Drains the connection's sessions.
    ::shutdown(connection->fd, SHUT_RDWR);
    ::close(connection->fd);
  }
  if (listen_fd_ >= 0) {
    loop_.Unwatch(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace streamasp
