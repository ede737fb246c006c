#ifndef STREAMASP_SERVER_BROKER_H_
#define STREAMASP_SERVER_BROKER_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>

#include "server/server.h"
#include "server/wire.h"

namespace streamasp {

/// The server end of one connection: parses wire-protocol request
/// payloads, drives the StreamServer, and pushes reply/event payloads
/// back through `send`. One broker per connection; HandleRequest must be
/// serialized by the caller (the transport's reader thread), but `send`
/// is called both from HandleRequest (replies) and from session engine
/// threads (subscription events) — the broker serializes those itself,
/// so `send` never runs concurrently with itself.
///
/// The broker owns the sessions this connection opened: its destructor
/// closes (drains) any still-open ones, which is what gives a dropped
/// TCP connection or a destroyed in-proc transport clean teardown under
/// in-flight windows.
class SessionBroker {
 public:
  using SendFn = std::function<void(std::string payload)>;

  SessionBroker(StreamServer* server, SendFn send);

  /// Closes every session this connection opened (draining in-flight
  /// windows). No sends happen after the destructor returns.
  ~SessionBroker();

  SessionBroker(const SessionBroker&) = delete;
  SessionBroker& operator=(const SessionBroker&) = delete;

  /// Handles one request payload, sending exactly one reply (events may
  /// interleave before it, never inside it).
  void HandleRequest(std::string_view payload);

 private:
  void HandleOpen(WireRequest request);
  void HandlePush(const std::string& name, std::string_view body);
  void Send(std::string payload);

  StreamServer* const server_;
  SendFn send_;
  std::mutex send_mutex_;

  /// Names of the sessions opened over this connection and not yet
  /// closed through it.
  std::mutex owned_mutex_;
  std::unordered_set<std::string> owned_;
};

}  // namespace streamasp

#endif  // STREAMASP_SERVER_BROKER_H_
