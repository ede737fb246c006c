#ifndef STREAMASP_SERVER_SERVER_H_
#define STREAMASP_SERVER_SERVER_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "server/session.h"
#include "stream/transport.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace streamasp {

/// Server-wide tenancy limits and the shared reasoning substrate.
struct ServerConfig {
  /// Bound on concurrently open sessions; CreateSession refuses beyond
  /// it with kResourceExhausted.
  size_t max_sessions = 64;

  /// Workers (>= 1) in the process-wide SharedReasonerPool every
  /// session's reasoning runs on, scheduled by weighted deficit
  /// round-robin across per-session lanes (util/thread_pool.h). A window's
  /// partitions are separate lane tasks that fan out and continue — no
  /// pool task ever waits for another, so the pool needs no spare
  /// threads. The default sizes the pool to the machine, making total
  /// reasoning threads O(hardware) instead of O(sessions).
  size_t shared_pool_threads = DefaultThreadCount();
};

/// Structural validation of ServerConfig with table-testable messages.
Status ValidateServerConfig(const ServerConfig& config);

/// The multi-tenant front end: a named-session registry over shared
/// reasoner resources. Transports call CreateSession/FindSession/
/// CloseSession; each session runs its own engine and symbol table on
/// its own lane of the shared pool, isolated from its siblings except
/// for CPU.
///
/// Sessions are handed out as shared_ptr so a connection can keep
/// pushing into a session another thread is concurrently closing — the
/// session object outlives registry removal and refuses cleanly.
///
/// Thread-safe throughout.
class StreamServer {
 public:
  /// A config rejected by ValidateServerConfig is corrected to the
  /// nearest valid value (max_sessions 0 -> 1, shared_pool_threads 0 ->
  /// 1) so a default-constructed server is always usable; callers wanting
  /// the error surface validate first.
  explicit StreamServer(ServerConfig config = {});

  /// Closes every remaining session.
  ~StreamServer();

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Registers and starts a session as a lane on the shared pool (its
  /// pipeline.shared_pool is set to the server's). kInvalidArgument on a
  /// duplicate name, kResourceExhausted at max_sessions; otherwise
  /// whatever StreamSession::Create reports (parse/validation failures).
  StatusOr<std::shared_ptr<StreamSession>> CreateSession(
      std::string name, SessionOptions options, SessionEventHandler handler);

  /// kNotFound when no session has this name.
  StatusOr<std::shared_ptr<StreamSession>> FindSession(
      const std::string& name) const;

  /// Removes the session from the registry and drains it (blocking until
  /// kClosed). kNotFound when absent — a second CloseSession of the same
  /// name reports kNotFound while the first blocks in Close(), which is
  /// the idempotence transports want.
  Status CloseSession(const std::string& name);

  /// Closes every open session (registry order is unspecified; each
  /// close drains fully).
  void CloseAll();

  std::vector<std::string> session_names() const;
  size_t num_sessions() const;
  const ServerConfig& config() const { return config_; }

  /// The process-wide reasoning pool every session is scheduled on.
  const std::shared_ptr<SharedReasonerPool>& shared_pool() const {
    return pool_;
  }

  /// Opens an in-process connection speaking the wire protocol
  /// (src/server/wire.h) against this server — the same code path the
  /// TCP transport drives, minus the socket. Defined in broker.cc.
  std::unique_ptr<SessionTransport> Connect();

 private:
  const ServerConfig config_;
  /// Outlives every session: sessions hold it by shared_ptr through
  /// their pipeline options, so late session teardown stays safe even if
  /// the server dies first.
  std::shared_ptr<SharedReasonerPool> pool_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<StreamSession>> sessions_;
};

}  // namespace streamasp

#endif  // STREAMASP_SERVER_SERVER_H_
