#ifndef STREAMASP_SERVER_SESSION_H_
#define STREAMASP_SERVER_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "asp/program.h"
#include "streamrule/engine.h"
#include "util/status.h"

namespace streamasp {

/// Lifecycle of a stream session.
///
///   kRunning ──Close()──► kDraining ──(engine flushed)──► kClosed
///
/// Push/Flush are accepted in kRunning only; Close is idempotent from any
/// state and safe under in-flight windows (it drains what was admitted —
/// every admitted batch is windowed, reasoned, and delivered before the
/// session reports kClosed).
enum class SessionState { kRunning, kDraining, kClosed };

constexpr const char* SessionStateName(SessionState state) {
  switch (state) {
    case SessionState::kRunning:
      return "running";
    case SessionState::kDraining:
      return "draining";
    case SessionState::kClosed:
      return "closed";
  }
  return "unknown";
}

/// One delivery of a session's ordered emission stream: the engine's
/// EmissionEvent plus the session context a multi-tenant consumer needs
/// to route and render it. Delivered by whichever thread completes the
/// session's next window in order — a pool thread finishing a lane task,
/// or the pushing thread when it sheds one — one at a time, in strictly
/// increasing session_sequence order; the handler must not call back into
/// the session.
struct SessionEvent {
  /// The session's name (stable for the session's lifetime).
  const std::string& session;
  /// Per-session emission counter, contiguous from 0 across all kinds.
  uint64_t session_sequence;
  /// The session's symbol table — what renders this event's answers.
  const SymbolTable& symbols;
  /// The underlying ordered emission (result | error | shed). Owned by
  /// the delivering thread; contents may be stolen.
  EmissionEvent& event;
};

using SessionEventHandler = std::function<void(const SessionEvent&)>;

/// Everything a client registers a session with: the program text and
/// the engine spec.
struct SessionOptions {
  /// ASP program source, parsed against the session's private symbol
  /// table (sessions share no symbols — full tenant isolation).
  std::string program_text;

  /// Engine shape and tuning (streamrule/engine.h): window geometry,
  /// bucket bound, reuse flags, and the session's admission control on
  /// its pool lane — backpressure (kBlock or shed by kReject /
  /// kDropOldest), pool_weight (its DRR share of the server's shared
  /// pool), pool_max_inflight (its cap on running lane tasks) and
  /// max_queued_windows (its window quota). pipeline.async is forced on
  /// and, under a StreamServer, pipeline.shared_pool is the server's.
  EngineConfig engine;
};

/// Point-in-time view of a session (SessionStats from stats(), safe from
/// any thread).
struct SessionStats {
  SessionState state = SessionState::kRunning;
  uint64_t pushed_batches = 0;
  uint64_t pushed_items = 0;
  /// Emissions delivered to the event handler, by kind.
  uint64_t result_events = 0;
  uint64_t error_events = 0;
  uint64_t shed_events = 0;
  /// The engine's unified snapshot.
  EngineStats engine;

  uint64_t events() const {
    return result_events + error_events + shed_events;
  }
};

/// One named, single-tenant stream session: a private symbol table, a
/// parsed program, and an async StreamEngine whose windows are tasks on
/// one DRR lane of a reasoner pool (the server's shared pool, or a
/// private one for a session created outside a server). Clients push
/// triple batches and subscribe to the ordered SessionEvent stream.
///
/// Push and Flush run the engine on the calling thread, one caller at a
/// time: an async PushBatch only windows and enqueues, so the caller
/// never reasons and the session costs no thread of its own. A full
/// window queue blocks the caller under kBlock backpressure and sheds the
/// window (counted, tombstoned) under kReject.
///
/// Thread-safety: Push/Flush/Close/stats from any thread, concurrently.
/// The event handler must not call back into the session (the thread
/// delivering it may hold the session's ingest lock).
class StreamSession {
 public:
  /// Parses the program and builds the engine. Fails on an
  /// unparsable/invalid program or options the engine validator rejects.
  static StatusOr<std::unique_ptr<StreamSession>> Create(
      std::string name, SessionOptions options, SessionEventHandler handler);

  /// Closes (drains) the session.
  ~StreamSession();

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  /// Windows one batch into the engine. Returns kFailedPrecondition when
  /// the session is not running.
  Status Push(std::vector<Triple> batch);

  /// Live barrier: blocks until everything pushed before this call has
  /// been windowed, reasoned, and delivered (the trailing partial window
  /// included). The session remains running. kFailedPrecondition when
  /// not running.
  Status Flush();

  /// Drains and closes: stops admission (kDraining), waits out any
  /// Push or Flush in progress, flushes the engine end-of-stream, then
  /// reports kClosed. Idempotent and thread-safe — concurrent and
  /// repeated calls all return after the session is closed.
  void Close();

  SessionState state() const;
  SessionStats stats() const;

  const std::string& name() const { return name_; }
  /// The session's private symbol table (what ParseTripleLine and event
  /// rendering use). Thread-safe by SymbolTable's own contract.
  SymbolTable& symbols() { return *symbols_; }
  const Program& program() const { return *program_; }

 private:
  StreamSession(std::string name, SessionEventHandler handler);

  Status Init(SessionOptions options);
  /// kFailedPrecondition unless the session is running.
  Status CheckRunning() const;
  /// Runs one engine call, logging instead of propagating an exception
  /// (an event handler that throws on the pushing thread) so the session
  /// outlives it.
  template <typename Fn>
  void RunGuarded(const char* what, Fn&& fn);
  /// The engine's emission handler: wraps events with session context.
  void OnEmission(EmissionEvent& event);

  const std::string name_;
  SessionEventHandler handler_;

  SymbolTablePtr symbols_;
  std::unique_ptr<Program> program_;
  std::unique_ptr<StreamEngine> engine_;

  /// Serializes Push, Flush and the close-time flush: the engine takes
  /// one caller at a time. Taken before state_mutex_.
  std::mutex ingest_mutex_;

  mutable std::mutex state_mutex_;
  SessionState state_ = SessionState::kRunning;
  std::condition_variable closed_cv_;
  bool close_started_ = false;

  std::atomic<uint64_t> pushed_batches_{0};
  std::atomic<uint64_t> pushed_items_{0};
  std::atomic<uint64_t> result_events_{0};
  std::atomic<uint64_t> error_events_{0};
  std::atomic<uint64_t> shed_events_{0};
  std::atomic<uint64_t> next_event_sequence_{0};
};

}  // namespace streamasp

#endif  // STREAMASP_SERVER_SESSION_H_
