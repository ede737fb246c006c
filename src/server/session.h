#ifndef STREAMASP_SERVER_SESSION_H_
#define STREAMASP_SERVER_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "asp/program.h"
#include "streamrule/engine.h"
#include "util/bounded_queue.h"
#include "util/status.h"

namespace streamasp {

/// Lifecycle of a stream session.
///
///   kRunning ──Close()──► kDraining ──(queue drained, engine flushed)──►
///   kClosed
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
/// to route and render it. Delivered from the session's engine thread
/// (pump, emitter, or merge — one at a time, in strictly increasing
/// session_sequence order); the handler must not call back into the
/// session.
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
/// the engine spec, plus the session's own admission control.
struct SessionOptions {
  /// ASP program source, parsed against the session's private symbol
  /// table (sessions share no symbols — full tenant isolation).
  std::string program_text;

  /// Engine shape and tuning (streamrule/engine.h): window geometry,
  /// bucket bound, async staging, reuse flags, backpressure, admission
  /// filter.
  EngineConfig engine;

  /// Bound on batches queued between Push and the session's pump
  /// — the per-session admission budget.
  size_t ingest_queue_capacity = 16;

  /// What Push does when the session is saturated (the ingest queue is
  /// at capacity): kBlock backpressures the caller (lossless); kReject
  /// refuses the batch with kResourceExhausted so one tenant's overload
  /// never blocks the transport thread serving others. kDropOldest is
  /// rejected at Create — silently dropping accepted batches would break
  /// the session's at-most-once-refusal accounting. On an async engine
  /// (inline pump), kReject additionally switches the engine's window
  /// queue to rejecting backpressure, so saturation sheds windows
  /// (counted, tombstoned) rather than blocking the pushing transport
  /// thread.
  BackpressurePolicy admission = BackpressurePolicy::kBlock;

  /// DRR weight of this session on the server's shared reasoner pool
  /// (>= 1): its share of reasoning dispatch slots while contending with
  /// other sessions. Every partition of a window is one task and costs
  /// one slot. Ignored (but still validated) when the session runs on
  /// a private pool instead of the shared one.
  size_t weight = 1;

  /// Cap on this session's concurrently running tasks (windows and their
  /// partitions) on its pool, shared or private (async engines only). 0
  /// picks the engine default (min(max_inflight_windows, pool threads)
  /// on the shared pool, every thread of a private one).
  size_t max_inflight = 0;

  /// Per-session window quota (async engines only): when > 0, a window
  /// closing while this many are already admitted-but-undelivered is
  /// shed at the ingest boundary — counted and tombstoned — instead of
  /// queued, bounding the session's buffered reasoning debt regardless
  /// of backpressure policy.
  size_t max_queued_windows = 0;
};

/// Structural validation of SessionOptions, applied by Create before any
/// engine is built. Returns kInvalidArgument with a table-testable
/// message; the engine validator catches the deeper pipeline rules.
Status ValidateSessionOptions(const SessionOptions& options);

/// Point-in-time view of a session (SessionStats from stats(), safe from
/// any thread).
struct SessionStats {
  SessionState state = SessionState::kRunning;
  uint64_t pushed_batches = 0;
  uint64_t pushed_items = 0;
  /// Batches/items refused by admission control (kReject saturation).
  uint64_t rejected_batches = 0;
  uint64_t rejected_items = 0;
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
/// parsed program, a StreamEngine, and a bounded ingest queue. Clients
/// push triple batches and subscribe to the ordered SessionEvent stream.
///
/// The ingest queue is drained in one of two modes:
///   * Dedicated pump thread (sync engines): the pump reasons each
///     window, decoupling transport threads from reasoning, so a slow
///     session backpressures its own queue without stalling its
///     siblings.
///   * Collaborative inline pump (async engines, on the server's shared
///     reasoner pool or on a private one): whichever pusher finds no
///     active pumper drains the queue itself under a baton, so the
///     session costs no pump thread. Safe because an async PushBatch
///     only windows and enqueues — reasoning happens on the pool — and
///     FIFO order is preserved by the single-baton drain. This is what
///     keeps a 64-session server at O(pool + 1 event loop) threads
///     instead of O(sessions).
///
/// Thread-safety: Push/Flush/Close/stats from any thread, concurrently.
/// The event handler must not call back into the session (the pump or
/// pool thread delivering it would deadlock on itself).
class StreamSession {
 public:
  /// Parses the program, builds the engine, starts the pump. Fails on an
  /// unparsable/invalid program or options the engine validator rejects.
  static StatusOr<std::unique_ptr<StreamSession>> Create(
      std::string name, SessionOptions options, SessionEventHandler handler);

  /// Closes (drains) the session, then joins the pump.
  ~StreamSession();

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  /// Queues one batch for the pump. Returns kFailedPrecondition when the
  /// session is not running, kResourceExhausted when kReject admission
  /// refuses a saturated push; blocks instead under kBlock admission.
  Status Push(std::vector<Triple> batch);

  /// Live barrier: blocks until everything pushed before this call has
  /// been windowed, reasoned, and delivered (the trailing partial window
  /// included). The session remains running. kFailedPrecondition when
  /// not running.
  Status Flush();

  /// Drains and closes: stops admission (kDraining), lets the pump
  /// finish every queued batch, flushes the engine end-of-stream, then
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
  /// One unit of pump work: a batch to push, then optionally a flush
  /// barrier to acknowledge.
  struct IngestCommand {
    std::vector<Triple> batch;
    bool flush = false;
  };

  StreamSession(std::string name, SessionOptions options,
                SessionEventHandler handler);

  Status Init(const std::string& program_text);
  void PumpLoop();
  /// One ingest command end to end: engine push/flush, flush-ticket ack,
  /// queue-depth bookkeeping. Shared by both pump modes.
  void ProcessCommand(IngestCommand& command);
  /// Collaborative pump (inline mode): drains the ingest queue under the
  /// pump baton, or returns immediately when another pumper holds it (the
  /// holder's TryPop re-check under pump_mutex_ will see our command).
  void PumpDrain();
  /// The engine's emission handler: wraps events with session context.
  void OnEmission(EmissionEvent& event);

  const std::string name_;
  SessionOptions options_;
  SessionEventHandler handler_;

  SymbolTablePtr symbols_;
  std::unique_ptr<Program> program_;
  std::unique_ptr<StreamEngine> engine_;

  BoundedQueue<IngestCommand> queue_;
  /// Depth mirror for kReject admission (atomic so Push never takes the
  /// pump's locks): incremented before enqueue, decremented after the
  /// pump finishes a command.
  std::atomic<size_t> queued_commands_{0};
  /// True when the engine runs async: no pump thread is spawned; pushers
  /// drain the queue collaboratively via PumpDrain.
  const bool inline_pump_;
  std::thread pump_;
  std::mutex pump_mutex_;
  std::condition_variable pump_cv_;
  bool pumping_ = false;  ///< Baton: guarded by pump_mutex_.

  mutable std::mutex state_mutex_;
  SessionState state_ = SessionState::kRunning;
  std::condition_variable closed_cv_;
  bool close_started_ = false;

  std::mutex flush_mutex_;
  std::condition_variable flush_cv_;
  uint64_t flush_tickets_ = 0;
  uint64_t flush_completed_ = 0;

  std::atomic<uint64_t> pushed_batches_{0};
  std::atomic<uint64_t> pushed_items_{0};
  std::atomic<uint64_t> rejected_batches_{0};
  std::atomic<uint64_t> rejected_items_{0};
  std::atomic<uint64_t> result_events_{0};
  std::atomic<uint64_t> error_events_{0};
  std::atomic<uint64_t> shed_events_{0};
  std::atomic<uint64_t> next_event_sequence_{0};
};

}  // namespace streamasp

#endif  // STREAMASP_SERVER_SESSION_H_
