#include "server/session.h"

#include <exception>
#include <optional>
#include <utility>

#include "asp/parser.h"
#include "util/logging.h"

namespace streamasp {

Status ValidateSessionOptions(const SessionOptions& options) {
  if (options.admission == BackpressurePolicy::kDropOldest) {
    return InvalidArgumentError(
        "session admission supports kBlock or kReject only (dropping "
        "accepted batches would break the session's refusal accounting)");
  }
  if (options.weight == 0) {
    return InvalidArgumentError("session weight must be >= 1");
  }
  const bool async = options.engine.pipeline.async;
  if (options.max_queued_windows > 0 && !async) {
    return InvalidArgumentError(
        "session max_queued_windows requires an async engine (sync "
        "engines reason every window before Push returns; set async=1)");
  }
  if (options.max_inflight > 0 && !async) {
    return InvalidArgumentError(
        "session max_inflight requires an async engine (sync engines "
        "reason one window at a time; set async=1)");
  }
  return OkStatus();
}

StatusOr<std::unique_ptr<StreamSession>> StreamSession::Create(
    std::string name, SessionOptions options, SessionEventHandler handler) {
  if (name.empty()) {
    return InvalidArgumentError("session name must not be empty");
  }
  STREAMASP_RETURN_IF_ERROR(ValidateSessionOptions(options));
  // Map the session-level fairness knobs onto the pipeline: the quota is
  // engine-level admission control either way; the inflight cap bounds
  // the session's lane on whichever pool it runs, and the weight matters
  // only on the server's shared pool.
  options.engine.pipeline.pool_weight = options.weight;
  options.engine.pipeline.pool_max_inflight = options.max_inflight;
  options.engine.pipeline.max_queued_windows = options.max_queued_windows;
  // Async sessions pump inline (no pump thread), so a kReject tenant's
  // "never block the transport" promise must hold at the window queue
  // too: translate the admission policy to window-level kReject shedding
  // instead of the default blocking backpressure.
  if (options.engine.pipeline.async &&
      options.admission == BackpressurePolicy::kReject) {
    options.engine.pipeline.backpressure = BackpressurePolicy::kReject;
  }
  std::string program_text = options.program_text;
  std::unique_ptr<StreamSession> session(new StreamSession(
      std::move(name), std::move(options), std::move(handler)));
  STREAMASP_RETURN_IF_ERROR(session->Init(program_text));
  return session;
}

StreamSession::StreamSession(std::string name, SessionOptions options,
                             SessionEventHandler handler)
    : name_(std::move(name)),
      options_(std::move(options)),
      handler_(std::move(handler)),
      symbols_(MakeSymbolTable()),
      queue_(std::max<size_t>(1, options_.ingest_queue_capacity),
             BackpressurePolicy::kBlock),
      inline_pump_(options_.engine.pipeline.async) {}

Status StreamSession::Init(const std::string& program_text) {
  Parser parser(symbols_);
  STREAMASP_ASSIGN_OR_RETURN(Program program,
                             parser.ParseProgram(program_text));
  program_ = std::make_unique<Program>(std::move(program));
  // The engine is built only after program_ has its final heap address
  // (it must outlive the engine).
  STREAMASP_ASSIGN_OR_RETURN(
      engine_, StreamEngine::Create(
                   program_.get(), options_.engine,
                   [this](EmissionEvent& event) { OnEmission(event); }));
  // Async sessions pump collaboratively (zero threads); sync sessions
  // reason on their dedicated pump thread.
  if (!inline_pump_) pump_ = std::thread([this] { PumpLoop(); });
  return OkStatus();
}

StreamSession::~StreamSession() { Close(); }

Status StreamSession::Push(std::vector<Triple> batch) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (state_ != SessionState::kRunning) {
      return FailedPreconditionError("session '" + name_ + "' is " +
                                     SessionStateName(state_));
    }
  }
  const uint64_t items = batch.size();
  if (options_.admission == BackpressurePolicy::kReject &&
      queued_commands_.load(std::memory_order_acquire) >=
          std::max<size_t>(1, options_.ingest_queue_capacity)) {
    rejected_batches_.fetch_add(1, std::memory_order_relaxed);
    rejected_items_.fetch_add(items, std::memory_order_relaxed);
    return ResourceExhaustedError(
        "session '" + name_ + "' saturated: ingest queue at capacity (" +
        std::to_string(options_.ingest_queue_capacity) + " batches)");
  }
  queued_commands_.fetch_add(1, std::memory_order_acq_rel);
  IngestCommand command;
  command.batch = std::move(batch);
  if (queue_.Push(std::move(command)) == QueuePushResult::kClosed) {
    queued_commands_.fetch_sub(1, std::memory_order_acq_rel);
    // A closer may be waiting for the queue-depth mirror to settle.
    pump_cv_.notify_all();
    return FailedPreconditionError("session '" + name_ + "' is closed");
  }
  pushed_batches_.fetch_add(1, std::memory_order_relaxed);
  pushed_items_.fetch_add(items, std::memory_order_relaxed);
  if (inline_pump_) PumpDrain();
  return OkStatus();
}

Status StreamSession::Flush() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (state_ != SessionState::kRunning) {
      return FailedPreconditionError("session '" + name_ + "' is " +
                                     SessionStateName(state_));
    }
  }
  // Ticket before enqueue: flush commands complete in queue order, and
  // every flush command enqueued by a ticket >= ours necessarily sits
  // behind our previously pushed batches — so once flush_completed_
  // reaches our ticket, an engine-level Flush has covered them.
  uint64_t ticket = 0;
  {
    std::lock_guard<std::mutex> lock(flush_mutex_);
    ticket = ++flush_tickets_;
  }
  queued_commands_.fetch_add(1, std::memory_order_acq_rel);
  IngestCommand command;
  command.flush = true;
  if (queue_.Push(std::move(command)) == QueuePushResult::kClosed) {
    queued_commands_.fetch_sub(1, std::memory_order_acq_rel);
    pump_cv_.notify_all();
    return FailedPreconditionError("session '" + name_ + "' is closed");
  }
  // Inline mode: our flush command may be served by us (pumping here) or
  // by whichever pusher holds the baton; the ticket wait below covers
  // both.
  if (inline_pump_) PumpDrain();
  std::unique_lock<std::mutex> lock(flush_mutex_);
  flush_cv_.wait(lock, [this, ticket] { return flush_completed_ >= ticket; });
  return OkStatus();
}

void StreamSession::Close() {
  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    if (close_started_) {
      // Someone else is (or was) draining: wait out the teardown so every
      // Close() returns with the session fully closed.
      closed_cv_.wait(lock,
                      [this] { return state_ == SessionState::kClosed; });
      return;
    }
    close_started_ = true;
    state_ = SessionState::kDraining;
  }
  // Stop admission; the pump drains every already-queued command (Pop
  // and TryPop hand out the remainder after Close), acking queued flush
  // barriers on the way out.
  queue_.Close();
  if (inline_pump_) {
    // Become the pumper for whatever is left, then wait out any racing
    // pusher still holding the baton or mid-enqueue.
    PumpDrain();
    std::unique_lock<std::mutex> lock(pump_mutex_);
    pump_cv_.wait(lock, [this] {
      return !pumping_ &&
             queued_commands_.load(std::memory_order_acquire) == 0;
    });
  } else if (pump_.joinable()) {
    pump_.join();
  }
  // End-of-stream: emit the trailing partial window and deliver every
  // in-flight emission before reporting kClosed.
  try {
    if (engine_ != nullptr) engine_->Flush();
  } catch (const std::exception& e) {
    STREAMASP_LOG(kError) << "session '" << name_
                          << "': close-time flush threw: " << e.what();
  } catch (...) {
    STREAMASP_LOG(kError) << "session '" << name_
                          << "': close-time flush threw";
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    // Inside the lock so stats() never reads a half-dead engine.
    engine_.reset();
    state_ = SessionState::kClosed;
  }
  closed_cv_.notify_all();
}

void StreamSession::ProcessCommand(IngestCommand& command) {
  try {
    if (!command.batch.empty()) engine_->PushBatch(command.batch);
    if (command.flush) engine_->Flush();
  } catch (const std::exception& e) {
    // A sync-mode event handler that throws surfaces here; the pump
    // must outlive it or the whole session wedges.
    STREAMASP_LOG(kError) << "session '" << name_
                          << "': pump caught: " << e.what();
  } catch (...) {
    STREAMASP_LOG(kError) << "session '" << name_ << "': pump caught";
  }
  if (command.flush) {
    {
      std::lock_guard<std::mutex> lock(flush_mutex_);
      ++flush_completed_;
    }
    flush_cv_.notify_all();
  }
  command = IngestCommand();
  queued_commands_.fetch_sub(1, std::memory_order_acq_rel);
}

void StreamSession::PumpLoop() {
  IngestCommand command;
  while (queue_.Pop(&command)) ProcessCommand(command);
}

void StreamSession::PumpDrain() {
  std::unique_lock<std::mutex> lock(pump_mutex_);
  if (pumping_) return;  // The holder's TryPop re-check under this mutex
                         // runs after our enqueue, so our command is seen.
  pumping_ = true;
  // TryPop under the lock, process outside it: a pusher that enqueues
  // while we process either observes pumping_ (and leaves the command to
  // our next TryPop) or arrives after we cleared the baton and takes it
  // itself — nothing strands.
  while (true) {
    std::optional<IngestCommand> command = queue_.TryPop();
    if (!command.has_value()) break;
    lock.unlock();
    ProcessCommand(*command);
    lock.lock();
  }
  pumping_ = false;
  lock.unlock();
  pump_cv_.notify_all();
}

void StreamSession::OnEmission(EmissionEvent& event) {
  switch (event.kind) {
    case EmissionEvent::Kind::kResult:
      result_events_.fetch_add(1, std::memory_order_relaxed);
      break;
    case EmissionEvent::Kind::kError:
      error_events_.fetch_add(1, std::memory_order_relaxed);
      break;
    case EmissionEvent::Kind::kShed:
      shed_events_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  const uint64_t sequence =
      next_event_sequence_.fetch_add(1, std::memory_order_relaxed);
  if (handler_ != nullptr) {
    SessionEvent wrapped{name_, sequence, *symbols_, event};
    handler_(wrapped);
  }
}

SessionState StreamSession::state() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return state_;
}

SessionStats StreamSession::stats() const {
  SessionStats out;
  out.pushed_batches = pushed_batches_.load(std::memory_order_relaxed);
  out.pushed_items = pushed_items_.load(std::memory_order_relaxed);
  out.rejected_batches = rejected_batches_.load(std::memory_order_relaxed);
  out.rejected_items = rejected_items_.load(std::memory_order_relaxed);
  out.result_events = result_events_.load(std::memory_order_relaxed);
  out.error_events = error_events_.load(std::memory_order_relaxed);
  out.shed_events = shed_events_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(state_mutex_);
  out.state = state_;
  if (engine_ != nullptr) out.engine = engine_->stats();
  return out;
}

}  // namespace streamasp
