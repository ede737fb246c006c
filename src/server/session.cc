#include "server/session.h"

#include <exception>
#include <utility>

#include "asp/parser.h"
#include "util/logging.h"

namespace streamasp {

StatusOr<std::unique_ptr<StreamSession>> StreamSession::Create(
    std::string name, SessionOptions options, SessionEventHandler handler) {
  if (name.empty()) {
    return InvalidArgumentError("session name must not be empty");
  }
  std::unique_ptr<StreamSession> session(
      new StreamSession(std::move(name), std::move(handler)));
  STREAMASP_RETURN_IF_ERROR(session->Init(std::move(options)));
  return session;
}

StreamSession::StreamSession(std::string name, SessionEventHandler handler)
    : name_(std::move(name)),
      handler_(std::move(handler)),
      symbols_(MakeSymbolTable()) {}

Status StreamSession::Init(SessionOptions options) {
  Parser parser(symbols_);
  STREAMASP_ASSIGN_OR_RETURN(Program program,
                             parser.ParseProgram(options.program_text));
  program_ = std::make_unique<Program>(std::move(program));
  // Every session is a lane: its windows reason as pool tasks, so Push
  // only windows and enqueues on the caller thread.
  options.engine.pipeline.async = true;
  // The engine is built only after program_ has its final heap address
  // (it must outlive the engine).
  STREAMASP_ASSIGN_OR_RETURN(
      engine_, StreamEngine::Create(
                   program_.get(), std::move(options.engine),
                   [this](EmissionEvent& event) { OnEmission(event); }));
  return OkStatus();
}

StreamSession::~StreamSession() { Close(); }

Status StreamSession::CheckRunning() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (state_ != SessionState::kRunning) {
    return FailedPreconditionError("session '" + name_ + "' is " +
                                   SessionStateName(state_));
  }
  return OkStatus();
}

template <typename Fn>
void StreamSession::RunGuarded(const char* what, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    STREAMASP_LOG(kError) << "session '" << name_ << "': " << what
                          << " threw: " << e.what();
  } catch (...) {
    STREAMASP_LOG(kError) << "session '" << name_ << "': " << what
                          << " threw";
  }
}

Status StreamSession::Push(std::vector<Triple> batch) {
  std::lock_guard<std::mutex> ingest(ingest_mutex_);
  STREAMASP_RETURN_IF_ERROR(CheckRunning());
  RunGuarded("push", [&] { engine_->PushBatch(batch); });
  pushed_batches_.fetch_add(1, std::memory_order_relaxed);
  pushed_items_.fetch_add(batch.size(), std::memory_order_relaxed);
  return OkStatus();
}

Status StreamSession::Flush() {
  std::lock_guard<std::mutex> ingest(ingest_mutex_);
  STREAMASP_RETURN_IF_ERROR(CheckRunning());
  RunGuarded("flush", [&] { engine_->Flush(); });
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
  // Stop admission, wait out a Push or Flush in progress, then
  // end-of-stream: emit the trailing partial window and deliver every
  // in-flight emission before reporting kClosed.
  std::lock_guard<std::mutex> ingest(ingest_mutex_);
  if (engine_ != nullptr) {
    RunGuarded("close-time flush", [&] { engine_->Flush(); });
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    // Inside the lock so stats() never reads a half-dead engine.
    engine_.reset();
    state_ = SessionState::kClosed;
  }
  closed_cv_.notify_all();
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
  out.result_events = result_events_.load(std::memory_order_relaxed);
  out.error_events = error_events_.load(std::memory_order_relaxed);
  out.shed_events = shed_events_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(state_mutex_);
  out.state = state_;
  if (engine_ != nullptr) out.engine = engine_->stats();
  return out;
}

}  // namespace streamasp
