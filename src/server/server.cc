#include "server/server.h"

#include <utility>

namespace streamasp {

Status ValidateServerConfig(const ServerConfig& config) {
  if (config.max_sessions == 0) {
    return InvalidArgumentError("server max_sessions must be >= 1");
  }
  if (config.shared_pool_threads == 0) {
    return InvalidArgumentError("server shared_pool_threads must be >= 1");
  }
  return OkStatus();
}

StreamServer::StreamServer(ServerConfig config)
    : config_([&config] {
        if (config.max_sessions == 0) config.max_sessions = 1;
        if (config.shared_pool_threads == 0) config.shared_pool_threads = 1;
        return config;
      }()),
      pool_(std::make_shared<SharedReasonerPool>(config_.shared_pool_threads)) {}

StreamServer::~StreamServer() { CloseAll(); }

StatusOr<std::shared_ptr<StreamSession>> StreamServer::CreateSession(
    std::string name, SessionOptions options, SessionEventHandler handler) {
  // O(pool) reasoning threads across all tenants, weighted fair
  // scheduling between them.
  options.engine.pipeline.shared_pool = pool_;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sessions_.size() >= config_.max_sessions) {
      return ResourceExhaustedError(
          "session limit reached (" + std::to_string(config_.max_sessions) +
          "); close a session first");
    }
    if (sessions_.count(name) != 0) {
      return InvalidArgumentError("session '" + name + "' already exists");
    }
  }
  // Build outside the lock: Create parses and grounds the program, which
  // can take a while — don't stall the registry. The name is re-checked
  // on insert in case of a racing create.
  STREAMASP_ASSIGN_OR_RETURN(
      std::unique_ptr<StreamSession> session,
      StreamSession::Create(name, std::move(options), std::move(handler)));
  std::shared_ptr<StreamSession> shared(std::move(session));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sessions_.size() >= config_.max_sessions) {
      return ResourceExhaustedError(
          "session limit reached (" + std::to_string(config_.max_sessions) +
          "); close a session first");
    }
    if (!sessions_.emplace(name, shared).second) {
      return InvalidArgumentError("session '" + name + "' already exists");
    }
  }
  return shared;
}

StatusOr<std::shared_ptr<StreamSession>> StreamServer::FindSession(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return NotFoundError("no session named '" + name + "'");
  }
  return it->second;
}

Status StreamServer::CloseSession(const std::string& name) {
  std::shared_ptr<StreamSession> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(name);
    if (it == sessions_.end()) {
      return NotFoundError("no session named '" + name + "'");
    }
    session = std::move(it->second);
    sessions_.erase(it);
  }
  // Drain outside the lock — closing waits for in-flight windows, and
  // other tenants must keep creating/finding sessions meanwhile.
  session->Close();
  return OkStatus();
}

void StreamServer::CloseAll() {
  std::vector<std::shared_ptr<StreamSession>> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    doomed.reserve(sessions_.size());
    for (auto& entry : sessions_) doomed.push_back(std::move(entry.second));
    sessions_.clear();
  }
  for (auto& session : doomed) session->Close();
}

std::vector<std::string> StreamServer::session_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(sessions_.size());
  for (const auto& entry : sessions_) names.push_back(entry.first);
  return names;
}

size_t StreamServer::num_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace streamasp
