#include "server/broker.h"

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "util/strings.h"

namespace streamasp {

SessionBroker::SessionBroker(StreamServer* server, SendFn send)
    : server_(server), send_(std::move(send)) {}

SessionBroker::~SessionBroker() {
  std::vector<std::string> doomed;
  {
    std::lock_guard<std::mutex> lock(owned_mutex_);
    doomed.assign(owned_.begin(), owned_.end());
    owned_.clear();
  }
  // Draining a session flushes its last emissions through Send — the
  // send_ callable must stay valid until these closes finish, which is
  // why transports destroy the broker before their own send machinery.
  for (const std::string& name : doomed) {
    // kNotFound just means someone closed it server-side already.
    Status status = server_->CloseSession(name);
    (void)status;
  }
}

void SessionBroker::Send(std::string payload) {
  std::lock_guard<std::mutex> lock(send_mutex_);
  send_(std::move(payload));
}

namespace {

/// The session an `open` request names, or empty for any other payload:
/// an open refused at parse time (a malformed or over-cap option) is
/// still answered as `error open <session>`, so the client can attribute
/// it.
std::string_view OpenSessionOf(std::string_view payload) {
  std::string_view head =
      StripWhitespace(payload.substr(0, payload.find('\n')));
  if (head.substr(0, 5) != "open ") return {};
  head.remove_prefix(std::min(head.find_first_not_of(' ', 5), head.size()));
  return head.substr(0, head.find(' '));
}

}  // namespace

void SessionBroker::HandleRequest(std::string_view payload) {
  std::string_view body;
  StatusOr<WireRequest> parsed = ParseRequestHead(payload, &body);
  if (!parsed.ok()) {
    const std::string_view session = OpenSessionOf(payload);
    Send(FormatError(session.empty() ? "request" : "open", session,
                     parsed.status()));
    return;
  }
  WireRequest& request = *parsed;
  switch (request.command) {
    case WireRequest::Command::kPing:
      Send(FormatOk("ping", ""));
      return;
    case WireRequest::Command::kOpen:
      HandleOpen(std::move(request));
      return;
    case WireRequest::Command::kPush:
      HandlePush(request.session, body);
      return;
    case WireRequest::Command::kFlush: {
      StatusOr<std::shared_ptr<StreamSession>> session =
          server_->FindSession(request.session);
      if (!session.ok()) {
        Send(FormatError("flush", request.session, session.status()));
        return;
      }
      Status status = (*session)->Flush();
      Send(status.ok() ? FormatOk("flush", request.session)
                       : FormatError("flush", request.session, status));
      return;
    }
    case WireRequest::Command::kStats: {
      StatusOr<std::shared_ptr<StreamSession>> session =
          server_->FindSession(request.session);
      if (!session.ok()) {
        Send(FormatError("stats", request.session, session.status()));
        return;
      }
      Send(FormatStats(request.session, (*session)->stats()));
      return;
    }
    case WireRequest::Command::kClose: {
      {
        std::lock_guard<std::mutex> lock(owned_mutex_);
        owned_.erase(request.session);
      }
      Status status = server_->CloseSession(request.session);
      Send(status.ok() ? FormatOk("close", request.session)
                       : FormatError("close", request.session, status));
      return;
    }
  }
}

void SessionBroker::HandleOpen(WireRequest request) {
  const std::string name = request.session;
  if (request.has_version && request.protocol_version != kProtocolVersion) {
    // Reject BEFORE creating anything: a client speaking another version
    // may mean different things by the very options it just sent.
    Send(FormatError(
        "open", name,
        InvalidArgumentError(
            "unsupported protocol version v=" +
            std::to_string(request.protocol_version) +
            " (this server speaks v=" + std::to_string(kProtocolVersion) +
            ")"),
        "unsupported_version"));
    return;
  }
  StatusOr<std::shared_ptr<StreamSession>> session = server_->CreateSession(
      name, std::move(request.options),
      [this](const SessionEvent& event) { Send(FormatEvent(event)); });
  if (!session.ok()) {
    Send(FormatError("open", name, session.status()));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(owned_mutex_);
    owned_.insert(name);
  }
  Send(FormatOpenOk(name));
}

void SessionBroker::HandlePush(const std::string& name,
                               std::string_view body) {
  StatusOr<std::shared_ptr<StreamSession>> session = server_->FindSession(name);
  if (!session.ok()) {
    Send(FormatError("push", name, session.status()));
    return;
  }
  StatusOr<std::vector<Triple>> batch =
      ParsePushBody(body, (*session)->symbols());
  const Status status =
      batch.ok() ? (*session)->Push(std::move(*batch)) : batch.status();
  Send(status.ok() ? FormatOk("push", name)
                   : FormatError("push", name, status));
}

namespace {

/// The in-process transport: Send() executes the request inline on the
/// calling thread through a private broker; server→client payloads are
/// delivered to the Receive handler (buffered and replayed in order when
/// none is installed yet). The client handler must not call Send() from
/// inside a delivery — deliveries are serialized on the same lock.
class InProcConnection : public SessionTransport {
 public:
  explicit InProcConnection(StreamServer* server)
      : broker_(std::make_unique<SessionBroker>(
            server, [this](std::string payload) {
              DeliverToClient(std::move(payload));
            })) {}

  ~InProcConnection() override { Close(); }

  Status Send(std::string payload) override {
    std::lock_guard<std::mutex> lock(request_mutex_);
    if (broker_ == nullptr) {
      return FailedPreconditionError("connection is closed");
    }
    broker_->HandleRequest(payload);
    return OkStatus();
  }

  void Receive(PayloadHandler handler) override {
    std::deque<std::string> replay;
    {
      std::lock_guard<std::mutex> lock(client_mutex_);
      handler_ = std::move(handler);
      replay.swap(buffered_);
      if (handler_ == nullptr) return;
      for (std::string& payload : replay) handler_(std::move(payload));
    }
  }

  void Close() override {
    std::lock_guard<std::mutex> lock(request_mutex_);
    // Destroying the broker drains this connection's sessions; their
    // final events still flow through DeliverToClient.
    broker_.reset();
  }

 private:
  void DeliverToClient(std::string payload) {
    std::lock_guard<std::mutex> lock(client_mutex_);
    if (handler_ != nullptr) {
      handler_(std::move(payload));
    } else {
      buffered_.push_back(std::move(payload));
    }
  }

  std::mutex request_mutex_;
  std::unique_ptr<SessionBroker> broker_;

  std::mutex client_mutex_;
  PayloadHandler handler_;
  std::deque<std::string> buffered_;
};

}  // namespace

std::unique_ptr<SessionTransport> StreamServer::Connect() {
  return std::make_unique<InProcConnection>(this);
}

}  // namespace streamasp
