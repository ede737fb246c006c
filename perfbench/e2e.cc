#include "perfbench/e2e.h"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "perfbench/client.h"
#include "perfbench/oracle.h"
#include "util/strings.h"

namespace perfbench {

using namespace streamasp;

namespace {

using Clock = std::chrono::steady_clock;

/// Set-ups per run; setup_s is their median.
constexpr size_t kSetupRepetitions = 9;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

struct PushRecord {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point acked;
  bool was_sent = false;
  bool was_acked = false;
  bool ok = false;
};

struct EventRecord {
  bool present = false;
  EventKind kind = EventKind::kResult;
  Clock::time_point received;
  std::string payload;  ///< Result events only: header + answer lines.
};

/// Everything the client knows about one session during a run. Guarded by
/// `mutex` (sender threads append/stamp pushes, the receiver stamps acks
/// and events).
struct SessionRun {
  const SessionPlan* plan = nullptr;
  std::unique_ptr<Connection> connection;
  std::vector<WindowAnswers> oracle;

  std::mutex mutex;
  std::vector<PushRecord> pushes;
  size_t acks = 0;
  std::vector<EventRecord> events;
  size_t credits = 0;  ///< Closed loop: windows that may still be sent.
  std::map<std::string, uint64_t> stats;
  bool has_stats = false;
};

/// Splits off the first line and its space-separated tokens.
std::vector<std::string> HeaderTokens(const std::string& payload) {
  const size_t end = payload.find('\n');
  std::vector<std::string> tokens;
  for (std::string& token :
       StrSplit(std::string_view(payload).substr(0, end), ' ')) {
    if (!token.empty()) tokens.push_back(std::move(token));
  }
  return tokens;
}

uint64_t FieldValue(const std::string& token) {
  const size_t eq = token.find('=');
  return eq == std::string::npos
             ? 0
             : std::strtoull(token.c_str() + eq + 1, nullptr, 10);
}

/// The shared state of one run's threads.
class Run {
 public:
  explicit Run(std::vector<std::unique_ptr<SessionRun>>* sessions)
      : sessions_(*sessions) {}

  Clock::time_point start;
  Clock::time_point measure_start;
  Clock::time_point measure_end;

  void Receive();
  void SendOpenLoop();
  void SendClosedLoop();

  void Fail(const std::string& error) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (error_.empty()) error_ = error;
    stop_.store(true);
    credit_cv_.notify_all();
  }
  std::string error() {
    std::lock_guard<std::mutex> lock(error_mutex_);
    return error_;
  }
  void StopReceiving() { stop_receiving_.store(true); }
  bool failed() const { return stop_.load(); }

 private:
  SessionRun* Find(const std::string& name) {
    for (auto& session : sessions_) {
      if (session->plan->name == name) return session.get();
    }
    return nullptr;
  }
  void Dispatch(std::string payload, Clock::time_point now);

  std::vector<std::unique_ptr<SessionRun>>& sessions_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> stop_receiving_{false};
  std::mutex error_mutex_;
  std::string error_;

  std::mutex credit_mutex_;
  std::condition_variable credit_cv_;
};

void Run::Dispatch(std::string payload, Clock::time_point now) {
  const std::vector<std::string> head = HeaderTokens(payload);
  if (head.size() < 2) return Fail("malformed reply: " + payload);
  if (head[0] == "event") {
    SessionRun* session = Find(head[1]);
    if (session == nullptr || head.size() < 4) {
      return Fail("event for an unknown session: " + payload.substr(0, 80));
    }
    const size_t seq = FieldValue(head[3]);
    EventKind kind = EventKind::kResult;
    if (head[2] == "shed") kind = EventKind::kShed;
    if (head[2] == "error") kind = EventKind::kError;
    {
      std::lock_guard<std::mutex> lock(session->mutex);
      if (session->events.size() <= seq) session->events.resize(seq + 1);
      EventRecord& record = session->events[seq];
      record.present = true;
      record.kind = kind;
      record.received = now;
      if (kind == EventKind::kResult) record.payload = std::move(payload);
    }
    if (session->plan->pacing == Pacing::kClosedLoop) {
      {
        std::lock_guard<std::mutex> lock(credit_mutex_);
        ++session->credits;
      }
      credit_cv_.notify_all();
    }
    return;
  }
  if (head.size() < 3) {
    return Fail("reply without a session: " + payload.substr(0, 80));
  }
  SessionRun* session = Find(head[2]);
  if (session == nullptr) return Fail("reply for an unknown session");
  const bool ok = head[0] == "ok";
  std::lock_guard<std::mutex> lock(session->mutex);
  if (head[1] == "push") {
    if (session->acks >= session->pushes.size()) {
      return Fail("push reply without a push");
    }
    PushRecord& push = session->pushes[session->acks++];
    push.was_acked = true;
    push.acked = now;
    push.ok = ok;
  } else if (head[1] == "stats" && ok) {
    for (const std::string& line : StrSplit(payload, '\n')) {
      const size_t eq = line.find('=');
      if (eq == std::string::npos) continue;
      session->stats[line.substr(0, eq)] =
          std::strtoull(line.c_str() + eq + 1, nullptr, 10);
    }
    session->has_stats = true;
  } else if (!ok) {
    Fail("server refused a request: " + payload.substr(0, 120));
  }  // `ok flush` is only the barrier before `ok stats`.
}

void Run::Receive() {
  std::vector<pollfd> fds;
  for (auto& session : sessions_) {
    fds.push_back(pollfd{session->connection->fd(), POLLIN, 0});
  }
  std::vector<std::string> payloads;
  while (!stop_receiving_.load()) {
    const int ready = ::poll(fds.data(), fds.size(), 20);
    if (ready <= 0) continue;
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      payloads.clear();
      Status status = sessions_[i]->connection->ReceiveAvailable(&payloads);
      const Clock::time_point now = Clock::now();
      for (std::string& payload : payloads) Dispatch(std::move(payload), now);
      if (!status.ok()) {
        Fail("receive: " + status.ToString());
        return;
      }
    }
  }
}

void Run::SendOpenLoop() {
  struct Due {
    Clock::time_point at;
    SessionRun* session;
    size_t push;
  };
  std::vector<Due> schedule;
  for (auto& session : sessions_) {
    const SessionPlan& plan = *session->plan;
    if (plan.pacing != Pacing::kOpenLoop) continue;
    for (size_t i = 0; i < plan.pushes; ++i) {
      const Clock::time_point due =
          After(start, plan.offset_s + static_cast<double>(i) / plan.rate);
      schedule.push_back({due, session.get(), i});
      session->pushes[i].due = due;
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Due& a, const Due& b) { return a.at < b.at; });
  for (const Due& due : schedule) {
    if (failed()) return;
    std::this_thread::sleep_until(due.at);
    SessionRun& session = *due.session;
    {
      std::lock_guard<std::mutex> lock(session.mutex);
      session.pushes[due.push].sent = Clock::now();
      session.pushes[due.push].was_sent = true;
    }
    Status status = session.connection->SendFrame(
        session.plan->frames[session.plan->FrameOf(due.push)]);
    if (!status.ok()) return Fail("send: " + status.ToString());
  }
}

void Run::SendClosedLoop() {
  std::vector<SessionRun*> bulk;
  {
    std::lock_guard<std::mutex> lock(credit_mutex_);
    for (auto& session : sessions_) {
      if (session->plan->pacing != Pacing::kClosedLoop) continue;
      session->credits = session->plan->outstanding;
      bulk.push_back(session.get());
    }
  }
  if (bulk.empty()) return;
  std::this_thread::sleep_until(start);
  size_t next = 0;
  while (!failed()) {
    SessionRun* chosen = nullptr;
    {
      std::unique_lock<std::mutex> lock(credit_mutex_);
      for (;;) {
        for (size_t k = 0; k < bulk.size() && chosen == nullptr; ++k) {
          SessionRun* candidate = bulk[(next + k) % bulk.size()];
          if (candidate->credits > 0) chosen = candidate;
        }
        if (chosen != nullptr || failed() || Clock::now() >= measure_end) {
          break;
        }
        credit_cv_.wait_until(lock, measure_end);
      }
      if (chosen == nullptr) return;
      --chosen->credits;
    }
    ++next;
    size_t index = 0;
    {
      std::lock_guard<std::mutex> lock(chosen->mutex);
      index = chosen->pushes.size();
      PushRecord record;
      record.due = record.sent = Clock::now();
      record.was_sent = true;
      chosen->pushes.push_back(record);
    }
    Status status = chosen->connection->SendFrame(
        chosen->plan->frames[chosen->plan->FrameOf(index)]);
    if (!status.ok()) return Fail("send: " + status.ToString());
  }
}

/// Result payload -> canonical answers (the header line dropped).
WindowAnswers PayloadAnswers(const std::string& payload) {
  std::vector<std::string> lines = StrSplit(payload, '\n');
  if (!lines.empty()) lines.erase(lines.begin());
  return CanonicalWindowAnswers(lines);
}

/// True once every sent push is acknowledged and every admitted window
/// has its event.
bool Complete(SessionRun& session) {
  std::lock_guard<std::mutex> lock(session.mutex);
  size_t sent = 0;
  size_t admitted = 0;
  for (const PushRecord& push : session.pushes) {
    if (!push.was_sent) continue;
    ++sent;
    if (!push.was_acked) return false;
    if (push.ok) ++admitted;
  }
  if (session.plan->pacing == Pacing::kOpenLoop &&
      sent < session.plan->pushes) {
    return false;
  }
  if (session.events.size() < admitted) return false;
  for (size_t s = 0; s < admitted; ++s) {
    if (!session.events[s].present) return false;
  }
  return true;
}

}  // namespace

E2EResult RunEndToEnd(const Workload& workload, const E2EOptions& options) {
  E2EResult result;
  std::vector<std::unique_ptr<SessionRun>> sessions;
  const Clock::time_point oracle_start = Clock::now();
  for (const SessionPlan& plan : workload.sessions) {
    auto session = std::make_unique<SessionRun>();
    session->plan = &plan;
    Status status = ComputeOracle(plan, &session->oracle);
    if (!status.ok()) {
      result.error = "oracle: " + status.ToString();
      return result;
    }
    if (plan.pacing == Pacing::kOpenLoop) session->pushes.resize(plan.pushes);
    sessions.push_back(std::move(session));
  }
  std::fprintf(stderr, "perfbench %s: oracle reasoned in %.2f s\n",
               workload.name.c_str(),
               std::chrono::duration<double>(Clock::now() - oracle_start)
                   .count());

  // Set-up, repeated: spawn the server, connect, open every session. The
  // last repetition's server and connections carry the measured run.
  std::unique_ptr<ServerProcess> server;
  for (size_t rep = 0; rep < kSetupRepetitions; ++rep) {
    for (auto& session : sessions) session->connection.reset();
    if (server != nullptr) {
      Status stopped = server->Stop();
      server.reset();
      if (!stopped.ok()) {
        result.error = "set-up server stop: " + stopped.ToString();
        return result;
      }
    }
    const Clock::time_point t0 = Clock::now();
    StatusOr<std::unique_ptr<ServerProcess>> spawned =
        ServerProcess::Spawn(options.server_path);
    if (!spawned.ok()) {
      result.error = "spawn: " + spawned.status().ToString();
      return result;
    }
    server = std::move(*spawned);
    for (auto& session : sessions) {
      StatusOr<std::unique_ptr<Connection>> connection =
          Connection::Open(server->port());
      if (!connection.ok()) {
        result.error = "connect: " + connection.status().ToString();
        return result;
      }
      session->connection = std::move(*connection);
      const SessionPlan& plan = *session->plan;
      Status sent = session->connection->SendPayload(
          "open " + plan.name + " " + plan.open_options + "\n" +
          plan.program_text);
      if (!sent.ok()) {
        result.error = "open: " + sent.ToString();
        return result;
      }
    }
    for (auto& session : sessions) {
      StatusOr<std::string> reply = session->connection->ReceiveOne(30);
      if (!reply.ok() || reply->rfind("ok open ", 0) != 0) {
        result.error = "open refused: " +
                       (reply.ok() ? *reply : reply.status().ToString());
        return result;
      }
    }
    result.setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }

  Run run(&sessions);
  run.start = After(Clock::now(), 0.05);
  run.measure_start = After(run.start, options.warmup_s);
  run.measure_end = After(run.measure_start, options.seconds);

  std::thread receiver([&run] { run.Receive(); });
  std::thread open_loop([&run] { run.SendOpenLoop(); });
  std::thread closed_loop([&run] { run.SendClosedLoop(); });

  std::this_thread::sleep_until(run.measure_start);
  StatusOr<ProcUsage> usage_start = server->Usage();
  open_loop.join();
  closed_loop.join();

  const Clock::time_point drain_deadline = After(Clock::now(), 30);
  for (;;) {
    bool done = true;
    for (auto& session : sessions) done = done && Complete(*session);
    if (done || run.failed() || Clock::now() > drain_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const Clock::time_point usage_time = Clock::now();
  StatusOr<ProcUsage> usage_end = server->Usage();

  // Barrier, then the server's own counters for reconciliation.
  for (auto& session : sessions) {
    const std::string& name = session->plan->name;
    Status status = session->connection->SendPayload("flush " + name);
    if (status.ok()) status = session->connection->SendPayload("stats " + name);
    if (!status.ok()) run.Fail("stats request: " + status.ToString());
  }
  const Clock::time_point stats_deadline = After(Clock::now(), 30);
  for (;;) {
    bool done = true;
    for (auto& session : sessions) {
      std::lock_guard<std::mutex> lock(session->mutex);
      done = done && session->has_stats;
    }
    if (done || run.failed() || Clock::now() > stats_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  run.StopReceiving();
  receiver.join();
  for (auto& session : sessions) session->connection.reset();
  Status stopped = server->Stop();
  server.reset();

  if (!run.error().empty()) {
    result.error = run.error();
    return result;
  }
  if (!stopped.ok()) {
    result.error = "server stop: " + stopped.ToString();
    return result;
  }
  if (!usage_start.ok() || !usage_end.ok()) {
    result.error = "cannot read server usage from /proc";
    return result;
  }
  result.peak_rss_mb = usage_end->peak_rss_mb;

  double bulk_triples = 0;
  Clock::time_point bulk_first = Clock::time_point::max();
  Clock::time_point bulk_last = Clock::time_point::min();
  double paced_triples = 0;
  Clock::time_point paced_first = Clock::time_point::max();
  Clock::time_point paced_last = Clock::time_point::min();
  size_t cpu_windows = 0;
  for (auto& session : sessions) {
    const SessionPlan& plan = *session->plan;
    std::lock_guard<std::mutex> lock(session->mutex);
    std::vector<bool> push_ok;
    std::vector<size_t> admitted;  // Sequence -> window index.
    for (size_t i = 0; i < session->pushes.size(); ++i) {
      const PushRecord& push = session->pushes[i];
      if (!push.was_sent) break;
      push_ok.push_back(push.was_acked && push.ok);
      if (push_ok.back()) admitted.push_back(i);
    }
    const size_t events = session->events.size();
    std::vector<bool> has_event(events, false);
    std::vector<EventKind> kinds(events, EventKind::kResult);
    std::vector<bool> matches(events, false);
    for (size_t seq = 0; seq < events; ++seq) {
      const EventRecord& event = session->events[seq];
      has_event[seq] = event.present;
      kinds[seq] = event.kind;
      if (event.present && event.kind == EventKind::kResult &&
          seq < admitted.size()) {
        matches[seq] = PayloadAnswers(event.payload) ==
                       session->oracle[plan.DistinctOf(admitted[seq])];
      }
    }
    const std::vector<WindowOutcome> outcomes =
        AssignOutcomes(push_ok, has_event, kinds, matches);
    result.tally.Merge(Tally(outcomes));

    // Timing, over the measured interval only.
    for (size_t seq = 0; seq < admitted.size() && seq < events; ++seq) {
      const size_t window = admitted[seq];
      if (outcomes[window] != WindowOutcome::kDelivered) continue;
      const PushRecord& push = session->pushes[window];
      const EventRecord& event = session->events[seq];
      if (event.received >= run.measure_start &&
          event.received <= usage_time) {
        ++cpu_windows;
      }
      if (push.due < run.measure_start) continue;
      const double triples =
          static_cast<double>(plan.frame_triples[plan.FrameOf(window)]);
      if (plan.pacing == Pacing::kClosedLoop) {
        bulk_triples += triples;
        bulk_first = std::min(bulk_first, push.sent);
        bulk_last = std::max(bulk_last, event.received);
      } else if (plan.latency_critical) {
        result.latency_ms.push_back(Ms(event.received - push.due));
        result.latency_at_s.push_back(Ms(push.due - run.measure_start) / 1e3);
        paced_triples += triples;
        paced_first = std::min(paced_first, push.due);
        paced_last = std::max(paced_last, event.received);
      }
    }
    for (const PushRecord& push : session->pushes) {
      if (!push.was_sent || push.due < run.measure_start) continue;
      if (plan.latency_critical && push.was_acked) {
        result.push_ack_ms.push_back(Ms(push.acked - push.sent));
      }
      if (plan.pacing == Pacing::kOpenLoop) {
        result.send_lag_ms.push_back(Ms(push.sent - push.due));
      }
    }

    // Reconcile with the server's own counters.
    uint64_t ok_pushes = 0;
    uint64_t refused = 0;
    uint64_t results = 0;
    uint64_t sheds = 0;
    uint64_t errors = 0;
    for (bool ok : push_ok) (ok ? ok_pushes : refused) += 1;
    for (const EventRecord& event : session->events) {
      if (!event.present) continue;
      if (event.kind == EventKind::kResult) ++results;
      if (event.kind == EventKind::kShed) ++sheds;
      if (event.kind == EventKind::kError) ++errors;
    }
    auto diff = [](uint64_t a, uint64_t b) { return a > b ? a - b : b - a; };
    auto& stats = session->stats;
    if (!session->has_stats) {
      result.unreconciled += push_ok.size();
    } else {
      result.unreconciled += diff(stats["pushed_batches"], ok_pushes) +
                             diff(stats["rejected_batches"], refused) +
                             diff(stats["result_events"], results) +
                             diff(stats["shed_events"], sheds) +
                             diff(stats["error_events"], errors);
    }
    result.rejected_batches += stats["rejected_batches"];
    result.shed_events += stats["shed_events"];
    result.error_events += stats["error_events"];
  }

  auto per_second = [](double triples, Clock::time_point first,
                       Clock::time_point last) {
    return last > first ? triples / (Ms(last - first) / 1000.0) : 0.0;
  };
  result.delivered_triples_per_s =
      bulk_triples > 0 ? per_second(bulk_triples, bulk_first, bulk_last)
                       : per_second(paced_triples, paced_first, paced_last);
  result.server_cpu_ms_per_window =
      cpu_windows == 0 ? 0
                       : (usage_end->cpu_ms - usage_start->cpu_ms) /
                             static_cast<double>(cpu_windows);
  return result;
}

}  // namespace perfbench
