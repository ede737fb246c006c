#include "perfbench/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace perfbench {

using namespace streamasp;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Status Errno(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

}  // namespace

StatusOr<std::unique_ptr<ServerProcess>> ServerProcess::Spawn(
    const std::string& path) {
  int in_pipe[2];
  int out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) return Errno("pipe");
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return Errno("pipe");
  }
  // posix_spawn rather than fork: its cost does not grow with the
  // benchmark's own (input-laden) address space, which keeps setup_s
  // about the server.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  const std::string port_arg = "0";
  char* const argv[] = {const_cast<char*>(path.c_str()),
                        const_cast<char*>(port_arg.c_str()), nullptr};
  pid_t pid = -1;
  const int spawned =
      ::posix_spawn(&pid, path.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  if (spawned != 0) {
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    errno = spawned;
    return Errno("spawn " + path);
  }
  std::unique_ptr<ServerProcess> server(new ServerProcess());
  server->pid_ = pid;
  server->stdin_fd_ = in_pipe[1];
  server->stdout_fd_ = out_pipe[0];

  // Read stdout up to the "listening port=N" line.
  std::string line;
  const Clock::time_point start = Clock::now();
  while (line.find('\n') == std::string::npos) {
    const double left_s = 30 - SecondsSince(start);
    if (left_s <= 0) return InternalError("server did not report its port");
    pollfd readable{server->stdout_fd_, POLLIN, 0};
    if (::poll(&readable, 1, static_cast<int>(left_s * 1000) + 1) <= 0) {
      continue;
    }
    char buffer[256];
    const ssize_t n = ::read(server->stdout_fd_, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return InternalError("server exited before listening: " + path);
    line.append(buffer, static_cast<size_t>(n));
  }
  const std::string prefix = "listening port=";
  const size_t at = line.find(prefix);
  if (at == std::string::npos) {
    return InternalError("unexpected server banner: " + line);
  }
  server->port_ = std::atoi(line.c_str() + at + prefix.size());
  if (server->port_ <= 0) return InternalError("bad server port: " + line);
  return server;
}

ServerProcess::~ServerProcess() {
  Status status = Stop();
  (void)status;  // A failed stop has already killed and reaped the child.
}

StatusOr<ProcUsage> ServerProcess::Usage() const {
  ProcUsage usage;
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  const size_t paren = text.rfind(')');
  if (paren == std::string::npos) return InternalError("cannot read stat");
  std::istringstream fields(text.substr(paren + 2));
  std::string field;
  double utime = 0;
  double stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14) utime = std::stod(field);
    if (index == 15) stime = std::stod(field);
  }
  usage.cpu_ms = (utime + stime) * 1000.0 /
                 static_cast<double>(::sysconf(_SC_CLK_TCK));

  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      usage.peak_rss_mb = std::stod(line.substr(6)) / 1024.0;
    }
  }
  if (usage.peak_rss_mb <= 0) return InternalError("cannot read VmHWM");
  return usage;
}

Status ServerProcess::Stop(double timeout_s) {
  if (pid_ <= 0) return OkStatus();
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  int wstatus = 0;
  bool exited = false;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < timeout_s) {
    const pid_t done = ::waitpid(pid_, &wstatus, WNOHANG);
    if (done == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &wstatus, 0);
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  if (!exited) return InternalError("server did not exit; killed");
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return InternalError("server exited abnormally");
  }
  return OkStatus();
}

StatusOr<std::unique_ptr<Connection>> Connection::Open(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Errno("connect");
    ::close(fd);
    return status;
  }
  int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return std::unique_ptr<Connection>(new Connection(fd));
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

Status Connection::SendFrame(const std::string& frame) {
  std::lock_guard<std::mutex> lock(send_mutex_);
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  return OkStatus();
}

Status Connection::ReceiveAvailable(std::vector<std::string>* payloads) {
  for (std::string& payload : pending_) payloads->push_back(std::move(payload));
  pending_.clear();
  char buffer[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0) return Errno("recv");
    if (n == 0) return InternalError("server closed the connection");
    decoder_.Feed(std::string_view(buffer, static_cast<size_t>(n)));
    std::string payload;
    while (decoder_.Next(&payload)) payloads->push_back(std::move(payload));
    if (!decoder_.status().ok()) return decoder_.status();
  }
  return OkStatus();
}

StatusOr<std::string> Connection::ReceiveOne(double timeout_s) {
  const Clock::time_point start = Clock::now();
  while (pending_.empty()) {
    const double left_s = timeout_s - SecondsSince(start);
    if (left_s <= 0) return InternalError("timed out waiting for a reply");
    pollfd readable{fd_, POLLIN, 0};
    if (::poll(&readable, 1, static_cast<int>(left_s * 1000) + 1) <= 0) {
      continue;
    }
    std::vector<std::string> payloads;
    STREAMASP_RETURN_IF_ERROR(ReceiveAvailable(&payloads));
    for (std::string& payload : payloads) pending_.push_back(std::move(payload));
  }
  std::string payload = std::move(pending_.front());
  pending_.erase(pending_.begin());
  return payload;
}

}  // namespace perfbench
