// The system under test as a separate process, and loopback TCP
// connections to it speaking the framed wire protocol.
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <sys/types.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/wire.h"
#include "util/status.h"

namespace perfbench {

/// Resource usage of a process read from /proc.
struct ProcUsage {
  double cpu_ms = 0;      ///< utime + stime, all threads.
  double peak_rss_mb = 0;  ///< VmHWM.
};

/// A spawned `stream_server`: started on an ephemeral port, stopped by
/// closing its stdin. The destructor stops it (and kills it if it does
/// not exit), so no server outlives the benchmark.
class ServerProcess {
 public:
  /// Starts `path 0` and waits for its `listening port=N` line.
  static streamasp::StatusOr<std::unique_ptr<ServerProcess>> Spawn(
      const std::string& path);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  streamasp::StatusOr<ProcUsage> Usage() const;

  /// Closes stdin and waits up to `timeout_s` for a clean exit, then
  /// kills. OK only for a clean exit with status 0.
  streamasp::Status Stop(double timeout_s = 20);

 private:
  ServerProcess() = default;

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

/// One client connection. Send is safe from several threads; Receive is
/// for one reading thread at a time.
class Connection {
 public:
  static streamasp::StatusOr<std::unique_ptr<Connection>> Open(int port);

  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  /// Writes a whole pre-framed request (blocking).
  streamasp::Status SendFrame(const std::string& frame);
  streamasp::Status SendPayload(const std::string& payload) {
    return SendFrame(streamasp::EncodeFrame(payload));
  }

  /// Reads what the socket holds without blocking and appends every
  /// complete payload. Error on EOF, a socket error or a bad frame.
  streamasp::Status ReceiveAvailable(std::vector<std::string>* payloads);

  /// Blocks until one payload arrives (or `timeout_s` passes).
  streamasp::StatusOr<std::string> ReceiveOne(double timeout_s);

 private:
  explicit Connection(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::mutex send_mutex_;
  streamasp::FrameDecoder decoder_;
  std::vector<std::string> pending_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
