// The end-to-end run: a load generator driving a separately spawned
// stream_server over loopback TCP, timing every window from the due time
// of its push to the arrival of its result event, and checking every
// answer against the sync oracle.
#ifndef PERFBENCH_E2E_H_
#define PERFBENCH_E2E_H_

#include <string>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/workloads.h"

namespace perfbench {

struct E2EOptions {
  std::string server_path;
  double warmup_s = 1;   ///< Schedule time before the measured interval.
  double seconds = 10;   ///< Measured interval.
};

struct E2EResult {
  std::string error;  ///< Non-empty when the run could not complete.

  FailureTally tally;        ///< Every window of every session.
  size_t unreconciled = 0;   ///< |client counts - stats verb counts|.

  std::vector<double> setup_s;        ///< One per set-up repetition.
  std::vector<double> latency_ms;     ///< Measured latency-critical windows.
  std::vector<double> latency_at_s;   ///< Their due times, from the start
                                      ///< of the measured interval.
  std::vector<double> push_ack_ms;    ///< Push sent -> `ok push`.
  std::vector<double> send_lag_ms;    ///< Push sent - push due (open loop).
  double delivered_triples_per_s = 0;
  double server_cpu_ms_per_window = 0;
  double peak_rss_mb = 0;

  /// Summed over sessions from the `stats` verb.
  uint64_t rejected_batches = 0;
  uint64_t shed_events = 0;
  uint64_t error_events = 0;

  bool ok() const { return error.empty(); }
};

E2EResult RunEndToEnd(const Workload& workload, const E2EOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_E2E_H_
