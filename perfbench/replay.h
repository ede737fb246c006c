// The traced replay: the latency-critical session's generated inputs fed
// in-process through each layer's public functions, in the order the
// server calls them, with a span around every call. Gives the per-layer
// self times, counts and the paper's R / PR_Dep / PR_Ran_2 claims.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "perfbench/workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct ReplayResult {
  std::string error;          ///< Non-empty when the replay failed.
  size_t windows = 0;
  size_t answer_mismatches = 0;  ///< Replayed windows the oracle rejects.
  double service_p50_ms = 0;  ///< Median root-span (whole window) time.
  double prdep_accuracy = 0;
  std::vector<Metric> metrics;
  /// Written files: the Chrome trace-event JSON and the self-time summary.
  std::string trace_path;
  std::string summary_path;

  bool ok() const { return error.empty(); }
};

/// Replays `windows` windows of `plan` and writes the span trace and the
/// self-time summary under `out_dir` with file names starting `label`.
ReplayResult RunTracedReplay(const SessionPlan& plan, size_t windows,
                             const std::string& out_dir,
                             const std::string& label);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
