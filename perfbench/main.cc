// perfbench: the end-to-end benchmark of the session server.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --server <path to stream_server> [--out-dir <dir>]
//
// Spawns the server, drives one workload over loopback TCP, checks every
// answer against the sync oracle and prints, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics (traced replay
// plus the wire-observed ones) with --trace 1. Human-readable notes go to
// stderr. perfbench/run.py builds this and the server, then runs it.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/e2e.h"
#include "perfbench/replay.h"
#include "perfbench/stats.h"
#include "perfbench/workloads.h"

namespace {

using namespace perfbench;

constexpr double kWarmupSeconds = 1.0;
/// The reported p90 is the median of this many consecutive slices' p90s.
constexpr size_t kTailSegments = 5;

/// Replayed windows per workload: enough for steady per-window medians
/// and several grounder compactions on the sliding workload.
size_t ReplayWindows(const SessionPlan& plan) {
  return plan.slide == 0 ? 200 : 1 + 5 * (plan.frames.size() - 1);
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --server <stream_server> [--out-dir <dir>]\n");
}

void PrintMetric(const Metric& metric) {
  std::fprintf(stderr, "  %-40s %14.6g %s\n", metric.name.c_str(),
               metric.value, metric.unit.c_str());
}

void PrintLatency(const PercentileResult& p) {
  std::fprintf(stderr,
               "  window latency p%.2f = %.6g ms over %zu samples (%zu "
               "beyond)\n",
               p.percentile, p.value, p.samples, p.beyond);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string server_path;
  std::string out_dir = ".";
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      seed = std::atoll(value);
    } else if (key == "--seconds") {
      seconds = std::atof(value);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--server") {
      server_path = value;
    } else if (key == "--out-dir") {
      out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (workload_name.empty() || server_path.empty() || seed < 0 ||
      seconds <= 0 || (trace != 0 && trace != 1)) {
    Usage();
    return 2;
  }
  Workload workload;
  if (!MakeWorkload(workload_name, static_cast<uint64_t>(seed),
                    kWarmupSeconds, seconds, &workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
    return 2;
  }

  E2EOptions options;
  options.server_path = server_path;
  options.warmup_s = kWarmupSeconds;
  options.seconds = seconds;
  const E2EResult e2e = RunEndToEnd(workload, options);
  if (!e2e.ok()) {
    std::fprintf(stderr, "perfbench %s: %s\n", workload_name.c_str(),
                 e2e.error.c_str());
    return 1;
  }

  const PercentileResult p50 = Percentile(e2e.latency_ms, 50);
  const PercentileResult p90 = SegmentedPercentile(
      e2e.latency_ms, e2e.latency_at_s, seconds, kTailSegments, 90);
  const PercentileResult p99 = Percentile(e2e.latency_ms, 99);
  const PercentileResult setup = Percentile(e2e.setup_s, 50);
  const FailureTally& tally = e2e.tally;
  std::fprintf(stderr,
               "perfbench %s seed=%lld: %zu windows expected, %zu delivered "
               "correct (refused %zu, shed %zu, error %zu, mismatch %zu, "
               "missing %zu), %zu unreconciled with the stats verb\n",
               workload_name.c_str(), seed, tally.expected, tally.delivered,
               tally.refused, tally.shed, tally.error, tally.mismatch,
               tally.missing, e2e.unreconciled);
  PrintLatency(p50);
  PrintLatency(p90);
  PrintLatency(p99);
  if (p99.percentile < 99) {
    std::fprintf(stderr, "  warning: too few windows for p99\n");
  }

  std::vector<Metric> metrics;
  bool correct = tally.failed() == 0 && e2e.unreconciled == 0;
  if (trace == 0) {
    metrics = {
        {"setup_s", setup.value, "s"},
        {"window_latency_p50_ms", p50.value, "ms"},
        {"delivered_triples_per_s", e2e.delivered_triples_per_s, "triples/s"},
        {"server_cpu_ms_per_window", e2e.server_cpu_ms_per_window, "ms"},
        {"peak_rss_mb", e2e.peak_rss_mb, "MiB"},
        {"delivered_window_ratio", 1.0 - tally.failed_ratio(), "ratio"},
    };
  } else {
    const SessionPlan* traced = &workload.sessions.front();
    for (const SessionPlan& plan : workload.sessions) {
      if (plan.latency_critical) {
        traced = &plan;
        break;
      }
    }
    const std::string label =
        "perfbench-" + workload_name + "-seed" + std::to_string(seed);
    const ReplayResult replay =
        RunTracedReplay(*traced, ReplayWindows(*traced), out_dir, label);
    if (!replay.ok()) {
      std::fprintf(stderr, "perfbench %s replay: %s\n", workload_name.c_str(),
                   replay.error.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "  traced replay: %zu windows, %zu answer mismatches, "
                 "trace %s, self-time summary %s\n",
                 replay.windows, replay.answer_mismatches,
                 replay.trace_path.c_str(), replay.summary_path.c_str());
    correct = correct && replay.answer_mismatches == 0 &&
              replay.prdep_accuracy == 1.0;
    metrics = replay.metrics;
    metrics.push_back({"server.push_ack_p50_ms",
                       Percentile(e2e.push_ack_ms, 50).value, "ms"});
    metrics.push_back({"streamrule.wait_p50_ms",
                       p50.value - replay.service_p50_ms, "ms"});
    metrics.push_back({"server.rejected_batches",
                       static_cast<double>(e2e.rejected_batches), "count"});
    metrics.push_back({"server.shed_events",
                       static_cast<double>(e2e.shed_events), "count"});
    metrics.push_back({"server.error_events",
                       static_cast<double>(e2e.error_events), "count"});
    metrics.push_back({"bench.send_lag_p99_ms",
                       Percentile(e2e.send_lag_ms, 99).value, "ms"});
    metrics.push_back({"bench.failed_window_ratio", tally.failed_ratio(),
                       "ratio"});
    metrics.push_back({"bench.window_latency_p90_ms", p90.value, "ms"});
    metrics.push_back({"bench.window_latency_p99_ms", p99.value, "ms"});
    metrics.push_back({"bench.latency_samples",
                       static_cast<double>(p50.samples), "count"});
  }
  for (const Metric& metric : metrics) PrintMetric(metric);

  const size_t failed =
      std::min(tally.expected, tally.failed() + e2e.unreconciled);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", tally.expected, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
