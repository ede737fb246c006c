// The benchmark's workloads: which sessions a run opens, what each pushes
// and on what schedule. Every input is generated from the run's seed and
// rendered to wire payloads before anything is timed.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// How a session's pushes are scheduled.
enum class Pacing {
  /// Push i is due at start + offset + i / rate, whatever the server does;
  /// latency is timed from the due time.
  kOpenLoop,
  /// The next push goes out only when an event frees one of `outstanding`
  /// slots.
  kClosedLoop,
};

/// One session of a workload. Window i of the session is closed by push i
/// and holds the triples of distinct window `DistinctOf(i)`; the inputs
/// repeat with a period of `distinct_windows.size()` windows, so the
/// oracle reasons each distinct window once.
struct SessionPlan {
  std::string name;
  std::string program_text;
  /// The `open` request's key=value options (after the session name).
  std::string open_options;
  size_t window = 0;
  size_t slide = 0;  ///< 0 for tumbling windows.
  /// The server reuses grounding and solving across windows (reuse=solve).
  bool reuse_solving = false;

  Pacing pacing = Pacing::kOpenLoop;
  double rate = 0;         ///< Open loop: pushes per second.
  double offset_s = 0;     ///< Open loop: phase of push 0.
  size_t outstanding = 0;  ///< Closed loop: windows kept in flight.
  size_t pushes = 0;       ///< Open loop: pushes in the run (warm-up included).
  /// Windows of this session feed the latency metrics.
  bool latency_critical = false;

  /// Triple lines of each distinct window's contents (the oracle's input).
  std::vector<std::vector<std::string>> distinct_windows;
  /// Framed `push` requests. Tumbling: one per distinct window. Sliding:
  /// frame 0 fills the first window, the rest are the periodic slides.
  std::vector<std::string> frames;
  std::vector<size_t> frame_triples;

  size_t DistinctOf(size_t window_index) const {
    return window_index % distinct_windows.size();
  }
  /// The frame push `i` sends.
  size_t FrameOf(size_t push_index) const;
};

struct Workload {
  std::string name;
  std::vector<SessionPlan> sessions;
};

/// Workload names in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` for a run of `warmup_s + seconds` seconds.
/// Deterministic in (name, seed, seconds). Returns false on an unknown
/// name.
bool MakeWorkload(const std::string& name, uint64_t seed, double warmup_s,
                  double seconds, Workload* workload);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
