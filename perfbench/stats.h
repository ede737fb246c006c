// Pure measurement arithmetic shared by the load generator, the traced
// replay and the benchmark's own tests: the one percentile rule, window
// failure accounting, and span self-time.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile as reported: the percentile actually used, its value and
/// how many samples it rests on.
struct PercentileResult {
  double percentile = 0;  ///< In (0, 100]; 0 when there were no samples.
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;  ///< Samples strictly above the reported rank.
};

/// Nearest-rank percentile with the tail rule: a requested percentile is
/// lowered to the highest one that still leaves at least 10 samples above
/// its rank (p99 needs 1000 samples). A tail of fewer than 20 samples is
/// reported as the median.
PercentileResult Percentile(std::vector<double> values, double wanted);

/// The median, over `segments` equal slices of [0, span) by `times`, of
/// each slice's `wanted` percentile: a tail that one burst of host noise
/// inside a run cannot move. `percentile` and `beyond` are the smallest
/// over the slices; `samples` counts every sample.
PercentileResult SegmentedPercentile(const std::vector<double>& values,
                                     const std::vector<double>& times,
                                     double span, size_t segments,
                                     double wanted);

/// What became of one window the client expected the server to emit.
enum class WindowOutcome : uint8_t {
  kMissing,    ///< No event arrived for it (the initial state).
  kRefused,    ///< Its push was answered with an error reply.
  kShed,       ///< A shed event arrived in its slot.
  kError,      ///< An error event arrived in its slot.
  kMismatch,   ///< A result event arrived with answers the oracle rejects.
  kDelivered,  ///< A result event arrived with the oracle's answers.
};

/// Windows by outcome. Every window counts exactly once.
struct FailureTally {
  size_t expected = 0;
  size_t delivered = 0;
  size_t refused = 0;
  size_t shed = 0;
  size_t error = 0;
  size_t mismatch = 0;
  size_t missing = 0;

  size_t failed() const { return expected - delivered; }
  double failed_ratio() const {
    return expected == 0 ? 0.0
                         : static_cast<double>(failed()) /
                               static_cast<double>(expected);
  }
  void Add(WindowOutcome outcome);
  void Merge(const FailureTally& other);
};

FailureTally Tally(const std::vector<WindowOutcome>& outcomes);

/// One server event as the client classified it.
enum class EventKind : uint8_t { kResult, kShed, kError };

/// Maps events to windows. Window i is closed by push i; the server
/// numbers the windows of admitted pushes densely from 0, so the window of
/// the j-th admitted push carries event sequence j. `push_ok[i]` says
/// whether push i was acknowledged; `event_kind[seq]`/`has_event[seq]`
/// hold what arrived per sequence; `answers_match[seq]` is the oracle's
/// verdict on a result event.
std::vector<WindowOutcome> AssignOutcomes(
    const std::vector<bool>& push_ok, const std::vector<bool>& has_event,
    const std::vector<EventKind>& event_kind,
    const std::vector<bool>& answers_match);

/// A span of the traced replay: one call into one layer.
struct Span {
  std::string name;   ///< "<module>.<layer>", e.g. "server.parse_request".
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;    ///< Index of the enclosing span, -1 for a root.
  uint64_t window = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children clipped to the parent, their
/// overlaps counted once). Same order as `spans`.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Splits a rendered answer "{a(1), b(2, 3)}" into its atoms, sorted, so
/// that answers compare independently of the atom order either side
/// rendered them in.
std::vector<std::string> CanonicalAnswer(const std::string& line);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
