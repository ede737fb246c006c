// Tests of the benchmark's own arithmetic: the percentile rule, window
// failure accounting and span self time. Exits non-zero on a failure.
//
//   .bench_build/perfbench/perfbench_test

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/oracle.h"
#include "perfbench/stats.h"

namespace {

using namespace perfbench;

int failures = 0;

void Check(bool condition, const char* what, int line) {
  if (!condition) {
    std::fprintf(stderr, "stats_test.cc:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(condition) Check((condition), #condition, __LINE__)

std::vector<double> Ramp(size_t n) {
  std::vector<double> values;
  for (size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
  return values;  // n, n-1, ..., 1: the helper must not assume order.
}

void TestPercentileRule() {
  // p99 is reported as p99 only with at least 10 samples beyond it.
  PercentileResult p = Percentile(Ramp(1000), 99);
  CHECK(p.percentile == 99);
  CHECK(p.value == 990);
  CHECK(p.beyond == 10);
  CHECK(p.samples == 1000);

  // One sample short: the percentile drops, 10 samples stay beyond it.
  p = Percentile(Ramp(999), 99);
  CHECK(p.percentile < 99);
  CHECK(p.beyond == 10);
  CHECK(p.value == 989);

  // 100 samples support p90 and no higher.
  p = Percentile(Ramp(100), 99);
  CHECK(std::fabs(p.percentile - 90) < 1e-9);
  CHECK(p.value == 90);
  CHECK(p.beyond == 10);

  // The median needs no tail: 5 samples give the middle one.
  p = Percentile(Ramp(5), 50);
  CHECK(p.percentile == 50);
  CHECK(p.value == 3);
  // A tail of too few samples falls back to the median.
  p = Percentile(Ramp(5), 99);
  CHECK(p.percentile == 50);
  CHECK(p.value == 3);

  p = Percentile({}, 50);
  CHECK(p.samples == 0);
  CHECK(p.percentile == 0);
}

void TestSegmentedPercentile() {
  // Five 1-second slices of 100 samples (1..100 each): every slice's p90
  // is 90. A burst that inflates one slice moves its p90, not the median.
  std::vector<double> values;
  std::vector<double> times;
  for (size_t slice = 0; slice < 5; ++slice) {
    for (size_t i = 1; i <= 100; ++i) {
      values.push_back(slice == 2 ? 1000.0 + i : static_cast<double>(i));
      times.push_back(static_cast<double>(slice) + i / 101.0);
    }
  }
  const PercentileResult p = SegmentedPercentile(values, times, 5, 5, 90);
  CHECK(p.value == 90);
  CHECK(p.percentile == 90);
  CHECK(p.beyond == 10);
  CHECK(p.samples == 500);
  // The plain p90 of the same samples is pulled into the burst.
  CHECK(Percentile(values, 90).value > 90);
  CHECK(SegmentedPercentile({}, {}, 5, 5, 90).samples == 0);
}

void TestFailureAccounting() {
  // Pushes: 0 ok, 1 refused, 2..5 ok. Admitted windows take sequences
  // 0..4 in push order; a refused push consumes no sequence.
  const std::vector<bool> push_ok = {true, false, true, true, true, true};
  const std::vector<bool> has_event = {true, true, true, true, false};
  const std::vector<EventKind> kinds = {EventKind::kResult, EventKind::kShed,
                                        EventKind::kError, EventKind::kResult,
                                        EventKind::kResult};
  const std::vector<bool> matches = {true, false, false, false, false};
  const std::vector<WindowOutcome> outcomes =
      AssignOutcomes(push_ok, has_event, kinds, matches);
  CHECK(outcomes.size() == 6);
  CHECK(outcomes[0] == WindowOutcome::kDelivered);
  CHECK(outcomes[1] == WindowOutcome::kRefused);
  CHECK(outcomes[2] == WindowOutcome::kShed);
  CHECK(outcomes[3] == WindowOutcome::kError);
  CHECK(outcomes[4] == WindowOutcome::kMismatch);
  CHECK(outcomes[5] == WindowOutcome::kMissing);

  // Each failure kind counts once, and only once.
  const FailureTally tally = Tally(outcomes);
  CHECK(tally.expected == 6);
  CHECK(tally.delivered == 1);
  CHECK(tally.refused == 1);
  CHECK(tally.shed == 1);
  CHECK(tally.error == 1);
  CHECK(tally.mismatch == 1);
  CHECK(tally.missing == 1);
  CHECK(tally.failed() == 5);
  CHECK(std::fabs(tally.failed_ratio() - 5.0 / 6.0) < 1e-12);

  // Events beyond the pushes (none expected) never create windows, and a
  // clean run fails nothing.
  const std::vector<WindowOutcome> clean = AssignOutcomes(
      {true, true}, {true, true, true},
      {EventKind::kResult, EventKind::kResult, EventKind::kResult},
      {true, true, true});
  CHECK(Tally(clean).failed() == 0);
  CHECK(Tally(clean).expected == 2);
  CHECK(FailureTally().failed_ratio() == 0);
}

void TestSelfTime() {
  // root [0,100] with children A [0,40] (holding A1 [10,20]) and B
  // [40,90]: self times sum to the root's duration.
  std::vector<Span> spans = {{"window", 0, 100, -1, 0},
                             {"a", 0, 40, 0, 0},
                             {"b", 40, 90, 0, 0},
                             {"a1", 10, 20, 1, 0}};
  std::vector<int64_t> self = SelfTimes(spans);
  CHECK(self[0] == 10);
  CHECK(self[1] == 30);
  CHECK(self[2] == 50);
  CHECK(self[3] == 10);
  CHECK(self[0] + self[1] + self[2] + self[3] == 100);

  // Overlapping children are covered once; a child running past its
  // parent is clipped to it.
  spans = {{"window", 0, 100, -1, 0},
           {"x", 10, 30, 0, 0},
           {"y", 20, 50, 0, 0},
           {"z", 90, 120, 0, 0}};
  self = SelfTimes(spans);
  CHECK(self[0] == 50);
  CHECK(self[3] == 30);
}

void TestCanonicalAnswers() {
  const std::vector<std::string> atoms =
      CanonicalAnswer("{traffic_jam(7), alarm(2, 3), car_fire(1)}");
  CHECK(atoms.size() == 3);
  CHECK(atoms[0] == "alarm(2, 3)");
  CHECK(atoms[2] == "traffic_jam(7)");
  CHECK(CanonicalAnswer("{}").empty());
  CHECK(CanonicalWindowAnswers({"{b, a}", "{c}"}) ==
        CanonicalWindowAnswers({"{c}", "{a, b}"}));
  CHECK(CanonicalWindowAnswers({"{a}"}) != CanonicalWindowAnswers({"{a, b}"}));
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSegmentedPercentile();
  TestFailureAccounting();
  TestSelfTime();
  TestCanonicalAnswers();
  if (failures == 0) std::fprintf(stderr, "perfbench_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
