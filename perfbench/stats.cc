#include "perfbench/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

PercentileResult Percentile(std::vector<double> values, double wanted) {
  constexpr double kMinBeyond = 10;
  PercentileResult out;
  out.samples = values.size();
  if (values.empty()) return out;
  const double n = static_cast<double>(values.size());
  double p = std::min(100.0, std::max(wanted, 0.0));
  if (p > 50.0) {
    const double supported = 100.0 * (n - kMinBeyond) / n;
    p = std::max(50.0, std::min(p, supported));
  }
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it. The epsilon keeps an exact product from rounding up a rank.
  size_t rank = static_cast<size_t>(std::ceil(p * n / 100.0 - 1e-9));
  rank = std::min(std::max<size_t>(rank, 1), values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  out.percentile = p;
  out.value = values[rank - 1];
  out.beyond = values.size() - rank;
  return out;
}

PercentileResult SegmentedPercentile(const std::vector<double>& values,
                                     const std::vector<double>& times,
                                     double span, size_t segments,
                                     double wanted) {
  std::vector<std::vector<double>> slices(segments);
  for (size_t i = 0; i < values.size() && i < times.size(); ++i) {
    const double slot = std::floor(times[i] / span * segments);
    const size_t slice = static_cast<size_t>(
        std::min(std::max(slot, 0.0), static_cast<double>(segments - 1)));
    slices[slice].push_back(values[i]);
  }
  PercentileResult out;
  out.samples = values.size();
  out.percentile = wanted;
  out.beyond = values.size();
  std::vector<double> tails;
  for (std::vector<double>& slice : slices) {
    if (slice.empty()) continue;
    const PercentileResult tail = Percentile(std::move(slice), wanted);
    tails.push_back(tail.value);
    out.percentile = std::min(out.percentile, tail.percentile);
    out.beyond = std::min(out.beyond, tail.beyond);
  }
  if (tails.empty()) return PercentileResult{};
  out.value = Percentile(std::move(tails), 50).value;
  return out;
}

void FailureTally::Add(WindowOutcome outcome) {
  ++expected;
  switch (outcome) {
    case WindowOutcome::kDelivered:
      ++delivered;
      break;
    case WindowOutcome::kRefused:
      ++refused;
      break;
    case WindowOutcome::kShed:
      ++shed;
      break;
    case WindowOutcome::kError:
      ++error;
      break;
    case WindowOutcome::kMismatch:
      ++mismatch;
      break;
    case WindowOutcome::kMissing:
      ++missing;
      break;
  }
}

void FailureTally::Merge(const FailureTally& other) {
  expected += other.expected;
  delivered += other.delivered;
  refused += other.refused;
  shed += other.shed;
  error += other.error;
  mismatch += other.mismatch;
  missing += other.missing;
}

FailureTally Tally(const std::vector<WindowOutcome>& outcomes) {
  FailureTally tally;
  for (WindowOutcome outcome : outcomes) tally.Add(outcome);
  return tally;
}

std::vector<WindowOutcome> AssignOutcomes(
    const std::vector<bool>& push_ok, const std::vector<bool>& has_event,
    const std::vector<EventKind>& event_kind,
    const std::vector<bool>& answers_match) {
  std::vector<WindowOutcome> outcomes(push_ok.size(), WindowOutcome::kMissing);
  size_t sequence = 0;
  for (size_t i = 0; i < push_ok.size(); ++i) {
    if (!push_ok[i]) {
      outcomes[i] = WindowOutcome::kRefused;
      continue;
    }
    const size_t seq = sequence++;
    if (seq >= has_event.size() || !has_event[seq]) continue;  // Missing.
    switch (event_kind[seq]) {
      case EventKind::kShed:
        outcomes[i] = WindowOutcome::kShed;
        break;
      case EventKind::kError:
        outcomes[i] = WindowOutcome::kError;
        break;
      case EventKind::kResult:
        outcomes[i] = seq < answers_match.size() && answers_match[seq]
                          ? WindowOutcome::kDelivered
                          : WindowOutcome::kMismatch;
        break;
    }
  }
  return outcomes;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent >= 0 && static_cast<size_t>(parent) < spans.size()) {
      children[parent].push_back(i);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    covered.clear();
    for (size_t child : children[i]) {
      const int64_t start = std::max(spans[child].start_ns, span.start_ns);
      const int64_t end = std::min(spans[child].end_ns, span.end_ns);
      if (end > start) covered.emplace_back(start, end);
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t run_start = 0;
    int64_t run_end = -1;
    bool open = false;
    for (const auto& [start, end] : covered) {
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) union_ns += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) union_ns += run_end - run_start;
    self[i] = std::max<int64_t>(0, span.end_ns - span.start_ns) - union_ns;
  }
  return self;
}

std::vector<std::string> CanonicalAnswer(const std::string& line) {
  std::vector<std::string> atoms;
  size_t begin = 0;
  size_t end = line.size();
  if (end > 0 && line[0] == '{') begin = 1;
  if (end > begin && line[end - 1] == '}') --end;
  int depth = 0;
  std::string current;
  for (size_t i = begin; i < end; ++i) {
    const char c = line[i];
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      atoms.push_back(current);
      current.clear();
      if (i + 1 < end && line[i + 1] == ' ') ++i;
      continue;
    }
    current.push_back(c);
  }
  if (!current.empty()) atoms.push_back(current);
  std::sort(atoms.begin(), atoms.end());
  return atoms;
}

}  // namespace perfbench
