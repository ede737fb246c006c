#include "perfbench/workloads.h"

#include <cmath>

#include "server/wire.h"
#include "stream/generator.h"
#include "streamrule/traffic_workload.h"

namespace perfbench {

namespace {

using namespace streamasp;

// The recursive reachability program of bench/async_pipeline.cc: the
// transitive closure makes instantiation the dominant per-window cost,
// which is what the incremental grounder and the maintained fixpoint cut.
constexpr char kReachProgram[] = R"(
  #input link/2.
  #input high/1.
  reach(X, Y) :- link(X, Y).
  reach(X, Z) :- reach(X, Y), link(Y, Z).
  alarm(X, Y) :- high(X), high(Y), reach(X, Y).
  #show alarm/2.
)";

constexpr size_t kTrafficWindow = 5000;   // The paper's smallest window.
constexpr size_t kTrafficDistinct = 64;   // Distinct windows, then repeat.
constexpr size_t kBulkDistinct = 16;
constexpr size_t kReachWindow = 1600;
constexpr size_t kReachSlide = 100;
constexpr size_t kReachPeriodSlides = 64;  // Stream repeats every 6400.
constexpr size_t kReachNodes = 48;

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 31;
  return x;
}

std::string RenderLine(const Triple& triple, const SymbolTable& symbols) {
  std::string line = symbols.NameOf(triple.predicate);
  line.push_back(' ');
  line += triple.subject.ToString(symbols);
  if (triple.object.has_value()) {
    line.push_back(' ');
    line += triple.object.ToString(symbols);
  }
  return line;
}

std::vector<std::string> RenderLines(const std::vector<Triple>& triples,
                                     const SymbolTable& symbols) {
  std::vector<std::string> lines;
  lines.reserve(triples.size());
  for (const Triple& triple : triples) {
    lines.push_back(RenderLine(triple, symbols));
  }
  return lines;
}

void AddFrame(SessionPlan* plan, const std::vector<std::string>& lines,
              size_t begin, size_t end) {
  std::string payload = "push " + plan->name;
  for (size_t i = begin; i < end; ++i) {
    payload.push_back('\n');
    payload += lines[i % lines.size()];
  }
  plan->frames.push_back(EncodeFrame(payload));
  plan->frame_triples.push_back(end - begin);
}

/// A tumbling traffic session over P': `distinct` windows of the paper's
/// stream schema, one push per window.
SessionPlan TrafficSession(const std::string& name, uint64_t seed,
                           size_t distinct) {
  SessionPlan plan;
  plan.name = name;
  plan.program_text =
      TrafficProgramText(TrafficProgramVariant::kPPrime, /*with_show=*/true);
  plan.window = kTrafficWindow;
  plan.open_options =
      "v=1 window=" + std::to_string(kTrafficWindow) + " async=1";

  SymbolTablePtr symbols = MakeSymbolTable();
  GeneratorOptions options;
  options.seed = seed;
  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols), options);
  for (size_t k = 0; k < distinct; ++k) {
    plan.distinct_windows.push_back(
        RenderLines(generator.GenerateWindow(kTrafficWindow), *symbols));
    const std::vector<std::string>& lines = plan.distinct_windows.back();
    AddFrame(&plan, lines, 0, lines.size());
  }
  return plan;
}

/// A sliding reachability session: a 48-node edge stream that repeats
/// every kReachPeriodSlides slides, so window k and window k + period hold
/// the same triples and the oracle reasons the period once.
SessionPlan ReachSession(const std::string& name, uint64_t seed) {
  SessionPlan plan;
  plan.name = name;
  plan.program_text = kReachProgram;
  plan.window = kReachWindow;
  plan.slide = kReachSlide;
  plan.reuse_solving = true;
  plan.open_options = "v=1 window=" + std::to_string(kReachWindow) +
                      " slide=" + std::to_string(kReachSlide) +
                      " reuse=solve async=1 max_inflight=1 inflight=8";

  const size_t period = kReachPeriodSlides * kReachSlide;
  SymbolTablePtr symbols = MakeSymbolTable();
  GeneratorOptions options;
  options.seed = seed;
  options.location_divisor = period / kReachNodes;
  options.value_range = kReachNodes;
  std::vector<StreamPredicate> schema(2);
  schema[0].predicate = symbols->Intern("link");
  schema[0].has_object = true;
  schema[0].weight = 4.0;
  schema[1].predicate = symbols->Intern("high");
  schema[1].has_object = false;
  schema[1].weight = 1.0;
  SyntheticStreamGenerator generator(schema, options);
  const std::vector<std::string> stream =
      RenderLines(generator.GenerateWindow(period), *symbols);

  for (size_t k = 0; k < kReachPeriodSlides; ++k) {
    std::vector<std::string> window;
    window.reserve(kReachWindow);
    for (size_t i = 0; i < kReachWindow; ++i) {
      window.push_back(stream[(k * kReachSlide + i) % period]);
    }
    plan.distinct_windows.push_back(std::move(window));
  }
  AddFrame(&plan, stream, 0, kReachWindow);
  for (size_t c = 0; c < kReachPeriodSlides; ++c) {
    AddFrame(&plan, stream, c * kReachSlide, (c + 1) * kReachSlide);
  }
  return plan;
}

size_t OpenLoopPushes(double rate, double total_s, bool sliding) {
  return static_cast<size_t>(std::ceil(rate * total_s)) + (sliding ? 1 : 0);
}

}  // namespace

size_t SessionPlan::FrameOf(size_t push_index) const {
  if (slide == 0) return push_index % frames.size();
  if (push_index == 0) return 0;
  const size_t slides = frames.size() - 1;
  return 1 + (window / slide + push_index - 1) % slides;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "traffic-paced", "reach-sliding", "tenants-contended"};
  return names;
}

bool MakeWorkload(const std::string& name, uint64_t seed, double warmup_s,
                  double seconds, Workload* workload) {
  workload->name = name;
  workload->sessions.clear();
  const double total_s = warmup_s + seconds;
  if (name == "traffic-paced") {
    // The paper's program and smallest window, one async session, open
    // loop at 80 windows/s (400k triples/s).
    SessionPlan plan = TrafficSession("traffic", MixSeed(seed, 1),
                                      kTrafficDistinct);
    plan.rate = 80;
    plan.pushes = OpenLoopPushes(plan.rate, total_s, false);
    plan.latency_critical = true;
    workload->sessions.push_back(std::move(plan));
    return true;
  }
  if (name == "reach-sliding") {
    // Two independent sliding sessions at 25 slides/s each, half a slide
    // interval apart, so a run has enough windows for a p99.
    constexpr size_t kSessions = 2;
    for (size_t s = 0; s < kSessions; ++s) {
      SessionPlan plan =
          ReachSession("reach" + std::to_string(s), MixSeed(seed, 10 + s));
      plan.rate = 25;
      plan.offset_s = static_cast<double>(s) / (kSessions * plan.rate);
      plan.pushes = OpenLoopPushes(plan.rate, total_s, true);
      plan.latency_critical = true;
      workload->sessions.push_back(std::move(plan));
    }
    return true;
  }
  if (name == "tenants-contended") {
    // A weighted steady tenant, open loop, against two closed-loop bulk
    // tenants that each keep two windows outstanding.
    SessionPlan steady = TrafficSession("steady", MixSeed(seed, 20),
                                        kTrafficDistinct);
    steady.open_options += " weight=4 max_inflight=2";
    steady.rate = 50;
    steady.pushes = OpenLoopPushes(steady.rate, total_s, false);
    steady.latency_critical = true;
    workload->sessions.push_back(std::move(steady));
    for (size_t b = 0; b < 2; ++b) {
      SessionPlan bulk = TrafficSession("bulk" + std::to_string(b),
                                        MixSeed(seed, 30 + b), kBulkDistinct);
      bulk.open_options += " weight=1";
      bulk.pacing = Pacing::kClosedLoop;
      bulk.outstanding = 2;
      workload->sessions.push_back(std::move(bulk));
    }
    return true;
  }
  return false;
}

}  // namespace perfbench
