// Sustained-throughput bench for the pipeline engine, on two axes.
//   * Engine shape, on the paper's traffic workload (P′): sync (the
//     one-window-at-a-time oracle), async at in-flight depths
//     {1, 2, 4, 8}, and async at depth 4 with num_shards {2, 4, 8} (mode
//     "sharded"): the key-flow analysis splits both P′ communities into
//     that many key buckets, so a window yields 2 × num_shards
//     partitions.
//   * Reuse, on a high-overlap sliding window (slide = window/16) over a
//     recursive reachability workload: cold, and the one reuse path (an
//     incremental grounder feeding a persistent warm-started solver), the
//     latter also with delta-sized model maintenance off and on the async
//     engine. Transitive closure makes instantiation the dominant
//     per-window cost, which is the regime the incremental grounder's
//     delta replay targets (the flat traffic rules ground in linear
//     time, so there is little instantiation to save there).
// Two burst-overload legs, unbucketed and at two buckets, drive a
// self-clocked flash-crowd stream against an undersized kDropOldest
// pipeline and report completeness/shed accounting.
// Every leg drives the unified StreamEngine facade; emission flows
// through the single ordered EmissionEvent handler. Emits one
// machine-readable JSON document on stdout (schema in bench/bench_json.h,
// shared with bench/multi_tenant); human-readable notes go to stderr.
//
// Throughput is items pushed / wall time of PushBatch+Flush (i.e. the rate
// the ingest side sustains while reasoning keeps up); window latency is the
// per-window reasoning latency distribution (p50/p99). Sliding runs emit
// more windows per item than tumbling runs and reason a different program,
// so their triples/s are only comparable to each other, which is exactly
// how the CI regression gate consumes them (reuse-on vs reuse-off ratios).
//
// Every leg has a name (async_pipeline --list-legs prints them, one per
// line); --leg=<name> runs that leg alone, so a caller can time each leg
// in a fresh process instead of on the heap the legs before it left
// behind. The CI gate does that and hands every leg's document to
// tools/check_bench_regression.py, which merges their runs.
//
// Usage: async_pipeline [items] [window_size] [--leg=<name> | --list-legs]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "asp/parser.h"
#include "bench/bench_json.h"
#include "stream/generator.h"
#include "streamrule/engine.h"
#include "streamrule/traffic_workload.h"
#include "util/timer.h"

namespace {

using namespace streamasp;
using bench::BenchRun;
using bench::Percentile;

/// Builds the engine `config` describes, pushes the whole stream behind a
/// wall timer, and fills the shared run record.
BenchRun RunOnce(std::string mode, const Program& program,
                 const std::vector<Triple>& stream,
                 const EngineConfig& config) {
  std::vector<double> latencies;
  StatusOr<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      &program, config, [&](EmissionEvent& event) {
        if (event.kind == EmissionEvent::Kind::kResult) {
          latencies.push_back(event.result->latency_ms);
        }
      });
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    std::exit(1);
  }

  WallTimer wall;
  (*engine)->PushBatch(stream);
  (*engine)->Flush();
  const double wall_ms = wall.ElapsedMillis();

  const PipelineOptions& options = config.pipeline;
  BenchRun run;
  run.mode = std::move(mode);
  run.shards = options.reasoner.num_shards;
  run.inflight = options.async ? options.max_inflight_windows : 0;
  run.workers = (*engine)->num_reason_workers();
  run.window_slide = options.window_slide;
  run.reuse = options.reasoner.reasoner.reuse_grounding;
  run.reuse_solving = options.reasoner.reasoner.solving.reuse_solving;
  run.wall_ms = wall_ms;
  run.triples_per_sec =
      wall_ms > 0 ? static_cast<double>(stream.size()) / (wall_ms / 1000.0)
                  : 0;
  run.p50_latency_ms = Percentile(latencies, 0.50);
  run.p99_latency_ms = Percentile(latencies, 0.99);
  bench::FillFromEngineStats((*engine)->stats(), &run);
  return run;
}

/// Tumbling windows of `window_size` items: the sync oracle when
/// `inflight` is 0, else the async engine with that many windows in
/// flight. `shards` bounds each community's key buckets.
EngineConfig Tumbling(size_t window_size, size_t inflight,
                      size_t shards = 0) {
  EngineConfig config;
  config.pipeline.window_size = window_size;
  config.pipeline.async = inflight > 0;
  config.pipeline.max_inflight_windows = inflight > 0 ? inflight : 4;
  config.pipeline.reasoner.num_shards = shards;
  return config;
}

// Graceful-degradation leg: a flash-crowd burst stream against a
// deliberately undersized async pipeline (two in-flight windows, a
// private pool of one thread per key bucket) with kDropOldest shedding,
// unbucketed (`shards` 0) or at `shards` buckets per community. Pacing
// is self-clocked rather than timed: valley windows are pushed behind a
// Flush() drain barrier, so during valleys ingest can never outrun
// service and nothing sheds; spike windows are pushed back-to-back, so
// during spikes ingest is effectively infinitely faster than service and
// the queue sheds spike_len - (capacity + 1) windows (the reasoning
// window holds one, the queue retains `capacity`). The shed fraction
// therefore depends only on the spike shape and queue capacity — not on
// host speed — which is what makes the completeness minimum in
// bench/baseline.json a meaningful machine-independent gate (worst case:
// every spike window past the reasoning one sheds, completeness
// 110/120).
BenchRun RunBurstOverload(const Program& program,
                          const SymbolTablePtr& symbols, size_t window_size,
                          size_t shards) {
  using Clock = std::chrono::steady_clock;
  const size_t burst_window = std::max<size_t>(100, window_size / 4);
  const size_t num_windows = 120;

  BurstOptions burst;
  burst.shape = BurstShape::kFlashCrowd;
  burst.period = 60 * burst_window;  // 6-window spikes, 54-window valleys.
  burst.burst_fraction = 0.1;

  EngineConfig config = Tumbling(burst_window, /*inflight=*/2, shards);
  config.pipeline.num_reason_workers = std::max<size_t>(shards, 1);
  config.pipeline.backpressure = BackpressurePolicy::kDropOldest;
  std::vector<Clock::time_point> close_times(num_windows);
  std::vector<double> latencies;
  std::vector<double> emit_latencies;
  StatusOr<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      &program, config, [&](EmissionEvent& event) {
        if (event.kind != EmissionEvent::Kind::kResult) return;
        latencies.push_back(event.result->latency_ms);
        if (event.sequence < close_times.size()) {
          emit_latencies.push_back(std::chrono::duration<double, std::milli>(
                                       Clock::now() -
                                       close_times[event.sequence])
                                       .count());
        }
      });
  if (!engine.ok()) {
    std::fprintf(stderr, "burst engine: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }

  BurstyStreamGenerator generator =
      MakeTrafficBurstGenerator(*symbols, 5, burst);
  WallTimer wall;
  for (size_t k = 0; k < num_windows; ++k) {
    const bool spike = generator.InBurst(generator.position());
    const std::vector<Triple> chunk = generator.Generate(burst_window);
    // Stamp before the push: the window closes inside PushBatch.
    close_times[k] = Clock::now();
    (*engine)->PushBatch(chunk);
    // Valley: drain before the next window (ingest at service rate).
    // Spike: no barrier — the next window lands immediately.
    if (!spike) (*engine)->Flush();
  }
  (*engine)->Flush();
  const double wall_ms = wall.ElapsedMillis();

  const EngineStats stats = (*engine)->stats();
  BenchRun run;
  run.mode = "burst-overload";
  run.workload = "traffic_pprime_flash_crowd";
  run.shards = shards;
  run.inflight = config.pipeline.max_inflight_windows;
  run.workers = (*engine)->num_reason_workers();
  run.wall_ms = wall_ms;
  run.triples_per_sec =
      wall_ms > 0 ? static_cast<double>(num_windows * burst_window) /
                        (wall_ms / 1000.0)
                  : 0;
  run.p50_latency_ms = Percentile(latencies, 0.50);
  run.p99_latency_ms = Percentile(latencies, 0.99);
  bench::FillFromEngineStats(stats, &run);
  run.p99_emit_latency_ms = Percentile(emit_latencies, 0.99);
  run.unaccounted_windows = static_cast<long long>(num_windows) -
                            static_cast<long long>(stats.accounted_windows());
  return run;
}

// The sliding-reuse showcase: recursive reachability over a sliding edge
// stream. Grounding (transitive closure instantiation) dominates each
// window, and consecutive windows share all but `slide` edges, so the
// incremental grounder retracts/replays a small delta instead of
// re-deriving the closure from scratch.
constexpr char kReachProgram[] = R"(
  #input link/2.
  #input high/1.
  reach(X, Y) :- link(X, Y).
  reach(X, Z) :- reach(X, Y), link(Y, Z).
  alarm(X, Y) :- high(X), high(Y), reach(X, Y).
  #show alarm/2.
)";

// async_inflight > 0 runs the async engine with that many windows in
// flight on a private 4-thread pool instead of the sync oracle.
BenchRun RunSlidingReach(const SymbolTablePtr& symbols, size_t items,
                         size_t window_size, bool reuse,
                         bool maintain_fixpoint = true,
                         size_t async_inflight = 0) {
  Parser parser(symbols);
  StatusOr<Program> program = parser.ParseProgram(kReachProgram);
  if (!program.ok()) {
    std::fprintf(stderr, "reach program: %s\n",
                 program.status().ToString().c_str());
    std::exit(1);
  }

  // A small node universe keeps the closure dense (subjects and objects
  // drawn from the same ~48 ids), which is what makes instantiation the
  // dominant cost.
  GeneratorOptions gen_options;
  gen_options.seed = 2017;
  gen_options.location_divisor = std::max<size_t>(1, items / 48);
  gen_options.value_range = 48;
  std::vector<StreamPredicate> schema(2);
  schema[0].predicate = symbols->Intern("link");
  schema[0].has_object = true;
  schema[0].weight = 4.0;
  schema[1].predicate = symbols->Intern("high");
  schema[1].has_object = false;
  schema[1].weight = 1.0;
  SyntheticStreamGenerator generator(schema, gen_options);
  const std::vector<Triple> stream = generator.GenerateWindow(items);

  const bool async = async_inflight > 0;
  EngineConfig config = Tumbling(window_size, async_inflight);
  config.pipeline.window_slide = std::max<size_t>(1, window_size / 16);
  config.pipeline.num_reason_workers = async ? 4 : 0;
  ReasonerOptions& reasoner = config.pipeline.reasoner.reasoner;
  reasoner.reuse_grounding = reuse;
  reasoner.solving.reuse_solving = reuse;
  reasoner.solving.maintain_fixpoint = maintain_fixpoint;
  std::string mode = !reuse             ? "sliding-tc"
                     : maintain_fixpoint ? "sliding-tc-reuse-solve"
                                         : "sliding-tc-reuse-solve-patched";
  if (async) mode += "-async";
  BenchRun run = RunOnce(std::move(mode), *program, stream, config);
  run.workload = "reach_tc";
  return run;
}

/// One timed leg: a name (unique across the bench) and the runs it adds.
struct Leg {
  std::string name;
  std::function<void(std::vector<BenchRun>*)> run;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> positional;
  const char* only_leg = nullptr;
  bool list_legs = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--leg=", 6) == 0) {
      only_leg = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--list-legs") == 0) {
      list_legs = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const size_t items = positional.size() > 0
                           ? std::strtoull(positional[0], nullptr, 10)
                           : 60000;
  const size_t window_size = positional.size() > 1
                                 ? std::strtoull(positional[1], nullptr, 10)
                                 : 2000;

  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program = MakeTrafficProgram(
      symbols, TrafficProgramVariant::kPPrime, /*with_show=*/true);
  if (!program.ok()) {
    std::fprintf(stderr, "program: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }

  GeneratorOptions gen_options;
  gen_options.seed = 2017;
  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols),
                                     gen_options);
  const std::vector<Triple> stream = generator.GenerateWindow(items);

  std::vector<Leg> legs;
  // Warm-up (first run pays allocator/page-fault costs), then measure.
  legs.push_back({"sync", [&](std::vector<BenchRun>* runs) {
                    RunOnce("sync", *program, stream, Tumbling(window_size, 0));
                    runs->push_back(RunOnce("sync", *program, stream,
                                            Tumbling(window_size, 0)));
                  }});
  for (const size_t depth : {1, 2, 4, 8}) {
    legs.push_back({"async-" + std::to_string(depth),
                    [&, depth](std::vector<BenchRun>* runs) {
                      runs->push_back(RunOnce("async", *program, stream,
                                              Tumbling(window_size, depth)));
                    }});
  }
  // The shards axis: depth 4 at a bucket bound of 2, 4 and 8.
  for (const size_t shards : {2, 4, 8}) {
    legs.push_back({"sharded-" + std::to_string(shards),
                    [&, shards](std::vector<BenchRun>* runs) {
                      runs->push_back(
                          RunOnce("sharded", *program, stream,
                                  Tumbling(window_size, 4, shards)));
                    }});
  }
  // High-overlap sliding legs on the recursion-heavy reachability
  // workload: identical windows, cold vs the reuse path. Windows are kept
  // large relative to the pipeline's fixed per-window machinery so the
  // ratios measure reasoning, not dispatch overhead. The reuse gates
  // compare the cold and reuse legs' ground_ms_total and reason_ms_total.
  // The patched leg runs the same persistent solver with delta-sized
  // model maintenance disabled (every window recomputes the definite
  // closure from the rule store); the maintained-fixpoint CI gate
  // compares the reuse leg's reason_ms_total against it. The async leg
  // runs the reuse leg on the async engine (inflight 4, private 4-thread
  // pool). Each partition's grounder and solver see every window in order
  // there too, so the async-reuse gates pin its grounding_fallbacks and
  // solve_rebuilds to the reuse leg's and its reason_ms_total to within
  // 2x of it.
  const size_t tc_items = std::max<size_t>(6400, items / 5);
  const size_t tc_window = std::min<size_t>(1600, tc_items / 4);
  struct SlidingLeg {
    const char* name;
    bool reuse;
    bool maintain_fixpoint;
    size_t async_inflight;
  };
  for (const SlidingLeg& sliding :
       {SlidingLeg{"sliding-tc", false, true, 0},
        SlidingLeg{"sliding-tc-reuse-solve", true, true, 0},
        SlidingLeg{"sliding-tc-reuse-solve-patched", true, false, 0},
        SlidingLeg{"sliding-tc-reuse-solve-async", true, true, 4}}) {
    legs.push_back({sliding.name, [&, sliding](std::vector<BenchRun>* runs) {
                      runs->push_back(RunSlidingReach(
                          symbols, tc_items, tc_window, sliding.reuse,
                          sliding.maintain_fixpoint,
                          sliding.async_inflight));
                    }});
  }
  // Graceful-degradation legs: self-clocked flash-crowd overload against
  // an undersized kDropOldest pipeline (see RunBurstOverload), unbucketed
  // and at two buckets. Each is gated by a completeness minimum and an
  // unaccounted_windows ceiling in bench/baseline.json.
  for (const size_t shards : {0, 2}) {
    legs.push_back({"burst-overload-" + std::to_string(shards),
                    [&, shards](std::vector<BenchRun>* runs) {
                      runs->push_back(RunBurstOverload(*program, symbols,
                                                       window_size, shards));
                    }});
  }

  if (list_legs) {
    for (const Leg& leg : legs) std::printf("%s\n", leg.name.c_str());
    return 0;
  }
  bool found = only_leg == nullptr;
  for (const Leg& leg : legs) found = found || leg.name == only_leg;
  if (!found) {
    std::fprintf(stderr, "unknown leg %s (see --list-legs)\n", only_leg);
    return 2;
  }

  std::fprintf(stderr,
               "async_pipeline bench: %zu items, window %zu, %u cores\n",
               items, window_size, std::thread::hardware_concurrency());
  std::vector<BenchRun> runs;
  for (const Leg& leg : legs) {
    if (only_leg == nullptr || leg.name == only_leg) leg.run(&runs);
  }
  bench::PrintBenchJson("async_pipeline", "traffic_pprime", items,
                        window_size, std::thread::hardware_concurrency(),
                        runs);
  return 0;
}
