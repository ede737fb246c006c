// Sustained-throughput bench for the staged asynchronous pipeline engine:
// sync (the one-window-at-a-time oracle) vs async at in-flight depths
// {1, 2, 4, 8} on the paper's traffic workload, plus a high-overlap
// sliding-window triple (slide = window/16): grounding reuse off, on, and
// on with the persistent warm-started solver (reuse_solving).
// The sliding runs use a recursive reachability workload over a small
// node universe — transitive closure makes instantiation the dominant
// per-window cost, which is the regime the incremental grounder's delta
// replay targets (the flat traffic rules ground in linear time, so there
// is little instantiation to save there). A final burst-overload leg
// drives a self-clocked flash-crowd stream against an undersized
// kDropOldest pipeline and reports completeness/shed accounting.
// Every leg drives the unified StreamEngine facade (no key buckets);
// emission flows through the single ordered EmissionEvent handler. Emits
// one machine-readable JSON document on stdout (schema shared with
// bench/sharded_pipeline via bench/bench_json.h); human-readable notes
// go to stderr.
//
// Throughput is items pushed / wall time of PushBatch+Flush (i.e. the rate
// the ingest side sustains while reasoning keeps up); window latency is the
// per-window reasoning latency distribution (p50/p99). Sliding runs emit
// more windows per item than tumbling runs and reason a different program,
// so their triples/s are only comparable to each other, which is exactly
// how the CI regression gate consumes them (reuse-on vs reuse-off ratio).
//
// Usage: async_pipeline [items] [window_size]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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

BenchRun RunOnce(const Program& program, const std::vector<Triple>& stream,
                 size_t window_size, bool async, size_t inflight,
                 size_t window_slide = 0, bool reuse = false,
                 bool reuse_solving = false, bool maintain_fixpoint = true) {
  EngineConfig config;
  config.pipeline.window_size = window_size;
  config.pipeline.window_slide = window_slide;
  config.pipeline.reasoner.reasoner.reuse_grounding = reuse;
  config.pipeline.reasoner.reasoner.solving.reuse_solving = reuse_solving;
  config.pipeline.reasoner.reasoner.solving.maintain_fixpoint =
      maintain_fixpoint;
  config.pipeline.async = async;
  config.pipeline.max_inflight_windows = async ? inflight : 4;

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

  BenchRun run;
  run.mode = async ? "async" : "sync";
  run.inflight = async ? inflight : 0;
  run.workers = (*engine)->num_reason_workers();
  run.window_slide = window_slide;
  run.reuse = reuse;
  run.reuse_solving = reuse_solving;
  run.wall_ms = wall_ms;
  run.triples_per_sec =
      wall_ms > 0 ? static_cast<double>(stream.size()) / (wall_ms / 1000.0)
                  : 0;
  run.p50_latency_ms = Percentile(latencies, 0.50);
  run.p99_latency_ms = Percentile(latencies, 0.99);
  bench::FillFromEngineStats((*engine)->stats(), &run);
  return run;
}

// Graceful-degradation leg: a flash-crowd burst stream against a
// deliberately undersized async pipeline (a one-thread private pool, two
// in-flight windows) with kDropOldest shedding. Pacing is self-clocked
// rather than timed: valley windows are pushed behind a Flush() drain
// barrier, so during valleys ingest can never outrun service and nothing
// sheds; spike windows are pushed back-to-back, so during spikes ingest
// is effectively infinitely faster than service and the queue sheds
// spike_len - (capacity + 1) windows (the pool thread holds one, the
// queue retains `capacity`). The shed fraction therefore depends only on
// the spike shape and queue capacity — not on host speed — which is
// what makes the completeness minimum in bench/baseline.json a
// meaningful machine-independent gate (worst case: every spike window
// past the pool thread's sheds, completeness 110/120).
BenchRun RunBurstOverload(const Program& program,
                          const SymbolTablePtr& symbols, size_t window_size) {
  using Clock = std::chrono::steady_clock;
  const size_t burst_window = std::max<size_t>(100, window_size / 4);
  const size_t num_windows = 120;

  BurstOptions burst;
  burst.shape = BurstShape::kFlashCrowd;
  burst.period = 60 * burst_window;  // 6-window spikes, 54-window valleys.
  burst.burst_fraction = 0.1;

  EngineConfig config;
  config.pipeline.window_size = burst_window;
  config.pipeline.async = true;
  config.pipeline.num_reason_workers = 1;
  config.pipeline.max_inflight_windows = 2;
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

BenchRun RunSlidingReach(const SymbolTablePtr& symbols, size_t items,
                         size_t window_size, bool reuse,
                         bool reuse_solving = false,
                         bool maintain_fixpoint = true) {
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

  const size_t slide = std::max<size_t>(1, window_size / 16);
  BenchRun run = RunOnce(*program, stream, window_size, /*async=*/false, 0,
                         slide, reuse, reuse_solving, maintain_fixpoint);
  run.mode = reuse_solving
                 ? (maintain_fixpoint ? "sliding-tc-reuse-solve"
                                      : "sliding-tc-reuse-solve-patched")
             : reuse ? "sliding-tc-reuse"
                     : "sliding-tc";
  run.workload = "reach_tc";
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t items = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 60000;
  const size_t window_size =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 2000;

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

  std::fprintf(stderr,
               "async_pipeline bench: %zu items, window %zu, %u cores\n",
               items, window_size, std::thread::hardware_concurrency());

  std::vector<BenchRun> runs;
  // Warm-up (first run pays allocator/page-fault costs), then measure.
  RunOnce(*program, stream, window_size, /*async=*/false, 0);
  runs.push_back(RunOnce(*program, stream, window_size, false, 0));
  for (const size_t depth : {1, 2, 4, 8}) {
    runs.push_back(RunOnce(*program, stream, window_size, true, depth));
  }
  // High-overlap sliding pair on the recursion-heavy reachability
  // workload: identical windows, grounding reuse off vs on. Windows are
  // kept large relative to the pipeline's fixed per-window machinery so
  // the ratio measures grounding, not dispatch overhead.
  const size_t tc_items = std::max<size_t>(6400, items / 5);
  const size_t tc_window = std::min<size_t>(1600, tc_items / 4);
  runs.push_back(
      RunSlidingReach(symbols, tc_items, tc_window, /*reuse=*/false));
  runs.push_back(
      RunSlidingReach(symbols, tc_items, tc_window, /*reuse=*/true));
  // Third leg of the sliding pair: grounding reuse + persistent
  // warm-started solver. The solve-reuse CI gate compares its
  // reason_ms_total against the grounding-reuse-only run's.
  runs.push_back(RunSlidingReach(symbols, tc_items, tc_window,
                                 /*reuse=*/true, /*reuse_solving=*/true));
  // Fourth leg: same persistent solver but with delta-sized model
  // maintenance disabled (PR 4's patched-rebuild behavior: every window
  // recomputes the definite closure from the patched rule store). The
  // maintained-fixpoint CI gate compares the previous leg's
  // reason_ms_total against this one's.
  runs.push_back(RunSlidingReach(symbols, tc_items, tc_window,
                                 /*reuse=*/true, /*reuse_solving=*/true,
                                 /*maintain_fixpoint=*/false));
  // Graceful-degradation leg: self-clocked flash-crowd overload against
  // an undersized kDropOldest pipeline (see RunBurstOverload). Gated by a
  // completeness minimum and an unaccounted_windows ceiling in
  // bench/baseline.json.
  runs.push_back(RunBurstOverload(*program, symbols, window_size));

  bench::PrintBenchJson("async_pipeline", "traffic_pprime", items,
                        window_size, std::thread::hardware_concurrency(),
                        runs);
  return 0;
}
