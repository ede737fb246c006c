// Sustained-throughput bench for sharding — the partitioning handler's
// subject-bucket split (ParallelReasonerOptions::num_shards): one
// pipeline whose dependency communities are each split into num_shards
// buckets, so a window yields communities × num_shards partitions. The
// legs: the unbucketed baselines (sync oracle, staged async) vs async
// pipelines at num_shards {1, 2, 4, 8} on the paper's traffic workload,
// plus the sliding-reuse pair on the recursive reachability workload at
// num_shards=4, once cold and once with the full reuse stack
// (reuse_grounding + reuse_solving). A final burst-overload leg drives a
// self-clocked flash-crowd stream against an undersized two-bucket
// async pipeline (kDropOldest): shed windows surface as tombstones and
// the run reports completeness/shed accounting. Every leg drives the
// unified StreamEngine facade; emission flows through the single ordered
// EmissionEvent handler. Emits one machine-readable JSON document on
// stdout (schema shared with bench/async_pipeline via
// bench/bench_json.h); human-readable notes go to stderr.
//
// Throughput is items pushed / wall time of PushBatch+Flush; window
// latency is the per-delivered-window latency distribution (p50/p99) as
// seen by the consumer. The sliding pair reasons a different program and
// window count
// than the tumbling runs — compare its two legs only to each other,
// which is how the CI gate consumes them (cold vs reuse reason_ms_total
// ratio). The JSON schema is documented in docs/benchmarks.md.
//
// Usage: sharded_pipeline [items] [window_size]

#include <algorithm>
#include <chrono>
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

/// Builds the engine, pushes the whole stream behind a wall timer, and
/// fills the shared run record. `shards` == 0 is the unbucketed shape.
BenchRun RunEngine(std::string mode, const Program& program,
                   const std::vector<Triple>& stream, size_t window_size,
                   size_t shards, bool async, size_t window_slide = 0,
                   bool reuse = false, bool reuse_solving = false) {
  EngineConfig config;
  config.pipeline.reasoner.num_shards = shards;
  config.pipeline.window_size = window_size;
  config.pipeline.window_slide = window_slide;
  config.pipeline.reuse_grounding = reuse;
  config.pipeline.reuse_solving = reuse_solving;
  config.pipeline.async = async;
  config.pipeline.max_inflight_windows = 4;

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
  run.mode = std::move(mode);
  run.shards = shards;
  run.inflight = async ? config.pipeline.max_inflight_windows : 0;
  run.workers = (*engine)->num_reason_workers();
  run.window_slide = window_slide;
  run.reuse = reuse || reuse_solving;
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

// Graceful-degradation leg, mirroring bench/async_pipeline's burst run
// with two subject buckets per community: a flash-crowd stream against
// a deliberately undersized async pipeline (a two-thread private pool and
// two in-flight windows) with kDropOldest shedding. A shed window emits
// a tombstone in sequence order, so ordered delivery keeps flowing and
// stream-level completeness drops below 1. Pacing is self-clocked rather
// than timed: valley windows are pushed behind a Flush() drain barrier
// (ingest never outruns service, nothing sheds), spike windows
// back-to-back (the work queue overflows by at least
// spike_len - capacity - 1 windows regardless of host speed), so the
// completeness minimum in bench/baseline.json is a meaningful
// machine-independent gate.
BenchRun RunShardedBurstOverload(const Program& program,
                                 const SymbolTablePtr& symbols,
                                 size_t window_size) {
  using Clock = std::chrono::steady_clock;
  const size_t burst_window = std::max<size_t>(100, window_size / 4);
  const size_t num_windows = 120;
  const size_t shards = 2;

  BurstOptions burst;
  burst.shape = BurstShape::kFlashCrowd;
  burst.period = 60 * burst_window;  // 6-window spikes, 54-window valleys.
  burst.burst_fraction = 0.1;

  EngineConfig config;
  config.pipeline.reasoner.num_shards = shards;
  config.pipeline.window_size = burst_window;
  config.pipeline.async = true;
  config.pipeline.num_reason_workers = shards;
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

// The bucketed sliding-reuse showcase, mirroring bench/async_pipeline's
// sliding pair: recursive reachability over a sliding edge stream, where
// transitive-closure instantiation dominates each window and consecutive
// windows share all but `slide` items. Subject buckets are NOT
// dependency-respecting for the recursive reach program (cross-bucket
// joins are lost), but both legs route identically, so the cold-vs-reuse
// reason_ms_total ratio the CI gate consumes is well-defined — it
// isolates what the split delta saves the per-partition caches. The
// pipeline runs synchronously: its one ParallelReasoner sees every
// window consecutively, which is the configuration the incremental
// caches are built for.
constexpr char kReachProgram[] = R"(
  #input link/2.
  #input high/1.
  reach(X, Y) :- link(X, Y).
  reach(X, Z) :- reach(X, Y), link(Y, Z).
  alarm(X, Y) :- high(X), high(Y), reach(X, Y).
  #show alarm/2.
)";

BenchRun RunShardedSlidingReach(const SymbolTablePtr& symbols, size_t items,
                                size_t window_size, size_t shards,
                                bool reuse_solving) {
  Parser parser(symbols);
  StatusOr<Program> program = parser.ParseProgram(kReachProgram);
  if (!program.ok()) {
    std::fprintf(stderr, "reach program: %s\n",
                 program.status().ToString().c_str());
    std::exit(1);
  }

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
  BenchRun run = RunEngine(
      reuse_solving ? "sliding-tc-reuse-solve" : "sliding-tc", *program,
      stream, window_size, shards, /*async=*/false, slide,
      /*reuse=*/reuse_solving, reuse_solving);
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
               "sharded_pipeline bench: %zu items, window %zu, %u cores\n",
               items, window_size, std::thread::hardware_concurrency());

  std::vector<BenchRun> runs;
  // Warm-up (allocator/page-fault costs), then measure.
  RunEngine("sync", *program, stream, window_size, 0, /*async=*/false);
  runs.push_back(
      RunEngine("sync", *program, stream, window_size, 0, /*async=*/false));
  runs.push_back(
      RunEngine("async", *program, stream, window_size, 0, /*async=*/true));
  for (const size_t shards : {1, 2, 4, 8}) {
    runs.push_back(RunEngine("sharded", *program, stream, window_size,
                             shards, /*async=*/true));
  }
  // The bucketed sliding-reuse pair at num_shards=4: cold vs the full
  // reuse stack on identical sliding windows. The CI gate enforces the
  // reason_ms_total ratio between these two legs.
  const size_t tc_items = std::max<size_t>(6400, items / 5);
  const size_t tc_window = std::min<size_t>(1600, tc_items / 4);
  runs.push_back(RunShardedSlidingReach(symbols, tc_items, tc_window,
                                        /*shards=*/4,
                                        /*reuse_solving=*/false));
  runs.push_back(RunShardedSlidingReach(symbols, tc_items, tc_window,
                                        /*shards=*/4,
                                        /*reuse_solving=*/true));
  // Graceful-degradation leg: self-clocked flash-crowd overload against
  // an undersized two-bucket async pipeline with kDropOldest (see
  // RunShardedBurstOverload). Gated by a completeness minimum and an
  // unaccounted_windows ceiling in bench/baseline.json.
  runs.push_back(RunShardedBurstOverload(*program, symbols, window_size));

  bench::PrintBenchJson("sharded_pipeline", "traffic_pprime", items,
                        window_size, std::thread::hardware_concurrency(),
                        runs);
  return 0;
}
