// End-to-end StreamRule run on the paper's traffic scenario (§II-A)
// through the unified StreamEngine facade: one validated config, one
// ordered EmissionEvent stream. Underneath, the synthetic RDF stream flows
// through the stream query processor into the dependency-partitioned
// parallel reasoner; detected events are printed per window.
//
//   stream -> StreamEngine [query processor -> partitioning (community,
//          then key bucket) -> n x Reasoner -> combining] -> EmissionEvents
//
// Two knobs pick the engine shape:
//   * shards bounds the buckets each dependency community splits into.
//     The key-flow analysis splits a community only where no join can
//     cross a bucket — here both of P′'s, with every input keyed at its
//     subject and the duplicated car_number copied into every bucket — so
//     each window is reasoned as communities × shards partitions, with
//     answers byte-identical to an unsharded run. 0 keeps one partition
//     per community.
//   * inflight > 0 runs the staged async engine: ingestion and windowing
//     stay on this thread while the engine's private reasoner pool
//     reasons up to `inflight` windows, one lane task per window and per
//     partition, and ordered delivery still yields one event per window
//     in window order. 0 keeps the synchronous oracle shape: one window
//     at a time, reasoned on this thread.
//
// Usage: traffic_monitoring [window_size] [num_windows] [shards] [inflight]

#include <cstdio>
#include <cstdlib>

#include "stream/generator.h"
#include "streamrule/engine.h"
#include "streamrule/traffic_workload.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace streamasp;

  const size_t window_size = argc > 1 ? std::atoi(argv[1]) : 4000;
  const size_t num_windows = argc > 2 ? std::atoi(argv[2]) : 3;
  const size_t shards = argc > 3 ? std::atoi(argv[3]) : 0;
  const size_t inflight = argc > 4 ? std::atoi(argv[4]) : 0;

  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program = MakeTrafficProgram(
      symbols, TrafficProgramVariant::kPPrime, /*with_show=*/true);
  if (!program.ok()) {
    std::fprintf(stderr, "program: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }

  EngineConfig config;
  config.pipeline.window_size = window_size;
  config.pipeline.reasoner.num_shards = shards;
  config.pipeline.async = inflight > 0;
  if (inflight > 0) config.pipeline.max_inflight_windows = inflight;
  // config.pipeline.backpressure = BackpressurePolicy::kDropOldest would
  // make the async engine shed the oldest queued window instead of
  // slowing ingestion under overload (shed windows then arrive as kShed
  // tombstone events).

  uint64_t total_events = 0;
  StatusOr<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      &*program, config, [&](EmissionEvent& event) {
        if (event.kind == EmissionEvent::Kind::kError) {
          std::fprintf(stderr, "window %llu: %s\n",
                       static_cast<unsigned long long>(event.sequence),
                       event.status.ToString().c_str());
          return;
        }
        if (event.kind != EmissionEvent::Kind::kResult) return;
        std::printf(
            "window %llu (%zu items): latency %.2f ms (critical path "
            "%.2f ms), %zu partitions (%zu items after duplication), "
            "%zu answer(s)\n",
            static_cast<unsigned long long>(event.sequence),
            event.window->size(), event.result->latency_ms,
            event.result->critical_path_ms, event.result->num_partitions,
            event.result->total_partition_items,
            event.result->answers.size());
        for (const GroundAnswer& answer : event.result->answers) {
          total_events += answer.size();
          std::printf("  events: %s\n",
                      AnswerToString(answer, *symbols).c_str());
        }
      });
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  // Design time already happened inside Create: input dependency analysis
  // -> partitioning plan, exposed for introspection on the underlying
  // pipeline.
  const StreamRulePipeline& pipeline = *(*engine)->pipeline();
  std::printf("design time: %s\n", pipeline.plan().ToString(*symbols).c_str());
  std::printf("%d communities, %zu partitions per window\n",
              pipeline.plan().num_communities(), pipeline.num_partitions());
  if (inflight > 0) {
    std::printf(
        "async engine: %zu reasoner-pool threads, %zu windows in flight\n",
        (*engine)->num_reason_workers(), inflight);
  }

  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols),
                                     GeneratorOptions{});
  WallTimer wall;
  for (size_t i = 0; i < num_windows; ++i) {
    // Async: Push never waits for reasoning until the in-flight bound
    // bites; windows pile into the work queue while the pool reasons.
    (*engine)->PushBatch(generator.GenerateWindow(window_size));
  }
  (*engine)->Flush();  // Deliver every admitted window.
  const double wall_ms = wall.ElapsedMillis();

  const EngineStats stats = (*engine)->stats();
  std::printf(
      "processed %llu windows / %llu items in %.2f ms (%.0f triples/s, "
      "mean window latency %.2f ms, %llu lane tasks)\n",
      static_cast<unsigned long long>(stats.reasoning.windows),
      static_cast<unsigned long long>(stats.reasoning.items), wall_ms,
      static_cast<double>(stats.reasoning.items) / (wall_ms / 1000.0),
      stats.reasoning.mean_latency_ms(),
      static_cast<unsigned long long>(stats.lane.completed));
  std::printf("total detected events: %llu\n",
              static_cast<unsigned long long>(total_events));
  return 0;
}
