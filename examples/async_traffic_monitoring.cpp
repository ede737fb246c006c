// The traffic scenario on the staged asynchronous execution engine,
// through the unified StreamEngine facade (async = true): ingestion and
// windowing run on this thread while the engine's private reasoner pool
// grounds and solves earlier windows, and ordered delivery still yields
// one EmissionEvent per window in strict window order.
//
//   ingest -> windower -> BoundedQueue -> pool lane (window + partition
//          tasks) -> reorder buffer -> EmissionEvents (in window order)
//
// Usage: async_traffic_monitoring [window_size] [num_windows] [inflight]

#include <cstdio>
#include <cstdlib>

#include "stream/generator.h"
#include "streamrule/engine.h"
#include "streamrule/traffic_workload.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace streamasp;

  const size_t window_size = argc > 1 ? std::atoi(argv[1]) : 4000;
  const size_t num_windows = argc > 2 ? std::atoi(argv[2]) : 6;
  const size_t inflight = argc > 3 ? std::atoi(argv[3]) : 4;

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
  config.pipeline.async = true;
  config.pipeline.max_inflight_windows = inflight;
  // config.pipeline.backpressure = BackpressurePolicy::kDropOldest would
  // shed the oldest queued window instead of slowing ingestion under
  // overload (shed windows then arrive as kShed tombstone events).

  uint64_t total_events = 0;
  StatusOr<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      &*program, config, [&](EmissionEvent& event) {
        if (event.kind != EmissionEvent::Kind::kResult) return;
        std::printf(
            "window %llu (%zu items): latency %.2f ms, %zu partitions, "
            "%zu answer(s)\n",
            static_cast<unsigned long long>(event.sequence),
            event.window->size(), event.result->latency_ms,
            event.result->num_partitions, event.result->answers.size());
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
  std::printf(
      "async engine: %zu reasoner-pool threads, %zu windows in flight\n",
      (*engine)->num_reason_workers(), inflight);

  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols),
                                     GeneratorOptions{});
  WallTimer wall;
  for (size_t i = 0; i < num_windows; ++i) {
    // Push never waits for reasoning (until the in-flight bound bites):
    // windows pile into the work queue while the workers chew.
    (*engine)->PushBatch(generator.GenerateWindow(window_size));
  }
  (*engine)->Flush();  // Drain every in-flight window.
  const double wall_ms = wall.ElapsedMillis();

  const EngineStats stats = (*engine)->stats();
  std::printf(
      "processed %llu windows / %llu items in %.2f ms "
      "(%.0f triples/s, mean window latency %.2f ms, queue depth peak %zu)\n",
      static_cast<unsigned long long>(stats.delivered_windows),
      static_cast<unsigned long long>(stats.reasoning.items), wall_ms,
      static_cast<double>(stats.reasoning.items) / (wall_ms / 1000.0),
      stats.reasoning.mean_latency_ms(), stats.reasoning.max_queue_depth);
  std::printf("total detected events: %llu\n",
              static_cast<unsigned long long>(total_events));
  return 0;
}
