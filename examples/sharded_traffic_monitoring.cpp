// The traffic scenario with sharding, through the unified StreamEngine
// facade: num_shards splits each of the plan's dependency communities
// into subject buckets, so every window is reasoned as communities ×
// num_shards partitions on the async pipeline's pool, and the combined
// answers are byte-identical to an unsharded pipeline — subject buckets
// respect the traffic rules' dependencies, and the partitioning handler
// copies P'-duplicated predicates (car_number) into every bucket of each
// of their communities so r7's join survives hashing.
//
//   windower -> partitioning handler (community, then subject bucket)
//            -> one pool task per partition -> combining handler
//            -> EmissionEvents in window order
//
// Usage: sharded_traffic_monitoring [window_size] [num_windows] [shards]

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
  const size_t shards = argc > 3 ? std::atoi(argv[3]) : 4;

  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program = MakeTrafficProgram(
      symbols, TrafficProgramVariant::kPPrime, /*with_show=*/true);
  if (!program.ok()) {
    std::fprintf(stderr, "program: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }

  EngineConfig config;
  config.pipeline.reasoner.num_shards = shards;
  config.pipeline.window_size = window_size;
  config.pipeline.async = true;
  config.pipeline.max_inflight_windows = 4;

  uint64_t total_events = 0;
  StatusOr<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      &*program, config, [&](EmissionEvent& event) {
        if (event.kind != EmissionEvent::Kind::kResult) return;
        std::printf(
            "window %llu (%zu items): latency %.2f ms, %zu partitions "
            "(%zu items after duplication), %zu answer(s)\n",
            static_cast<unsigned long long>(event.sequence),
            event.window->size(), event.result->latency_ms,
            event.result->num_partitions,
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
  std::printf("%d communities x %zu subject buckets\n",
              (*engine)->pipeline()->plan().num_communities(), shards);

  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols),
                                     GeneratorOptions{});
  WallTimer wall;
  for (size_t i = 0; i < num_windows; ++i) {
    // Windowing happens here; reasoning runs on the pool while this loop
    // keeps pushing.
    (*engine)->PushBatch(generator.GenerateWindow(window_size));
  }
  (*engine)->Flush();  // Deliver every admitted window.
  const double wall_ms = wall.ElapsedMillis();

  const EngineStats stats = (*engine)->stats();
  std::printf(
      "processed %llu windows / %llu items in %.2f ms (%.0f triples/s, "
      "%llu lane tasks)\n",
      static_cast<unsigned long long>(stats.delivered_windows),
      static_cast<unsigned long long>(stats.reasoning.items), wall_ms,
      static_cast<double>(stats.reasoning.items) / (wall_ms / 1000.0),
      static_cast<unsigned long long>(stats.lane.completed));
  std::printf("total detected events: %llu\n",
              static_cast<unsigned long long>(total_events));
  return 0;
}
