// Demonstrates sliding count-based windows on top of the paper's tumbling
// tuple-based windows: a StreamEngine with window_size 3000 and
// window_slide 1000 (the wire's `open window=3000 slide=1000`) feeds the
// dependency-partitioned reasoner a window of the latest 3000 items every
// 1000 arrivals, each carrying its expired/admitted delta.
//
// Usage: sliding_windows

#include <cstdio>

#include "stream/generator.h"
#include "streamrule/engine.h"
#include "streamrule/traffic_workload.h"

int main() {
  using namespace streamasp;

  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program = MakeTrafficProgram(
      symbols, TrafficProgramVariant::kP, /*with_show=*/true);
  if (!program.ok()) {
    std::fprintf(stderr, "program: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }

  EngineConfig config;
  config.pipeline.window_size = 3000;
  config.pipeline.window_slide = 1000;
  StatusOr<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      &*program, config, [&](EmissionEvent& event) {
        if (event.kind == EmissionEvent::Kind::kError) {
          std::fprintf(stderr, "window %llu: %s\n",
                       static_cast<unsigned long long>(event.sequence),
                       event.status.ToString().c_str());
          return;
        }
        if (event.kind != EmissionEvent::Kind::kResult) return;
        size_t events = 0;
        for (const GroundAnswer& answer : event.result->answers) {
          events += answer.size();
        }
        std::printf("window %llu: %zu items (%zu expired, %zu admitted), "
                    "%.2f ms, %zu event(s)\n",
                    static_cast<unsigned long long>(event.sequence),
                    event.window->size(), event.window->expired.size(),
                    event.window->admitted.size(), event.result->latency_ms,
                    events);
      });
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  std::printf("== count-based sliding window (size 3000, slide 1000) ==\n");
  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols), {});
  (*engine)->PushBatch(generator.GenerateWindow(6000));
  (*engine)->Flush();
  return 0;
}
