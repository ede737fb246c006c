// End-to-end StreamRule run on the paper's traffic scenario (§II-A)
// through the unified StreamEngine facade: one validated config (here the
// synchronous single-pipeline shape), one ordered EmissionEvent stream.
// Underneath, the synthetic RDF stream flows through the stream query
// processor into the dependency-partitioned parallel reasoner; detected
// events are printed per window.
//
//   stream -> StreamEngine [query processor -> partitioning -> n x Reasoner
//          -> combining] -> EmissionEvents
//
// Usage: traffic_monitoring [window_size] [num_windows]

#include <cstdio>
#include <cstdlib>

#include "stream/generator.h"
#include "streamrule/engine.h"
#include "streamrule/traffic_workload.h"

int main(int argc, char** argv) {
  using namespace streamasp;

  const size_t window_size = argc > 1 ? std::atoi(argv[1]) : 4000;
  const size_t num_windows = argc > 2 ? std::atoi(argv[2]) : 3;

  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program = MakeTrafficProgram(
      symbols, TrafficProgramVariant::kPPrime, /*with_show=*/true);
  if (!program.ok()) {
    std::fprintf(stderr, "program: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }

  // async = false picks the synchronous oracle shape: one window at a
  // time, reasoned on this thread.
  EngineConfig config;
  config.pipeline.window_size = window_size;

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
            "%.2f ms), %zu partitions, %zu answer(s)\n",
            static_cast<unsigned long long>(event.sequence),
            event.window->size(), event.result->latency_ms,
            event.result->critical_path_ms, event.result->num_partitions,
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
  std::printf("design time: %s\n",
              (*engine)->pipeline()->plan().ToString(*symbols).c_str());

  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols),
                                     GeneratorOptions{});
  for (size_t i = 0; i < num_windows; ++i) {
    (*engine)->PushBatch(generator.GenerateWindow(window_size));
  }
  (*engine)->Flush();

  std::printf("total detected events: %llu\n",
              static_cast<unsigned long long>(total_events));
  return 0;
}
