// Ablation: degree of parallelism. The paper ran on 8 cores; this sweep
// shows how the measured wall latency of PR depends on its reasoning
// thread count (num_threads: the calling thread plus a private pool of
// num_threads - 1) on the current machine, with the
// hardware-independent critical path as the reference line. On a
// single-core box the wall times converge regardless of thread count —
// which is exactly the point of reporting the critical path in the
// figure benches.

#include <cstdio>
#include <thread>

#include "bench/figure_common.h"

int main() {
  constexpr size_t kWindowSize = 20000;
  constexpr int kReps = 3;

  using namespace streamasp;
  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program =
      MakeTrafficProgram(symbols, TrafficProgramVariant::kP, true);
  StatusOr<InputDependencyGraph> graph =
      InputDependencyGraph::Build(*program);
  StatusOr<PartitioningPlan> plan = DecomposeInputDependencyGraph(*graph);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }

  std::printf("# Ablation: PR reasoning threads (window %zu, program P, "
              "machine reports %u hardware thread(s))\n",
              kWindowSize, std::thread::hardware_concurrency());
  std::printf("# %8s %12s %16s\n", "threads", "wall_ms", "critical_path_ms");

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ParallelReasonerOptions options;
    options.num_threads = threads;
    ParallelReasoner pr(&*program, *plan, options);

    double wall = 0;
    double critical = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      GeneratorOptions gen_options;
      gen_options.seed = 31 + rep;
      SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols),
                                         gen_options);
      const TripleWindow window =
          generator.GenerateTripleWindow(kWindowSize);
      StatusOr<ParallelReasonerResult> result = pr.Process(window);
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      wall += result->latency_ms;
      critical += result->critical_path_ms;
    }
    std::printf("  %8zu %12.2f %16.2f\n", threads, wall / kReps,
                critical / kReps);
  }
  return 0;
}
