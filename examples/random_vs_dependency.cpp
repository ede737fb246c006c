// Reproduces the paper's §II-A motivating comparison at example scale:
// random partitioning produces wrong/missing events while dependency-
// guided partitioning matches whole-window reasoning exactly — including
// on the paper's own 6-item example window (traffic_jam(newcastle)
// wrongly detected, car_fire(dangan) lost).
//
// Usage: random_vs_dependency [window_size]

#include <cstdio>
#include <cstdlib>

#include "asp/parser.h"
#include "depgraph/decomposition.h"
#include "stream/format.h"
#include "stream/generator.h"
#include "streamrule/accuracy.h"
#include "streamrule/parallel_reasoner.h"
#include "streamrule/random_partitioner.h"
#include "streamrule/traffic_workload.h"

namespace {

using namespace streamasp;

// The exact window W of §II-A, as the triples its facts travel as.
TripleWindow PaperExampleWindow(SymbolTablePtr symbols) {
  Parser parser(symbols);
  const DataFormatProcessor format;
  TripleWindow window;
  for (const char* text : {
           "average_speed(newcastle, 10)", "car_number(newcastle, 55)",
           "traffic_light(newcastle)", "car_in_smoke(car1, high)",
           "car_speed(car1, 0)", "car_location(car1, dangan)"}) {
    window.items.push_back(*format.ToTriple(*parser.ParseGroundAtom(text)));
  }
  return window;
}

// The adversarial random split from the paper: W1 gets the first half of
// the jam evidence but not the traffic light.
std::vector<std::vector<Triple>> PaperBadSplit(const TripleWindow& window) {
  const std::vector<Triple>& w = window.items;
  return {{w[0], w[1], w[3]}, {w[2], w[4], w[5]}};
}

}  // namespace

int main(int argc, char** argv) {
  const size_t window_size = argc > 1 ? std::atoi(argv[1]) : 10000;

  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program = MakeTrafficProgram(
      symbols, TrafficProgramVariant::kP, /*with_show=*/true);
  if (!program.ok()) {
    std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
    return 1;
  }
  StatusOr<InputDependencyGraph> graph =
      InputDependencyGraph::Build(*program);
  StatusOr<PartitioningPlan> plan = DecomposeInputDependencyGraph(*graph);
  Reasoner whole_window(&*program);
  ParallelReasoner pr(&*program, *plan);

  // --- Part 1: the paper's own 6-item example. -------------------------
  std::printf("== paper's example window (Section II-A) ==\n");
  const TripleWindow example = PaperExampleWindow(symbols);
  StatusOr<ReasonerResult> truth = whole_window.Process(example);
  std::printf("whole window   : %s\n",
              AnswerToString(truth->answers[0], *symbols).c_str());

  StatusOr<ParallelReasonerResult> bad =
      pr.ProcessPartitions(PaperBadSplit(example));
  std::printf("random split   : %s   (accuracy %.2f)\n",
              AnswerToString(bad->answers[0], *symbols).c_str(),
              MeanAccuracy(bad->answers, truth->answers));

  StatusOr<ParallelReasonerResult> dep = pr.Process(example);
  std::printf("dependency split: %s   (accuracy %.2f)\n",
              AnswerToString(dep->answers[0], *symbols).c_str(),
              MeanAccuracy(dep->answers, truth->answers));

  // --- Part 2: a synthetic window at scale. ----------------------------
  std::printf("\n== synthetic window, %zu items ==\n", window_size);
  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols),
                                     GeneratorOptions{});
  const TripleWindow window = generator.GenerateTripleWindow(window_size);
  StatusOr<ReasonerResult> reference = whole_window.Process(window);
  std::printf("%-10s latency %8.2f ms                    events %zu\n", "R",
              reference->latency_ms,
              reference->answers.empty() ? 0 : reference->answers[0].size());

  StatusOr<ParallelReasonerResult> dep_result = pr.Process(window);
  std::printf("%-10s latency %8.2f ms (critical %6.2f)  accuracy %.3f\n",
              "PR_Dep", dep_result->latency_ms,
              dep_result->critical_path_ms,
              MeanAccuracy(dep_result->answers, reference->answers));

  for (size_t k = 2; k <= 5; ++k) {
    RandomPartitioner random(k, /*seed=*/k);
    StatusOr<ParallelReasonerResult> result =
        pr.ProcessPartitions(random.Partition(window.items));
    std::printf("%-10s latency %8.2f ms (critical %6.2f)  accuracy %.3f\n",
                ("PR_Ran_k" + std::to_string(k)).c_str(),
                result->latency_ms, result->critical_path_ms,
                MeanAccuracy(result->answers, reference->answers));
  }
  return 0;
}
