// Component microbenchmarks: grounding throughput on the paper's traffic
// program (window-size sweep) and on a recursive transitive-closure
// program (semi-naive evaluation stress).

#include <benchmark/benchmark.h>

#include "asp/parser.h"
#include "ground/grounder.h"
#include "stream/format.h"
#include "stream/generator.h"
#include "streamrule/traffic_workload.h"

namespace streamasp {
namespace {

void BM_GroundTrafficWindow(benchmark::State& state) {
  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program =
      MakeTrafficProgram(symbols, TrafficProgramVariant::kP, false);
  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols), {});
  DataFormatProcessor format;
  (void)format.DeclareInputPredicates(program->input_predicates());
  const std::vector<Triple> window =
      generator.GenerateWindow(static_cast<size_t>(state.range(0)));
  const std::vector<PackedFact> facts = *format.ToPackedFacts(window);

  for (auto _ : state) {
    Grounder grounder;
    benchmark::DoNotOptimize(grounder.Ground(*program, facts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroundTrafficWindow)->Arg(1000)->Arg(5000)->Arg(20000);

void BM_GroundTrafficWindowNoSimplify(benchmark::State& state) {
  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program =
      MakeTrafficProgram(symbols, TrafficProgramVariant::kP, false);
  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols), {});
  DataFormatProcessor format;
  (void)format.DeclareInputPredicates(program->input_predicates());
  const std::vector<PackedFact> facts = *format.ToPackedFacts(
      generator.GenerateWindow(static_cast<size_t>(state.range(0))));

  GroundingOptions options;
  options.simplify = false;
  for (auto _ : state) {
    Grounder grounder(options);
    benchmark::DoNotOptimize(grounder.Ground(*program, facts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroundTrafficWindowNoSimplify)->Arg(5000);

void BM_GroundTransitiveClosure(benchmark::State& state) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  // A chain of n edges: closure has n(n+1)/2 reach atoms.
  std::string text = R"(
    reach(X, Y) :- edge(X, Y).
    reach(X, Z) :- reach(X, Y), edge(Y, Z).
  )";
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    text += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) +
            ").\n";
  }
  StatusOr<Program> program = parser.ParseProgram(text);

  for (auto _ : state) {
    Grounder grounder;
    benchmark::DoNotOptimize(grounder.Ground(*program));
  }
  state.SetItemsProcessed(state.iterations() * n * (n + 1) / 2);
}
BENCHMARK(BM_GroundTransitiveClosure)->Arg(50)->Arg(100)->Arg(200);

}  // namespace
}  // namespace streamasp

BENCHMARK_MAIN();
