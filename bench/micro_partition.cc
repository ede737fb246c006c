// Component microbenchmarks for the run-time handlers: Algorithm 1's
// plan-driven partitioning, the random baseline, answer combination, and
// RDF <-> ASP data-format conversion (all on the reasoner's critical
// path per the paper's latency definition).

#include <benchmark/benchmark.h>

#include "depgraph/decomposition.h"
#include "stream/format.h"
#include "stream/generator.h"
#include "streamrule/combining_handler.h"
#include "streamrule/partitioning_handler.h"
#include "streamrule/random_partitioner.h"
#include "streamrule/traffic_workload.h"

namespace streamasp {
namespace {

struct Fixture {
  Fixture()
      : symbols(MakeSymbolTable()),
        program(*MakeTrafficProgram(symbols, TrafficProgramVariant::kPPrime,
                                    false)),
        plan(*DecomposeInputDependencyGraph(
            *InputDependencyGraph::Build(program))),
        generator(MakeTrafficSchema(*symbols), {}) {}

  SymbolTablePtr symbols;
  Program program;
  PartitioningPlan plan;
  SyntheticStreamGenerator generator;
};

void BM_PartitionByPlan(benchmark::State& state) {
  Fixture fixture;
  PartitioningHandler handler(fixture.plan);
  const std::vector<Triple> window =
      fixture.generator.GenerateWindow(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(handler.Partition(window));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionByPlan)->Arg(5000)->Arg(20000)->Arg(40000);

void BM_PartitionRandom(benchmark::State& state) {
  Fixture fixture;
  const std::vector<Triple> window =
      fixture.generator.GenerateWindow(static_cast<size_t>(state.range(0)));
  RandomPartitioner partitioner(4, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(partitioner.Partition(window));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionRandom)->Arg(5000)->Arg(20000)->Arg(40000);

void BM_FormatConversion(benchmark::State& state) {
  Fixture fixture;
  DataFormatProcessor format;
  (void)format.DeclareInputPredicates(fixture.program.input_predicates());
  const std::vector<Triple> window =
      fixture.generator.GenerateWindow(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(format.ToPackedFacts(window));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FormatConversion)->Arg(5000)->Arg(40000);

void BM_CombineAnswers(benchmark::State& state) {
  // Two partitions, `n`-atom answers, cross product of 4 picks.
  Fixture fixture;
  const size_t n = static_cast<size_t>(state.range(0));
  auto make_answer = [&](const char* pred, int salt) {
    GroundAnswer answer;
    for (size_t i = 0; i < n; ++i) {
      answer.push_back(
          Atom(fixture.symbols->Intern(pred),
               {Term::Integer(static_cast<int64_t>(i * 2 + salt))}));
    }
    NormalizeAnswer(&answer);
    return answer;
  };
  const std::vector<std::vector<GroundAnswer>> per_partition = {
      {make_answer("p", 0), make_answer("p", 1)},
      {make_answer("q", 0), make_answer("q", 1)}};
  CombiningHandler combiner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(combiner.Combine(per_partition));
  }
  state.SetItemsProcessed(state.iterations() * n * 4);
}
BENCHMARK(BM_CombineAnswers)->Arg(100)->Arg(10000);

}  // namespace
}  // namespace streamasp

BENCHMARK_MAIN();
