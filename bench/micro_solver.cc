// Component microbenchmarks for the stable-model solver: propagation-only
// programs (the streaming fast path), choice programs with real search,
// the from-first-principles stable-model verification, and the
// cold-vs-incremental sliding-window comparison behind the reuse gates
// (high-overlap reach_tc windows, the cold path's per-window
// Grounder::Ground + Solver::Solve vs one IncrementalGrounder feeding one
// persistent delta-patched IncrementalSolver).

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "asp/parser.h"
#include "ground/grounder.h"
#include "ground/incremental_grounder.h"
#include "solve/incremental_solver.h"
#include "solve/solver.h"
#include "util/rng.h"

namespace streamasp {
namespace {

GroundProgram PrepareGround(const std::string& text, bool simplify = true) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  StatusOr<Program> program = parser.ParseProgram(text);
  GroundingOptions options;
  options.simplify = simplify;
  Grounder grounder(options);
  return *grounder.Ground(*program);
}

std::string StratifiedChain(int n) {
  // p0(i) facts, pk(X) :- pk-1(X) layers: pure propagation.
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += "p0(" + std::to_string(i) + ").\n";
  }
  for (int layer = 1; layer <= 4; ++layer) {
    text += "p" + std::to_string(layer) + "(X) :- p" +
            std::to_string(layer - 1) + "(X).\n";
  }
  return text;
}

void BM_SolvePropagationOnly(benchmark::State& state) {
  const GroundProgram ground = PrepareGround(
      StratifiedChain(static_cast<int>(state.range(0))), /*simplify=*/false);
  for (auto _ : state) {
    Solver solver;
    benchmark::DoNotOptimize(solver.Solve(ground));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 5);
}
BENCHMARK(BM_SolvePropagationOnly)->Arg(1000)->Arg(5000)->Arg(20000);

void BM_SolveChoiceEnumeration(benchmark::State& state) {
  // k independent even cycles: 2^k answer sets enumerated in full.
  std::string text;
  const int k = static_cast<int>(state.range(0));
  for (int i = 0; i < k; ++i) {
    const std::string a = "a" + std::to_string(i);
    const std::string b = "b" + std::to_string(i);
    text += a + " :- not " + b + ".\n" + b + " :- not " + a + ".\n";
  }
  const GroundProgram ground = PrepareGround(text);
  for (auto _ : state) {
    Solver solver;
    benchmark::DoNotOptimize(solver.Solve(ground));
  }
  state.SetItemsProcessed(state.iterations() * (1ll << k));
}
BENCHMARK(BM_SolveChoiceEnumeration)->Arg(4)->Arg(8)->Arg(10);

void BM_SolveWithVerificationOnVsOff(benchmark::State& state) {
  const GroundProgram ground = PrepareGround(StratifiedChain(2000),
                                             /*simplify=*/false);
  SolverOptions options;
  options.verify_models = state.range(0) != 0;
  for (auto _ : state) {
    Solver solver(options);
    benchmark::DoNotOptimize(solver.Solve(ground));
  }
}
BENCHMARK(BM_SolveWithVerificationOnVsOff)->Arg(0)->Arg(1);

void BM_IsStableModelCheck(benchmark::State& state) {
  const GroundProgram ground = PrepareGround(
      StratifiedChain(static_cast<int>(state.range(0))), /*simplify=*/false);
  Solver solver;
  const std::vector<AnswerSet> models = *solver.Solve(ground);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsStableModel(ground, models[0].atoms));
  }
}
BENCHMARK(BM_IsStableModelCheck)->Arg(1000)->Arg(10000);

void BM_SolveUnfoundedLoops(benchmark::State& state) {
  // n positive 2-loops, all fed by one guessed atom. In the branch where
  // the feeder is false every loop is unfounded, so the solver's
  // greatest-unfounded-set pass must falsify all of them. (Pure positive
  // loops without the feeder never survive grounding — the semi-naive
  // instantiator proves them underivable.)
  std::string text = "on :- not off.\noff :- not on.\n";
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    const std::string a = "x" + std::to_string(i);
    const std::string b = "y" + std::to_string(i);
    text += a + " :- on.\n";
    text += a + " :- " + b + ".\n" + b + " :- " + a + ".\n";
  }
  const GroundProgram ground = PrepareGround(text, /*simplify=*/false);
  for (auto _ : state) {
    Solver solver;
    benchmark::DoNotOptimize(solver.Solve(ground));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SolveUnfoundedLoops)->Arg(100)->Arg(1000);

// ---------------------------------------------------------------------------
// Cold vs incremental reasoning across overlapping windows. The cold leg
// is the real cold path: a fresh Grounder::Ground and Solver::Solve per
// window. The incremental legs ground through one IncrementalGrounder and
// patch one persistent IncrementalSolver with the grounder's delta.

constexpr char kSlidingReachProgram[] = R"(
  #input link/2.
  reach(X, Y) :- link(X, Y).
  reach(X, Z) :- reach(X, Y), link(Y, Z).
)";

/// Sliding windows of random link/2 facts over a small node universe
/// (dense transitive closure, the incremental grounder's target regime).
std::vector<std::vector<PackedFact>> MakeSlidingReachWindows(
    SymbolTable& symbols, size_t window_size, size_t num_windows) {
  const SymbolId link = symbols.Intern("link");
  const size_t slide = std::max<size_t>(1, window_size / 16);
  Rng rng(2017);
  std::vector<PackedFact> stream;
  stream.reserve(window_size + slide * num_windows);
  for (size_t i = 0; i < window_size + slide * num_windows; ++i) {
    const auto from = static_cast<int64_t>(rng.NextBounded(48));
    const auto to = static_cast<int64_t>(rng.NextBounded(48));
    stream.push_back(PackedFact{
        link, 2, {PackedTerm::Integer(from), PackedTerm::Integer(to)}});
  }
  std::vector<std::vector<PackedFact>> windows;
  windows.reserve(num_windows);
  for (size_t w = 0; w < num_windows; ++w) {
    const size_t begin = w * slide;
    windows.emplace_back(stream.begin() + begin,
                         stream.begin() + begin + window_size);
  }
  return windows;
}

void BM_SlidingReachSolveCold(benchmark::State& state) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  const Program program = *parser.ParseProgram(kSlidingReachProgram);
  const std::vector<std::vector<PackedFact>> windows =
      MakeSlidingReachWindows(*symbols, static_cast<size_t>(state.range(0)),
                              16);
  const Grounder grounder;
  const Solver solver;
  for (auto _ : state) {
    size_t total_models = 0;
    for (const std::vector<PackedFact>& window : windows) {
      const StatusOr<GroundProgram> ground = grounder.Ground(program, window);
      if (!ground.ok()) std::abort();
      const StatusOr<std::vector<AnswerSet>> models = solver.Solve(*ground);
      if (!models.ok()) std::abort();
      total_models += models->size();
    }
    benchmark::DoNotOptimize(total_models);
  }
  state.SetItemsProcessed(state.iterations() * windows.size());
}
BENCHMARK(BM_SlidingReachSolveCold)->Arg(256)->Arg(512);

void RunSlidingReachIncremental(benchmark::State& state,
                                bool maintain_fixpoint) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  const Program program = *parser.ParseProgram(kSlidingReachProgram);
  const std::vector<std::vector<PackedFact>> windows =
      MakeSlidingReachWindows(*symbols, static_cast<size_t>(state.range(0)),
                              16);
  SolverOptions solver_options;
  solver_options.reuse_solving = true;
  solver_options.maintain_fixpoint = maintain_fixpoint;
  for (auto _ : state) {
    IncrementalGrounder grounder(&program);
    IncrementalSolver solver(solver_options);
    size_t total_models = 0;
    std::vector<AnswerSet> models;
    for (size_t w = 0; w < windows.size(); ++w) {
      if (!grounder.GroundWindow(w, windows[w]).ok()) std::abort();
      const Status status = solver.SolveWindow(grounder, &models);
      if (!status.ok()) std::abort();
      total_models += models.size();
    }
    benchmark::DoNotOptimize(total_models);
  }
  state.SetItemsProcessed(state.iterations() * windows.size());
}

void BM_SlidingReachSolveIncremental(benchmark::State& state) {
  RunSlidingReachIncremental(state, /*maintain_fixpoint=*/true);
}
BENCHMARK(BM_SlidingReachSolveIncremental)->Arg(256)->Arg(512);

// Patched-rebuild variant: the persistent solver still applies the
// grounder's delta to its rule store, but recomputes the definite closure
// from scratch each window instead of maintaining the root fixpoint.
void BM_SlidingReachSolvePatched(benchmark::State& state) {
  RunSlidingReachIncremental(state, /*maintain_fixpoint=*/false);
}
BENCHMARK(BM_SlidingReachSolvePatched)->Arg(256)->Arg(512);

// Delta-sized maintained fixpoint: retraction de-justifies only the
// transitive cone, admission propagates forward only; atoms outside the
// cone keep the previous window's assignment verbatim.
void BM_SlidingReachSolveMaintained(benchmark::State& state) {
  RunSlidingReachIncremental(state, /*maintain_fixpoint=*/true);
}
BENCHMARK(BM_SlidingReachSolveMaintained)->Arg(256)->Arg(512);

}  // namespace
}  // namespace streamasp

BENCHMARK_MAIN();
