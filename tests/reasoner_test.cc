#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "asp/parser.h"
#include "depgraph/decomposition.h"
#include "stream/generator.h"
#include "streamrule/accuracy.h"
#include "streamrule/answer.h"
#include "streamrule/parallel_reasoner.h"
#include "streamrule/random_partitioner.h"
#include "streamrule/traffic_workload.h"
#include "triple_test_util.h"

namespace streamasp {
namespace {

class ReasonerTest : public ::testing::Test {
 protected:
  ReasonerTest() : symbols_(MakeSymbolTable()), parser_(symbols_) {}

  Atom A(const std::string& text) {
    StatusOr<Atom> atom = parser_.ParseGroundAtom(text);
    EXPECT_TRUE(atom.ok()) << atom.status();
    return std::move(atom).value();
  }

  /// The paper's §II-A example window.
  std::vector<Atom> PaperWindow() {
    return {A("average_speed(newcastle, 10)"), A("car_number(newcastle, 55)"),
            A("traffic_light(newcastle)"),     A("car_in_smoke(car1, high)"),
            A("car_speed(car1, 0)"),           A("car_location(car1, dangan)")};
  }

  /// Every answer of `result`, rendered in order.
  std::string Render(const ParallelReasonerResult& result) {
    std::string out;
    for (const GroundAnswer& answer : result.answers) {
      out += AnswerToString(answer, *symbols_) + "\n";
    }
    return out;
  }

  bool AnswerContains(const GroundAnswer& answer, const std::string& atom) {
    const Atom wanted = A(atom);
    for (const Atom& a : answer) {
      if (a == wanted) return true;
    }
    return false;
  }

  SymbolTablePtr symbols_;
  Parser parser_;
};

TEST_F(ReasonerTest, PaperExampleGroundTruth) {
  StatusOr<Program> program =
      MakeTrafficProgram(symbols_, TrafficProgramVariant::kP, false);
  ASSERT_TRUE(program.ok());
  Reasoner reasoner(&*program);
  StatusOr<ReasonerResult> result = reasoner.Process(WindowOf(PaperWindow()));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->answers.size(), 1u);
  const GroundAnswer& answer = result->answers[0];
  // §II-A: "The accurate answer is the event car_fire(dangan) detected and
  // the notification about the dangan road segment."
  EXPECT_TRUE(AnswerContains(answer, "car_fire(dangan)"));
  EXPECT_TRUE(AnswerContains(answer, "give_notification(dangan)"));
  EXPECT_FALSE(AnswerContains(answer, "traffic_jam(newcastle)"));
  EXPECT_FALSE(AnswerContains(answer, "give_notification(newcastle)"));
  // Latency bookkeeping is populated.
  EXPECT_GE(result->latency_ms, 0.0);
  EXPECT_GE(result->ground_ms, 0.0);
  EXPECT_GT(result->grounding.num_atoms, 0u);
}

TEST_F(ReasonerTest, PaperBadRandomSplitProducesWrongEvent) {
  // W1 = {average_speed, car_number, car_in_smoke},
  // W2 = {traffic_light, car_speed, car_location}: reasoning in parallel
  // wrongly detects traffic_jam(newcastle) and misses car_fire(dangan).
  StatusOr<Program> program =
      MakeTrafficProgram(symbols_, TrafficProgramVariant::kP, false);
  ASSERT_TRUE(program.ok());
  const std::vector<Atom> window = PaperWindow();
  const std::vector<std::vector<Triple>> bad_split = {
      WindowOf({window[0], window[1], window[3]}).items,
      WindowOf({window[2], window[4], window[5]}).items};

  PartitioningPlan trivial(1);
  ParallelReasoner pr(&*program, trivial);
  StatusOr<ParallelReasonerResult> result = pr.ProcessPartitions(bad_split);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->answers.size(), 1u);
  EXPECT_TRUE(
      AnswerContains(result->answers[0], "traffic_jam(newcastle)"));
  EXPECT_TRUE(
      AnswerContains(result->answers[0], "give_notification(newcastle)"));
  EXPECT_FALSE(AnswerContains(result->answers[0], "car_fire(dangan)"));
}

TEST_F(ReasonerTest, DependencyPartitioningMatchesWholeWindow) {
  StatusOr<Program> program =
      MakeTrafficProgram(symbols_, TrafficProgramVariant::kP, false);
  ASSERT_TRUE(program.ok());
  StatusOr<InputDependencyGraph> graph =
      InputDependencyGraph::Build(*program);
  ASSERT_TRUE(graph.ok());
  StatusOr<PartitioningPlan> plan = DecomposeInputDependencyGraph(*graph);
  ASSERT_TRUE(plan.ok());

  Reasoner r(&*program);
  ParallelReasoner pr(&*program, *plan);
  StatusOr<ReasonerResult> whole = r.Process(WindowOf(PaperWindow()));
  StatusOr<ParallelReasonerResult> split = pr.Process(WindowOf(PaperWindow()));
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(split.ok());
  EXPECT_DOUBLE_EQ(MeanAccuracy(split->answers, whole->answers), 1.0);
  ASSERT_EQ(split->answers.size(), 1u);
  EXPECT_TRUE(AnswerContains(split->answers[0], "car_fire(dangan)"));
  EXPECT_FALSE(AnswerContains(split->answers[0], "traffic_jam(newcastle)"));
  EXPECT_EQ(split->num_partitions, 2u);
  EXPECT_GE(split->critical_path_ms, 0.0);
}

TEST_F(ReasonerTest, ShowProjectionFiltersAnswers) {
  StatusOr<Program> program =
      MakeTrafficProgram(symbols_, TrafficProgramVariant::kP, true);
  ASSERT_TRUE(program.ok());
  Reasoner reasoner(&*program);
  StatusOr<ReasonerResult> result = reasoner.Process(WindowOf(PaperWindow()));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->answers.size(), 1u);
  // Only the three shown event predicates survive.
  EXPECT_EQ(result->answers[0].size(), 2u);  // car_fire + give_notification.
  for (const Atom& atom : result->answers[0]) {
    const std::string name = symbols_->NameOf(atom.predicate());
    EXPECT_TRUE(name == "traffic_jam" || name == "car_fire" ||
                name == "give_notification")
        << name;
  }
}

TEST_F(ReasonerTest, ProjectionCanBeDisabled) {
  StatusOr<Program> program =
      MakeTrafficProgram(symbols_, TrafficProgramVariant::kP, true);
  ASSERT_TRUE(program.ok());
  ReasonerOptions options;
  options.project_to_shown = false;
  Reasoner reasoner(&*program, options);
  StatusOr<ReasonerResult> result = reasoner.Process(WindowOf(PaperWindow()));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->answers[0].size(), 2u);
}

TEST_F(ReasonerTest, TripleWindowPipelineConvertsAndSolves) {
  StatusOr<Program> program =
      MakeTrafficProgram(symbols_, TrafficProgramVariant::kP, false);
  ASSERT_TRUE(program.ok());
  Reasoner reasoner(&*program);

  TripleWindow window;
  window.items = {
      Triple{Term::Symbol(symbols_->Intern("newcastle")),
             symbols_->Intern("average_speed"), Term::Integer(10)},
      Triple{Term::Symbol(symbols_->Intern("newcastle")),
             symbols_->Intern("car_number"), Term::Integer(55)}};
  StatusOr<ReasonerResult> result = reasoner.Process(window);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->answers.size(), 1u);
  // No traffic light in the window: the jam fires now.
  EXPECT_TRUE(AnswerContains(result->answers[0], "traffic_jam(newcastle)"));
  EXPECT_GE(result->convert_ms, 0.0);
}

TEST_F(ReasonerTest, UnpairedReuseEnginesAreRejected) {
  StatusOr<Program> program =
      MakeTrafficProgram(symbols_, TrafficProgramVariant::kP, false);
  ASSERT_TRUE(program.ok());
  Reasoner reasoner(&*program);
  IncrementalGrounder grounder(&*program);
  IncrementalSolver solver;

  TripleWindow window;
  window.items = {Triple{Term::Symbol(symbols_->Intern("newcastle")),
                         symbols_->Intern("average_speed"), Term::Integer(10)}};
  // The reuse path is a grounder and a solver together: either alone
  // has nothing to hand its window to.
  EXPECT_EQ(reasoner.Process(window, &grounder).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reasoner.Process(window, nullptr, &solver).status().code(),
            StatusCode::kInvalidArgument);
  // Neither engine saw the refused calls, so the pair starts clean.
  EXPECT_FALSE(grounder.cache_valid());
  StatusOr<ReasonerResult> result =
      reasoner.Process(window, &grounder, &solver);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 1u);
  EXPECT_EQ(result->grounding.incremental_fallbacks, 1u);
}

TEST_F(ReasonerTest, PPrimeRule7FiresThroughDuplicatedPredicate) {
  StatusOr<Program> program =
      MakeTrafficProgram(symbols_, TrafficProgramVariant::kPPrime, false);
  ASSERT_TRUE(program.ok());
  StatusOr<InputDependencyGraph> graph =
      InputDependencyGraph::Build(*program);
  StatusOr<PartitioningPlan> plan = DecomposeInputDependencyGraph(*graph);
  ASSERT_TRUE(plan.ok());

  // A car fire at a location with many cars (but no slow speed): r7 must
  // derive traffic_jam from car_fire — and the relevant car_number atom is
  // duplicated into the fire partition.
  const std::vector<Atom> window = {
      A("car_in_smoke(car1, high)"), A("car_speed(car1, 0)"),
      A("car_location(car1, dangan)"), A("car_number(dangan, 50)")};
  Reasoner r(&*program);
  ParallelReasoner pr(&*program, *plan);
  StatusOr<ReasonerResult> whole = r.Process(WindowOf(window));
  StatusOr<ParallelReasonerResult> split = pr.Process(WindowOf(window));
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(whole->answers.size(), 1u);
  EXPECT_TRUE(AnswerContains(whole->answers[0], "traffic_jam(dangan)"));
  EXPECT_DOUBLE_EQ(MeanAccuracy(split->answers, whole->answers), 1.0);
  // The duplicated car_number atom inflates partition totals.
  EXPECT_EQ(split->total_partition_items, window.size() + 1);
}

TEST_F(ReasonerTest, EmptyWindowYieldsEmptyAnswer) {
  StatusOr<Program> program =
      MakeTrafficProgram(symbols_, TrafficProgramVariant::kP, false);
  ASSERT_TRUE(program.ok());
  Reasoner reasoner(&*program);
  StatusOr<ReasonerResult> result = reasoner.Process(TripleWindow());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->answers.size(), 1u);
  EXPECT_TRUE(result->answers[0].empty());
}

TEST_F(ReasonerTest, ParallelReasonerReportsPerPartitionLatency) {
  StatusOr<Program> program =
      MakeTrafficProgram(symbols_, TrafficProgramVariant::kP, false);
  ASSERT_TRUE(program.ok());
  StatusOr<InputDependencyGraph> graph =
      InputDependencyGraph::Build(*program);
  StatusOr<PartitioningPlan> plan = DecomposeInputDependencyGraph(*graph);
  ParallelReasoner pr(&*program, *plan);
  StatusOr<ParallelReasonerResult> result = pr.Process(WindowOf(PaperWindow()));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition_latency_ms.size(), 2u);
  double slowest = 0;
  for (double ms : result->partition_latency_ms) {
    slowest = std::max(slowest, ms);
  }
  EXPECT_GE(result->critical_path_ms, slowest);
  EXPECT_NEAR(result->critical_path_ms,
              result->partition_ms + slowest + result->combine_ms, 1e-9);
}

TEST_F(ReasonerTest, CriticalPathIncludesPartitioningTime) {
  // A window large enough that partitioning takes measurable time, so a
  // critical path computed before partition_ms is set would fall short.
  StatusOr<Program> program =
      MakeTrafficProgram(symbols_, TrafficProgramVariant::kPPrime, false);
  ASSERT_TRUE(program.ok());
  StatusOr<InputDependencyGraph> graph =
      InputDependencyGraph::Build(*program);
  StatusOr<PartitioningPlan> plan = DecomposeInputDependencyGraph(*graph);
  ASSERT_TRUE(plan.ok());
  GeneratorOptions generator_options;
  generator_options.seed = 11;
  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_),
                                     generator_options);
  TripleWindow window;
  window.items = generator.GenerateWindow(20000);
  ParallelReasoner pr(&*program, *plan);
  StatusOr<ParallelReasonerResult> result = pr.Process(window);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GT(result->partition_ms, 0.0);
  double slowest = 0;
  for (double ms : result->partition_latency_ms) {
    slowest = std::max(slowest, ms);
  }
  EXPECT_NEAR(result->critical_path_ms,
              result->partition_ms + slowest + result->combine_ms, 1e-9);
  EXPECT_GE(result->latency_ms, result->partition_ms + result->combine_ms);
}

// Process fans partitions 1..n-1 out on the reasoner's private pool and
// reasons partition 0 on the caller; ProcessPartitions (the PR_Ran_k
// path) does the same over externally produced partitions. The pool's
// size must never change an answer, and neither may reuse, which
// external partitions bypass.
TEST_F(ReasonerTest, PrivatePoolThreadCountNeverChangesAnswers) {
  for (const TrafficProgramVariant variant :
       {TrafficProgramVariant::kP, TrafficProgramVariant::kPPrime}) {
    StatusOr<Program> program = MakeTrafficProgram(symbols_, variant, true);
    ASSERT_TRUE(program.ok()) << program.status();
    StatusOr<InputDependencyGraph> graph =
        InputDependencyGraph::Build(*program);
    ASSERT_TRUE(graph.ok()) << graph.status();
    StatusOr<PartitioningPlan> plan = DecomposeInputDependencyGraph(*graph);
    ASSERT_TRUE(plan.ok()) << plan.status();
    GeneratorOptions generator_options;
    generator_options.seed = 23;
    SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_),
                                       generator_options);
    TripleWindow window;
    window.items = generator.GenerateWindow(3000);
    RandomPartitioner random(4, /*seed=*/5);
    const std::vector<std::vector<Triple>> random_partitions =
        random.Partition(window.items);

    std::string want_dependency;
    std::string want_random;
    for (const size_t threads : {1, 2, 4}) {
      SCOPED_TRACE("num_threads=" + std::to_string(threads));
      ParallelReasonerOptions options;
      options.num_threads = threads;
      ParallelReasoner pr(&*program, *plan, options);
      StatusOr<ParallelReasonerResult> dependency = pr.Process(window);
      ASSERT_TRUE(dependency.ok()) << dependency.status();
      StatusOr<ParallelReasonerResult> ran =
          pr.ProcessPartitions(random_partitions);
      ASSERT_TRUE(ran.ok()) << ran.status();
      EXPECT_EQ(ran->num_partitions, 4u);
      if (threads == 1) {
        want_dependency = Render(*dependency);
        want_random = Render(*ran);
        EXPECT_FALSE(want_dependency.empty());
      } else {
        EXPECT_EQ(Render(*dependency), want_dependency);
        EXPECT_EQ(Render(*ran), want_random);
      }
    }

    // A reuse reasoner reasons external partitions cold: its
    // per-partition engines follow the plan's 2 partitions, never these 5.
    ParallelReasonerOptions reuse;
    reuse.reasoner.solving.reuse_solving = true;
    ParallelReasoner cold(&*program, *plan);
    ParallelReasoner warm(&*program, *plan, reuse);
    ASSERT_EQ(warm.partitioning_handler().num_partitions(), 2u);
    const std::vector<std::vector<Triple>> five =
        RandomPartitioner(5, /*seed=*/5).Partition(window.items);
    StatusOr<ParallelReasonerResult> want = cold.ProcessPartitions(five);
    ASSERT_TRUE(want.ok()) << want.status();
    for (int round = 0; round < 2; ++round) {
      StatusOr<ParallelReasonerResult> got = warm.ProcessPartitions(five);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->num_partitions, 5u);
      EXPECT_EQ(Render(*got), Render(*want));
      EXPECT_EQ(got->grounding.incremental_windows, 0u);
      EXPECT_EQ(got->grounding.incremental_fallbacks, 0u);
      EXPECT_EQ(got->solving.incremental_solve_windows, 0u);
      EXPECT_EQ(got->solving.solve_rebuilds, 0u);
    }
  }
}

// Concurrent Process calls share the private lane; each must still get
// exactly its own window's answers.
TEST_F(ReasonerTest, ConcurrentProcessCallsShareThePrivatePool) {
  StatusOr<Program> program =
      MakeTrafficProgram(symbols_, TrafficProgramVariant::kPPrime, true);
  ASSERT_TRUE(program.ok()) << program.status();
  StatusOr<InputDependencyGraph> graph = InputDependencyGraph::Build(*program);
  ASSERT_TRUE(graph.ok()) << graph.status();
  StatusOr<PartitioningPlan> plan = DecomposeInputDependencyGraph(*graph);
  ASSERT_TRUE(plan.ok()) << plan.status();

  constexpr int kCallers = 2;
  constexpr int kRounds = 4;
  std::vector<TripleWindow> windows(kCallers);
  std::vector<std::string> want(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    GeneratorOptions generator_options;
    generator_options.seed = 40 + c;
    SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_),
                                       generator_options);
    windows[c].items = generator.GenerateWindow(1500);
    ParallelReasonerOptions inline_options;
    inline_options.num_threads = 1;
    ParallelReasoner oracle(&*program, *plan, inline_options);
    StatusOr<ParallelReasonerResult> result = oracle.Process(windows[c]);
    ASSERT_TRUE(result.ok()) << result.status();
    want[c] = Render(*result);
  }
  ASSERT_NE(want[0], want[1]);

  ParallelReasonerOptions options;
  options.num_threads = 2;
  ParallelReasoner shared(&*program, *plan, options);
  std::vector<std::vector<std::string>> got(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        StatusOr<ParallelReasonerResult> result = shared.Process(windows[c]);
        got[c].push_back(result.ok() ? Render(*result)
                                     : result.status().ToString());
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (int c = 0; c < kCallers; ++c) {
    ASSERT_EQ(got[c].size(), static_cast<size_t>(kRounds));
    for (const std::string& answers : got[c]) EXPECT_EQ(answers, want[c]);
  }
}

}  // namespace
}  // namespace streamasp
