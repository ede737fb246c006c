// End-to-end pipeline tests mirroring the paper's evaluation setup (§IV)
// at test scale: synthetic streams, both programs P and P', reasoners R,
// PR_Dep and PR_Ran, accuracy bookkeeping.

#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "asp/parser.h"
#include "depgraph/decomposition.h"
#include "ground/grounder.h"
#include "packed_fact_test_util.h"
#include "stream/generator.h"
#include "stream/query_processor.h"
#include "solve/solver.h"
#include "streamrule/accuracy.h"
#include "streamrule/parallel_reasoner.h"
#include "streamrule/random_partitioner.h"
#include "streamrule/traffic_workload.h"

namespace streamasp {
namespace {

struct PipelineCase {
  TrafficProgramVariant variant;
  GeneratorProfile profile;
  size_t window_size;
  uint64_t seed;
};

class PipelineTest : public ::testing::TestWithParam<PipelineCase> {
 protected:
  PipelineTest() : symbols_(MakeSymbolTable()) {}
  SymbolTablePtr symbols_;
};

TEST_P(PipelineTest, DependencyPartitioningPreservesAnswers) {
  const PipelineCase& param = GetParam();
  StatusOr<Program> program =
      MakeTrafficProgram(symbols_, param.variant, /*with_show=*/false);
  ASSERT_TRUE(program.ok());
  StatusOr<InputDependencyGraph> graph =
      InputDependencyGraph::Build(*program);
  ASSERT_TRUE(graph.ok());
  StatusOr<PartitioningPlan> plan = DecomposeInputDependencyGraph(*graph);
  ASSERT_TRUE(plan.ok());

  GeneratorOptions gen_options;
  gen_options.seed = param.seed;
  gen_options.profile = param.profile;
  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_),
                                     gen_options);
  const TripleWindow window =
      generator.GenerateTripleWindow(param.window_size);

  Reasoner r(&*program);
  ParallelReasoner pr(&*program, *plan);
  StatusOr<ReasonerResult> whole = r.Process(window);
  ASSERT_TRUE(whole.ok()) << whole.status();
  StatusOr<ParallelReasonerResult> split = pr.Process(window);
  ASSERT_TRUE(split.ok()) << split.status();

  // The headline property: dependency-aware partitioning loses nothing.
  EXPECT_DOUBLE_EQ(MeanAccuracy(split->answers, whole->answers), 1.0);

  // For these stratified programs both reasoners are deterministic:
  // exactly one answer each, and they are equal as sets.
  ASSERT_EQ(whole->answers.size(), 1u);
  ASSERT_EQ(split->answers.size(), 1u);
  EXPECT_TRUE(AnswersEqual(split->answers[0], whole->answers[0]));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PipelineTest,
    ::testing::Values(
        PipelineCase{TrafficProgramVariant::kP, GeneratorProfile::kEventRich,
                     2000, 1},
        PipelineCase{TrafficProgramVariant::kP, GeneratorProfile::kEventRich,
                     5000, 2},
        PipelineCase{TrafficProgramVariant::kP,
                     GeneratorProfile::kPaperUniform, 3000, 3},
        PipelineCase{TrafficProgramVariant::kPPrime,
                     GeneratorProfile::kEventRich, 2000, 4},
        PipelineCase{TrafficProgramVariant::kPPrime,
                     GeneratorProfile::kEventRich, 5000, 5},
        PipelineCase{TrafficProgramVariant::kPPrime,
                     GeneratorProfile::kPaperUniform, 3000, 6}));

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : symbols_(MakeSymbolTable()) {}
  SymbolTablePtr symbols_;
};

TEST_F(IntegrationTest, RandomPartitioningLosesAccuracyOnEventRichData) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());
  StatusOr<InputDependencyGraph> graph =
      InputDependencyGraph::Build(*program);
  StatusOr<PartitioningPlan> plan = DecomposeInputDependencyGraph(*graph);
  ASSERT_TRUE(plan.ok());

  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_), {});
  const TripleWindow window = generator.GenerateTripleWindow(8000);

  Reasoner r(&*program);
  ParallelReasoner pr(&*program, *plan);
  StatusOr<ReasonerResult> reference = r.Process(window);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->answers.empty());
  ASSERT_FALSE(reference->answers[0].empty())
      << "event-rich data must derive events for this test to bite";

  StatusOr<ParallelReasonerResult> dep = pr.Process(window);
  ASSERT_TRUE(dep.ok());
  EXPECT_DOUBLE_EQ(MeanAccuracy(dep->answers, reference->answers), 1.0);

  RandomPartitioner random(4, 99);
  StatusOr<ParallelReasonerResult> ran =
      pr.ProcessPartitions(random.Partition(window.items));
  ASSERT_TRUE(ran.ok());
  EXPECT_LT(MeanAccuracy(ran->answers, reference->answers), 1.0)
      << "random partitioning should miss joined events on this workload";
}

TEST_F(IntegrationTest, StreamToReasonerLoopProcessesEveryWindow) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kPPrime, /*with_show=*/true);
  ASSERT_TRUE(program.ok());
  StatusOr<InputDependencyGraph> graph =
      InputDependencyGraph::Build(*program);
  StatusOr<PartitioningPlan> plan = DecomposeInputDependencyGraph(*graph);
  ASSERT_TRUE(plan.ok());
  ParallelReasoner pr(&*program, *plan);

  size_t windows_processed = 0;
  StreamQueryProcessor query(
      1500, /*slide=*/0, [&](const TripleWindow& window) {
        StatusOr<ParallelReasonerResult> result = pr.Process(window);
        ASSERT_TRUE(result.ok()) << result.status();
        ++windows_processed;
      });
  for (const PredicateSignature& sig : program->input_predicates()) {
    query.RegisterPredicate(sig.name);
  }

  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_), {});
  for (int i = 0; i < 3; ++i) {
    query.PushBatch(generator.GenerateWindow(1500));
  }
  query.Flush();
  EXPECT_EQ(windows_processed, 3u);
}

TEST_F(IntegrationTest, DuplicationInflatesPartitionItemsForPPrime) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kPPrime, false);
  ASSERT_TRUE(program.ok());
  StatusOr<InputDependencyGraph> graph =
      InputDependencyGraph::Build(*program);
  StatusOr<PartitioningPlan> plan = DecomposeInputDependencyGraph(*graph);
  ASSERT_TRUE(plan.ok());
  ParallelReasoner pr(&*program, *plan);

  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_), {});
  const TripleWindow window = generator.GenerateTripleWindow(6000);
  StatusOr<ParallelReasonerResult> result = pr.Process(window);
  ASSERT_TRUE(result.ok());
  // car_number (≈1/6 of items) is duplicated: totals must exceed the
  // window size by roughly that share.
  EXPECT_GT(result->total_partition_items, window.size());
  const double overhead =
      static_cast<double>(result->total_partition_items) / window.size();
  EXPECT_NEAR(overhead, 1.0 + 1.0 / 6.0, 0.05);
}

/// The ground fact each triple stands for: p(s), or p(s, o) when it has
/// an object.
std::vector<Atom> AtomsOf(const std::vector<Triple>& items) {
  std::vector<Atom> atoms;
  for (const Triple& triple : items) {
    std::vector<Term> args = {triple.subject.ToTerm()};
    if (triple.object.has_value()) args.push_back(triple.object.ToTerm());
    atoms.emplace_back(triple.predicate, std::move(args));
  }
  return atoms;
}

TEST_F(IntegrationTest, SolverAgreesBetweenRawAndSimplifiedGrounding) {
  // Both programs are stratified with their only negation over an input
  // predicate, so the simplified (cold) grounding decides every window.
  for (TrafficProgramVariant variant :
       {TrafficProgramVariant::kP, TrafficProgramVariant::kPPrime}) {
    StatusOr<Program> program = MakeTrafficProgram(symbols_, variant, false);
    ASSERT_TRUE(program.ok());
    ReasonerOptions raw;
    raw.grounding.simplify = false;
    Reasoner simplified(&*program);
    Reasoner unsimplified(&*program, raw);
    for (uint64_t seed : {1, 2, 3, 42, 2017}) {
      GeneratorOptions options;
      options.seed = seed;
      SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_),
                                         options);
      const TripleWindow window = generator.GenerateTripleWindow(1000);
      StatusOr<ReasonerResult> a = simplified.Process(window);
      StatusOr<ReasonerResult> b = unsimplified.Process(window);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a->grounding.decided_groundings, 1u);
      EXPECT_EQ(b->grounding.decided_groundings, 0u);
      ASSERT_EQ(a->answers.size(), 1u);
      ASSERT_EQ(a->answers.size(), b->answers.size());
      EXPECT_TRUE(AnswersEqual(a->answers[0], b->answers[0]));
    }
  }
}

TEST_F(IntegrationTest, PackedTrafficWindowsAreDecidedWithoutBlockedJams) {
  const SymbolId traffic_light = symbols_->Intern("traffic_light");
  const SymbolId traffic_jam = symbols_->Intern("traffic_jam");
  const SymbolId very_slow_speed = symbols_->Intern("very_slow_speed");
  const SymbolId many_cars = symbols_->Intern("many_cars");
  const SymbolId car_fire = symbols_->Intern("car_fire");
  size_t blocked = 0;
  for (TrafficProgramVariant variant :
       {TrafficProgramVariant::kP, TrafficProgramVariant::kPPrime}) {
    StatusOr<Program> program = MakeTrafficProgram(symbols_, variant, false);
    ASSERT_TRUE(program.ok());
    for (uint64_t seed : {1, 2, 3, 42, 2017}) {
      GeneratorOptions options;
      options.seed = seed;
      SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_),
                                         options);
      const TripleWindow window = generator.GenerateTripleWindow(2000);
      const std::vector<Atom> facts = AtomsOf(window.items);
      StatusOr<GroundProgram> packed =
          Grounder().Ground(*program, PackFacts(facts));
      ASSERT_TRUE(packed.ok()) << packed.status();
      EXPECT_TRUE(packed->decided());
      for (const GroundRule& rule : packed->rules()) {
        EXPECT_TRUE(rule.is_fact());
      }
      // A traffic_light(X) fact blocks traffic_jam(X) :- very_slow_speed(X),
      // many_cars(X), not traffic_light(X): the instance and its head are
      // gone, unless r7 of P' derives the jam from a car fire.
      const AtomTable& atoms = packed->atoms();
      auto has = [&](SymbolId predicate, PackedTerm x) {
        return atoms.Lookup(predicate, &x, 1) != kInvalidGroundAtom;
      };
      for (const Triple& triple : window.items) {
        if (triple.predicate != traffic_light) continue;
        const PackedTerm x = triple.subject;
        const bool r7_jam = variant == TrafficProgramVariant::kPPrime &&
                            has(car_fire, x) && has(many_cars, x);
        EXPECT_EQ(has(traffic_jam, x), r7_jam);
        if (has(very_slow_speed, x) && has(many_cars, x)) ++blocked;
      }

      // The Atom entry builds the identical program.
      StatusOr<GroundProgram> from_atoms = Grounder().Ground(*program, facts);
      ASSERT_TRUE(from_atoms.ok());
      EXPECT_EQ(from_atoms->rules(), packed->rules());
      EXPECT_EQ(from_atoms->ToString(*symbols_), packed->ToString(*symbols_));
    }
  }
  // The windows do exercise blocking.
  EXPECT_GT(blocked, 0u);
}

TEST_F(IntegrationTest, RecursiveReachWindowIsNotDecided) {
  // The async_pipeline bench's reach_tc workload on one fixed window.
  Parser parser(symbols_);
  StatusOr<Program> program = parser.ParseProgram(R"(
    #input link/2.
    #input high/1.
    reach(X, Y) :- link(X, Y).
    reach(X, Z) :- reach(X, Y), link(Y, Z).
    alarm(X, Y) :- high(X), high(Y), reach(X, Y).
    #show alarm/2.
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  GeneratorOptions options;
  options.seed = 2017;
  options.location_divisor = 1600 / 48;
  options.value_range = 48;
  std::vector<StreamPredicate> schema(2);
  schema[0].predicate = symbols_->Intern("link");
  schema[0].has_object = true;
  schema[0].weight = 4.0;
  schema[1].predicate = symbols_->Intern("high");
  schema[1].has_object = false;
  schema[1].weight = 1.0;
  SyntheticStreamGenerator generator(schema, options);
  const std::vector<Triple> items = generator.GenerateWindow(1600);
  const std::vector<PackedFact> facts = PackFacts(AtomsOf(items));

  GroundingStats decided_stats;
  StatusOr<GroundProgram> ground =
      Grounder().Ground(*program, facts, &decided_stats);
  ASSERT_TRUE(ground.ok()) << ground.status();
  EXPECT_FALSE(ground->decided());
  EXPECT_EQ(decided_stats.decided_groundings, 0u);

  // Every recursive instance is still emitted: against the unsimplified
  // grounding, only the repeated input facts are missing (each distinct
  // fact is emitted once; reach(X, Y) :- link(X, Y) and the alarms over
  // direct links become facts one for one).
  GroundingOptions raw;
  raw.simplify = false;
  GroundingStats raw_stats;
  ASSERT_TRUE(Grounder(raw).Ground(*program, facts, &raw_stats).ok());
  // The pair (predicate, packed words) identifies an input fact.
  std::set<std::pair<SymbolId, std::pair<uint64_t, uint64_t>>> distinct;
  for (const Triple& triple : items) {
    distinct.insert({triple.predicate,
                     {triple.subject.bits(), triple.object.bits()}});
  }
  EXPECT_EQ(decided_stats.num_rules_raw,
            raw_stats.num_rules_raw - (items.size() - distinct.size()));
  EXPECT_EQ(decided_stats.num_rules_raw, 50202u);
}

}  // namespace
}  // namespace streamasp
