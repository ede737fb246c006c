// Atom-level dependency analysis (paper §VI future work): key-position
// inference, demotion to replicated, the bucket counts it writes into the
// plan, the locality rules that keep a community whole (each checked
// end to end against the unbucketed plan), key routing of fact windows,
// and end-to-end accuracy of the bucketed parallel reasoner.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asp/parser.h"
#include "depgraph/atom_level.h"
#include "depgraph/decomposition.h"
#include "stream/format.h"
#include "stream/generator.h"
#include "streamrule/accuracy.h"
#include "streamrule/answer.h"
#include "streamrule/parallel_reasoner.h"
#include "streamrule/traffic_workload.h"

namespace streamasp {
namespace {

constexpr int kReplicated = PartitioningPlan::kReplicated;

class AtomLevelTest : public ::testing::Test {
 protected:
  AtomLevelTest() : symbols_(MakeSymbolTable()), parser_(symbols_) {}

  PredicateSignature Sig(const std::string& name, uint32_t arity) {
    return PredicateSignature{symbols_->Intern(name), arity};
  }

  static PartitioningPlan CommunityPlan(const Program& program) {
    StatusOr<InputDependencyGraph> graph =
        InputDependencyGraph::Build(program);
    EXPECT_TRUE(graph.ok()) << graph.status();
    StatusOr<PartitioningPlan> plan = DecomposeInputDependencyGraph(*graph);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return std::move(plan).value();
  }

  static PartitioningPlan BuildPlan(const Program& program,
                                    size_t max_buckets = 2) {
    return SplitIntoBuckets(program, CommunityPlan(program), max_buckets);
  }

  /// The answers of `facts` through ParallelReasoner at `num_shards`,
  /// rendered one answer set per line.
  std::string Answers(const Program& program, const PartitioningPlan& plan,
                      const std::vector<Atom>& facts, size_t num_shards) {
    ParallelReasonerOptions options;
    options.num_shards = num_shards;
    options.num_threads = 1;
    ParallelReasoner pr(&program, plan, options);
    StatusOr<ParallelReasonerResult> result = pr.ProcessFacts(facts);
    EXPECT_TRUE(result.ok()) << result.status();
    if (!result.ok()) return "";
    std::string rendered;
    for (const GroundAnswer& answer : result->answers) {
      rendered += AnswerToString(answer, *symbols_) + "\n";
    }
    return rendered;
  }

  Atom Fact(const char* name, std::vector<Term> args) {
    return Atom(symbols_->Intern(name), std::move(args));
  }

  Program Traffic(TrafficProgramVariant variant, bool with_show = false) {
    StatusOr<Program> program =
        MakeTrafficProgram(symbols_, variant, with_show);
    EXPECT_TRUE(program.ok()) << program.status();
    return std::move(program).value();
  }

  SymbolTablePtr symbols_;
  Parser parser_;
};

TEST_F(AtomLevelTest, TrafficProgramKeysOnLocationAndCar) {
  const PartitioningPlan plan = BuildPlan(Traffic(TrafficProgramVariant::kP));

  // Location family keys on argument 0 (the road segment X).
  EXPECT_EQ(plan.KeyPositionOf(Sig("average_speed", 2)), 0);
  EXPECT_EQ(plan.KeyPositionOf(Sig("car_number", 2)), 0);
  EXPECT_EQ(plan.KeyPositionOf(Sig("traffic_light", 1)), 0);
  // Car family keys on argument 0 (the car C).
  EXPECT_EQ(plan.KeyPositionOf(Sig("car_in_smoke", 2)), 0);
  EXPECT_EQ(plan.KeyPositionOf(Sig("car_speed", 2)), 0);
  EXPECT_EQ(plan.KeyPositionOf(Sig("car_location", 2)), 0);
  // car_fire(X)'s argument is the location, not the anchor car: unkeyed.
  EXPECT_EQ(plan.KeyPositionOf(Sig("car_fire", 1)), kReplicated);

  // Both communities split: 2 communities x 2 buckets = 4 partitions.
  EXPECT_EQ(plan.BucketsOf(0), 2);
  EXPECT_EQ(plan.BucketsOf(1), 2);
  EXPECT_EQ(PartitioningHandler(plan).num_partitions(), 4u);
}

TEST_F(AtomLevelTest, OneOrZeroBucketsLeavesThePlanUnsplit) {
  // num_shards 0 and 1 both mean "no buckets": no analysis runs, every
  // community keeps one partition and no key is recorded.
  const Program program = Traffic(TrafficProgramVariant::kP);
  for (const size_t max_buckets : {size_t{0}, size_t{1}}) {
    const PartitioningPlan plan = BuildPlan(program, max_buckets);
    EXPECT_EQ(plan.BucketsOf(0), 1);
    EXPECT_EQ(plan.BucketsOf(1), 1);
    EXPECT_EQ(plan.KeyPositionOf(Sig("average_speed", 2)), kReplicated);
    EXPECT_EQ(PartitioningHandler(plan).num_partitions(), 2u);
  }
}

TEST_F(AtomLevelTest, CrossJoinDemotesToReplicated) {
  // No variable shared by both body atoms: neither predicate can be keyed
  // consistently, and the community is not split.
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input left/1, right/1.
    pair :- left(X), right(Y).
  )");
  ASSERT_TRUE(program.ok());
  const PartitioningPlan plan = BuildPlan(*program);
  EXPECT_EQ(plan.KeyPositionOf(Sig("left", 1)), kReplicated);
  EXPECT_EQ(plan.KeyPositionOf(Sig("right", 1)), kReplicated);
  EXPECT_EQ(plan.BucketsOf(0), 1);
}

TEST_F(AtomLevelTest, ConstantAtKeyPositionDemotes) {
  // status(S, active): the shared variable S sits at position 0; the
  // candidate key works. But status(active, S) with the anchor at
  // position 1 and a constant at 0 must not key on 0.
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input status/2, level/2.
    alarm(S) :- status(S, active), level(S, L), L > 3.
  )");
  ASSERT_TRUE(program.ok());
  const PartitioningPlan plan = BuildPlan(*program);
  EXPECT_EQ(plan.KeyPositionOf(Sig("status", 2)), 0);
  EXPECT_EQ(plan.KeyPositionOf(Sig("level", 2)), 0);
  EXPECT_EQ(plan.BucketsOf(0), 2);
}

TEST_F(AtomLevelTest, ConflictingKeysAcrossRulesDemote) {
  // r1 keys link/2 on position 0, r2 on position 1: inconsistent, so
  // link/2 ends up replicated, and — not duplicated by the plan — it
  // keeps its community whole.
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input link/2, a/1, b/1.
    fwd(X) :- a(X), link(X, Y).
    bwd(Y) :- b(Y), link(X, Y).
  )");
  ASSERT_TRUE(program.ok());
  const PartitioningPlan plan = BuildPlan(*program);
  EXPECT_EQ(plan.KeyPositionOf(Sig("link", 2)), kReplicated);
  for (int c : plan.CommunitiesOf(Sig("link", 2))) {
    EXPECT_EQ(plan.BucketsOf(c), 1);
  }
}

TEST_F(AtomLevelTest, NegationOnlyLocalUnderAPositiveAnchor) {
  // A rule fires in every bucket its positive atoms reach. With only
  // replicated positive atoms (g and h, duplicated by the hand-built
  // plan into communities 0 and 1 resp. 0 and 2, so only community 0
  // can fire the rules), a negated keyed atom (b) or a negated atom
  // derived in one bucket only (f) is absent from the other buckets,
  // where `not` would wrongly hold. Community 0 must stay whole, and the
  // answers must equal the unbucketed plan's.
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input g/1, h/1, b/1, c/1, k/2.
    s(X) :- b(X), c(X).
    r(X) :- g(X), h(X), not b(X).
    f(Y) :- k(X, Y), c(X).
    t(X) :- g(X), h(X), not f(X).
    #show r/1, s/1, t/1.
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  PartitioningPlan community(3);
  for (const char* name : {"g", "h", "b", "c"}) {
    community.Assign(Sig(name, 1), 0);
  }
  community.Assign(Sig("k", 2), 0);
  community.Assign(Sig("g", 1), 1);
  community.Assign(Sig("h", 1), 2);

  const PartitioningPlan plan = SplitIntoBuckets(*program, community, 4);
  EXPECT_EQ(plan.KeyPositionOf(Sig("b", 1)), 0);
  EXPECT_EQ(plan.BucketsOf(0), 1);

  std::vector<Atom> facts;
  for (int64_t v = 0; v < 16; ++v) {
    facts.push_back(Fact("g", {Term::Integer(v)}));
    facts.push_back(Fact("h", {Term::Integer(v)}));
    facts.push_back(Fact("c", {Term::Integer(v)}));
    if (v % 3 == 0) facts.push_back(Fact("b", {Term::Integer(v)}));
    facts.push_back(
        Fact("k", {Term::Integer(v), Term::Integer((v * 5) % 16)}));
  }
  EXPECT_EQ(Answers(*program, community, facts, 4),
            Answers(*program, community, facts, 1));
}

TEST_F(AtomLevelTest, FactsDoNotPinARuleToABucket) {
  // q/1 holds facts only, so every bucket holds q(3): q cannot stay keyed
  // and pin r's rule to q(3)'s bucket, or the buckets without p(3) would
  // derive r(3).
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input p/1, c/1.
    q(3). q(5).
    r(X) :- q(X), not p(X).
    s(X) :- p(X), c(X).
    #show r/1, s/1.
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  const PartitioningPlan community = CommunityPlan(*program);
  const PartitioningPlan plan = SplitIntoBuckets(*program, community, 4);
  EXPECT_EQ(plan.KeyPositionOf(Sig("q", 1)), kReplicated);
  for (int c : plan.CommunitiesOf(Sig("p", 1))) {
    EXPECT_EQ(plan.BucketsOf(c), 1);
  }

  std::vector<Atom> facts;
  for (int64_t v = 0; v < 8; ++v) {
    facts.push_back(Fact("p", {Term::Integer(v)}));
    facts.push_back(Fact("c", {Term::Integer(v)}));
  }
  EXPECT_EQ(Answers(*program, community, facts, 4),
            Answers(*program, community, facts, 1));
}

TEST_F(AtomLevelTest, DerivedInputIsHeldInFullOnlyWhereDerived) {
  // e/1 is an input the hand-built plan duplicates, so the router copies
  // it to every bucket; but rules also derive it, in f's and b's bucket
  // only. So `not e(X)` cannot be read in every bucket, and community 0,
  // the only one holding both g and h, must stay whole.
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input e/1, f/1, b/1, g/1, h/1.
    e(X) :- f(X), b(X).
    r(X) :- g(X), h(X), not e(X).
    #show r/1.
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  PartitioningPlan community(4);
  for (const char* name : {"e", "f", "b", "g", "h"}) {
    community.Assign(Sig(name, 1), 0);
  }
  community.Assign(Sig("g", 1), 1);
  community.Assign(Sig("h", 1), 2);
  community.Assign(Sig("e", 1), 3);

  const PartitioningPlan plan = SplitIntoBuckets(*program, community, 4);
  EXPECT_EQ(plan.KeyPositionOf(Sig("f", 1)), 0);
  EXPECT_EQ(plan.BucketsOf(0), 1);

  std::vector<Atom> facts;
  for (int64_t v = 0; v < 16; ++v) {
    for (const char* name : {"f", "g", "h"}) {
      facts.push_back(Fact(name, {Term::Integer(v)}));
    }
    if (v % 2 == 0) facts.push_back(Fact("b", {Term::Integer(v)}));
  }
  EXPECT_EQ(Answers(*program, community, facts, 4),
            Answers(*program, community, facts, 1));
}

TEST_F(AtomLevelTest, NonDeterministicAtomsAreNotReplicated) {
  // x and y hold no key, so every bucket would derive them; but each
  // bucket picks its own answer set, and the combining handler's cross
  // product would mix a bucket that picked x with one that picked y.
  // Joined with the keyed e, they keep the community whole, with
  // negation or disjunction as the source of the choice.
  for (const char* choice : {"x :- not y.\n y :- not x.", "x | y."}) {
    SCOPED_TRACE(choice);
    StatusOr<Program> program = parser_.ParseProgram(
        std::string("#input e/1, f/1.\n") + choice + R"(
      s(X) :- e(X), f(X).
      r(X) :- e(X), x.
      #show r/1, s/1, x/0, y/0.
    )");
    ASSERT_TRUE(program.ok()) << program.status();
    const PartitioningPlan community = CommunityPlan(*program);
    const PartitioningPlan plan = SplitIntoBuckets(*program, community, 4);
    EXPECT_EQ(plan.KeyPositionOf(Sig("e", 1)), 0);
    for (int c : plan.CommunitiesOf(Sig("e", 1))) {
      EXPECT_EQ(plan.BucketsOf(c), 1);
    }

    // Few values: the disjunctive solve grows exponentially with the
    // number of independent s/1 atoms.
    std::vector<Atom> facts;
    for (int64_t v = 0; v < 4; ++v) {
      facts.push_back(Fact("e", {Term::Integer(v)}));
      facts.push_back(Fact("f", {Term::Integer(v)}));
    }
    EXPECT_EQ(Answers(*program, community, facts, 4),
              Answers(*program, community, facts, 1));
  }
}

TEST_F(AtomLevelTest, RoutingRespectsKeysAndReplication) {
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input p/2, q/2.
    joined(X) :- p(X, A), q(X, B), A < B.
  )");
  ASSERT_TRUE(program.ok());
  const PartitioningHandler handler(BuildPlan(*program, /*max_buckets=*/4));
  ASSERT_EQ(handler.num_partitions(), 4u);

  // Two atoms with the same key value land in the same bucket, and
  // routing is a function of the key only: p(5, 1), q(5, 9) and p(5, 7)
  // share one partition and are not copied anywhere else.
  const Atom p5(symbols_->Intern("p"), {Term::Integer(5), Term::Integer(1)});
  const Atom q5(symbols_->Intern("q"), {Term::Integer(5), Term::Integer(9)});
  const Atom p5b(symbols_->Intern("p"), {Term::Integer(5), Term::Integer(7)});
  const auto partitions = handler.PartitionFacts({p5, q5, p5b});
  size_t holders = 0;
  for (const std::vector<Atom>& partition : partitions) {
    if (partition.empty()) continue;
    ++holders;
    EXPECT_EQ(partition, (std::vector<Atom>{p5, p5b, q5}));
  }
  EXPECT_EQ(holders, 1u);
}

TEST_F(AtomLevelTest, FactWindowCoversWithoutCopies) {
  const Program program = Traffic(TrafficProgramVariant::kP);
  const PartitioningHandler handler(BuildPlan(program, /*max_buckets=*/3));

  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_), {});
  DataFormatProcessor format;
  ASSERT_TRUE(format.DeclareInputPredicates(program.input_predicates()).ok());
  StatusOr<std::vector<Atom>> facts =
      format.ToFacts(generator.GenerateWindow(3000));
  ASSERT_TRUE(facts.ok());

  const auto partitions = handler.PartitionFacts(*facts);
  ASSERT_EQ(partitions.size(), 6u);  // 2 communities x 3 buckets.
  size_t total = 0;
  for (const auto& p : partitions) total += p.size();
  // All of P's input predicates are keyed: no replication, exact cover.
  EXPECT_EQ(total, facts->size());
}

TEST_F(AtomLevelTest, EndToEndAccuracyStaysOne) {
  // P and P′ through ParallelReasoner with num_shards = 2, over fact
  // windows: accuracy 1.0 against whole-window R. P′'s r7 joins car_fire
  // (derived in the car C's bucket) with many_cars, which depends only on
  // car_number — duplicated by the plan, so copied to every bucket — and
  // is therefore available in every bucket: both communities split.
  for (const TrafficProgramVariant variant :
       {TrafficProgramVariant::kP, TrafficProgramVariant::kPPrime}) {
    const bool pprime = variant == TrafficProgramVariant::kPPrime;
    SCOPED_TRACE(pprime ? "P'" : "P");
    const Program program = Traffic(variant, /*with_show=*/true);

    SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_), {});
    const TripleWindow window =
        generator.GenerateTripleWindow(pprime ? 5000 : 6000);
    DataFormatProcessor format;
    ASSERT_TRUE(
        format.DeclareInputPredicates(program.input_predicates()).ok());
    StatusOr<std::vector<Atom>> facts = format.ToFacts(window.items);
    ASSERT_TRUE(facts.ok());

    Reasoner r(&program);
    StatusOr<ReasonerResult> reference = r.Process(window);
    ASSERT_TRUE(reference.ok());
    ASSERT_FALSE(reference->answers.empty());
    ASSERT_FALSE(reference->answers[0].empty())
        << "need derived events for a meaningful check";

    ParallelReasonerOptions options;
    options.num_shards = 2;
    ParallelReasoner pr(&program, CommunityPlan(program), options);
    StatusOr<ParallelReasonerResult> result = pr.ProcessFacts(*facts);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->num_partitions, 4u);
    EXPECT_DOUBLE_EQ(MeanAccuracy(result->answers, reference->answers), 1.0);
  }
}

}  // namespace
}  // namespace streamasp
