#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "asp/parser.h"
#include "ground/grounder.h"
#include "packed_fact_test_util.h"
#include "solve/solver.h"

namespace streamasp {
namespace {

class GrounderTest : public ::testing::Test {
 protected:
  GrounderTest() : symbols_(MakeSymbolTable()), parser_(symbols_) {}

  GroundProgram MustGround(const std::string& text,
                           GroundingOptions options = {}) {
    StatusOr<Program> program = parser_.ParseProgram(text);
    EXPECT_TRUE(program.ok()) << program.status();
    Grounder grounder(options);
    StatusOr<GroundProgram> ground = grounder.Ground(*program, &last_stats_);
    EXPECT_TRUE(ground.ok()) << ground.status();
    return std::move(ground).value();
  }

  /// The set of atoms that appear as single-head facts.
  std::set<std::string> FactStrings(const GroundProgram& ground) {
    std::set<std::string> facts;
    for (const GroundRule& rule : ground.rules()) {
      if (rule.is_fact()) {
        facts.insert(ground.atoms().GetAtom(rule.head[0]).ToString(*symbols_));
      }
    }
    return facts;
  }

  SymbolTablePtr symbols_;
  Parser parser_;
  GroundingStats last_stats_;
};

TEST_F(GrounderTest, FactsPassThrough) {
  const GroundProgram g = MustGround("p(1). p(2). q(a).");
  EXPECT_EQ(g.rules().size(), 3u);
  EXPECT_EQ(FactStrings(g),
            (std::set<std::string>{"p(1)", "p(2)", "q(a)"}));
}

TEST_F(GrounderTest, RecursiveRuleRepeatingItsHeadPredicate) {
  // Regression: both positive literals share the head predicate, so the
  // recursion extends the predicate's lazy join index while an index
  // bucket is mid-iteration — formerly a use-after-free on the bucket's
  // reallocated storage.
  std::string text = "r(a, Z) :- r(a, Y), r(Y, Z).\n";
  for (int i = 1; i <= 20; ++i) {
    text += "r(a, " + std::to_string(i) + ").\n";
    text += "r(" + std::to_string(i) + ", " + std::to_string(100 + i) +
            ").\n";
  }
  const GroundProgram g = MustGround(text);
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("r(a,101)"));
  EXPECT_TRUE(facts.count("r(a,120)"));
}

TEST_F(GrounderTest, SimpleJoinInstantiates) {
  const GroundProgram g = MustGround(R"(
    p(1). p(2). q(2). q(3).
    both(X) :- p(X), q(X).
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("both(2)"));
  EXPECT_FALSE(facts.count("both(1)"));
  EXPECT_FALSE(facts.count("both(3)"));
}

TEST_F(GrounderTest, ComparisonsFilterDuringGrounding) {
  const GroundProgram g = MustGround(R"(
    speed(a, 10). speed(b, 30).
    slow(X) :- speed(X, Y), Y < 20.
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("slow(a)"));
  EXPECT_FALSE(facts.count("slow(b)"));
}

TEST_F(GrounderTest, ComparisonBetweenTwoVariables) {
  const GroundProgram g = MustGround(R"(
    edge(1, 3). edge(5, 2).
    increasing(X, Y) :- edge(X, Y), X < Y.
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("increasing(1,3)"));
  EXPECT_FALSE(facts.count("increasing(5,2)"));
}

TEST_F(GrounderTest, TransitiveClosureViaRecursion) {
  const GroundProgram g = MustGround(R"(
    edge(1, 2). edge(2, 3). edge(3, 4).
    reach(X, Y) :- edge(X, Y).
    reach(X, Z) :- reach(X, Y), edge(Y, Z).
  )");
  const std::set<std::string> facts = FactStrings(g);
  for (const char* expected :
       {"reach(1,2)", "reach(1,3)", "reach(1,4)", "reach(2,3)",
        "reach(2,4)", "reach(3,4)"}) {
    EXPECT_TRUE(facts.count(expected)) << expected;
  }
  EXPECT_FALSE(facts.count("reach(2,1)"));
}

TEST_F(GrounderTest, RecursionWithCycleTerminates) {
  const GroundProgram g = MustGround(R"(
    edge(1, 2). edge(2, 1).
    reach(X, Y) :- edge(X, Y).
    reach(X, Z) :- reach(X, Y), edge(Y, Z).
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("reach(1,1)"));
  EXPECT_TRUE(facts.count("reach(2,2)"));
}

TEST_F(GrounderTest, MutualRecursionInOneComponent) {
  const GroundProgram g = MustGround(R"(
    seed(1).
    even(X) :- seed(X).
    odd(X) :- even(X), follows(X, Y), seed(Y).
    follows(1, 1).
    even2(X) :- odd(X).
  )");
  EXPECT_GE(g.rules().size(), 4u);
}

TEST_F(GrounderTest, StratifiedNegationResolvedEagerly) {
  // q is fully evaluated before p's component; `not q(X)` with underivable
  // q(2) is erased, with derivable q(1) blocks at solve time but the
  // simplifier already drops the satisfied-negation rule.
  const GroundProgram g = MustGround(R"(
    base(1). base(2).
    q(1).
    p(X) :- base(X), not q(X).
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("p(2)"));
  EXPECT_FALSE(facts.count("p(1)"));
}

TEST_F(GrounderTest, UnstratifiedNegationKeptForSolver) {
  const GroundProgram g = MustGround(R"(
    a :- not b.
    b :- not a.
  )", GroundingOptions{});
  // Both rules must survive with their negative bodies intact.
  size_t with_negatives = 0;
  for (const GroundRule& rule : g.rules()) {
    if (!rule.negative_body.empty()) ++with_negatives;
  }
  EXPECT_EQ(with_negatives, 2u);
}

TEST_F(GrounderTest, SimplificationRemovesFactBodies) {
  GroundingOptions simplify;
  simplify.simplify = true;
  const GroundProgram g = MustGround(R"(
    p(1).
    q(X) :- p(X).
  )", simplify);
  // q(1) should be reduced to a fact.
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("q(1)"));
  for (const GroundRule& rule : g.rules()) {
    EXPECT_TRUE(rule.positive_body.empty())
        << "simplified stratified program must have no residual bodies";
  }
}

TEST_F(GrounderTest, NoSimplifyKeepsBodies) {
  GroundingOptions raw;
  raw.simplify = false;
  const GroundProgram g = MustGround(R"(
    p(1).
    q(X) :- p(X).
  )", raw);
  bool saw_body = false;
  for (const GroundRule& rule : g.rules()) {
    if (!rule.positive_body.empty()) saw_body = true;
  }
  EXPECT_TRUE(saw_body);
  EXPECT_EQ(last_stats_.num_rules_raw, last_stats_.num_rules);
}

TEST_F(GrounderTest, ConstraintsGroundAgainstFinalExtensions) {
  const GroundProgram g = MustGround(R"(
    p(1). p(2).
    big(X) :- p(X), X > 1.
    :- big(X).
  )");
  size_t constraints = 0;
  for (const GroundRule& rule : g.rules()) {
    if (rule.is_constraint()) ++constraints;
  }
  EXPECT_EQ(constraints, 1u);
  EXPECT_EQ(last_stats_.num_constraints, 1u);
}

TEST_F(GrounderTest, UnsatisfiedConstraintDisappears) {
  const GroundProgram g = MustGround(R"(
    p(1).
    :- p(2).
  )");
  for (const GroundRule& rule : g.rules()) {
    EXPECT_FALSE(rule.is_constraint());
  }
}

TEST_F(GrounderTest, DisjunctiveHeadsGroundTogether) {
  const GroundProgram g = MustGround(R"(
    item(1).
    good(X) | bad(X) :- item(X).
    flagged(X) :- bad(X).
  )");
  bool saw_disjunction = false;
  for (const GroundRule& rule : g.rules()) {
    if (rule.head.size() == 2) saw_disjunction = true;
  }
  EXPECT_TRUE(saw_disjunction);
  // flagged(1) must have been instantiated (bad(1) is possible).
  const GroundAtomId flagged = g.atoms().Lookup(
      Atom(symbols_->Intern("flagged"), {Term::Integer(1)}));
  EXPECT_NE(flagged, kInvalidGroundAtom);
}

TEST_F(GrounderTest, InputFactsMergeWithProgram) {
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input p/1.
    q(X) :- p(X).
  )");
  ASSERT_TRUE(program.ok());
  std::vector<Atom> facts = {Atom(symbols_->Intern("p"), {Term::Integer(7)})};
  Grounder grounder;
  StatusOr<GroundProgram> ground = grounder.Ground(*program, facts);
  ASSERT_TRUE(ground.ok()) << ground.status();
  EXPECT_NE(ground->atoms().Lookup(
                Atom(symbols_->Intern("q"), {Term::Integer(7)})),
            kInvalidGroundAtom);
}

TEST_F(GrounderTest, RejectsNonGroundInputFact) {
  StatusOr<Program> program = parser_.ParseProgram("q(X) :- p(X).");
  ASSERT_TRUE(program.ok());
  std::vector<Atom> facts = {
      Atom(symbols_->Intern("p"), {Term::Variable(symbols_->Intern("X"))})};
  Grounder grounder;
  EXPECT_EQ(grounder.Ground(*program, facts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GrounderTest, RejectsUnsafeProgram) {
  StatusOr<Program> program = parser_.ParseProgram("h(X) :- q.");
  ASSERT_TRUE(program.ok());
  Grounder grounder;
  EXPECT_EQ(grounder.Ground(*program).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GrounderTest, FunctionTermsInstantiate) {
  const GroundProgram g = MustGround(R"(
    reading(sensor(1), 10).
    hot(S) :- reading(S, V), V >= 10.
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("hot(sensor(1))"));
}

TEST_F(GrounderTest, RuleLimitTriggersOnDivergentPrograms) {
  GroundingOptions options;
  options.max_ground_rules = 100;
  // f(X) grows forever through the successor function term.
  StatusOr<Program> program = parser_.ParseProgram(R"(
    n(0).
    n(s(X)) :- n(X).
  )");
  ASSERT_TRUE(program.ok());
  Grounder grounder(options);
  EXPECT_EQ(grounder.Ground(*program).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(GrounderTest, StatsAreConsistent) {
  MustGround(R"(
    p(1). p(2).
    q(X) :- p(X).
    :- q(3).
  )");
  EXPECT_EQ(last_stats_.num_rules, 4u);   // p(1), p(2), q(1), q(2).
  EXPECT_EQ(last_stats_.num_facts, 4u);
  EXPECT_EQ(last_stats_.num_constraints, 0u);
  EXPECT_GT(last_stats_.num_atoms, 0u);
}

TEST_F(GrounderTest, GroundProgramToStringRendersRules) {
  const GroundProgram g = MustGround(R"(
    a :- not b.
    b :- not a.
  )", GroundingOptions{});
  const std::string text = g.ToString(*symbols_);
  EXPECT_NE(text.find("a :- not b."), std::string::npos);
  EXPECT_NE(text.find("b :- not a."), std::string::npos);
}

TEST_F(GrounderTest, SharedVariableAcrossThreeLiterals) {
  const GroundProgram g = MustGround(R"(
    vss(n1). vss(n2).
    mc(n1). mc(n3).
    tl(n1).
    tj(X) :- vss(X), mc(X), not tl(X).
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_FALSE(facts.count("tj(n1)"));  // Blocked by tl(n1).
  EXPECT_FALSE(facts.count("tj(n2)"));  // No mc(n2).
  EXPECT_FALSE(facts.count("tj(n3)"));  // No vss(n3).
}

TEST_F(GrounderTest, ConstantsInRulePatternsMatchSelectively) {
  const GroundProgram g = MustGround(R"(
    car_in_smoke(car1, high). car_in_smoke(car2, low).
    alarm(C) :- car_in_smoke(C, high).
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("alarm(car1)"));
  EXPECT_FALSE(facts.count("alarm(car2)"));
}

TEST_F(GrounderTest, RepeatedVariableInOneAtom) {
  const GroundProgram g = MustGround(R"(
    pair(1, 1). pair(1, 2).
    diag(X) :- pair(X, X).
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("diag(1)"));
  EXPECT_EQ(facts.count("diag(2)"), 0u);
}

TEST_F(GrounderTest, StratifiedProgramIsDecidedAsOneFactPerCertainAtom) {
  const GroundProgram g = MustGround(R"(
    a(1). a(1). a(2). a(3). b(2).
    c(X) :- a(X), not b(X).
    d(X) :- c(X).
    d(X) :- a(X), X > 2.
  )");
  EXPECT_TRUE(g.decided());
  EXPECT_EQ(last_stats_.decided_groundings, 1u);
  // The repeated a(1) and the second derivation of d(3) emit nothing.
  for (const GroundRule& rule : g.rules()) EXPECT_TRUE(rule.is_fact());
  EXPECT_EQ(g.rules().size(), 8u);
  EXPECT_EQ(FactStrings(g),
            (std::set<std::string>{"a(1)", "a(2)", "a(3)", "b(2)", "c(1)",
                                   "c(3)", "d(1)", "d(3)"}));
  EXPECT_EQ(last_stats_.num_rules_raw, last_stats_.num_rules);
}

TEST_F(GrounderTest, CertainNegativeAtomDropsTheInstanceAndItsHead) {
  const GroundProgram g = MustGround(R"(
    a(1). a(2). b(1).
    c(X) :- a(X), not b(X).
    d(X) :- c(X).
  )");
  EXPECT_TRUE(g.decided());
  // c(1) is blocked by the fact b(1): never interned, so d(1) has no
  // instance either.
  Parser parser(symbols_);
  EXPECT_EQ(g.atoms().Lookup(*parser.ParseGroundAtom("c(1)")),
            kInvalidGroundAtom);
  EXPECT_EQ(g.atoms().Lookup(*parser.ParseGroundAtom("d(1)")),
            kInvalidGroundAtom);
  EXPECT_EQ(g.num_atoms(), 5u);
}

TEST_F(GrounderTest, RecursionNegationDisjunctionAndConstraintsStayUndecided) {
  // Recursion, unstratified negation, disjunction and constraints are
  // left undecided.
  for (const char* text : {
           "e(1,2). e(2,3). r(X,Y) :- e(X,Y). r(X,Z) :- r(X,Y), e(Y,Z).",
           "p :- not q. q :- not p.",
           "p :- not p.",
           "a | b.",
           "a(1). :- a(1).",
       }) {
    const GroundProgram g = MustGround(text);
    EXPECT_FALSE(g.decided()) << text;
    EXPECT_EQ(last_stats_.decided_groundings, 0u) << text;
  }
}

TEST_F(GrounderTest, UncertainBodyAtomLeavesTheInstanceUndecided) {
  // p, q and t are derivable but not certain (each holds in one of the
  // two answer sets), so r :- p., s :- q. and u :- not t. stay rules, and
  // so does v :- u.: each head holds only where its body does.
  const GroundProgram g = MustGround(R"(
    p :- not q.
    q :- not p.
    r :- p.
    s :- q.
    t :- r.
    u :- not t.
    v :- u.
  )");
  EXPECT_FALSE(g.decided());
  StatusOr<std::vector<AnswerSet>> models = Solver().Solve(g);
  ASSERT_TRUE(models.ok()) << models.status();
  std::set<std::set<std::string>> rendered;
  for (const AnswerSet& model : *models) {
    std::set<std::string> atoms;
    for (GroundAtomId id : model.atoms) {
      atoms.insert(g.atoms().GetAtom(id).ToString(*symbols_));
    }
    rendered.insert(atoms);
  }
  EXPECT_EQ(rendered, (std::set<std::set<std::string>>{
                          {"p", "r", "t"}, {"q", "s", "u", "v"}}));
}

TEST_F(GrounderTest, WithoutSimplifyNothingIsDecided) {
  GroundingOptions raw;
  raw.simplify = false;
  const GroundProgram g = MustGround(R"(
    a(1). a(1). b(1).
    c(X) :- a(X), not b(X).
  )", raw);
  EXPECT_FALSE(g.decided());
  EXPECT_EQ(last_stats_.decided_groundings, 0u);
  // Both copies of a(1), b(1), and the instance c(1) :- a(1), not b(1).
  EXPECT_EQ(g.rules().size(), 4u);
}

TEST_F(GrounderTest, AtomAndPackedEntriesBuildIdenticalPrograms) {
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input speed/2, light/1, link/2.
    slow(X) :- speed(X, Y), Y < 20.
    jam(X) :- slow(X), not light(X).
    reach(X, Y) :- link(X, Y).
    reach(X, Z) :- reach(X, Y), link(Y, Z).
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  std::vector<Atom> atoms;
  for (const char* text :
       {"speed(n1, 10)", "light(n1)", "speed(n2, 5)", "speed(n2, 5)",
        "speed(n3, 30)", "link(1, 2)", "link(2, 3)", "link(3, 1)",
        "light(n4)"}) {
    atoms.push_back(*parser_.ParseGroundAtom(text));
  }
  const std::vector<PackedFact> packed = PackFacts(atoms);
  for (bool simplify : {true, false}) {
    GroundingOptions options;
    options.simplify = simplify;
    const Grounder grounder(options);
    GroundingStats atom_stats;
    GroundingStats packed_stats;
    StatusOr<GroundProgram> from_atoms =
        grounder.Ground(*program, atoms, &atom_stats);
    StatusOr<GroundProgram> from_packed =
        grounder.Ground(*program, packed, &packed_stats);
    ASSERT_TRUE(from_atoms.ok()) << from_atoms.status();
    ASSERT_TRUE(from_packed.ok()) << from_packed.status();
    EXPECT_EQ(from_atoms->rules(), from_packed->rules());
    EXPECT_EQ(from_atoms->ToString(*symbols_),
              from_packed->ToString(*symbols_));
    EXPECT_EQ(from_atoms->num_atoms(), from_packed->num_atoms());
    EXPECT_EQ(from_atoms->decided(), from_packed->decided());
    EXPECT_EQ(atom_stats.num_rules_raw, packed_stats.num_rules_raw);
  }
}

TEST_F(GrounderTest, PackedEntryRejectsNonGroundFacts) {
  StatusOr<Program> program = parser_.ParseProgram("q(X) :- p(X).");
  ASSERT_TRUE(program.ok()) << program.status();
  const PackedFact fact{symbols_->Intern("p"), 1,
                        {PackedTerm::Variable(symbols_->Intern("X"))}};
  StatusOr<GroundProgram> ground =
      Grounder().Ground(*program, std::vector<PackedFact>{fact});
  ASSERT_FALSE(ground.ok());
  EXPECT_EQ(ground.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GrounderTest, SolverReturnsTheFactsOfADecidedProgram) {
  GroundProgram g = MustGround("a(2). a(1). b(X) :- a(X).");
  ASSERT_TRUE(g.decided());
  for (bool verify : {true, false}) {
    SolverOptions options;
    options.verify_models = verify;
    StatusOr<std::vector<AnswerSet>> models = Solver(options).Solve(g);
    ASSERT_TRUE(models.ok()) << models.status();
    ASSERT_EQ(models->size(), 1u);
    EXPECT_EQ((*models)[0].atoms.size(), 4u);
    EXPECT_TRUE(std::is_sorted((*models)[0].atoms.begin(),
                               (*models)[0].atoms.end()));
  }
  // A decided mark on a program that is not all facts is an internal
  // error, not a silent wrong answer.
  g.mutable_rules().push_back(GroundRule{{0}, {1}, {}});
  StatusOr<std::vector<AnswerSet>> models = Solver().Solve(g);
  ASSERT_FALSE(models.ok());
  EXPECT_EQ(models.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace streamasp
