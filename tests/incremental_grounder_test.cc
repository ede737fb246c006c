// Differential correctness of the IncrementalGrounder: for every window
// of a sliding fact stream, the incrementally maintained ground program,
// solved by the IncrementalSolver its deltas patch (the grounder's only
// consumer), must have exactly the stable models of a fresh
// Grounder::Ground + Solver::Solve over the same facts — across slide
// sizes (1 .. window), program shapes (stratified joins, negation,
// recursion, constraints, multi-model choice), duplicate facts, empty
// windows and sequence gaps.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asp/parser.h"
#include "ground/grounder.h"
#include "ground/incremental_grounder.h"
#include "packed_fact_test_util.h"
#include "solve/incremental_solver.h"
#include "solve/solver.h"

namespace streamasp {
namespace {

using CanonicalModels = std::multiset<std::vector<std::string>>;

CanonicalModels Canonical(const std::vector<AnswerSet>& models,
                          const AtomTable& table, const SymbolTable& symbols) {
  CanonicalModels canonical;
  for (const AnswerSet& model : models) {
    std::vector<std::string> atoms;
    atoms.reserve(model.atoms.size());
    for (GroundAtomId id : model.atoms) {
      atoms.push_back(table.GetAtom(id).ToString(symbols));
    }
    std::sort(atoms.begin(), atoms.end());
    canonical.insert(std::move(atoms));
  }
  return canonical;
}

/// The reuse path under test: an incremental grounder and the persistent
/// solver its deltas patch.
struct ReuseEngines {
  explicit ReuseEngines(const Program* program,
                        IncrementalGroundingOptions options = {})
      : grounder(program, GroundingOptions{}, options) {}
  IncrementalGrounder grounder;
  IncrementalSolver solver;
};

class IncrementalGrounderTest : public ::testing::Test {
 protected:
  IncrementalGrounderTest() : symbols_(MakeSymbolTable()), parser_(symbols_) {}

  Program MustParse(const std::string& text) {
    StatusOr<Program> program = parser_.ParseProgram(text);
    EXPECT_TRUE(program.ok()) << program.status();
    return std::move(program).value();
  }

  Atom MakeAtom(const std::string& pred, std::vector<Term> args) {
    return Atom(symbols_->Intern(pred), std::move(args));
  }

  /// Slides a [window, slide] view over `stream` and checks, per window,
  /// that the incremental grounding is answer-equivalent to a fresh one.
  /// Returns the incremental grounder's cumulative stats.
  GroundingStats RunDifferential(
      const Program& program, const std::vector<Atom>& stream, size_t window,
      size_t slide, IncrementalGroundingOptions inc_options = {}) {
    ReuseEngines incremental(&program, inc_options);
    const Grounder fresh;
    uint64_t sequence = 0;
    for (size_t begin = 0; begin + window <= stream.size();
         begin += slide, ++sequence) {
      const std::vector<Atom> facts(stream.begin() + begin,
                                    stream.begin() + begin + window);
      CheckWindow(program, incremental, fresh, sequence, facts, nullptr);
    }
    return incremental.grounder.cumulative_stats();
  }

  void CheckWindow(const Program& program, ReuseEngines& incremental,
                   const Grounder& fresh, uint64_t sequence,
                   const std::vector<Atom>& facts,
                   const IncrementalGrounder::FactDelta* hint) {
    StatusOr<GroundProgram> reference = fresh.Ground(program, facts);
    ASSERT_TRUE(reference.ok()) << reference.status();
    StatusOr<std::vector<AnswerSet>> want_models = Solver().Solve(*reference);
    ASSERT_TRUE(want_models.ok()) << want_models.status();
    IncrementalGrounder& grounder = incremental.grounder;
    const Status grounded =
        grounder.GroundWindow(sequence, PackFacts(facts), hint);
    ASSERT_TRUE(grounded.ok()) << grounded;
    std::vector<AnswerSet> got_models;
    const Status solved =
        incremental.solver.SolveWindow(grounder, &got_models);
    ASSERT_TRUE(solved.ok()) << solved;
    const CanonicalModels want =
        Canonical(*want_models, reference->atoms(), *symbols_);
    const CanonicalModels got =
        Canonical(got_models, grounder.atom_table(), *symbols_);
    EXPECT_EQ(want, got) << "window " << sequence << " (" << facts.size()
                         << " facts) diverged";
  }

  SymbolTablePtr symbols_;
  Parser parser_;
};

constexpr char kJoinNegationProgram[] = R"(
  alert(X) :- high(X), not suppressed(X).
  suppressed(X) :- maint(X).
  pair(X, Y) :- high(X), high(Y), X < Y.
)";

constexpr char kRecursiveProgram[] = R"(
  path(X, Y) :- edge(X, Y).
  path(X, Z) :- path(X, Y), edge(Y, Z).
  cyclic(X) :- path(X, X).
)";

constexpr char kChoiceProgram[] = R"(
  a(X) :- in(X), not b(X).
  b(X) :- in(X), not a(X).
  picked(X) :- a(X).
)";

constexpr char kConstraintProgram[] = R"(
  warm(X) :- hot(X).
  :- warm(X), cold(X).
)";

TEST_F(IncrementalGrounderTest, JoinNegationAcrossSlideSizes) {
  const Program program = MustParse(kJoinNegationProgram);
  std::vector<Atom> stream;
  for (int i = 0; i < 24; ++i) {
    stream.push_back(MakeAtom(i % 3 == 0 ? "maint" : "high",
                              {Term::Integer(i % 7)}));
  }
  for (const size_t slide : {size_t{1}, size_t{2}, size_t{5}, size_t{8}}) {
    SCOPED_TRACE("slide " + std::to_string(slide));
    RunDifferential(program, stream, /*window=*/8, slide);
  }
}

TEST_F(IncrementalGrounderTest, RecursionAcrossSlideSizes) {
  const Program program = MustParse(kRecursiveProgram);
  std::vector<Atom> stream;
  for (int i = 0; i < 30; ++i) {
    // Chains with occasional back-edges so paths appear and expire.
    stream.push_back(MakeAtom(
        "edge", {Term::Integer(i % 6), Term::Integer((i + (i % 3) + 1) % 6)}));
  }
  for (const size_t slide :
       {size_t{1}, size_t{3}, size_t{7}, size_t{10}}) {
    SCOPED_TRACE("slide " + std::to_string(slide));
    RunDifferential(program, stream, /*window=*/10, slide);
  }
}

TEST_F(IncrementalGrounderTest, RecursiveRuleRepeatingItsHeadPredicate) {
  // Regression: a rule whose body repeats the head predicate extends the
  // predicate's lazy join index mid-iteration (formerly a use-after-free
  // in both engines' MatchFrom); also exercises delta replay over it.
  const Program program = MustParse("r(a, Z) :- r(a, Y), r(Y, Z).");
  const SymbolId a = symbols_->Intern("a");
  std::vector<Atom> stream;
  for (int i = 1; i <= 24; ++i) {
    stream.push_back(MakeAtom("r", {Term::Symbol(a), Term::Integer(i)}));
    stream.push_back(
        MakeAtom("r", {Term::Integer(i), Term::Integer(100 + i)}));
  }
  for (const size_t slide : {size_t{2}, size_t{6}}) {
    SCOPED_TRACE("slide " + std::to_string(slide));
    RunDifferential(program, stream, /*window=*/16, slide);
  }
}

TEST_F(IncrementalGrounderTest, MultiModelChoicePrograms) {
  const Program program = MustParse(kChoiceProgram);
  std::vector<Atom> stream;
  for (int i = 0; i < 18; ++i) {
    stream.push_back(MakeAtom("in", {Term::Integer(i % 5)}));
  }
  for (const size_t slide : {size_t{1}, size_t{2}, size_t{6}}) {
    SCOPED_TRACE("slide " + std::to_string(slide));
    RunDifferential(program, stream, /*window=*/6, slide);
  }
}

TEST_F(IncrementalGrounderTest, ConstraintsCanEmptyTheModels) {
  const Program program = MustParse(kConstraintProgram);
  std::vector<Atom> stream;
  for (int i = 0; i < 20; ++i) {
    stream.push_back(
        MakeAtom(i % 4 == 3 ? "cold" : "hot", {Term::Integer(i % 5)}));
  }
  for (const size_t slide : {size_t{1}, size_t{2}, size_t{7}}) {
    SCOPED_TRACE("slide " + std::to_string(slide));
    RunDifferential(program, stream, /*window=*/7, slide);
  }
}

TEST_F(IncrementalGrounderTest, DuplicateFactsAcrossWindows) {
  const Program program = MustParse(kJoinNegationProgram);
  std::vector<Atom> stream;
  for (int i = 0; i < 20; ++i) {
    // Heavy duplication: only three distinct atoms circulate.
    stream.push_back(MakeAtom("high", {Term::Integer(i % 3)}));
  }
  RunDifferential(program, stream, /*window=*/6, /*slide=*/2);
}

TEST_F(IncrementalGrounderTest, EmptyWindowsAndRefill) {
  const Program program = MustParse(kJoinNegationProgram);
  ReuseEngines incremental(&program);
  const Grounder fresh;
  const std::vector<Atom> some = {MakeAtom("high", {Term::Integer(1)}),
                                  MakeAtom("high", {Term::Integer(2)})};
  CheckWindow(program, incremental, fresh, 0, some, nullptr);
  CheckWindow(program, incremental, fresh, 1, {}, nullptr);
  CheckWindow(program, incremental, fresh, 2, some, nullptr);
}

TEST_F(IncrementalGrounderTest, SequenceGapsStayCorrect) {
  // An async worker sees every Nth window: deltas are large and sequences
  // jump; the snapshot diff must keep every window correct regardless.
  const Program program = MustParse(kRecursiveProgram);
  std::vector<Atom> stream;
  for (int i = 0; i < 40; ++i) {
    stream.push_back(
        MakeAtom("edge", {Term::Integer(i % 8), Term::Integer((i + 1) % 8)}));
  }
  ReuseEngines incremental(&program);
  const Grounder fresh;
  for (size_t begin = 0, seq = 0; begin + 10 <= stream.size();
       begin += 9, seq += 3) {
    const std::vector<Atom> facts(stream.begin() + begin,
                                  stream.begin() + begin + 10);
    CheckWindow(program, incremental, fresh, seq, facts, nullptr);
  }
}

TEST_F(IncrementalGrounderTest, DeltaHintMatchesSnapshotDiff) {
  const Program program = MustParse(kJoinNegationProgram);
  std::vector<Atom> stream;
  for (int i = 0; i < 20; ++i) {
    stream.push_back(MakeAtom(i % 4 == 0 ? "maint" : "high",
                              {Term::Integer(i % 6)}));
  }
  const size_t window = 8, slide = 2;
  ReuseEngines with_hint(&program);
  ReuseEngines without_hint(&program);
  const Grounder fresh;
  uint64_t sequence = 0;
  for (size_t begin = 0; begin + window <= stream.size();
       begin += slide, ++sequence) {
    const std::vector<Atom> facts(stream.begin() + begin,
                                  stream.begin() + begin + window);
    IncrementalGrounder::FactDelta hint;
    const IncrementalGrounder::FactDelta* hint_ptr = nullptr;
    if (sequence > 0) {
      hint.previous_sequence = sequence - 1;
      hint.expired = PackFacts(std::vector<Atom>(
          stream.begin() + (begin - slide), stream.begin() + begin));
      hint.admitted = PackFacts(
          std::vector<Atom>(stream.begin() + (begin - slide) + window,
                            stream.begin() + begin + window));
      hint_ptr = &hint;
    }
    CheckWindow(program, with_hint, fresh, sequence, facts, hint_ptr);
    CheckWindow(program, without_hint, fresh, sequence, facts, nullptr);
  }
  // The hint path must not change what got reused.
  EXPECT_EQ(with_hint.grounder.cumulative_stats().incremental_windows,
            without_hint.grounder.cumulative_stats().incremental_windows);
  EXPECT_GT(with_hint.grounder.cumulative_stats().incremental_windows, 0u);
}

TEST_F(IncrementalGrounderTest, InconsistentHintFallsBackToSnapshotDiff) {
  const Program program = MustParse(kJoinNegationProgram);
  ReuseEngines incremental(&program);
  const Grounder fresh;
  const std::vector<Atom> w0 = {MakeAtom("high", {Term::Integer(1)}),
                                MakeAtom("high", {Term::Integer(2)}),
                                MakeAtom("high", {Term::Integer(3)})};
  std::vector<Atom> w1 = w0;
  w1.push_back(MakeAtom("maint", {Term::Integer(1)}));
  CheckWindow(program, incremental, fresh, 0, w0, nullptr);
  // A hint that lies about the delta (claims nothing changed): totals
  // disagree with the facts vector, so it must be ignored, not believed.
  IncrementalGrounder::FactDelta bogus;
  bogus.previous_sequence = 0;
  CheckWindow(program, incremental, fresh, 1, w1, &bogus);
}

/// The windows high(first..first+7) of kJoinNegationProgram.
std::vector<Atom> HighWindow(SymbolId high, int first) {
  std::vector<Atom> facts;
  for (int i = first; i < first + 8; ++i) {
    facts.push_back(Atom(high, {Term::Integer(i)}));
  }
  return facts;
}

TEST_F(IncrementalGrounderTest, HintExpiringAFactNeverHeldFallsBack) {
  // Shape-consistent lies (totals agree): each expires a fact the cached
  // window never held, once one the table never interned and once a
  // derived atom, and admits one the window does not hold. Each must be
  // ignored for the snapshot diff, interning nothing of its own.
  const Program program = MustParse(kJoinNegationProgram);
  const SymbolId high = symbols_->Intern("high");
  ReuseEngines lied_to(&program);
  ReuseEngines twin(&program);
  const Grounder fresh;
  CheckWindow(program, lied_to, fresh, 0, HighWindow(high, 1), nullptr);
  CheckWindow(program, twin, fresh, 0, HighWindow(high, 1), nullptr);
  const std::vector<Atom> expired_lies = {
      MakeAtom("high", {Term::Integer(20)}),
      MakeAtom("alert", {Term::Integer(2)})};
  for (uint64_t w = 1; w <= expired_lies.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    IncrementalGrounder::FactDelta lie;
    lie.previous_sequence = w - 1;
    lie.expired = PackFacts({expired_lies[w - 1]});
    lie.admitted = PackFacts(
        {MakeAtom("high", {Term::Integer(20 + static_cast<int>(w))})});
    const std::vector<Atom> facts = HighWindow(high, static_cast<int>(w) + 1);
    CheckWindow(program, lied_to, fresh, w, facts, &lie);
    CheckWindow(program, twin, fresh, w, facts, nullptr);
    EXPECT_FALSE(lied_to.grounder.last_delta().full_rebuild);
    EXPECT_TRUE(lied_to.grounder.last_delta().resynced);
    EXPECT_EQ(lied_to.grounder.atom_table().size(),
              twin.grounder.atom_table().size());
  }
}

TEST_F(IncrementalGrounderTest, HintExpiringMoreCopiesThanHeldFallsBack) {
  // A shape-consistent lie expiring two copies of high(1), which the
  // cached window holds once, and admitting a fact the window lacks.
  const Program program = MustParse(kJoinNegationProgram);
  const SymbolId high = symbols_->Intern("high");
  ReuseEngines lied_to(&program);
  ReuseEngines twin(&program);
  const Grounder fresh;
  CheckWindow(program, lied_to, fresh, 0, HighWindow(high, 1), nullptr);
  CheckWindow(program, twin, fresh, 0, HighWindow(high, 1), nullptr);
  IncrementalGrounder::FactDelta lie;
  lie.previous_sequence = 0;
  lie.expired = PackFacts({MakeAtom("high", {Term::Integer(1)}),
                           MakeAtom("high", {Term::Integer(1)})});
  lie.admitted = PackFacts({MakeAtom("high", {Term::Integer(9)}),
                            MakeAtom("high", {Term::Integer(30)})});
  CheckWindow(program, lied_to, fresh, 1, HighWindow(high, 2), &lie);
  CheckWindow(program, twin, fresh, 1, HighWindow(high, 2), nullptr);
  EXPECT_FALSE(lied_to.grounder.last_delta().full_rebuild);
  EXPECT_TRUE(lied_to.grounder.last_delta().resynced);
  EXPECT_EQ(lied_to.grounder.atom_table().size(),
            twin.grounder.atom_table().size());
}

TEST_F(IncrementalGrounderTest, TumblingWindowsAlwaysFallBack) {
  const Program program = MustParse(kJoinNegationProgram);
  std::vector<Atom> stream;
  for (int i = 0; i < 24; ++i) {
    stream.push_back(MakeAtom("high", {Term::Integer(i)}));
  }
  // slide == window: disjoint content, the delta is ~2x the window, and
  // every window must take the full-reground path.
  const GroundingStats stats =
      RunDifferential(program, stream, /*window=*/6, /*slide=*/6);
  EXPECT_EQ(stats.incremental_windows, 0u);
  EXPECT_EQ(stats.incremental_fallbacks, 4u);
}

TEST_F(IncrementalGrounderTest, HighOverlapReusesAndRetracts) {
  const Program program = MustParse(kJoinNegationProgram);
  std::vector<Atom> stream;
  for (int i = 0; i < 40; ++i) {
    stream.push_back(MakeAtom(i % 5 == 0 ? "maint" : "high",
                              {Term::Integer(i % 9)}));
  }
  const GroundingStats stats =
      RunDifferential(program, stream, /*window=*/16, /*slide=*/2);
  // First window always regrounds; occasional compaction rebuilds are
  // allowed, but the overwhelming majority of windows must reuse.
  EXPECT_GE(stats.incremental_fallbacks, 1u);
  EXPECT_LE(stats.incremental_fallbacks, 3u);
  EXPECT_GE(stats.incremental_windows, 10u);
  EXPECT_GT(stats.rules_retained, 0u);
  EXPECT_GT(stats.rules_retracted, 0u);
  EXPECT_GT(stats.rules_new, 0u);
}

TEST_F(IncrementalGrounderTest, InvalidateDropsTheCache) {
  const Program program = MustParse(kJoinNegationProgram);
  ReuseEngines incremental(&program);
  const Grounder fresh;
  const std::vector<Atom> w = {MakeAtom("high", {Term::Integer(1)})};
  CheckWindow(program, incremental, fresh, 0, w, nullptr);
  EXPECT_TRUE(incremental.grounder.cache_valid());
  incremental.grounder.Invalidate();
  EXPECT_FALSE(incremental.grounder.cache_valid());
  // The rebuild publishes a full_rebuild delta, which resets the solver.
  CheckWindow(program, incremental, fresh, 1, w, nullptr);
  EXPECT_EQ(incremental.grounder.cumulative_stats().incremental_fallbacks,
            2u);
}

}  // namespace
}  // namespace streamasp
