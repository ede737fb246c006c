// IncrementalSolver differentials against the cold Solver oracle: the
// persistent, delta-patched, warm-started engine must return exactly the
// model set a fresh Grounder + Solver::Solve produces for every window of
// a sliding stream — across randomized programs (property style), choice
// programs where warm-start guidance actually reorders the search, and
// regression shapes where the delta retracts the rule supporting the
// previous model.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "asp/parser.h"
#include "ground/grounder.h"
#include "ground/incremental_grounder.h"
#include "ground/rule_store.h"
#include "packed_fact_test_util.h"
#include "solve/incremental_solver.h"
#include "solve/solver.h"
#include "util/rng.h"

namespace streamasp {
namespace {

/// A window's models, each as a sorted vector of Atom values (comparable
/// across different groundings' atom tables), with the models themselves
/// canonically sorted — order-insensitive comparison, since warm-start
/// guidance permutes the cold enumeration order.
using ModelSet = std::vector<std::vector<Atom>>;

ModelSet ToModelSet(const std::vector<AnswerSet>& models,
                    const AtomTable& atoms) {
  ModelSet out;
  out.reserve(models.size());
  for (const AnswerSet& model : models) {
    std::vector<Atom> resolved;
    resolved.reserve(model.atoms.size());
    for (GroundAtomId id : model.atoms) {
      resolved.push_back(atoms.GetAtom(id));
    }
    std::sort(resolved.begin(), resolved.end());
    out.push_back(std::move(resolved));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The cold oracle: fresh batch grounding + fresh Solver per window.
ModelSet OracleModels(const Program& program, const std::vector<Atom>& facts,
                      const SolverOptions& options) {
  Grounder grounder;
  StatusOr<GroundProgram> ground = grounder.Ground(program, facts);
  EXPECT_TRUE(ground.ok()) << ground.status();
  Solver solver(options);
  StatusOr<std::vector<AnswerSet>> models = solver.Solve(*ground);
  EXPECT_TRUE(models.ok()) << models.status();
  return ToModelSet(*models, ground->atoms());
}

/// Drives one persistent grounder+solver pair over a window stream and
/// checks every window's model set against the cold oracle.
void CheckSlidingStream(const Program& program,
                        const std::vector<std::vector<Atom>>& windows,
                        SolverStats* total = nullptr,
                        double fallback_delta_fraction = 0.5,
                        bool maintain_fixpoint = true,
                        GroundingStats* grounding_total = nullptr) {
  SolverOptions solver_options;
  solver_options.reuse_solving = true;
  solver_options.maintain_fixpoint = maintain_fixpoint;

  IncrementalGroundingOptions incremental;
  incremental.fallback_delta_fraction = fallback_delta_fraction;
  IncrementalGrounder grounder(&program, GroundingOptions{}, incremental);
  IncrementalSolver solver(solver_options);

  for (size_t w = 0; w < windows.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    GroundingStats gstats;
    const Status grounded =
        grounder.GroundWindow(w, PackFacts(windows[w]), nullptr, &gstats);
    ASSERT_TRUE(grounded.ok()) << grounded;
    if (grounding_total != nullptr) grounding_total->Accumulate(gstats);

    std::vector<AnswerSet> models;
    SolverStats sstats;
    const Status status = solver.SolveWindow(grounder, &models, &sstats);
    ASSERT_TRUE(status.ok()) << status;
    if (total != nullptr) total->Accumulate(sstats);

    EXPECT_EQ(ToModelSet(models, grounder.atom_table()),
              OracleModels(program, windows[w], solver_options));
  }
}

/// Random propositional normal program (the property_test.cc recipe).
std::string RandomProgram(Rng* rng) {
  const int num_atoms = 3 + static_cast<int>(rng->NextBounded(5));
  const int num_rules = 2 + static_cast<int>(rng->NextBounded(10));
  std::string text;
  auto atom = [&](int i) { return "a" + std::to_string(i); };
  for (int r = 0; r < num_rules; ++r) {
    const int kind = static_cast<int>(rng->NextBounded(10));
    if (kind < 2) {
      text += atom(static_cast<int>(rng->NextBounded(num_atoms))) + ".\n";
      continue;
    }
    const bool constraint = kind == 9;
    const int body_len = 1 + static_cast<int>(rng->NextBounded(3));
    std::string body;
    for (int b = 0; b < body_len; ++b) {
      if (b > 0) body += ", ";
      if (rng->NextBounded(3) == 0) body += "not ";
      body += atom(static_cast<int>(rng->NextBounded(num_atoms)));
    }
    if (constraint) {
      text += ":- " + body + ".\n";
    } else {
      text += atom(static_cast<int>(rng->NextBounded(num_atoms))) + " :- " +
              body + ".\n";
    }
  }
  // Window facts arrive on a dedicated input predicate feeding the
  // program's atoms, so the fact delta actually changes derivations.
  text += "#input in/1.\n";
  for (int i = 0; i < num_atoms; ++i) {
    text += atom(i) + " :- in(" + std::to_string(i) + ").\n";
  }
  return text;
}

/// Random definite (negation- and constraint-free) program: the fragment
/// the maintained-fixpoint path owns. Same recipe as RandomProgram with
/// the negative literals and constraints stripped, so every window has a
/// unique stable model (its least model) and the maintained fixpoint is
/// directly comparable against the cold oracle.
std::string RandomDefiniteProgram(Rng* rng) {
  const int num_atoms = 3 + static_cast<int>(rng->NextBounded(5));
  const int num_rules = 2 + static_cast<int>(rng->NextBounded(10));
  std::string text;
  auto atom = [&](int i) { return "a" + std::to_string(i); };
  for (int r = 0; r < num_rules; ++r) {
    if (rng->NextBounded(10) < 2) {
      text += atom(static_cast<int>(rng->NextBounded(num_atoms))) + ".\n";
      continue;
    }
    const int body_len = 1 + static_cast<int>(rng->NextBounded(3));
    std::string body;
    for (int b = 0; b < body_len; ++b) {
      if (b > 0) body += ", ";
      body += atom(static_cast<int>(rng->NextBounded(num_atoms)));
    }
    text += atom(static_cast<int>(rng->NextBounded(num_atoms))) + " :- " +
            body + ".\n";
  }
  text += "#input in/1.\n";
  for (int i = 0; i < num_atoms; ++i) {
    text += atom(i) + " :- in(" + std::to_string(i) + ").\n";
  }
  return text;
}

class WarmColdPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WarmColdPropertyTest, WarmEnumerationMatchesColdModelSet) {
  Rng rng(GetParam());
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  const std::string text = RandomProgram(&rng);
  StatusOr<Program> program = parser.ParseProgram(text);
  ASSERT_TRUE(program.ok()) << text;

  const SymbolId in = symbols->Intern("in");
  auto fact = [&](int i) {
    return Atom(in, {Term::Integer(i)});
  };

  // A sliding stream of fact windows: each window randomly mutates the
  // previous one (small deltas exercise the patch path, large ones the
  // fallback/rebuild path).
  std::vector<std::vector<Atom>> windows;
  std::vector<int> current;
  for (int w = 0; w < 8; ++w) {
    const int mutations = 1 + static_cast<int>(rng.NextBounded(4));
    for (int m = 0; m < mutations; ++m) {
      const int a = static_cast<int>(rng.NextBounded(8));
      auto it = std::find(current.begin(), current.end(), a);
      if (it == current.end()) {
        current.push_back(a);
      } else {
        current.erase(it);
      }
    }
    std::vector<Atom> window;
    window.reserve(current.size());
    for (int a : current) window.push_back(fact(a));
    windows.push_back(std::move(window));
  }

  CheckSlidingStream(*program, windows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmColdPropertyTest,
                         ::testing::Range<uint64_t>(1, 41));

/// Maintained-fixpoint differential: definite random programs, sliding
/// fact windows, delta path forced (tiny windows would otherwise trip the
/// grounder's fallback fraction). CheckSlidingStream compares every
/// window's model against the cold Grounder + Solver oracle, so any atom
/// the maintenance forgets to de-justify — or wrongly retracts — breaks
/// the byte-level equality.
class MaintainedFixpointPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaintainedFixpointPropertyTest, MaintainedModelMatchesColdOracle) {
  Rng rng(GetParam());
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  const std::string text = RandomDefiniteProgram(&rng);
  StatusOr<Program> program = parser.ParseProgram(text);
  ASSERT_TRUE(program.ok()) << text;

  const SymbolId in = symbols->Intern("in");
  auto fact = [&](int i) { return Atom(in, {Term::Integer(i)}); };

  std::vector<std::vector<Atom>> windows;
  std::vector<int> current;
  for (int w = 0; w < 8; ++w) {
    const int mutations = 1 + static_cast<int>(rng.NextBounded(4));
    for (int m = 0; m < mutations; ++m) {
      const int a = static_cast<int>(rng.NextBounded(8));
      auto it = std::find(current.begin(), current.end(), a);
      if (it == current.end()) {
        current.push_back(a);
      } else {
        current.erase(it);
      }
    }
    std::vector<Atom> window;
    window.reserve(current.size());
    for (int a : current) window.push_back(fact(a));
    windows.push_back(std::move(window));
  }

  SolverStats total;
  CheckSlidingStream(*program, windows, &total,
                     /*fallback_delta_fraction=*/100.0);
  // Windows after a (re)build ride the maintained fixpoint. The grounder
  // may interleave tombstone-compaction rebuilds (which reset the solver
  // wholesale), so the exact count is stream-dependent — but with eight
  // windows at least one must have been maintained.
  EXPECT_GT(total.fixpoint_maintained_windows, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintainedFixpointPropertyTest,
                         ::testing::Range<uint64_t>(1, 41));

TEST(IncrementalSolverTest, RetractionDejustifiesTransitiveCone) {
  // Transitive closure over explicit edge facts. Window 1 retracts edge
  // e(1,2), the sole support of reach(1,2) and — transitively — of
  // reach(1,3) and reach(1,4): the maintained fixpoint must de-justify
  // the whole cone (a support-count-only scheme would leave reach(1,3)
  // and reach(1,4) "supported" by the now-unfounded chain), while the
  // suffix closure reach(2,3), reach(2,4), reach(3,4) must survive
  // untouched. The cold-oracle comparison inside CheckSlidingStream makes
  // both failure modes (stale cone atoms, over-retraction) visible.
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  StatusOr<Program> program = parser.ParseProgram(R"(
    #input e/2.
    reach(X, Y) :- e(X, Y).
    reach(X, Z) :- reach(X, Y), e(Y, Z).
  )");
  ASSERT_TRUE(program.ok()) << program.status();

  const SymbolId e = symbols->Intern("e");
  auto edge = [&](int x, int y) {
    return Atom(e, {Term::Integer(x), Term::Integer(y)});
  };

  std::vector<std::vector<Atom>> windows = {
      {edge(1, 2), edge(2, 3), edge(3, 4)},
      {edge(2, 3), edge(3, 4)},              // Retract e(1,2): cone goes.
      {edge(2, 3), edge(3, 4), edge(1, 2)},  // Re-admit: cone comes back.
      {edge(3, 4)},                          // Retract both upstream edges.
  };
  SolverStats total;
  CheckSlidingStream(*program, windows, &total,
                     /*fallback_delta_fraction=*/100.0);
  EXPECT_GT(total.fixpoint_maintained_windows, 0u);
  // The cone is real work (atoms_touched) but a strict subset of the live
  // model (assignments_reused): both counters must move.
  EXPECT_GT(total.atoms_touched, 0u);
  EXPECT_GT(total.assignments_reused, 0u);
}

TEST(IncrementalSolverTest, MaintenanceOffRevertsToPatchedRebuild) {
  // The same stream with maintain_fixpoint off must still match the
  // oracle (it recomputes the closure from the patched store every
  // window) and must never report a maintained window.
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  StatusOr<Program> program = parser.ParseProgram(R"(
    #input e/2.
    reach(X, Y) :- e(X, Y).
    reach(X, Z) :- reach(X, Y), e(Y, Z).
  )");
  ASSERT_TRUE(program.ok()) << program.status();

  const SymbolId e = symbols->Intern("e");
  auto edge = [&](int x, int y) {
    return Atom(e, {Term::Integer(x), Term::Integer(y)});
  };

  std::vector<std::vector<Atom>> windows = {
      {edge(1, 2), edge(2, 3), edge(3, 4)},
      {edge(2, 3), edge(3, 4)},
      {edge(2, 3), edge(3, 4), edge(1, 2)},
  };
  SolverStats total;
  CheckSlidingStream(*program, windows, &total,
                     /*fallback_delta_fraction=*/100.0,
                     /*maintain_fixpoint=*/false);
  EXPECT_EQ(total.fixpoint_maintained_windows, 0u);
}

TEST(IncrementalSolverTest, RetractedSupportDoesNotLeakStaleAssignments) {
  // Window 0 derives b (and c through the cycle-breaking rule) from fact
  // a; window 1 retracts a, so the delta removes the very rules that
  // supported the previous model. A stale watch entry or a leaked trail
  // assignment would resurrect a or b.
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  StatusOr<Program> program = parser.ParseProgram(R"(
    #input a/0, d/0.
    b :- a.
    c :- b, not d.
  )");
  ASSERT_TRUE(program.ok()) << program.status();

  const Atom a(symbols->Intern("a"), {});
  const Atom d(symbols->Intern("d"), {});

  std::vector<std::vector<Atom>> windows = {
      {a, d},  // Model: {a, b, d} (c blocked by d).
      {a},     // Model: {a, b, c}.
      {d},     // a's rules retracted: model must be exactly {d}.
      {},      // Everything gone.
  };
  // Tiny windows would otherwise trip the grounder's fallback fraction
  // and reground from scratch; force the delta path so the retraction
  // replay is what this test exercises.
  GroundingStats grounding;
  CheckSlidingStream(*program, windows, /*total=*/nullptr,
                     /*fallback_delta_fraction=*/100.0,
                     /*maintain_fixpoint=*/true, &grounding);
  EXPECT_GT(grounding.rules_retracted, 0u);
  EXPECT_GT(grounding.rules_new, 0u);
}

TEST(IncrementalSolverTest, WarmStartGuidesOverlappingChoiceWindows) {
  // A non-stratified program with real search: warm starts must leave the
  // enumerated model set untouched while the hit counter records the
  // guided windows.
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  StatusOr<Program> program = parser.ParseProgram(R"(
    #input on/1.
    pick(X) :- on(X), not skip(X).
    skip(X) :- on(X), not pick(X).
    :- pick(1), pick(2).
  )");
  ASSERT_TRUE(program.ok()) << program.status();

  const SymbolId on = symbols->Intern("on");
  auto fact = [&](int i) { return Atom(on, {Term::Integer(i)}); };

  std::vector<std::vector<Atom>> windows = {
      {fact(1), fact(2)},
      {fact(1), fact(2), fact(3)},
      {fact(2), fact(3)},
      {fact(2), fact(3), fact(4)},
  };
  SolverStats total;
  CheckSlidingStream(*program, windows, &total);
  EXPECT_GT(total.warm_start_hits, 0u);
  EXPECT_GT(total.incremental_solve_windows, 0u);
}

TEST(IncrementalSolverTest, OutOfSyncDeltaIsReportedNotMisapplied) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  StatusOr<Program> program = parser.ParseProgram(R"(
    #input a/0.
    b :- a.
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  const Atom a(symbols->Intern("a"), {});

  // A tiny fallback threshold would defeat the point: keep the default so
  // window 1's one-fact delta stays incremental.
  IncrementalGrounder grounder(&*program);
  ASSERT_TRUE(grounder.GroundWindow(0, PackFacts({a})).ok());
  ASSERT_TRUE(grounder.GroundWindow(1, {}).ok());
  ASSERT_TRUE(grounder.last_delta().full_rebuild == false ||
              grounder.last_delta().retracted_slots.empty());

  // A fresh solver that never consumed window 0's full_rebuild delta must
  // refuse window 1's incremental delta instead of patching garbage.
  IncrementalSolver solver;
  std::vector<AnswerSet> models;
  if (!grounder.last_delta().full_rebuild) {
    const Status status = solver.SolveWindow(grounder, &models);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
    EXPECT_FALSE(solver.valid());
  }
}

TEST(IncrementalSolverTest, DoubleAppliedDeltaIsRejectedBySequenceChain) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  // d occurs only in a rule that also needs the never-arriving b, so
  // admitting fact d instantiates nothing.
  StatusOr<Program> program = parser.ParseProgram(R"(
    #input a/0, b/0, d/0.
    c :- a, b.
    e :- d, b.
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  const Atom a(symbols->Intern("a"), {});
  const Atom d(symbols->Intern("d"), {});

  IncrementalGroundingOptions incremental;
  incremental.fallback_delta_fraction = 100.0;  // Stay on the delta path.
  IncrementalGrounder grounder(&*program, GroundingOptions{}, incremental);
  IncrementalSolver solver;
  std::vector<AnswerSet> models;

  ASSERT_TRUE(grounder.GroundWindow(0, PackFacts({a})).ok());
  ASSERT_TRUE(solver.SolveWindow(grounder, &models).ok());
  // Fact d feeds no rule, so window 1's delta carries an empty rule
  // delta — the store-size checks hold trivially on a replay.
  ASSERT_TRUE(grounder.GroundWindow(1, PackFacts({a, d})).ok());
  ASSERT_FALSE(grounder.last_delta().full_rebuild);
  ASSERT_TRUE(grounder.last_delta().retracted_slots.empty());
  ASSERT_TRUE(solver.SolveWindow(grounder, &models).ok());
  // Replaying window 1's delta would double-count fact d; only the
  // sequence chain can catch it.
  const Status replay = solver.SolveWindow(grounder, &models);
  EXPECT_EQ(replay.code(), StatusCode::kFailedPrecondition) << replay;
}

TEST(IncrementalSolverTest, MaxModelsCapIsHonoured) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  StatusOr<Program> program = parser.ParseProgram(R"(
    #input on/1.
    p(X) :- on(X), not q(X).
    q(X) :- on(X), not p(X).
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  const SymbolId on = symbols->Intern("on");

  SolverOptions options;
  options.max_models = 2;
  IncrementalGrounder grounder(&*program);
  IncrementalSolver solver(options);

  const std::vector<Atom> facts = {Atom(on, {Term::Integer(1)}),
                                   Atom(on, {Term::Integer(2)})};
  ASSERT_TRUE(grounder.GroundWindow(0, PackFacts(facts)).ok());
  std::vector<AnswerSet> models;
  const Status status = solver.SolveWindow(grounder, &models);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(models.size(), 2u);  // 4 exist; the cap keeps 2.
}

/// The rule store's lists after any mix of Add runs and Kill + Compact
/// runs must be exactly what the live rules say: each atom's positive,
/// negative and head lists equal, as multisets, the lists rebuilt from
/// the rules (list order is swap-remove order, so only the multiset is
/// pinned), and every back position points at its own entry (checked by
/// CheckConsistency). The compaction replay must name each killed slot,
/// highest first, with the head its rule had, so a consumer replaying it
/// onto a plain rule vector ends with the store's exact slot layout.
TEST(RuleStoreTest, AddAndKillRunsKeepEveryListExact) {
  constexpr GroundAtomId kAtoms = 24;
  Rng rng(2017);
  auto random_rule = [&] {
    GroundRule rule;
    // Constraints, normal rules and the odd disjunctive head.
    const uint64_t heads = rng.NextBounded(6) == 0 ? 0
                           : rng.NextBounded(8) == 0 ? 2
                                                     : 1;
    for (uint64_t i = 0; i < heads; ++i) {
      rule.head.push_back(static_cast<GroundAtomId>(rng.NextBounded(kAtoms)));
    }
    // Repeated body atoms (several entries per rule and list) are part of
    // the contract; six positive literals spill the back positions to
    // the heap.
    for (uint64_t i = rng.NextBounded(7); i > 0; --i) {
      rule.positive_body.push_back(
          static_cast<GroundAtomId>(rng.NextBounded(kAtoms)));
    }
    for (uint64_t i = rng.NextBounded(3); i > 0; --i) {
      rule.negative_body.push_back(
          static_cast<GroundAtomId>(rng.NextBounded(kAtoms)));
    }
    return rule;
  };
  using Lists = std::vector<std::vector<uint32_t>>;
  auto sorted = [](std::vector<uint32_t> list) {
    std::sort(list.begin(), list.end());
    return list;
  };
  auto expect_lists = [&](const RuleStore& store,
                          const std::vector<GroundRule>& live,
                          const std::string& where) {
    ASSERT_EQ(store.size(), live.size()) << where;
    Lists positive(kAtoms), negative(kAtoms), heads(kAtoms);
    for (uint32_t slot = 0; slot < live.size(); ++slot) {
      ASSERT_EQ(store.rule(slot), live[slot]) << where << ", slot " << slot;
      for (GroundAtomId a : live[slot].positive_body) {
        positive[a].push_back(slot);
      }
      for (GroundAtomId a : live[slot].negative_body) {
        negative[a].push_back(slot);
      }
      for (GroundAtomId a : live[slot].head) heads[a].push_back(slot);
    }
    for (GroundAtomId a = 0; a < kAtoms; ++a) {
      ASSERT_EQ(sorted(store.lists(a).positive), positive[a])
          << where << ", atom " << a;
      ASSERT_EQ(sorted(store.lists(a).negative), negative[a])
          << where << ", atom " << a;
      ASSERT_EQ(sorted(store.lists(a).heads), heads[a])
          << where << ", atom " << a;
    }
    const Status consistent = store.CheckConsistency();
    ASSERT_TRUE(consistent.ok()) << where << ": " << consistent;
  };

  RuleStore store;
  store.EnsureAtoms(kAtoms);
  std::vector<GroundRule> live;  // The reference: slot order included.
  size_t emptied = 0;
  for (int round = 0; round < 80; ++round) {
    const std::string where = "round " + std::to_string(round);
    for (uint64_t i = rng.NextBounded(40); i > 0; --i) {
      const GroundRule rule = random_rule();
      store.Add(rule);
      live.push_back(rule);
    }
    // A kill run of random length; one run in eight kills everything.
    const bool kill_all = rng.NextBounded(8) == 0;
    const uint64_t kills =
        kill_all ? live.size() : rng.NextBounded(live.size() + 1);
    std::vector<bool> killed(live.size(), false);
    for (uint64_t i = 0; i < kills; ++i) {
      uint32_t slot = static_cast<uint32_t>(rng.NextBounded(live.size()));
      while (killed[slot]) slot = (slot + 1) % live.size();
      killed[slot] = true;
      store.Kill(slot);
    }
    std::vector<RetractedSlot> replay;
    store.Compact(&replay);
    ASSERT_EQ(replay.size(), kills) << where;
    for (size_t i = 0; i < replay.size(); ++i) {
      const RetractedSlot& step = replay[i];
      if (i > 0) ASSERT_LT(step.slot, replay[i - 1].slot) << where;
      const GroundRule& dead = live[step.slot];
      ASSERT_EQ(step.head,
                dead.head.empty() ? kInvalidGroundAtom : dead.head[0])
          << where;
      live[step.slot] = live.back();
      live.pop_back();
    }
    if (live.empty()) ++emptied;
    expect_lists(store, live, where);

    // The cold path's one-pass Build must leave the same lists.
    RuleStore built;
    built.Build(live, kAtoms);
    expect_lists(built, live, where + " (built)");
  }
  EXPECT_GT(emptied, 0u);
}

}  // namespace
}  // namespace streamasp
