// Property-style suites over randomly generated programs and windows:
// solver soundness (every reported model passes the from-first-principles
// stable-model check), grounder/solver equivalence under simplification,
// partitioning invariants, a grounding oracle that checks the cold and
// incremental grounders against a naive instantiation, and a bucket-split
// differential that checks every num_shards against the unbucketed plan.

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asp/parser.h"
#include "depgraph/decomposition.h"
#include "ground/grounder.h"
#include "ground/incremental_grounder.h"
#include "solve/incremental_solver.h"
#include "solve/solver.h"
#include "stream/query_processor.h"
#include "streamrule/answer.h"
#include "streamrule/partitioning_handler.h"
#include "streamrule/pipeline.h"
#include "streamrule/random_partitioner.h"
#include "util/rng.h"

namespace streamasp {
namespace {

/// Generates a small random normal program over atoms a0..a{n-1}:
/// a mix of facts, positive rules, negated rules and constraints. The
/// programs are propositional so the whole space is exercised cheaply.
std::string RandomProgram(uint64_t seed) {
  Rng rng(seed);
  const int num_atoms = 3 + static_cast<int>(rng.NextBounded(5));
  const int num_rules = 2 + static_cast<int>(rng.NextBounded(10));
  std::string text;
  auto atom = [&](int i) { return "a" + std::to_string(i); };
  for (int r = 0; r < num_rules; ++r) {
    const int kind = static_cast<int>(rng.NextBounded(10));
    if (kind < 2) {
      text += atom(static_cast<int>(rng.NextBounded(num_atoms))) + ".\n";
      continue;
    }
    const bool constraint = kind == 9;
    const int body_len = 1 + static_cast<int>(rng.NextBounded(3));
    std::string body;
    for (int b = 0; b < body_len; ++b) {
      if (b > 0) body += ", ";
      if (rng.NextBounded(3) == 0) body += "not ";
      body += atom(static_cast<int>(rng.NextBounded(num_atoms)));
    }
    if (constraint) {
      text += ":- " + body + ".\n";
    } else {
      text += atom(static_cast<int>(rng.NextBounded(num_atoms))) + " :- " +
              body + ".\n";
    }
  }
  return text;
}

class SolverSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverSoundnessTest, EveryModelPassesStableCheck) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  const std::string text = RandomProgram(GetParam());
  StatusOr<Program> program = parser.ParseProgram(text);
  ASSERT_TRUE(program.ok()) << text;

  GroundingOptions raw;
  raw.simplify = false;
  Grounder grounder(raw);
  StatusOr<GroundProgram> ground = grounder.Ground(*program);
  ASSERT_TRUE(ground.ok()) << text;

  SolverOptions options;
  options.verify_models = false;  // The check below must pass on its own.
  Solver solver(options);
  StatusOr<std::vector<AnswerSet>> models = solver.Solve(*ground);
  ASSERT_TRUE(models.ok()) << text;
  for (const AnswerSet& model : *models) {
    EXPECT_TRUE(IsStableModel(*ground, model.atoms))
        << "non-stable model for program:\n"
        << text;
  }
}

TEST_P(SolverSoundnessTest, ModelsAreUniqueAndSorted) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  StatusOr<Program> program = parser.ParseProgram(RandomProgram(GetParam()));
  ASSERT_TRUE(program.ok());
  Grounder grounder;
  StatusOr<GroundProgram> ground = grounder.Ground(*program);
  ASSERT_TRUE(ground.ok());
  Solver solver;
  StatusOr<std::vector<AnswerSet>> models = solver.Solve(*ground);
  ASSERT_TRUE(models.ok());
  std::set<std::vector<GroundAtomId>> seen;
  for (const AnswerSet& model : *models) {
    EXPECT_TRUE(std::is_sorted(model.atoms.begin(), model.atoms.end()));
    EXPECT_TRUE(seen.insert(model.atoms).second)
        << "duplicate answer set reported";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, SolverSoundnessTest,
                         ::testing::Range<uint64_t>(0, 40));

/// Simplified and raw grounding must describe the same answer sets.
class SimplifyEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimplifyEquivalenceTest, SameModels) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  const std::string text = RandomProgram(GetParam() ^ 0x5EED);
  StatusOr<Program> program = parser.ParseProgram(text);
  ASSERT_TRUE(program.ok());

  auto solve_with = [&](bool simplify) {
    GroundingOptions options;
    options.simplify = simplify;
    Grounder grounder(options);
    StatusOr<GroundProgram> ground = grounder.Ground(*program);
    EXPECT_TRUE(ground.ok());
    Solver solver;
    StatusOr<std::vector<AnswerSet>> models = solver.Solve(*ground);
    EXPECT_TRUE(models.ok());
    // Render as atom-string sets: atom ids differ between groundings.
    std::set<std::set<std::string>> out;
    for (const AnswerSet& model : *models) {
      std::set<std::string> atoms;
      for (GroundAtomId id : model.atoms) {
        atoms.insert(ground->atoms().GetAtom(id).ToString(*symbols));
      }
      out.insert(std::move(atoms));
    }
    return out;
  };

  EXPECT_EQ(solve_with(true), solve_with(false)) << text;
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, SimplifyEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 40));

/// Partitioning invariants on random windows and plans.
class PartitioningPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitioningPropertyTest, PlanPartitionCoversAndRespectsPlan) {
  Rng rng(GetParam());
  SymbolTablePtr symbols = MakeSymbolTable();

  const int num_preds = 2 + static_cast<int>(rng.NextBounded(5));
  const int num_communities = 1 + static_cast<int>(rng.NextBounded(3));
  PartitioningPlan plan(num_communities);
  std::vector<PredicateSignature> signatures;
  for (int p = 0; p < num_preds; ++p) {
    const PredicateSignature sig{
        symbols->Intern("p" + std::to_string(p)), 1};
    signatures.push_back(sig);
    // Every predicate lands in >= 1 community; some get duplicated.
    plan.Assign(sig, static_cast<int>(rng.NextBounded(num_communities)));
    if (rng.NextBounded(4) == 0) {
      plan.Assign(sig, static_cast<int>(rng.NextBounded(num_communities)));
    }
  }
  PartitioningHandler handler(plan);

  std::vector<Atom> window;
  const size_t items = 50 + rng.NextBounded(200);
  for (size_t i = 0; i < items; ++i) {
    const PredicateSignature& sig =
        signatures[rng.NextBounded(signatures.size())];
    window.push_back(Atom(sig.name, {Term::Integer(
        static_cast<int64_t>(rng.NextBounded(100)))}));
  }

  const auto partitions = handler.PartitionFacts(window);
  ASSERT_EQ(partitions.size(), static_cast<size_t>(num_communities));

  // (1) Every window item appears in exactly the communities of its
  // predicate; (2) partitions contain no foreign predicates; (3) totals
  // match the sum of community multiplicities.
  size_t expected_total = 0;
  for (const Atom& item : window) {
    expected_total += plan.CommunitiesOf(item.signature()).size();
  }
  size_t actual_total = 0;
  for (int c = 0; c < num_communities; ++c) {
    actual_total += partitions[c].size();
    for (const Atom& item : partitions[c]) {
      const std::vector<int>& communities =
          plan.CommunitiesOf(item.signature());
      EXPECT_TRUE(std::binary_search(communities.begin(), communities.end(),
                                     c))
          << "atom routed to a community its predicate is not mapped to";
    }
  }
  EXPECT_EQ(actual_total, expected_total);
  EXPECT_EQ(handler.stray_items(), 0u);
}

TEST_P(PartitioningPropertyTest, RandomPartitionIsAPartition) {
  Rng rng(GetParam() ^ 0xFACE);
  SymbolTablePtr symbols = MakeSymbolTable();
  std::vector<Atom> window;
  const size_t items = 20 + rng.NextBounded(100);
  for (size_t i = 0; i < items; ++i) {
    window.push_back(Atom(symbols->Intern("p"),
                          {Term::Integer(static_cast<int64_t>(i))}));
  }
  const size_t k = 1 + rng.NextBounded(6);
  RandomPartitioner partitioner(k, GetParam());
  const auto partitions = partitioner.PartitionFacts(window);
  ASSERT_EQ(partitions.size(), k);

  // Disjoint cover: every item in exactly one partition, order preserved
  // within partitions.
  std::vector<Atom> reassembled;
  for (const auto& partition : partitions) {
    reassembled.insert(reassembled.end(), partition.begin(), partition.end());
  }
  EXPECT_EQ(reassembled.size(), window.size());
  std::sort(reassembled.begin(), reassembled.end());
  std::vector<Atom> sorted_window = window;
  std::sort(sorted_window.begin(), sorted_window.end());
  EXPECT_EQ(reassembled, sorted_window);
}

/// The test's own copy of the bucket key: splitmix64's finalizer over the
/// key argument's Term::Hash() (which PackedTerm::Hash() reproduces).
uint64_t ExpectedBucketKey(size_t term_hash) {
  uint64_t x = static_cast<uint64_t>(term_hash);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// The bucket split: every item lands exactly where the routing rule says
/// — in each of its communities (community 0 for strays), the bucket its
/// key argument picks when the community is split and the predicate is
/// keyed (argument 0 the subject, 1 the object), and every bucket of the
/// community otherwise. A fact window routes exactly as the equal triple
/// window, and, because routing is per item, a sliding window's
/// per-partition expired/admitted lists are exactly the delta of each
/// partition's sub-stream.
TEST_P(PartitioningPropertyTest, BucketSplitRoutesByTheRuleAndSplitsDeltas) {
  Rng rng(GetParam() ^ 0xB0C4E7);
  SymbolTablePtr symbols = MakeSymbolTable();

  const int num_preds = 2 + static_cast<int>(rng.NextBounded(5));
  const int num_communities = static_cast<int>(rng.NextBounded(4));
  PartitioningPlan plan(num_communities);
  std::vector<SymbolId> predicates;
  for (int p = 0; p < num_preds; ++p) {
    const SymbolId name = symbols->Intern("p" + std::to_string(p));
    predicates.push_back(name);
    // Keyed at the subject, keyed at the object, or replicated.
    const int key = static_cast<int>(rng.NextBounded(3)) - 1;
    if (key != PartitioningPlan::kReplicated) {
      plan.SetKeyPosition({name, 2}, key);
    }
    // Some predicates stay unknown to the plan (strays), some duplicate.
    if (num_communities == 0 || rng.NextBounded(5) == 0) continue;
    plan.Assign({name, 2},
                static_cast<int>(rng.NextBounded(num_communities)));
    if (rng.NextBounded(3) == 0) {
      plan.Assign({name, 2},
                  static_cast<int>(rng.NextBounded(num_communities)));
    }
  }
  // Each community's partitions follow its predecessors'; a plan without
  // communities still has the strays' one partition.
  std::vector<size_t> first_partition;
  std::vector<size_t> buckets;
  size_t num_partitions = 0;
  for (int c = 0; c < std::max(num_communities, 1); ++c) {
    buckets.push_back(c < num_communities ? 1 + rng.NextBounded(4) : 1);
    if (c < num_communities) {
      plan.SetBuckets(c, static_cast<int>(buckets.back()));
    }
    first_partition.push_back(num_partitions);
    num_partitions += buckets.back();
  }
  const PartitioningHandler handler(plan);
  ASSERT_EQ(handler.num_partitions(), num_partitions);

  // Item i carries object i, so a routed copy names its stream position.
  std::vector<Triple> stream;
  const size_t items = 100 + rng.NextBounded(200);
  for (size_t i = 0; i < items; ++i) {
    stream.push_back(Triple{
        Term::Integer(static_cast<int64_t>(rng.NextBounded(12))),
        predicates[rng.NextBounded(predicates.size())],
        Term::Integer(static_cast<int64_t>(i))});
  }
  auto position = [](const Triple& t) {
    return static_cast<size_t>(t.object->integer_value());
  };

  // The rule, item by item.
  auto expected_partitions = [&](const Triple& t) {
    const PredicateSignature sig{t.predicate, 2};
    std::vector<int> communities = plan.CommunitiesOf(sig);
    if (communities.empty()) communities = {0};
    const int key = plan.KeyPositionOf(sig);
    std::set<size_t> where;
    for (int c : communities) {
      if (buckets[c] == 1 || key == PartitioningPlan::kReplicated) {
        for (size_t b = 0; b < buckets[c]; ++b) {
          where.insert(first_partition[c] + b);
        }
      } else {
        const size_t hash = key == 0 ? t.subject.Hash() : t.object.Hash();
        where.insert(first_partition[c] +
                     ExpectedBucketKey(hash) % buckets[c]);
      }
    }
    return where;
  };
  std::vector<std::multiset<size_t>> want(num_partitions);
  for (const Triple& t : stream) {
    for (size_t p : expected_partitions(t)) want[p].insert(position(t));
  }
  const auto partitions = handler.Partition(stream);
  ASSERT_EQ(partitions.size(), num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    std::multiset<size_t> got;
    for (const Triple& t : partitions[p]) got.insert(position(t));
    EXPECT_EQ(got, want[p]) << "partition " << p;
  }

  // Facts route like the equal triples, item for item and in order.
  auto fact_of = [](const Triple& t) {
    return Atom(t.predicate, {t.subject.ToTerm(), t.object.ToTerm()});
  };
  std::vector<Atom> facts;
  for (const Triple& t : stream) facts.push_back(fact_of(t));
  const auto fact_partitions = handler.PartitionFacts(facts);
  ASSERT_EQ(fact_partitions.size(), num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    std::vector<Atom> want_facts;
    for (const Triple& t : partitions[p]) want_facts.push_back(fact_of(t));
    EXPECT_EQ(fact_partitions[p], want_facts) << "partition " << p;
  }

  // Sliding: partition k's items == partition k-1's items − its
  // expired + its admitted, with expired ⊆ the previous items.
  const size_t window = 20 + rng.NextBounded(40);
  const size_t slide = 1 + rng.NextBounded(window - 1);
  std::vector<std::multiset<size_t>> previous(num_partitions);
  size_t windows = 0;
  StreamQueryProcessor query(window, slide, [&](TripleWindow w) {
    ASSERT_TRUE(w.has_delta);
    const auto items_of = handler.Partition(w.items);
    const auto expired_of = handler.Partition(w.expired, false);
    const auto admitted_of = handler.Partition(w.admitted, false);
    for (size_t p = 0; p < num_partitions; ++p) {
      std::multiset<size_t> next = previous[p];
      for (const Triple& t : expired_of[p]) {
        auto it = next.find(position(t));
        ASSERT_NE(it, next.end()) << "expired item never admitted";
        next.erase(it);
      }
      for (const Triple& t : admitted_of[p]) next.insert(position(t));
      std::multiset<size_t> got;
      for (const Triple& t : items_of[p]) got.insert(position(t));
      EXPECT_EQ(got, next) << "window " << w.sequence << " partition "
                           << p;
      previous[p] = std::move(got);
    }
    ++windows;
  });
  for (SymbolId name : predicates) query.RegisterPredicate(name);
  query.PushBatch(stream);
  query.Flush();
  EXPECT_GT(windows, 1u);
}

INSTANTIATE_TEST_SUITE_P(RandomWindows, PartitioningPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

/// Generates a random safe, function-free, stratified non-ground program
/// over the input predicates e0/1, e1/2, e2/2 and the derived predicates
/// q0/1, q1/2 (level 0) and q2/1, q3/2 (level 1), with constants 0..3. A
/// rule reads derived predicates of its own level or below positively
/// (so self and mutual recursion occur) and only of lower levels under
/// negation; constraints may negate any predicate. Bodies carry one to
/// three positive literals, up to two negated ones and at most one
/// comparison, all over variables the positive literals bind.
std::string RandomStratifiedProgram(uint64_t seed) {
  Rng rng(seed);
  struct Pred {
    std::string name;
    int arity;
    int level;  // -1: input predicate.
  };
  const std::vector<Pred> preds = {{"e0", 1, -1}, {"e1", 2, -1},
                                   {"e2", 2, -1}, {"q0", 1, 0},
                                   {"q1", 2, 0},  {"q2", 1, 1},
                                   {"q3", 2, 1}};
  const char* const kVars[] = {"X", "Y", "Z"};
  const char* const kOps[] = {"=", "!=", "<", "<=", ">", ">="};
  auto constant = [&] { return std::to_string(rng.NextBounded(4)); };
  auto pick = [&](const std::function<bool(const Pred&)>& allowed) {
    std::vector<const Pred*> candidates;
    for (const Pred& p : preds) {
      if (allowed(p)) candidates.push_back(&p);
    }
    return candidates[rng.NextBounded(candidates.size())];
  };

  std::string text;
  const int num_rules = 3 + static_cast<int>(rng.NextBounded(6));
  for (int r = 0; r < num_rules; ++r) {
    const bool constraint = rng.NextBounded(6) == 0;
    const Pred* head = constraint ? nullptr : pick([](const Pred& p) {
      return p.level >= 0;
    });
    const int level = constraint ? 2 : head->level;

    std::vector<std::string> bound;
    std::vector<std::string> body;
    const int num_positive = 1 + static_cast<int>(rng.NextBounded(3));
    for (int b = 0; b < num_positive; ++b) {
      const Pred* p = pick([&](const Pred& q) { return q.level <= level; });
      std::string literal = p->name + "(";
      for (int a = 0; a < p->arity; ++a) {
        if (a > 0) literal += ",";
        if (rng.NextBounded(6) == 0) {
          literal += constant();
        } else {
          const std::string var = kVars[rng.NextBounded(3)];
          literal += var;
          if (std::find(bound.begin(), bound.end(), var) == bound.end()) {
            bound.push_back(var);
          }
        }
      }
      body.push_back(literal + ")");
    }
    // Arguments of every other literal: bound variables or constants.
    auto term = [&] {
      if (bound.empty() || rng.NextBounded(5) == 0) return constant();
      return bound[rng.NextBounded(bound.size())];
    };
    const int num_negative = static_cast<int>(rng.NextBounded(3));
    for (int b = 0; b < num_negative; ++b) {
      const Pred* p = pick([&](const Pred& q) { return q.level < level; });
      std::string literal = "not " + p->name + "(";
      for (int a = 0; a < p->arity; ++a) {
        if (a > 0) literal += ",";
        literal += term();
      }
      body.push_back(literal + ")");
    }
    if (rng.NextBounded(3) == 0) {
      body.push_back(term() + kOps[rng.NextBounded(6)] + term());
    }

    std::string rule;
    if (!constraint) {
      rule = head->name + "(";
      for (int a = 0; a < head->arity; ++a) {
        if (a > 0) rule += ",";
        rule += term();
      }
      rule += ") ";
    }
    rule += ":- ";
    for (size_t b = 0; b < body.size(); ++b) {
      if (b > 0) rule += ", ";
      rule += body[b];
    }
    text += rule + ".\n";
  }
  return text;
}

/// A test-local naive instantiation, independent of the grounders: every
/// rule variable ranges over the active domain 0..3, with no indexes, no
/// semi-naive evaluation, no eager negation and no simplification. Each
/// instance whose comparisons hold becomes a ground rule.
GroundProgram NaiveGround(const Program& program,
                          const std::vector<Atom>& facts) {
  GroundProgram ground;
  AtomTable& atoms = ground.mutable_atoms();
  for (const Rule& rule : program.rules()) {
    const std::vector<SymbolId> vars = rule.Variables();
    std::vector<int64_t> value(vars.size(), 0);
    auto substitute = [&](const Term& t) {
      if (!t.is_variable()) return t;
      const size_t v =
          std::find(vars.begin(), vars.end(), t.symbol()) - vars.begin();
      return Term::Integer(value[v]);
    };
    auto instance = [&](const Atom& a) {
      std::vector<Term> args;
      for (const Term& t : a.args()) args.push_back(substitute(t));
      return atoms.Intern(Atom(a.predicate(), std::move(args)));
    };
    for (;;) {
      GroundRule g;
      bool holds = true;
      for (const Atom& h : rule.head()) g.head.push_back(instance(h));
      for (const Literal& l : rule.body()) {
        if (l.is_positive_atom()) {
          g.positive_body.push_back(instance(l.atom()));
        } else if (l.is_negative_atom()) {
          g.negative_body.push_back(instance(l.atom()));
        } else if (!EvaluateComparison(l.op(), substitute(l.lhs()),
                                       substitute(l.rhs()))) {
          holds = false;
        }
      }
      if (holds) ground.AddRule(std::move(g));
      // Next assignment, odometer style over 0..3.
      size_t v = 0;
      while (v < vars.size() && ++value[v] == 4) value[v++] = 0;
      if (v == vars.size()) break;
    }
  }
  for (const Atom& fact : facts) {
    ground.AddRule(GroundRule{{atoms.Intern(fact)}, {}, {}});
  }
  return ground;
}

/// Answer sets as a sorted list of rendered, sorted atom sets.
std::vector<std::string> RenderModels(const std::vector<AnswerSet>& models,
                                      const AtomTable& atoms,
                                      const SymbolTable& symbols) {
  std::vector<std::string> out;
  for (const AnswerSet& model : models) {
    std::vector<std::string> rendered;
    for (GroundAtomId id : model.atoms) {
      rendered.push_back(atoms.GetAtom(id).ToString(symbols));
    }
    std::sort(rendered.begin(), rendered.end());
    std::string line;
    for (const std::string& atom : rendered) line += atom + " ";
    out.push_back(line);
  }
  std::sort(out.begin(), out.end());
  return out;
}

class GroundingOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroundingOracleTest, GroundersMatchNaiveInstantiation) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  const std::string text = RandomStratifiedProgram(GetParam());
  StatusOr<Program> program = parser.ParseProgram(text);
  ASSERT_TRUE(program.ok()) << program.status() << "\n" << text;

  // A stream of input facts over constants 0..3, cut into sliding windows.
  Rng rng(GetParam() ^ 0x0AC1E);
  const char* const kInputs[] = {"e0", "e1", "e2"};
  const size_t window = 4 + rng.NextBounded(7);
  const size_t slide = 1 + rng.NextBounded(3);
  const size_t num_windows = 6;
  std::vector<Atom> stream;
  for (size_t i = 0; i < window + slide * (num_windows - 1); ++i) {
    const size_t p = rng.NextBounded(3);
    std::vector<Term> args;
    for (size_t a = 0; a < (p == 0 ? 1 : 2); ++a) {
      args.push_back(Term::Integer(static_cast<int64_t>(rng.NextBounded(4))));
    }
    stream.push_back(Atom(symbols->Intern(kInputs[p]), std::move(args)));
  }

  const Solver solver;
  IncrementalGrounder assembled(&*program);
  IncrementalGroundingOptions delta_only;
  delta_only.assemble_output = false;
  delta_only.fallback_delta_fraction = 100;
  IncrementalGrounder store_grounder(&*program, {}, delta_only);
  IncrementalSolver incremental_solver;

  for (size_t w = 0; w < num_windows; ++w) {
    const auto begin = stream.begin() + static_cast<ptrdiff_t>(w * slide);
    const std::vector<Atom> facts(begin,
                                  begin + static_cast<ptrdiff_t>(window));
    IncrementalGrounder::FactDelta delta;
    delta.previous_sequence = w - 1;
    if (w > 0) {
      delta.expired.assign(begin - static_cast<ptrdiff_t>(slide), begin);
      delta.admitted.assign(facts.end() - static_cast<ptrdiff_t>(slide),
                            facts.end());
    }
    const IncrementalGrounder::FactDelta* hint = w > 0 ? &delta : nullptr;
    const std::string where = "window " + std::to_string(w) + " of\n" + text;

    const GroundProgram naive = NaiveGround(*program, facts);
    StatusOr<std::vector<AnswerSet>> expected = solver.Solve(naive);
    ASSERT_TRUE(expected.ok()) << where;
    const std::vector<std::string> oracle =
        RenderModels(*expected, naive.atoms(), *symbols);

    // (a) the one-shot grounder.
    StatusOr<GroundProgram> cold = Grounder().Ground(*program, facts);
    ASSERT_TRUE(cold.ok()) << where;
    StatusOr<std::vector<AnswerSet>> cold_models = solver.Solve(*cold);
    ASSERT_TRUE(cold_models.ok()) << where;
    EXPECT_EQ(RenderModels(*cold_models, cold->atoms(), *symbols), oracle)
        << where;

    // (b) the incremental grounder's assembled output.
    StatusOr<const GroundProgram*> output =
        assembled.GroundWindow(w, facts, hint);
    ASSERT_TRUE(output.ok()) << where;
    StatusOr<std::vector<AnswerSet>> assembled_models =
        solver.Solve(**output);
    ASSERT_TRUE(assembled_models.ok()) << where;
    EXPECT_EQ(RenderModels(*assembled_models, (*output)->atoms(), *symbols),
              oracle)
        << where;

    // (c) the incremental grounder's store, patched into the incremental
    // solver (never falling back after the first window).
    ASSERT_TRUE(store_grounder.GroundWindow(w, facts, hint).ok()) << where;
    std::vector<AnswerSet> store_models;
    ASSERT_TRUE(incremental_solver
                    .SolveWindow(store_grounder.last_delta(),
                                 store_grounder.cached_rules(),
                                 store_grounder.atom_table().size(),
                                 &store_models)
                    .ok())
        << where;
    EXPECT_EQ(RenderModels(store_models, store_grounder.atom_table(),
                           *symbols),
              oracle)
        << where;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, GroundingOracleTest,
                         ::testing::Range<uint64_t>(0, 40));

/// A bucket split never changes answers. Each random stratified program
/// (RandomStratifiedProgram, streamed through #input e0/1, e1/2, e2/2)
/// runs over sliding triple windows at num_shards 2, 3 and 4, cold and
/// with solving reuse, and every transcript must be byte-identical to the
/// same pipeline at num_shards 1: unbucketed PR_Dep, the reference a
/// split must preserve. (PR_Dep itself may differ from whole-window R on
/// such programs; see ROADMAP.md.) A program whose plan cannot be built
/// (no rule reads an input) is skipped; most programs must both build and
/// split, so the check cannot pass vacuously.
TEST(BucketSplitPropertyTest, RandomProgramsAnswerAsUnbucketed) {
  constexpr uint64_t kPrograms = 300;
  const char* const kInputs[] = {"e0", "e1", "e2"};
  size_t planned = 0;
  size_t split = 0;
  for (uint64_t seed = 0; seed < kPrograms; ++seed) {
    SymbolTablePtr symbols = MakeSymbolTable();
    Parser parser(symbols);
    const std::string text =
        RandomStratifiedProgram(seed) + "#input e0/1, e1/2, e2/2.\n";
    StatusOr<Program> program = parser.ParseProgram(text);
    ASSERT_TRUE(program.ok()) << program.status() << "\n" << text;

    Rng rng(seed ^ 0x5B0C4E7);
    std::vector<Triple> stream;
    for (size_t i = 0; i < 32; ++i) {
      const size_t p = rng.NextBounded(3);
      const Term subject =
          Term::Integer(static_cast<int64_t>(rng.NextBounded(4)));
      const Term object =
          Term::Integer(static_cast<int64_t>(rng.NextBounded(4)));
      stream.push_back(Triple{subject, symbols->Intern(kInputs[p]),
                              p == 0 ? PackedTerm() : PackedTerm(object)});
    }

    // One line per window: its sequence and every answer set.
    auto transcript = [&](size_t shards, bool reuse,
                          size_t* partitions) -> StatusOr<std::string> {
      PipelineOptions options;
      options.window_size = 12;
      options.window_slide = 4;
      options.reasoner.num_shards = shards;
      options.reasoner.reasoner.solving.reuse_solving = reuse;
      std::string out;
      StatusOr<std::unique_ptr<StreamRulePipeline>> pipeline =
          StreamRulePipeline::Create(
              &*program, options, [&](EmissionEvent& event) {
                out += "#" + std::to_string(event.sequence);
                if (event.kind == EmissionEvent::Kind::kResult) {
                  for (const GroundAnswer& answer : event.result->answers) {
                    out += " " + AnswerToString(answer, *symbols);
                  }
                } else {
                  out += " error " + event.status.ToString();
                }
                out += "\n";
              });
      if (!pipeline.ok()) return pipeline.status();
      *partitions = (*pipeline)->num_partitions();
      (*pipeline)->PushBatch(stream);
      (*pipeline)->Flush();
      return out;
    };

    size_t communities = 0;
    const StatusOr<std::string> reference =
        transcript(1, /*reuse=*/false, &communities);
    if (!reference.ok()) continue;
    ++planned;
    bool any_split = false;
    for (const size_t shards : {size_t{2}, size_t{3}, size_t{4}}) {
      for (const bool reuse : {false, true}) {
        size_t partitions = 0;
        const StatusOr<std::string> got =
            transcript(shards, reuse, &partitions);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(*got, *reference)
            << "seed " << seed << " num_shards=" << shards
            << (reuse ? " reuse=solve" : " reuse=none") << "\n"
            << text;
        any_split = any_split || partitions > communities;
      }
    }
    if (any_split) ++split;
  }
  EXPECT_GT(planned, kPrograms / 2);
  EXPECT_GT(split, planned / 2);
}

}  // namespace
}  // namespace streamasp
