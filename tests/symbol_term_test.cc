#include <algorithm>
#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "asp/atom.h"
#include "asp/literal.h"
#include "asp/symbol_table.h"
#include "asp/term.h"

namespace streamasp {
namespace {

// ----------------------------------------------------------- SymbolTable.

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable table;
  const SymbolId a = table.Intern("traffic_jam");
  const SymbolId b = table.Intern("traffic_jam");
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.size(), 1u);
}

TEST(SymbolTableTest, DistinctNamesDistinctIds) {
  SymbolTable table;
  EXPECT_NE(table.Intern("a"), table.Intern("b"));
  EXPECT_EQ(table.size(), 2u);
}

TEST(SymbolTableTest, NameOfRoundTrips) {
  SymbolTable table;
  const SymbolId id = table.Intern("car_fire");
  EXPECT_EQ(table.NameOf(id), "car_fire");
}

TEST(SymbolTableTest, LookupMissingReturnsInvalid) {
  SymbolTable table;
  EXPECT_EQ(table.Lookup("ghost"), kInvalidSymbol);
  table.Intern("ghost");
  EXPECT_NE(table.Lookup("ghost"), kInvalidSymbol);
}

TEST(SymbolTableTest, ConcurrentInternsAgree) {
  SymbolTable table;
  constexpr int kThreads = 8;
  constexpr int kNames = 200;
  std::vector<std::vector<SymbolId>> ids(kThreads,
                                         std::vector<SymbolId>(kNames));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &ids, t] {
      for (int i = 0; i < kNames; ++i) {
        ids[t][i] = table.Intern("name_" + std::to_string(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]);
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(kNames));
}

TEST(SymbolTableTest, InternBatchMatchesSequentialInterns) {
  SymbolTable batched;
  SymbolTable sequential;
  for (SymbolTable* table : {&batched, &sequential}) {
    table->Intern("known");
    table->Intern("also_known");
  }
  // New names, repeats of a new name, known names, and more names than
  // the index's first sizes hold, so the batch grows it.
  std::vector<std::string> owned = {"fresh", "known", "fresh", "",
                                    "also_known", "other"};
  for (int i = 0; i < 100; ++i) owned.push_back("n" + std::to_string(i % 40));
  const std::vector<std::string_view> names(owned.begin(), owned.end());
  std::vector<SymbolId> ids;
  batched.InternBatch(names, &ids);
  ASSERT_EQ(ids.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(ids[i], sequential.Intern(names[i])) << names[i];
  }
  EXPECT_EQ(batched.size(), sequential.size());
  // A warm batch takes no new ids.
  std::vector<SymbolId> again;
  batched.InternBatch(names, &again);
  EXPECT_EQ(again, ids);
  batched.InternBatch({}, &again);
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(batched.size(), sequential.size());
}

// One thread batch-interns pushes that mix new and known names while
// others Intern, Lookup and NameOf; the sanitizer legs run it under TSAN.
TEST(SymbolTableTest, BatchInternsRaceSafelyWithSingleCalls) {
  SymbolTable table;
  constexpr int kKnown = 50;
  for (int i = 0; i < kKnown; ++i) table.Intern("known_" + std::to_string(i));
  constexpr int kBatches = 200;
  constexpr int kReaders = 3;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread batcher([&] {
    std::vector<std::string> owned;
    std::vector<std::string_view> names;
    std::vector<SymbolId> ids;
    for (int b = 0; b < kBatches; ++b) {
      owned.clear();
      // Per batch: 4 new names (each repeated), known names, and a name
      // the single-call threads intern too.
      for (int i = 0; i < 30; ++i) {
        if (i % 10 == 5) {
          owned.push_back("shared_" + std::to_string(b % 20));
        } else if (i % 3 == 0) {
          owned.push_back("batch_" + std::to_string(b) + "_" +
                          std::to_string(i % 4));
        } else {
          owned.push_back("known_" + std::to_string((b + i) % kKnown));
        }
      }
      names.assign(owned.begin(), owned.end());
      table.InternBatch(names, &ids);
      for (size_t i = 0; i < names.size(); ++i) {
        if (table.NameOf(ids[i]) != names[i]) failures.fetch_add(1);
      }
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint32_t step = 0;
      while (!done.load()) {
        ++step;
        const std::string name = "shared_" + std::to_string((step + r) % 20);
        const SymbolId id = table.Intern(name);
        if (table.NameOf(id) != name) failures.fetch_add(1);
        const std::string known = "known_" + std::to_string(step % kKnown);
        const SymbolId found = table.Lookup(known);
        if (found == kInvalidSymbol || table.NameOf(found) != known) {
          failures.fetch_add(1);
        }
        const size_t size = table.size();
        (void)table.NameOf(static_cast<SymbolId>(step % size));
      }
    });
  }
  batcher.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);

  // Dense and unique: every id below size() names a distinct string that
  // looks up to that same id.
  std::unordered_set<std::string> seen;
  for (SymbolId id = 0; id < table.size(); ++id) {
    const std::string& name = table.NameOf(id);
    EXPECT_TRUE(seen.insert(name).second) << name;
    EXPECT_EQ(table.Lookup(name), id) << name;
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kKnown) + 20 + kBatches * 4);
}

// ------------------------------------------------------------------ Term.

class TermTest : public ::testing::Test {
 protected:
  SymbolTablePtr symbols_ = MakeSymbolTable();
};

TEST_F(TermTest, IntegerBasics) {
  const Term t = Term::Integer(-5);
  EXPECT_TRUE(t.is_integer());
  EXPECT_EQ(t.integer_value(), -5);
  EXPECT_TRUE(t.IsGround());
  EXPECT_EQ(t.ToString(*symbols_), "-5");
}

TEST_F(TermTest, SymbolBasics) {
  const Term t = Term::Symbol(symbols_->Intern("newcastle"));
  EXPECT_TRUE(t.is_symbol());
  EXPECT_TRUE(t.IsGround());
  EXPECT_EQ(t.ToString(*symbols_), "newcastle");
}

TEST_F(TermTest, VariableIsNotGround) {
  const Term t = Term::Variable(symbols_->Intern("X"));
  EXPECT_TRUE(t.is_variable());
  EXPECT_FALSE(t.IsGround());
}

TEST_F(TermTest, FunctionTermNesting) {
  const Term inner = Term::Function(symbols_->Intern("pos"),
                                    {Term::Integer(1), Term::Integer(2)});
  const Term outer =
      Term::Function(symbols_->Intern("at"),
                     {Term::Symbol(symbols_->Intern("car1")), inner});
  EXPECT_TRUE(outer.is_function());
  EXPECT_TRUE(outer.IsGround());
  EXPECT_EQ(outer.ToString(*symbols_), "at(car1,pos(1,2))");
}

TEST_F(TermTest, FunctionWithVariableIsNotGround) {
  const Term t = Term::Function(
      symbols_->Intern("f"), {Term::Variable(symbols_->Intern("X"))});
  EXPECT_FALSE(t.IsGround());
}

TEST_F(TermTest, EqualityIsStructural) {
  const SymbolId f = symbols_->Intern("f");
  const Term a = Term::Function(f, {Term::Integer(1)});
  const Term b = Term::Function(f, {Term::Integer(1)});
  const Term c = Term::Function(f, {Term::Integer(2)});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, Term::Integer(1));
}

TEST_F(TermTest, HashConsistentWithEquality) {
  const SymbolId f = symbols_->Intern("f");
  const Term a = Term::Function(f, {Term::Integer(1), Term::Integer(2)});
  const Term b = Term::Function(f, {Term::Integer(1), Term::Integer(2)});
  EXPECT_EQ(a.Hash(), b.Hash());
  std::unordered_set<Term, TermHash> set;
  set.insert(a);
  EXPECT_TRUE(set.count(b));
}

TEST_F(TermTest, TotalOrderIsStrict) {
  std::vector<Term> terms = {
      Term::Integer(3), Term::Integer(-1),
      Term::Symbol(symbols_->Intern("a")),
      Term::Variable(symbols_->Intern("X")),
      Term::Function(symbols_->Intern("f"), {Term::Integer(0)})};
  std::sort(terms.begin(), terms.end());
  for (size_t i = 0; i + 1 < terms.size(); ++i) {
    EXPECT_FALSE(terms[i + 1] < terms[i]);
  }
  // Irreflexive.
  for (const Term& t : terms) EXPECT_FALSE(t < t);
}

TEST_F(TermTest, CollectVariablesInOrder) {
  const Term t = Term::Function(
      symbols_->Intern("f"),
      {Term::Variable(symbols_->Intern("X")), Term::Integer(1),
       Term::Function(symbols_->Intern("g"),
                      {Term::Variable(symbols_->Intern("Y"))})});
  std::vector<SymbolId> vars;
  t.CollectVariables(&vars);
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(symbols_->NameOf(vars[0]), "X");
  EXPECT_EQ(symbols_->NameOf(vars[1]), "Y");
}

// ------------------------------------------------------------------ Atom.

TEST_F(TermTest, AtomBasics) {
  const Atom atom(symbols_->Intern("average_speed"),
                  {Term::Symbol(symbols_->Intern("newcastle")),
                   Term::Integer(10)});
  EXPECT_EQ(atom.arity(), 2u);
  EXPECT_TRUE(atom.IsGround());
  EXPECT_EQ(atom.ToString(*symbols_), "average_speed(newcastle,10)");
  EXPECT_EQ(atom.signature().arity, 2u);
}

TEST_F(TermTest, ZeroArityAtom) {
  const Atom atom(symbols_->Intern("sunny"), {});
  EXPECT_EQ(atom.ToString(*symbols_), "sunny");
  EXPECT_TRUE(atom.IsGround());
}

TEST_F(TermTest, AtomEqualityAndHash) {
  const SymbolId p = symbols_->Intern("p");
  const Atom a(p, {Term::Integer(1)});
  const Atom b(p, {Term::Integer(1)});
  const Atom c(p, {Term::Integer(2)});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST_F(TermTest, PredicateSignatureDistinguishesArity) {
  const SymbolId p = symbols_->Intern("p");
  const PredicateSignature p1{p, 1};
  const PredicateSignature p2{p, 2};
  EXPECT_NE(p1, p2);
  EXPECT_LT(p1, p2);
  EXPECT_EQ(p1.ToString(*symbols_), "p/1");
}

// --------------------------------------------------------------- Literal.

TEST_F(TermTest, LiteralKinds) {
  const Atom atom(symbols_->Intern("p"), {Term::Integer(1)});
  const Literal pos = Literal::Positive(atom);
  const Literal neg = Literal::Negative(atom);
  const Literal cmp = Literal::Comparison(Term::Integer(1),
                                          ComparisonOp::kLess,
                                          Term::Integer(2));
  EXPECT_TRUE(pos.is_positive_atom());
  EXPECT_TRUE(neg.is_negative_atom());
  EXPECT_TRUE(cmp.is_comparison());
  EXPECT_TRUE(pos.is_atom());
  EXPECT_FALSE(cmp.is_atom());
  EXPECT_EQ(neg.ToString(*symbols_), "not p(1)");
  EXPECT_EQ(cmp.ToString(*symbols_), "1<2");
}

TEST_F(TermTest, LiteralEquality) {
  const Atom atom(symbols_->Intern("p"), {});
  EXPECT_EQ(Literal::Positive(atom), Literal::Positive(atom));
  EXPECT_NE(Literal::Positive(atom), Literal::Negative(atom));
}

struct ComparisonCase {
  ComparisonOp op;
  int64_t lhs;
  int64_t rhs;
  bool expected;
};

class ComparisonEvalTest : public ::testing::TestWithParam<ComparisonCase> {};

TEST_P(ComparisonEvalTest, IntegerComparison) {
  const ComparisonCase& c = GetParam();
  EXPECT_EQ(EvaluateComparison(c.op, Term::Integer(c.lhs),
                               Term::Integer(c.rhs)),
            c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, ComparisonEvalTest,
    ::testing::Values(
        ComparisonCase{ComparisonOp::kLess, 1, 2, true},
        ComparisonCase{ComparisonOp::kLess, 2, 2, false},
        ComparisonCase{ComparisonOp::kLessEqual, 2, 2, true},
        ComparisonCase{ComparisonOp::kLessEqual, 3, 2, false},
        ComparisonCase{ComparisonOp::kGreater, 3, 2, true},
        ComparisonCase{ComparisonOp::kGreater, 2, 3, false},
        ComparisonCase{ComparisonOp::kGreaterEqual, 2, 2, true},
        ComparisonCase{ComparisonOp::kGreaterEqual, 1, 2, false},
        ComparisonCase{ComparisonOp::kEqual, 5, 5, true},
        ComparisonCase{ComparisonOp::kEqual, 5, 6, false},
        ComparisonCase{ComparisonOp::kNotEqual, 5, 6, true},
        ComparisonCase{ComparisonOp::kNotEqual, 5, 5, false},
        ComparisonCase{ComparisonOp::kLess, -10, 0, true},
        ComparisonCase{ComparisonOp::kGreater, 0, -10, true}));

TEST(ComparisonSymbolsTest, SymbolsCompareStructurally) {
  SymbolTablePtr symbols = MakeSymbolTable();
  const Term a = Term::Symbol(symbols->Intern("a"));
  const Term b = Term::Symbol(symbols->Intern("b"));
  EXPECT_TRUE(EvaluateComparison(ComparisonOp::kEqual, a, a));
  EXPECT_TRUE(EvaluateComparison(ComparisonOp::kNotEqual, a, b));
}

TEST(ComparisonSymbolsTest, MixedKindsUseTotalOrder) {
  SymbolTablePtr symbols = MakeSymbolTable();
  const Term integer = Term::Integer(1);
  const Term symbol = Term::Symbol(symbols->Intern("a"));
  // Integers sort before symbols in the Term total order.
  EXPECT_TRUE(EvaluateComparison(ComparisonOp::kLess, integer, symbol));
  EXPECT_FALSE(EvaluateComparison(ComparisonOp::kLess, symbol, integer));
}

TEST(ComparisonOpStringsTest, AllRendered) {
  EXPECT_STREQ(ComparisonOpToString(ComparisonOp::kLess), "<");
  EXPECT_STREQ(ComparisonOpToString(ComparisonOp::kLessEqual), "<=");
  EXPECT_STREQ(ComparisonOpToString(ComparisonOp::kGreater), ">");
  EXPECT_STREQ(ComparisonOpToString(ComparisonOp::kGreaterEqual), ">=");
  EXPECT_STREQ(ComparisonOpToString(ComparisonOp::kEqual), "==");
  EXPECT_STREQ(ComparisonOpToString(ComparisonOp::kNotEqual), "!=");
}

}  // namespace
}  // namespace streamasp
