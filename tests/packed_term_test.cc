// PackedTerm round-trip and invariant properties: every Term kind must
// survive pack → unpack unchanged, packed hashing must agree bit-for-bit
// with deep Term hashing (subject-bucket routing depends on it), and
// packed word equality must coincide with deep Term equality (the window
// eviction contract and every join index depend on it).

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "asp/packed_term.h"
#include "asp/symbol_table.h"
#include "asp/term.h"

namespace streamasp {
namespace {

class PackedTermTest : public ::testing::Test {
 protected:
  PackedTermTest() : symbols_(MakeSymbolTable()) {}

  SymbolId S(const char* name) { return symbols_->Intern(name); }

  SymbolTablePtr symbols_;
};

void ExpectRoundTrip(const Term& term) {
  const PackedTerm packed(term);
  ASSERT_TRUE(packed.has_value());
  EXPECT_EQ(packed.ToTerm(), term);
  EXPECT_EQ(packed.Hash(), term.Hash())
      << "packed hash must replay Term::Hash bit-for-bit";
  // Re-packing the unpacked term must land on the identical word (the
  // arena interns canonically, so escapes are stable too).
  EXPECT_EQ(PackedTerm(packed.ToTerm()).bits(), packed.bits());
}

TEST_F(PackedTermTest, IntegerRoundTripsAcrossInlineBoundaries) {
  const std::vector<int64_t> values = {
      0,
      1,
      -1,
      42,
      -42,
      PackedTerm::kMaxInlineInt,      // Largest inline.
      PackedTerm::kMinInlineInt,      // Smallest inline.
      PackedTerm::kMaxInlineInt + 1,  // First escape above.
      PackedTerm::kMinInlineInt - 1,  // First escape below.
      std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min(),
  };
  for (const int64_t value : values) {
    SCOPED_TRACE(value);
    const Term term = Term::Integer(value);
    ExpectRoundTrip(term);
    const PackedTerm packed(term);
    EXPECT_TRUE(packed.is_integer());
    EXPECT_EQ(packed.integer_value(), value);
    const bool inline_range = value >= PackedTerm::kMinInlineInt &&
                              value <= PackedTerm::kMaxInlineInt;
    EXPECT_EQ(packed.is_escape(), !inline_range);
  }
}

TEST_F(PackedTermTest, SymbolAndVariableRoundTrip) {
  for (const SymbolId id :
       {SymbolId{0}, SymbolId{1}, S("alpha"), S("beta"),
        // SymbolId is 32-bit and the payload holds 61, so even the
        // largest valid id (just under the kInvalidSymbol sentinel)
        // packs inline.
        static_cast<SymbolId>(kInvalidSymbol - 1)}) {
    SCOPED_TRACE(id);
    ExpectRoundTrip(Term::Symbol(id));
    ExpectRoundTrip(Term::Variable(id));
    EXPECT_TRUE(PackedTerm(Term::Symbol(id)).is_symbol());
    EXPECT_EQ(PackedTerm(Term::Symbol(id)).symbol(), id);
    EXPECT_TRUE(PackedTerm(Term::Variable(id)).is_variable());
    EXPECT_EQ(PackedTerm(Term::Variable(id)).symbol(), id);
    // Same payload, different tag: a constant never equals a variable.
    EXPECT_NE(PackedTerm(Term::Symbol(id)), PackedTerm(Term::Variable(id)));
  }
}

TEST_F(PackedTermTest, CompoundTermsEscapeAndRoundTrip) {
  const Term nested = Term::Function(
      S("f"), {Term::Symbol(S("a")),
               Term::Function(S("g"), {Term::Integer(7),
                                       Term::Variable(S("X"))})});
  ExpectRoundTrip(nested);
  const PackedTerm packed(nested);
  EXPECT_TRUE(packed.is_escape());
  EXPECT_TRUE(packed.is_function());
  EXPECT_FALSE(packed.is_integer());

  // Hash-consing: a deep-equal copy built independently packs to the
  // identical word, and a structurally different term does not.
  const Term copy = Term::Function(
      S("f"), {Term::Symbol(S("a")),
               Term::Function(S("g"), {Term::Integer(7),
                                       Term::Variable(S("X"))})});
  EXPECT_EQ(PackedTerm(copy).bits(), packed.bits());
  const Term other = Term::Function(
      S("f"), {Term::Symbol(S("a")),
               Term::Function(S("g"), {Term::Integer(8),
                                       Term::Variable(S("X"))})});
  EXPECT_NE(PackedTerm(other), packed);
}

TEST_F(PackedTermTest, NoneBehavesLikeEmptyOptional) {
  const PackedTerm none;
  EXPECT_FALSE(none.has_value());
  EXPECT_TRUE(none.is_none());
  EXPECT_EQ(none, PackedTerm(std::nullopt));
  EXPECT_EQ(none.ToOptionalTerm(), std::nullopt);

  const PackedTerm from_empty_optional{std::optional<Term>{}};
  EXPECT_EQ(from_empty_optional, none);
  const PackedTerm from_full_optional{std::optional<Term>{Term::Integer(3)}};
  EXPECT_TRUE(from_full_optional.has_value());
  EXPECT_EQ(from_full_optional.ToOptionalTerm(), Term::Integer(3));
}

// Property sweep: over a deterministic population mixing every kind,
// packed equality and packed hashing must agree with their deep
// counterparts for every pair.
TEST_F(PackedTermTest, EqualityAndHashAgreeWithDeepTermsPairwise) {
  std::vector<Term> population;
  uint64_t state = 99;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 16;
  };
  const SymbolId f = S("f");
  for (int i = 0; i < 64; ++i) {
    switch (next() % 4) {
      case 0:
        population.push_back(Term::Integer(static_cast<int64_t>(next() % 7) -
                                           3));
        break;
      case 1:
        population.push_back(
            Term::Symbol(static_cast<SymbolId>(next() % 5)));
        break;
      case 2:
        population.push_back(
            Term::Variable(static_cast<SymbolId>(next() % 5)));
        break;
      default:
        population.push_back(Term::Function(
            f, {Term::Integer(static_cast<int64_t>(next() % 3))}));
        break;
    }
  }
  for (const Term& a : population) {
    const PackedTerm pa(a);
    EXPECT_EQ(pa.Hash(), a.Hash());
    for (const Term& b : population) {
      const PackedTerm pb(b);
      EXPECT_EQ(pa == pb, a == b)
          << "packed word equality must be deep Term equality";
    }
  }
}

}  // namespace
}  // namespace streamasp
