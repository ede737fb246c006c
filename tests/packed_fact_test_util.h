#ifndef STREAMASP_TESTS_PACKED_FACT_TEST_UTIL_H_
#define STREAMASP_TESTS_PACKED_FACT_TEST_UTIL_H_

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "asp/atom.h"
#include "asp/packed_term.h"
#include "ground/incremental_grounder.h"

namespace streamasp {

/// `facts` in packed form, in order: the input the grounders take from a
/// stream window. Every fact must have arity at most 2.
inline std::vector<PackedFact> PackFacts(const std::vector<Atom>& facts) {
  std::vector<PackedFact> packed;
  packed.reserve(facts.size());
  for (const Atom& fact : facts) {
    EXPECT_LE(fact.arity(), PackedFact::kMaxArity);
    PackedFact p{fact.predicate(), fact.arity(), {}};
    for (uint32_t i = 0; i < fact.arity() && i < PackedFact::kMaxArity; ++i) {
      p.args[i] = PackedTerm(fact.args()[i]);
    }
    packed.push_back(p);
  }
  return packed;
}

/// The grounder's delta hint between two consecutive windows, as a
/// windower would supply it: the multiset diff, so that `before` -
/// expired + admitted == `after`. Expiries keep `before`'s order and
/// admissions `after`'s; `previous_sequence` names `before`.
inline IncrementalGrounder::FactDelta DiffWindows(
    uint64_t previous_sequence, const std::vector<Atom>& before,
    const std::vector<Atom>& after) {
  std::vector<bool> matched(after.size(), false);
  std::vector<Atom> expired;
  for (const Atom& fact : before) {
    bool kept = false;
    for (size_t i = 0; i < after.size() && !kept; ++i) {
      if (!matched[i] && after[i] == fact) matched[i] = kept = true;
    }
    if (!kept) expired.push_back(fact);
  }
  std::vector<Atom> admitted;
  for (size_t i = 0; i < after.size(); ++i) {
    if (!matched[i]) admitted.push_back(after[i]);
  }
  return {previous_sequence, PackFacts(expired), PackFacts(admitted)};
}

}  // namespace streamasp

#endif  // STREAMASP_TESTS_PACKED_FACT_TEST_UTIL_H_
