#ifndef STREAMASP_TESTS_PACKED_FACT_TEST_UTIL_H_
#define STREAMASP_TESTS_PACKED_FACT_TEST_UTIL_H_

#include <vector>

#include <gtest/gtest.h>

#include "asp/atom.h"
#include "asp/packed_term.h"

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

}  // namespace streamasp

#endif  // STREAMASP_TESTS_PACKED_FACT_TEST_UTIL_H_
