#ifndef STREAMASP_TESTS_TRIPLE_TEST_UTIL_H_
#define STREAMASP_TESTS_TRIPLE_TEST_UTIL_H_

#include <vector>

#include <gtest/gtest.h>

#include "asp/atom.h"
#include "stream/format.h"
#include "stream/triple.h"

namespace streamasp {

/// The triple window carrying `facts`, in order: each arity-1/2 ground
/// fact as DataFormatProcessor::ToTriple renders it, which the reasoner's
/// conversion turns back into the same fact.
inline TripleWindow WindowOf(const std::vector<Atom>& facts) {
  const DataFormatProcessor format;
  TripleWindow window;
  window.items.reserve(facts.size());
  for (const Atom& fact : facts) {
    StatusOr<Triple> triple = format.ToTriple(fact);
    EXPECT_TRUE(triple.ok()) << triple.status();
    if (triple.ok()) window.items.push_back(*triple);
  }
  return window;
}

}  // namespace streamasp

#endif  // STREAMASP_TESTS_TRIPLE_TEST_UTIL_H_
