// The correctness reference: every distinct window of a session reasoned
// by a synchronous, cold (no reuse) StreamEngine fed the same wire lines.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "util/status.h"

namespace perfbench {

/// A window's answers in comparable form: each answer set's atoms sorted
/// and joined, then the answer sets sorted (a multiset of lines).
using WindowAnswers = std::vector<std::string>;

/// Canonical form of rendered answer lines ("{a, b(1)}" per answer set).
WindowAnswers CanonicalWindowAnswers(const std::vector<std::string>& lines);

/// Reasons every distinct window of `plan` with the sync oracle, spread
/// over the machine's threads (each with its own engine and symbol
/// table). `answers` is indexed by distinct window.
streamasp::Status ComputeOracle(const SessionPlan& plan,
                                std::vector<WindowAnswers>* answers);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
