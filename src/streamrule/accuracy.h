#ifndef STREAMASP_STREAMRULE_ACCURACY_H_
#define STREAMASP_STREAMRULE_ACCURACY_H_

#include <cstdint>
#include <vector>

#include "streamrule/answer.h"

namespace streamasp {

/// The paper's accuracy measure (§III) for a non-monotonic reasoner whose
/// output may contain several answer sets.
///
/// For a single PR answer ans_i against the reference answers
/// Ans^R_P(W) = {ans_1 ... ans_m}:
///
///   accuracy(ans_i) = max_j |ans_i ∩ ans_j| / |ans_j|
///
/// (the best recall against any reference answer). Conventions for the
/// degenerate cases, chosen so that "identical outputs" always score 1:
///   * an empty reference answer ans_j scores 1 for any ans_i (vacuous);
///   * an empty reference *list* scores 1 iff the PR list is empty too,
///     else 0.
double AnswerAccuracy(const GroundAnswer& pr_answer,
                      const std::vector<GroundAnswer>& reference_answers);

/// Mean of AnswerAccuracy over all PR answers (the figure-8/10 scalar).
/// An empty PR list against a non-empty reference scores 0.
double MeanAccuracy(const std::vector<GroundAnswer>& pr_answers,
                    const std::vector<GroundAnswer>& reference_answers);

/// Exact per-window completeness under load shedding: the fraction of
/// admitted input items that actually reached the reasoner,
///
///   completeness(W) = |items reasoned| / |items admitted|.
///
/// An empty window (0/0) scores 1 — nothing was asked for, nothing was
/// lost — so a lossless stream reports exactly 1.0 window for window.
/// Values are clamped to [0, 1]; items_reasoned > items_admitted is a
/// caller accounting bug, not extra credit.
double CompletenessRatio(uint64_t items_reasoned, uint64_t items_admitted);

/// Estimated completeness of a degraded answer stream against a lossless
/// reference, i.e. MeanAccuracy over the answers the shed-afflicted run
/// still produced. Exact completeness (CompletenessRatio) counts lost
/// *input*; this estimates lost *output* — under non-monotonic programs
/// the two can differ in either direction, which is why both are
/// reported. Degenerate cases follow MeanAccuracy's conventions.
double EstimatedCompleteness(const std::vector<GroundAnswer>& degraded,
                             const std::vector<GroundAnswer>& reference);

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_ACCURACY_H_
