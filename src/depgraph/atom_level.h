#ifndef STREAMASP_DEPGRAPH_ATOM_LEVEL_H_
#define STREAMASP_DEPGRAPH_ATOM_LEVEL_H_

#include <cstddef>

#include "asp/program.h"
#include "depgraph/partitioning_plan.h"

namespace streamasp {

/// Atom-level dependency analysis — the paper's §VI future work:
/// "we have observed input dependency at the atom level ... dependencies
/// among ground atoms have an important effect on computation."
///
/// Predicate-level partitioning (Definition 2) keeps all atoms of
/// dependent predicates together. But within one community, ground atoms
/// only interact when they share join values: average_speed(5, 10) and
/// car_number(7, 50) can never fire a rule together. This analysis finds,
/// per predicate, a *key argument position* such that every rule's keyed
/// body atoms agree on the variable at their key positions (the rule's
/// *anchor*). Hashing input atoms by their key argument then splits a
/// community into buckets without separating any two atoms that can
/// jointly fire a rule.
///
/// Key-flow analysis, in brief:
///   1. For each rule, the candidate anchors are the variables occurring
///      in every body atom literal (positive and negative).
///   2. A greedy pass proposes key positions: the anchor's position in
///      each body atom and in the head. Predicates the plan duplicates
///      are never keyed: the router already copies them to every bucket
///      of each of their communities.
///   3. A verification pass checks every rule: some anchor variable must
///      sit at the key position of every *keyed* body atom, and at the
///      head's key position if the head predicate is keyed. Offending
///      predicates are demoted to replicated and verification repeats to
///      fixpoint. Keyed heads of rules without a positive keyed body atom
///      (facts included) are demoted as well: such rules fire outside
///      the key's bucket.
///   4. An availability pass finds the predicates every bucket holds in
///      full, and a locality pass keeps whole every community that must
///      cover a rule whose instances could fire in a bucket that lacks
///      part of what they read: a join of keyed atoms with atoms held
///      only in part, or a negated atom that is held in part, or keyed
///      with no positive keyed atom pinning the rule to its bucket.
///
/// A community is split when every input predicate it holds is keyed or
/// duplicated and no rule it covers fails the locality pass; otherwise it
/// keeps one bucket. The soundness argument is in ARCHITECTURE.md
/// ("Sharding is a bucket split of the partitioning").
///
/// Returns `plan` with each split community's bucket count set to
/// `max_buckets` and the key position of every keyed predicate recorded
/// (derived ones too, though only input predicates are routed).
/// `max_buckets` <= 1 returns `plan` unchanged.
PartitioningPlan SplitIntoBuckets(const Program& program,
                                  PartitioningPlan plan, size_t max_buckets);

}  // namespace streamasp

#endif  // STREAMASP_DEPGRAPH_ATOM_LEVEL_H_
