#ifndef STREAMASP_SOLVE_SOLVER_H_
#define STREAMASP_SOLVE_SOLVER_H_

#include <cstdint>
#include <vector>

#include "ground/ground_program.h"
#include "util/status.h"

namespace streamasp {

/// One answer set (stable model): the true atoms, as sorted GroundAtomIds
/// of the solved GroundProgram's atom table.
struct AnswerSet {
  std::vector<GroundAtomId> atoms;

  friend bool operator==(const AnswerSet& a, const AnswerSet& b) {
    return a.atoms == b.atoms;
  }

  /// True iff `id` is in the answer set (binary search).
  bool Contains(GroundAtomId id) const;
};

/// Tuning knobs for the solver.
struct SolverOptions {
  /// Stop after this many models; 0 enumerates all of them.
  size_t max_models = 0;

  /// Re-derive each candidate model from first principles (reduct + least
  /// model / minimality) before reporting it. Linear in program size per
  /// model; cheap insurance against propagation bugs, so on by default.
  bool verify_models = true;

  /// Safety valve on branching decisions, guarding against pathological
  /// search spaces. 0 disables the limit.
  size_t max_decisions = 0;

  /// Reuse the solver's search structures across overlapping windows: the
  /// owning layer (Reasoner / ParallelReasoner / the pipelines) keeps one
  /// persistent IncrementalSolver per partition sub-stream and patches it
  /// with the incremental grounder's GroundingDelta instead of rebuilding
  /// rule/occurrence/counter arrays per window (see
  /// solve/incremental_solver.h). Enumeration stays exact and model
  /// verification stays on; only the per-window rebuild work disappears.
  /// Selects the one reuse path, as ReasonerOptions::reuse_grounding
  /// does (the delta is computed by the incremental grounder). The
  /// stateless Solver itself ignores this flag: the owning layer honours
  /// it.
  bool reuse_solving = false;

  /// Maintain the model itself across reused windows (definite/stratified
  /// fragment): the persistent engine keeps a justification-tracked
  /// fixpoint, so retracting an expired fact only de-justifies and
  /// re-propagates its transitive cone and admitting a new fact only
  /// propagates forward — per-window solve cost becomes delta-sized
  /// instead of linear in the live ground program. Assignments outside
  /// the touched cone are reused verbatim (counted in
  /// SolverStats::assignments_reused). Off reverts to PR 4's behavior of
  /// recomputing the assignment from scratch on the patched rule arena.
  /// No effect without reuse_solving; the stateless Solver ignores it.
  bool maintain_fixpoint = true;
};

/// Stable-model solver for ground programs.
///
/// Normal programs (at most one head atom per rule) are solved exactly
/// with an smodels-style procedure: unit propagation over rule bodies
/// ("atleast"), greatest-unfounded-set falsification ("atmost"), and
/// chronological backtracking search with full enumeration.
///
/// Disjunctive rules are handled by shifting (a|b :- B becomes
/// a :- B, not b and b :- B, not a) followed by an exact minimality check
/// of every candidate against the original program's reduct. This is sound
/// always, and complete for head-cycle-free programs — the class covering
/// the paper's workloads (which are non-disjunctive) and the standard
/// textbook examples. Non-HCF programs may have additional answer sets
/// that shifting cannot produce; see ARCHITECTURE.md ("Substitutions and
/// known limits").
class Solver {
 public:
  explicit Solver(SolverOptions options = {}) : options_(options) {}

  /// Enumerates answer sets of `program`. Deterministic order (by the
  /// branch decisions taken); an inconsistent program yields an empty
  /// vector. Errors indicate resource limits, not inconsistency.
  ///
  /// A program its grounder marked decided (GroundProgram::decided) is
  /// not searched: its sorted fact heads are the one model, still checked
  /// by IsStableModel under verify_models (kInternal if the check fails).
  StatusOr<std::vector<AnswerSet>> Solve(const GroundProgram& program) const;

 private:
  SolverOptions options_;
};

/// Exact stable-model test, independent of the search machinery: M must
/// satisfy every rule, and M must be a minimal model of the
/// Gelfond-Lifschitz reduct of `program` w.r.t. M. Used by Solver when
/// verify_models is set, and directly by property tests.
///
/// `model` must be sorted.
bool IsStableModel(const GroundProgram& program,
                   const std::vector<GroundAtomId>& model);

}  // namespace streamasp

#endif  // STREAMASP_SOLVE_SOLVER_H_
