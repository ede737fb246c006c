#ifndef STREAMASP_SOLVE_INCREMENTAL_SOLVER_H_
#define STREAMASP_SOLVE_INCREMENTAL_SOLVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ground/incremental_grounder.h"
#include "solve/solver.h"
#include "util/status.h"

namespace streamasp {

/// Counters describing incremental solving. The rule-level reuse counts
/// are the grounder's (GroundingStats): the solver reads the grounder's
/// store in place and hooks no rules of its own. All additive, so
/// per-partition stats aggregate with Accumulate().
struct SolverStats {
  /// SolveWindow calls that patched the persistent engine with a delta.
  size_t incremental_solve_windows = 0;
  /// SolveWindow calls that restarted the solve state on a rebuilt store
  /// (first window, grounder fallback, prior error), plus maintained
  /// models dropped on a resynced delta.
  size_t solve_rebuilds = 0;
  /// Windows whose branch decisions were guided by the previous window's
  /// answer set.
  size_t warm_start_hits = 0;
  /// Atom assignments recomputed: the touched-cone flips on maintained
  /// windows, the full live atom count on every other solve. The
  /// delta-sized-solve claim is exactly atoms_touched ≪ live atoms.
  size_t atoms_touched = 0;
  /// Atom assignments carried over verbatim from the previous window's
  /// maintained model (live atoms minus the touched cone; 0 on
  /// non-maintained windows).
  size_t assignments_reused = 0;
  /// Windows answered from the maintained fixpoint by committing the
  /// delta patch alone — no root propagation, closure, or search pass
  /// over the full program.
  size_t fixpoint_maintained_windows = 0;

  /// Field-wise accumulation (every counter is additive).
  void Accumulate(const SolverStats& other) {
    incremental_solve_windows += other.incremental_solve_windows;
    solve_rebuilds += other.solve_rebuilds;
    warm_start_hits += other.warm_start_hits;
    atoms_touched += other.atoms_touched;
    assignments_reused += other.assignments_reused;
    fixpoint_maintained_windows += other.fixpoint_maintained_windows;
  }
};

/// Persistent, warm-started stable-model engine for overlapping windows.
///
/// Solver::Solve rebuilds its rule store and counter arrays from scratch
/// for every window, even when the incremental grounder reports that most
/// rule instances were retained. IncrementalSolver instead reads the
/// grounder's rule store in place — the partition's one copy of its
/// ground program, window-fact rules included — and keeps only solve
/// state across windows: per-atom values and counters, and two per-slot
/// arrays of the maintained fixpoint. Each window it replays the
/// grounder's GroundingDelta onto those arrays: every retracted slot in
/// the store's swap-compaction order (with the head the rule had), then
/// the appended tail. GroundAtomIds are stable across the windows a
/// grounder cache spans, so all per-atom arrays survive untouched, and a
/// full rebuild only resizes the per-slot arrays.
///
/// The store is the *unsimplified* cached instantiation. That is
/// answer-equivalent to the cold path's simplified per-window output
/// (simplification is equivalence-preserving, and the smodels-style
/// propagation performs the same pruning during its initial fixpoint), so
/// no per-window copy or simplification of the store is ever built.
///
/// Search semantics: enumeration stays exact (chronological backtracking
/// over both branches of every decision) and stable-model verification
/// stays on per SolverOptions::verify_models, with persistent scratch
/// buffers instead of Solver's per-model allocations. A definite store
/// (no live negative literals, no constraints) short-circuits to its
/// unique stable model, the least model of the rules, in one pass;
/// verification still checks that closure from first principles, so the
/// shortcut replaces only the search machinery, never the exactness
/// argument. The previous window's answer set only *orders* each
/// decision's sign — the branch agreeing with the previous model is
/// explored first — so a barely changed window reaches its model with
/// near-zero backtracking while completeness is untouched. Because
/// guidance permutes discovery order, SolveWindow canonicalizes the
/// returned models (sorted by their atom vectors); with max_models == 0
/// (enumerate all) the model *set* is therefore deterministic and
/// byte-comparable against Solver::Solve after the same canonicalization
/// — for the single-model (stratified) programs of the streaming
/// workloads the output is identical as-is. With a max_models cap on a
/// multi-model program the reuse path may return a different (equally
/// valid) subset than the cold enumeration order would.
///
/// Scope: normal programs only. A disjunctive rule in the store is
/// refused (kInvalidArgument), so the owning layer keeps the cold path
/// for disjunctive programs (a static property of the non-ground
/// program).
///
/// Contract: solve every successful GroundWindow of the grounder exactly
/// once, in order, before its next GroundWindow. A skipped or failed
/// window on either side is recovered by invalidating both engines (the
/// grounder then rebuilds, publishing a full_rebuild delta that resets
/// the solve state); SolveWindow reports a detectable mismatch as
/// kFailedPrecondition.
///
/// Not thread-safe: one instance serves one partition sub-stream from one
/// thread at a time, exactly like IncrementalGrounder.
class IncrementalSolver {
 public:
  explicit IncrementalSolver(SolverOptions options = {});
  ~IncrementalSolver();

  IncrementalSolver(const IncrementalSolver&) = delete;
  IncrementalSolver& operator=(const IncrementalSolver&) = delete;

  /// Replays `grounder`'s last_delta() onto the solve state, reading its
  /// cached_rules() in place, then enumerates the stable models into
  /// `*models` (cleared first, canonical order). `stats` receives this
  /// call's counters.
  ///
  /// Errors: kFailedPrecondition when the solve state is out of sync with
  /// the delta (caller invalidates grounder + solver and regrounds);
  /// kInvalidArgument on a disjunctive rule; kResourceExhausted from the
  /// max_decisions valve (the solve state stays usable).
  Status SolveWindow(const IncrementalGrounder& grounder,
                     std::vector<AnswerSet>* models,
                     SolverStats* stats = nullptr);

  /// Drops the solve state; the next SolveWindow requires a full_rebuild
  /// delta.
  void Invalidate();

  /// True when the solve state can consume an incremental delta.
  bool valid() const;

  /// Running totals over all SolveWindow calls on this instance.
  const SolverStats& cumulative_stats() const { return cumulative_; }

 private:
  class Engine;
  std::unique_ptr<Engine> engine_;
  SolverStats cumulative_;
};

}  // namespace streamasp

#endif  // STREAMASP_SOLVE_INCREMENTAL_SOLVER_H_
