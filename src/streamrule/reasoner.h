#ifndef STREAMASP_STREAMRULE_REASONER_H_
#define STREAMASP_STREAMRULE_REASONER_H_

#include <cstdint>
#include <vector>

#include "asp/program.h"
#include "ground/grounder.h"
#include "ground/incremental_grounder.h"
#include "solve/incremental_solver.h"
#include "solve/solver.h"
#include "stream/format.h"
#include "stream/triple.h"
#include "streamrule/answer.h"
#include "util/status.h"

namespace streamasp {

/// Configuration of a reasoner instance.
struct ReasonerOptions {
  GroundingOptions grounding;
  SolverOptions solving;

  /// Apply the program's #show projection to the returned answers.
  bool project_to_shown = true;

  /// Reuse grounding across overlapping windows: the owning layer (the
  /// parallel reasoner) keeps one IncrementalGrounder per partition
  /// sub-stream and passes it to Process instead of a null grounder (the
  /// one-shot Grounder). Both drive the same instantiation core (see
  /// ground/instantiate.h), so answers are unchanged; only the grounding
  /// work shrinks to the window delta.
  ///
  /// Solving reuse rides the same routing: with solving.reuse_solving set
  /// the owning layer pairs each partition grounder with a persistent
  /// IncrementalSolver fed by the grounder's GroundingDelta, and the
  /// grounder skips its per-window output assembly/simplification pass
  /// (the solver consumes the cached store directly). reuse_solving
  /// implies reuse_grounding; disjunctive programs keep the cold solve
  /// path (see solve/incremental_solver.h).
  bool reuse_grounding = false;

  /// Tuning for the incremental cache (used when reuse_grounding is set).
  IncrementalGroundingOptions incremental;
};

/// The outcome of reasoning over one window.
struct ReasonerResult {
  std::vector<GroundAnswer> answers;

  /// End-to-end latency in milliseconds, including RDF→ASP conversion as
  /// the paper requires, plus the breakdown.
  double latency_ms = 0;
  double convert_ms = 0;
  double ground_ms = 0;
  double solve_ms = 0;

  GroundingStats grounding;
  /// Solver reuse counters (all zero on the cold solve path).
  SolverStats solving;
};

/// The reasoner R of the StreamRule architecture (the dashed box of
/// Figure 1): data-format conversion + grounding + stable-model solving
/// over one whole input window.
///
/// Thread-compatible: Process() is const and keeps no mutable state, so
/// the parallel reasoner PR can run one Reasoner per worker thread over a
/// shared Program/SymbolTable.
class Reasoner {
 public:
  /// `program` must outlive the reasoner. The data format processor is
  /// configured from the program's declared input predicates.
  Reasoner(const Program* program, ReasonerOptions options = {});

  /// Full pipeline on a triple window: convert → ground → solve.
  ///
  /// With a null `grounder` the window is grounded from scratch (the cold
  /// path): each triple is checked and handed to the Grounder as a
  /// PackedFact, with no Atom built. A non-null `grounder` (caller-owned, one per sub-stream, calls
  /// serialized by the caller) reuses the cached instantiation of the
  /// previous window; the window's expired/admitted delta (when present)
  /// is converted alongside the items and handed to it as a diff hint.
  ///
  /// `solver` optionally carries the paired persistent IncrementalSolver
  /// (same ownership and serialization contract as the grounder): when
  /// non-null, the solve phase patches it with the grounder's
  /// GroundingDelta instead of building a cold engine over the assembled
  /// output — pair it with a grounder whose assemble_output is off (a
  /// grounder without assembly and no solver is kInvalidArgument). It is
  /// ignored on the cold path.
  StatusOr<ReasonerResult> Process(const TripleWindow& window,
                                   IncrementalGrounder* grounder = nullptr,
                                   IncrementalSolver* solver = nullptr) const;

  const Program& program() const { return *program_; }

 private:
  /// Cold solve + answer-extraction tail.
  Status SolveGround(const GroundProgram& ground, ReasonerResult* result) const;

  /// Warm tail: patches `solver` with the grounder's last delta and
  /// enumerates. A detectably out-of-sync mirror is repaired in place by
  /// invalidating both engines and regrounding the window once.
  Status SolveIncremental(uint64_t sequence, const std::vector<Atom>& facts,
                          IncrementalGrounder* grounder,
                          IncrementalSolver* solver,
                          ReasonerResult* result) const;

  /// Maps solver models (dense ids of `atoms`) to projected, normalized
  /// GroundAnswers in one pass per model: atoms outside the #show
  /// projection are filtered during extraction rather than copied and
  /// projected afterwards.
  void ExtractAnswers(const AtomTable& atoms,
                      const std::vector<AnswerSet>& models,
                      ReasonerResult* result) const;

  const Program* program_;
  ReasonerOptions options_;
  DataFormatProcessor format_;
};

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_REASONER_H_
