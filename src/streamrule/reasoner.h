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

  /// Reuse across overlapping windows. There is one reuse path: the
  /// owning layer (the parallel reasoner) keeps one IncrementalGrounder
  /// and one persistent IncrementalSolver per partition sub-stream and
  /// passes the pair to Process; the solver is patched with the
  /// grounder's GroundingDelta. The grounder drives the same
  /// instantiation core as the one-shot Grounder (see
  /// ground/instantiate.h), so answers are unchanged; only the work
  /// shrinks to the window delta.
  ///
  /// This flag and solving.reuse_solving both select that path, and the
  /// owning layer sets both to the outcome. A disjunctive program
  /// reasons cold whichever is set (see solve/incremental_solver.h).
  bool reuse_grounding = false;

  /// Tuning for the incremental cache (used under reuse).
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
  /// Each triple is checked and translated once to a PackedFact, with no
  /// Atom built. With a null `grounder` and `solver` the window is
  /// reasoned from scratch (the cold path): the Grounder interns the
  /// facts and a fresh Solver solves the result. A non-null pair
  /// (caller-owned, one per sub-stream, calls serialized by the caller)
  /// is the reuse path: the grounder reuses the cached instantiation of
  /// the previous window, with the window's expired/admitted delta (when
  /// present) translated alongside the items as its diff hint, and the
  /// solver is patched with the grounder's GroundingDelta. One without
  /// the other is kInvalidArgument.
  StatusOr<ReasonerResult> Process(const TripleWindow& window,
                                   IncrementalGrounder* grounder = nullptr,
                                   IncrementalSolver* solver = nullptr) const;

  const Program& program() const { return *program_; }

 private:
  /// Cold solve + answer-extraction tail.
  Status SolveGround(const GroundProgram& ground, ReasonerResult* result) const;

  /// Warm tail: `solver` replays the grounder's last delta, reads its
  /// store and enumerates. Detectably out-of-sync solve state is repaired
  /// in place by invalidating both engines and regrounding the window
  /// once.
  Status SolveIncremental(uint64_t sequence,
                          const std::vector<PackedFact>& facts,
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
