#include "streamrule/reasoner.h"

#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace streamasp {

Reasoner::Reasoner(const Program* program, ReasonerOptions options)
    : program_(program), options_(options) {
  const Status status =
      format_.DeclareInputPredicates(program_->input_predicates());
  if (!status.ok()) {
    // An input predicate triples cannot carry (StreamRulePipeline::Create
    // refuses such programs): its items fail conversion.
    STREAMASP_LOG(kWarning) << "data format processor: " << status;
  }
}

StatusOr<ReasonerResult> Reasoner::Process(
    const TripleWindow& window, IncrementalGrounder* grounder,
    IncrementalSolver* solver) const {
  if ((grounder == nullptr) != (solver == nullptr)) {
    return InvalidArgumentError(
        "the reuse path needs an IncrementalGrounder and an "
        "IncrementalSolver together; pass both or neither");
  }
  ReasonerResult result;
  WallTimer total;
  WallTimer phase;
  STREAMASP_ASSIGN_OR_RETURN(const std::vector<PackedFact> facts,
                             format_.ToPackedFacts(window.items));
  if (grounder == nullptr) {
    result.convert_ms = phase.ElapsedMillis();
    phase.Restart();
    STREAMASP_ASSIGN_OR_RETURN(
        const GroundProgram ground,
        Grounder(options_.grounding)
            .Ground(*program_, facts, &result.grounding));
    result.ground_ms = phase.ElapsedMillis();
    STREAMASP_RETURN_IF_ERROR(SolveGround(ground, &result));
  } else {
    // The windower's delta (when present and not the first window)
    // becomes the grounder's hint; conversion of the delta counts as
    // conversion time, as the paper requires for all data transformation.
    // The hint is relative to the window named by delta_base — under load
    // shedding that may be further back than sequence-1 (every shed
    // window's delta is folded into its successor); the grounder replays
    // it only when it chains from the cached window, and rebuilds
    // otherwise.
    IncrementalGrounder::FactDelta delta;
    const IncrementalGrounder::FactDelta* delta_ptr = nullptr;
    if (window.has_delta &&
        window.delta_base != TripleWindow::kNoDeltaBase) {
      delta.previous_sequence = window.delta_base;
      STREAMASP_ASSIGN_OR_RETURN(delta.expired,
                                 format_.ToPackedFacts(window.expired));
      STREAMASP_ASSIGN_OR_RETURN(delta.admitted,
                                 format_.ToPackedFacts(window.admitted));
      delta_ptr = &delta;
    }
    result.convert_ms = phase.ElapsedMillis();
    phase.Restart();
    STREAMASP_RETURN_IF_ERROR(grounder->GroundWindow(
        window.sequence, facts, delta_ptr, &result.grounding));
    result.ground_ms = phase.ElapsedMillis();
    STREAMASP_RETURN_IF_ERROR(
        SolveIncremental(window.sequence, facts, grounder, solver, &result));
  }
  result.latency_ms = total.ElapsedMillis();
  return result;
}

Status Reasoner::SolveGround(const GroundProgram& ground,
                             ReasonerResult* result) const {
  WallTimer phase;
  const Solver solver(options_.solving);
  STREAMASP_ASSIGN_OR_RETURN(std::vector<AnswerSet> models,
                             solver.Solve(ground));
  result->solve_ms = phase.ElapsedMillis();
  ExtractAnswers(ground.atoms(), models, result);
  return OkStatus();
}

Status Reasoner::SolveIncremental(uint64_t sequence,
                                  const std::vector<PackedFact>& facts,
                                  IncrementalGrounder* grounder,
                                  IncrementalSolver* solver,
                                  ReasonerResult* result) const {
  WallTimer phase;
  std::vector<AnswerSet> models;
  Status status = solver->SolveWindow(*grounder, &models, &result->solving);
  double reground_ms = 0;
  if (status.code() == StatusCode::kFailedPrecondition) {
    // The solve state lost sync with the grounder store (a skipped or
    // failed window upstream). Repair in place: invalidate both engines and
    // reground this window — the rebuilt cache publishes a full_rebuild
    // delta the solver can always consume. Costs one full regrounding on
    // a path that normal operation never takes.
    STREAMASP_LOG(kWarning) << "window " << sequence
                            << ": incremental solver resync: " << status;
    grounder->Invalidate();
    solver->Invalidate();
    WallTimer reground;
    GroundingStats resync_grounding;
    STREAMASP_RETURN_IF_ERROR(
        grounder->GroundWindow(sequence, facts, nullptr, &resync_grounding));
    // The repair grounding is ground-phase work on top of the window's
    // first grounding, not a replacement for its stats.
    result->grounding.Accumulate(resync_grounding);
    reground_ms = reground.ElapsedMillis();
    result->ground_ms += reground_ms;
    status = solver->SolveWindow(*grounder, &models, &result->solving);
  }
  STREAMASP_RETURN_IF_ERROR(status);
  result->solve_ms = phase.ElapsedMillis() - reground_ms;
  ExtractAnswers(grounder->atom_table(), models, result);
  return OkStatus();
}

void Reasoner::ExtractAnswers(const AtomTable& atoms,
                              const std::vector<AnswerSet>& models,
                              ReasonerResult* result) const {
  const std::vector<PredicateSignature>& shown =
      program_->shown_predicates();
  const bool project = options_.project_to_shown && !shown.empty();
  result->answers.reserve(models.size());
  for (const AnswerSet& model : models) {
    GroundAnswer answer;
    answer.reserve(model.atoms.size());
    for (GroundAtomId id : model.atoms) {
      if (project) {
        // Filter during extraction (same membership test ProjectAnswer
        // runs) on the table's signature column, so only the atoms kept
        // are unpacked.
        const PredicateSignature signature = atoms.Signature(id);
        bool keep = false;
        for (const PredicateSignature& sig : shown) {
          if (signature == sig) {
            keep = true;
            break;
          }
        }
        if (!keep) continue;
      }
      answer.push_back(atoms.GetAtom(id));
    }
    NormalizeAnswer(&answer);
    result->answers.push_back(std::move(answer));
  }
}

}  // namespace streamasp
