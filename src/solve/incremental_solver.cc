#include "solve/incremental_solver.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "solve/propagation_core.h"

namespace streamasp {

/// The persistent engine: the shared PropagationCore pointed at the
/// grounder's rule store, plus the delta replay and warm-start
/// bookkeeping that only make sense for a persistent engine:
///   * the core's per-slot arrays follow the store's swap-compaction
///     through the delta (RetractSlot per retracted slot, AppendSlot per
///     appended one), so they stay aligned with the store's slots;
///   * the previous window's model orders decision signs (guidance) and,
///     for the definite fragment, the model itself is *maintained* across
///     windows by the core's justification tracking — see SolveMaintained
///     and ARCHITECTURE.md "Delta-sized model maintenance".
class IncrementalSolver::Engine {
 public:
  explicit Engine(SolverOptions options) : options_(options) {}

  Status SolveWindow(const IncrementalGrounder& grounder,
                     std::vector<AnswerSet>* models);

  void Invalidate() {
    valid_ = false;
    core_.InvalidateMaintained();
  }
  bool valid() const { return valid_; }
  const SolverStats& call_stats() const { return call_stats_; }

 private:
  using Val = PropagationCore::Val;

  /// Enumeration policy for the persistent engine: guided sign ordering
  /// (explore the branch that agrees with the previous window's model
  /// first, so a barely changed window walks straight to its model) and
  /// model verification through the core's persistent scratch buffers.
  struct GuidedClient {
    Engine* engine;

    bool AcceptModel(const std::vector<GroundAtomId>& atoms) const {
      return !engine->options_.verify_models ||
             engine->core_.VerifyStable(atoms);
    }
    Val FirstSign(GroundAtomId atom) const {
      if (engine->guide_ && !engine->prev_model_[atom]) return Val::kFalse;
      return Val::kTrue;
    }
  };

  /// Replays an incremental delta onto the solve state; kFailedPrecondition
  /// when it does not chain from the last one applied.
  Status ApplyDelta(const GroundingDelta& delta, const RuleStore& store);

  Status Enumerate(std::vector<AnswerSet>* models);

  /// Delta-sized maintained fixpoint for the definite fragment: commit
  /// the window's patch into the core's justification-tracked model (or
  /// rebuild it after an invalidation) instead of recomputing the
  /// assignment from scratch. Returns false when verification rejects a
  /// rebuilt closure (never expected), in which case the caller falls
  /// back to the full search.
  bool SolveMaintained(std::vector<AnswerSet>* models);

  /// Definite fast path without model maintenance (maintain_fixpoint
  /// off): one support-closure pass computes the unique stable model —
  /// the least model — and VerifyStable still checks it from first
  /// principles. Returns false when verification rejects the closure
  /// (never expected), in which case the caller falls back to the full
  /// search.
  bool SolveDefinite(std::vector<AnswerSet>* models);

  SolverOptions options_;
  SolverStats call_stats_;

  PropagationCore core_;

  bool valid_ = false;
  /// Sequence of the last applied delta; incremental deltas must chain
  /// from it (catches double-application even when the rule delta is
  /// empty and the size checks hold trivially).
  uint64_t last_sequence_ = 0;

  /// Membership vector of the previous window's first model, used to
  /// order decision signs; meaningless unless has_prev_model_.
  std::vector<uint8_t> prev_model_;
  bool has_prev_model_ = false;
  bool guide_ = false;
};

// ---------------------------------------------------------------------------
// Delta replay.

Status IncrementalSolver::Engine::ApplyDelta(const GroundingDelta& delta,
                                             const RuleStore& store) {
  if (!valid_) {
    return FailedPreconditionError(
        "incremental delta against invalid solve state");
  }
  if (core_.store() != &store ||
      core_.num_slots() != delta.store_size_before ||
      store.num_atoms() < core_.num_atoms() ||
      delta.previous_sequence != last_sequence_) {
    Invalidate();
    return FailedPreconditionError(
        "solve state out of sync with the grounder store");
  }
  core_.EnsureAtomCapacity(store.num_atoms());
  ++call_stats_.incremental_solve_windows;

  // Retraction: follow the store's swap-compaction, slot by slot.
  for (const RetractedSlot& retracted : delta.retracted_slots) {
    if (retracted.slot >= core_.num_slots()) {
      Invalidate();
      return FailedPreconditionError(
          "retracted slot beyond the solve state's slots");
    }
    core_.RetractSlot(retracted.slot, retracted.head);
  }
  if (core_.num_slots() != delta.new_rules_begin ||
      store.size() < delta.new_rules_begin) {
    Invalidate();
    return FailedPreconditionError(
        "solve state out of sync after retraction replay");
  }
  while (core_.num_slots() < store.size()) core_.AppendSlot();
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Solving.

Status IncrementalSolver::Engine::Enumerate(std::vector<AnswerSet>* models) {
  if (core_.definite()) {
    if (options_.maintain_fixpoint) {
      if (SolveMaintained(models)) return OkStatus();
    } else if (SolveDefinite(models)) {
      return OkStatus();
    }
  }
  // Full propagation/search machinery: the whole assignment is recomputed.
  core_.InvalidateMaintained();
  if (guide_) ++call_stats_.warm_start_hits;
  call_stats_.atoms_touched += core_.num_atoms();
  GuidedClient client{this};
  return core_.Enumerate(options_, client, models);
}

bool IncrementalSolver::Engine::SolveMaintained(
    std::vector<AnswerSet>* models) {
  AnswerSet model;
  if (core_.maintained_valid()) {
    // The steady state: commit the patch's seed lists — retraction
    // cascades only through the broken justification subtree, insertion
    // propagates forward semi-naive — and read the model back. Every
    // assignment outside the touched cone is reused verbatim, which is
    // exactly why this window skips the O(program) closure and
    // verification passes (the rebuild windows below still verify, and
    // debug builds re-check every maintained window).
    const size_t touched = core_.CommitMaintainedPatch();
    core_.AppendMaintainedModel(&model.atoms);
    ++call_stats_.fixpoint_maintained_windows;
    call_stats_.atoms_touched += touched;
    const size_t live = core_.num_atoms();
    call_stats_.assignments_reused += live - std::min(touched, live);
    assert(core_.VerifyStable(model.atoms) &&
           "maintained fixpoint diverged from the stable model");
  } else {
    core_.RebuildMaintainedModel();
    core_.AppendMaintainedModel(&model.atoms);
    call_stats_.atoms_touched += core_.num_atoms();
    if (options_.verify_models && !core_.VerifyStable(model.atoms)) {
      core_.InvalidateMaintained();
      return false;
    }
  }
  models->push_back(std::move(model));
  return true;
}

bool IncrementalSolver::Engine::SolveDefinite(
    std::vector<AnswerSet>* models) {
  // Well-founded supported closure of the facts at rest: exactly the
  // least model. Over-retained positive cycles cannot self-support and
  // correctly stay out of it.
  const std::vector<uint8_t>& least = core_.LeastModel();
  call_stats_.atoms_touched += core_.num_atoms();

  AnswerSet model;
  for (GroundAtomId a = 0; a < core_.num_atoms(); ++a) {
    if (least[a]) model.atoms.push_back(a);
  }
  if (options_.verify_models && !core_.VerifyStable(model.atoms)) {
    return false;
  }
  models->push_back(std::move(model));
  return true;
}

// ---------------------------------------------------------------------------
// Window entry point.

Status IncrementalSolver::Engine::SolveWindow(
    const IncrementalGrounder& grounder, std::vector<AnswerSet>* models) {
  call_stats_ = SolverStats{};
  models->clear();
  const GroundingDelta& delta = grounder.last_delta();
  const RuleStore& store = grounder.cached_rules();

  if (store.disjunctive_rules() != 0) {
    valid_ = false;
    return InvalidArgumentError(
        "incremental solving supports normal (non-disjunctive) programs "
        "only; route disjunctive programs through the cold solver");
  }
  if (delta.full_rebuild) {
    core_.Reset(&store);
    prev_model_.clear();
    has_prev_model_ = false;
    ++call_stats_.solve_rebuilds;
  } else {
    STREAMASP_RETURN_IF_ERROR(ApplyDelta(delta, store));
  }
  prev_model_.resize(core_.num_atoms(), 0);
  valid_ = true;
  last_sequence_ = delta.sequence;

  // Guidance is armed here but counted in Enumerate, only when the search
  // machinery actually runs (the definite paths take no decisions).
  guide_ = has_prev_model_;

  const Status status = Enumerate(models);
  if (!status.ok()) {
    // The solve state survives a resource-limit abort, but a partial
    // enumeration must not guide (or be compared against) anything.
    has_prev_model_ = false;
    return status;
  }

  // Canonical order: guidance permutes discovery order, so sort by atom
  // vector to make the output deterministic and history-independent.
  std::sort(models->begin(), models->end(),
            [](const AnswerSet& a, const AnswerSet& b) {
              return a.atoms < b.atoms;
            });

  if (!models->empty()) {
    std::fill(prev_model_.begin(), prev_model_.end(), 0);
    for (GroundAtomId a : models->front().atoms) prev_model_[a] = 1;
    has_prev_model_ = true;
  } else {
    has_prev_model_ = false;
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Public wrapper.

IncrementalSolver::IncrementalSolver(SolverOptions options)
    : engine_(std::make_unique<Engine>(options)) {}

IncrementalSolver::~IncrementalSolver() = default;

Status IncrementalSolver::SolveWindow(const IncrementalGrounder& grounder,
                                      std::vector<AnswerSet>* models,
                                      SolverStats* stats) {
  const Status status = engine_->SolveWindow(grounder, models);
  if (status.ok()) {
    cumulative_.Accumulate(engine_->call_stats());
    if (stats != nullptr) *stats = engine_->call_stats();
  }
  return status;
}

void IncrementalSolver::Invalidate() { engine_->Invalidate(); }

bool IncrementalSolver::valid() const { return engine_->valid(); }

}  // namespace streamasp
