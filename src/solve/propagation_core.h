#ifndef STREAMASP_SOLVE_PROPAGATION_CORE_H_
#define STREAMASP_SOLVE_PROPAGATION_CORE_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ground/rule_store.h"
#include "solve/solver.h"

namespace streamasp {

/// The one smodels-style propagation/search core shared by the throwaway
/// cold solver (solve/solver.cc) and the persistent incremental engine
/// (solve/incremental_solver.cc). It holds solve state only; the rules
/// and their watch lists are read in place from a RuleStore
/// (ground/rule_store.h):
///
///   * Solver::Solve fills a throwaway store once from its normalized
///     rules (RuleStore::Build pre-counts the list lengths) and points a
///     throwaway core at it.
///   * IncrementalSolver points a persistent core at its grounder's store
///     and, each window, replays the grounder's GroundingDelta onto the
///     per-slot arrays (RetractSlot, AppendSlot), so they stay aligned
///     with the store's swap-compacted slots.
///
/// The store's rules must be normal (at most one head atom). Search
/// state, per slot and per atom:
///   body_unassigned_[r]  — body literals whose atom is still unknown,
///   body_false_[r]       — body literals currently false
///                          (positive literal with false atom, or negative
///                          literal with true atom),
///   active_count_[a]     — rules with head a whose body is not yet false.
/// Enumerate sets them to their rest values from the store and leaves
/// them there. They are updated eagerly in Assign/UndoTo; consequences are
/// derived when an atom is popped from the flat propagation FIFO.
///
/// Enumerate() is templated over a small client policy supplying the two
/// decisions the shapes differ on:
///   Val  FirstSign(GroundAtomId atom)          — branch sign ordering
///                                                (warm-start guidance);
///   bool AcceptModel(const std::vector<GroundAtomId>& atoms)
///                                              — model verification.
/// Everything else — seeds, expansion to the propagation/unfounded-set
/// fixpoint, chronological backtracking, the decision valve, the final
/// unwind to the rest state — is shared.
///
/// Delta-sized model maintenance (the definite fragment): in addition to
/// the search machinery the core can maintain the *model itself* across
/// patches via justification tracking — see the "maintained fixpoint"
/// section below and ARCHITECTURE.md "Delta-sized model maintenance".
class PropagationCore {
 public:
  enum class Val : int8_t { kUnknown = 0, kTrue = 1, kFalse = 2 };

  // -------------------------------------------------------------------
  // The store and the per-slot arrays.

  /// Points the core at `store` and drops all solve state: the per-atom
  /// arrays are sized to the store's atoms, the per-slot arrays to its
  /// slots, and the maintained model is invalid.
  void Reset(const RuleStore* store) {
    store_ = store;
    num_atoms_ = 0;
    value_.clear();
    active_count_.clear();
    derived_.clear();
    support_count_.clear();
    trail_.clear();
    queue_.clear();
    queue_head_ = 0;
    InvalidateMaintained();
    support_missing_.assign(store->size(), 0);
    justifies_.assign(store->size(), 0);
    EnsureAtomCapacity(store->num_atoms());
  }

  /// Grows the per-atom arrays to the store's current atom count.
  void EnsureAtomCapacity(size_t num_atoms) {
    if (num_atoms <= num_atoms_) return;
    value_.resize(num_atoms, Val::kUnknown);
    active_count_.resize(num_atoms, 0);
    derived_.resize(num_atoms, 0);
    support_count_.resize(num_atoms, 0);
    num_atoms_ = num_atoms;
    // Every atom enters the trail (and therefore the propagation queue)
    // at most once per assignment stack, so one num_atoms_-sized block
    // each removes all growth reallocations during search.
    trail_.reserve(num_atoms);
    queue_.reserve(num_atoms);
  }

  const RuleStore* store() const { return store_; }
  size_t num_atoms() const { return num_atoms_; }
  /// Slots the per-slot arrays cover; equals store()->size() between
  /// patches.
  size_t num_slots() const { return support_missing_.size(); }

  /// Replays one step of the store's swap-compaction: slot `slot`, whose
  /// rule had head `head`, is gone and the last slot moves into it. While
  /// the model is maintained, the rule's support leaves its head, and a
  /// rule that justified its head seeds the retraction cascade (the head
  /// may be re-justified by an alternative rule in CommitMaintainedPatch).
  void RetractSlot(uint32_t slot, GroundAtomId head) {
    assert(slot < num_slots());
    if (maintained_valid_) {
      // Definite fragment: while maintained, every live rule has a head.
      assert(head != kInvalidGroundAtom);
      if (support_missing_[slot] == 0) --support_count_[head];
      if (justifies_[slot]) retract_seeds_.push_back(head);
    }
    const size_t last = num_slots() - 1;
    support_missing_[slot] = support_missing_[last];
    justifies_[slot] = justifies_[last];
    support_missing_.pop_back();
    justifies_.pop_back();
  }

  /// Takes in the store's rule at slot num_slots(). A rule outside the
  /// definite fragment invalidates the maintained model; a definite rule
  /// updates the support counters and, when its body is already derived,
  /// seeds the forward pass.
  void AppendSlot() {
    const GroundRule& rule = store_->rule(static_cast<uint32_t>(num_slots()));
    uint32_t missing = 0;
    if (maintained_valid_) {
      if (rule.head.empty() || !rule.negative_body.empty()) {
        InvalidateMaintained();
      } else {
        for (GroundAtomId a : rule.positive_body) {
          if (!derived_[a]) ++missing;
        }
        if (missing == 0) {
          ++support_count_[rule.head[0]];
          insert_seeds_.push_back(rule.head[0]);
        }
      }
    }
    support_missing_.push_back(missing);
    justifies_.push_back(0);
  }

  /// True when the live rule set has no negative literals and no
  /// constraints — the fragment with exactly one stable model (its least
  /// model), which both the definite fast path and the maintained
  /// fixpoint rely on.
  bool definite() const {
    return store_->negative_body_rules() == 0 &&
           store_->constraint_rules() == 0;
  }

  // -------------------------------------------------------------------
  // Enumeration (shared seeds / expand / search / unwind).

  /// Enumerates stable-model candidates into `*models` (appended). The
  /// client filters candidates (AcceptModel) and orders branch signs
  /// (FirstSign). Always unwinds to the rest state — all atoms unknown,
  /// counters at their rest values.
  template <typename Client>
  Status Enumerate(const SolverOptions& options, Client& client,
                   std::vector<AnswerSet>* models) {
    InitSearchCounters();
    options_ = &options;
    models_ = models;
    decisions_ = 0;
    assert(trail_.empty());
    Status status = OkStatus();
    if (InitialPropagationSeeds()) status = Search(client);
    UndoTo(0);
    options_ = nullptr;
    models_ = nullptr;
    return status;
  }

  /// The least model of the live rules (a definite program's one stable
  /// model), as membership flags: one support-closure pass at rest.
  const std::vector<uint8_t>& LeastModel() {
    InitSearchCounters();
    ComputeSupportClosure();
    return supported_;
  }

  /// Exact stable-model test over the live (non-disjunctive) rule set,
  /// equivalent to IsStableModel on the assembled program: the model must
  /// satisfy every rule and equal the least model of the reduct. Uses the
  /// store's positive lists and flat scratch, so it allocates nothing
  /// after warm-up. `model` must be sorted.
  bool VerifyStable(const std::vector<GroundAtomId>& model) {
    const size_t num_rules = store_->size();
    in_model_.assign(num_atoms_, 0);
    for (GroundAtomId a : model) in_model_[a] = 1;
    reduct_enabled_.assign(num_rules, 0);

    // 1. The model must satisfy every rule; remember reduct membership.
    for (uint32_t r = 0; r < num_rules; ++r) {
      const GroundRule& rule = store_->rule(r);
      bool neg_blocked = false;
      for (GroundAtomId a : rule.negative_body) {
        if (in_model_[a]) {
          neg_blocked = true;
          break;
        }
      }
      if (neg_blocked) continue;
      reduct_enabled_[r] = 1;
      bool pos_holds = true;
      for (GroundAtomId a : rule.positive_body) {
        if (!in_model_[a]) {
          pos_holds = false;
          break;
        }
      }
      if (pos_holds) {
        if (rule.head.empty() || !in_model_[rule.head[0]]) return false;
      }
    }

    // 2. The model must equal the least model of the reduct.
    least_true_.assign(num_atoms_, 0);
    least_missing_.assign(num_rules, 0);
    least_queue_.clear();
    size_t queue_head = 0;
    auto derive = [&](GroundAtomId a) {
      if (!least_true_[a]) {
        least_true_[a] = 1;
        least_queue_.push_back(a);
      }
    };
    for (uint32_t r = 0; r < num_rules; ++r) {
      const GroundRule& rule = store_->rule(r);
      if (!reduct_enabled_[r] || rule.head.empty()) continue;
      least_missing_[r] = static_cast<uint32_t>(rule.positive_body.size());
      if (least_missing_[r] == 0) derive(rule.head[0]);
    }
    while (queue_head < least_queue_.size()) {
      const GroundAtomId a = least_queue_[queue_head++];
      for (uint32_t r : store_->positive(a)) {
        const GroundRule& rule = store_->rule(r);
        if (!reduct_enabled_[r] || rule.head.empty()) continue;
        if (--least_missing_[r] == 0) derive(rule.head[0]);
      }
    }
    for (GroundAtomId a = 0; a < num_atoms_; ++a) {
      if (least_true_[a] != in_model_[a]) return false;
    }
    return true;
  }

  // -------------------------------------------------------------------
  // Maintained fixpoint (delta-sized model maintenance, definite
  // fragment only).
  //
  // While maintained_valid(), the core tracks the program's unique stable
  // model — its least model — as persistent state:
  //   derived_[a]          — a is in the maintained model,
  //   justifies_[r]        — r is the ONE rule currently justifying its
  //                          head. Because a justifier is always recorded
  //                          at the moment its body first became fully
  //                          derived, the justifier edges form an acyclic
  //                          forest over the derived atoms,
  //   support_missing_[r]  — positive body occurrences of r not derived
  //                          (duplicates count per occurrence),
  //   support_count_[a]    — rules with head a and support_missing_ == 0.
  //
  // RetractSlot/AppendSlot fold each patch into seed lists; one
  // CommitMaintainedPatch call then (1) cascades retraction through the
  // justification forest — an atom is un-derived only when its own
  // justifier broke, so alternative supports keep the cascade to the
  // justification subtree rather than the full rule-dependency cone —
  // and (2) re-derives from atoms with surviving alternative support plus
  // the newly firing rules, semi-naive. Atoms outside the touched cone
  // keep their assignment verbatim; the returned touched count is what
  // the delta actually cost.

  bool maintained_valid() const { return maintained_valid_; }

  /// Drops the maintained model (next window must RebuildMaintainedModel
  /// before committing patches). Safe to call in any state.
  void InvalidateMaintained() {
    maintained_valid_ = false;
    retract_seeds_.clear();
    insert_seeds_.clear();
  }

  /// Recomputes the maintained model, justifiers and support counters
  /// from the full live rule set (O(program)). Requires definite().
  void RebuildMaintainedModel() {
    assert(definite());
    derived_.assign(num_atoms_, 0);
    justifies_.assign(num_slots(), 0);
    support_count_.assign(num_atoms_, 0);
    retract_seeds_.clear();
    insert_seeds_.clear();
    work_.clear();
    size_t head = 0;
    auto fire = [&](uint32_t r) {
      const GroundAtomId h = store_->rule(r).head[0];
      ++support_count_[h];
      if (!derived_[h]) {
        derived_[h] = 1;
        justifies_[r] = 1;
        work_.push_back(h);
      }
    };
    for (uint32_t r = 0; r < num_slots(); ++r) {
      support_missing_[r] =
          static_cast<uint32_t>(store_->rule(r).positive_body.size());
      if (support_missing_[r] == 0) fire(r);
    }
    while (head < work_.size()) {
      const GroundAtomId a = work_[head++];
      for (uint32_t r : store_->positive(a)) {
        if (--support_missing_[r] == 0) fire(r);
      }
    }
    maintained_valid_ = true;
  }

  /// Consumes the seed lists the patch accumulated and restores the
  /// maintained model to the least model of the patched program. Returns
  /// the number of atom flips processed (retraction-cascade pops plus
  /// re-derivation pops) — the delta-sized work this window actually did.
  /// Requires maintained_valid().
  size_t CommitMaintainedPatch() {
    assert(maintained_valid_);
    size_t touched = 0;

    // Phase 1: retraction cascade. An atom leaves the model exactly when
    // its justifier broke (was retracted, or lost a derived positive
    // premise). support_missing_/support_count_ are updated at each
    // occurrence so phase 2 sees exact counts.
    work_.clear();
    size_t head = 0;
    for (GroundAtomId a : retract_seeds_) {
      assert(derived_[a]);
      derived_[a] = 0;
      work_.push_back(a);
    }
    retract_seeds_.clear();
    while (head < work_.size()) {
      const GroundAtomId a = work_[head++];
      ++touched;
      for (uint32_t r : store_->positive(a)) {
        if (support_missing_[r]++ == 0) {
          const GroundAtomId h = store_->rule(r).head[0];
          --support_count_[h];
          if (justifies_[r]) {
            justifies_[r] = 0;
            derived_[h] = 0;
            work_.push_back(h);
          }
        }
      }
    }
    const size_t deleted_end = work_.size();

    // Phase 2: re-derivation, semi-naive, from (a) cascade victims whose
    // alternative supports survived and (b) heads of newly firing rules.
    rederive_.clear();
    size_t rhead = 0;
    auto consider = [&](GroundAtomId a) {
      if (derived_[a] || support_count_[a] == 0) return;
      bool justified = false;
      for (uint32_t r : store_->heads(a)) {
        if (support_missing_[r] == 0) {
          justifies_[r] = 1;
          justified = true;
          break;
        }
      }
      assert(justified);
      (void)justified;
      derived_[a] = 1;
      rederive_.push_back(a);
    };
    for (size_t i = 0; i < deleted_end; ++i) consider(work_[i]);
    for (GroundAtomId a : insert_seeds_) consider(a);
    insert_seeds_.clear();
    while (rhead < rederive_.size()) {
      const GroundAtomId a = rederive_[rhead++];
      ++touched;
      for (uint32_t r : store_->positive(a)) {
        if (--support_missing_[r] == 0) {
          const GroundAtomId h = store_->rule(r).head[0];
          ++support_count_[h];
          if (!derived_[h]) {
            derived_[h] = 1;
            justifies_[r] = 1;
            rederive_.push_back(h);
          }
        }
      }
    }
    return touched;
  }

  /// Appends the maintained model's atoms to `*atoms` in ascending order.
  void AppendMaintainedModel(std::vector<GroundAtomId>* atoms) const {
    assert(maintained_valid_);
    for (GroundAtomId a = 0; a < num_atoms_; ++a) {
      if (derived_[a]) atoms->push_back(a);
    }
  }

 private:
  static constexpr int32_t kNoHead = -1;

  int32_t HeadOf(uint32_t r) const {
    const GroundRule& rule = store_->rule(r);
    return rule.head.empty() ? kNoHead : static_cast<int32_t>(rule.head[0]);
  }

  /// Puts the search counters at their rest values for the store's
  /// current rules: no body literal assigned, every rule active.
  void InitSearchCounters() {
    const size_t num_rules = store_->size();
    body_unassigned_.resize(num_rules);
    body_false_.assign(num_rules, 0);
    for (uint32_t r = 0; r < num_rules; ++r) {
      const GroundRule& rule = store_->rule(r);
      body_unassigned_[r] = static_cast<uint32_t>(
          rule.positive_body.size() + rule.negative_body.size());
    }
    for (GroundAtomId a = 0; a < num_atoms_; ++a) {
      active_count_[a] = static_cast<uint32_t>(store_->heads(a).size());
    }
  }

  /// Fills supported_ with the well-founded supported closure under the
  /// current assignment (rules with a false body do not support). At rest
  /// this is the least-model closure of the live rules.
  void ComputeSupportClosure() {
    const size_t num_rules = store_->size();
    supported_.assign(num_atoms_, 0);
    unsupported_pos_.assign(num_rules, 0);
    ready_.clear();
    size_t ready_head = 0;

    auto mark_supported = [&](GroundAtomId a) {
      if (!supported_[a]) {
        supported_[a] = 1;
        ready_.push_back(a);
      }
    };

    for (uint32_t r = 0; r < num_rules; ++r) {
      const GroundRule& rule = store_->rule(r);
      if (body_false_[r] != 0 || rule.head.empty()) continue;
      unsupported_pos_[r] = static_cast<uint32_t>(rule.positive_body.size());
      if (unsupported_pos_[r] == 0) mark_supported(rule.head[0]);
    }
    while (ready_head < ready_.size()) {
      const GroundAtomId a = ready_[ready_head++];
      for (uint32_t r : store_->positive(a)) {
        const GroundRule& rule = store_->rule(r);
        if (body_false_[r] != 0 || rule.head.empty()) continue;
        if (--unsupported_pos_[r] == 0) mark_supported(rule.head[0]);
      }
    }
  }

  // --- assignment and trail ------------------------------------------

  /// Steps the body counters of every rule with `atom` in its body as the
  /// atom takes value `v` (`assign`) or gives it up again.
  void UpdateBodyCounters(GroundAtomId atom, Val v, bool assign) {
    const RuleStore::AtomLists& lists = store_->lists(atom);
    auto update = [&](const std::vector<uint32_t>& rules, bool literal_false) {
      for (uint32_t r : rules) {
        if (assign) {
          --body_unassigned_[r];
          if (literal_false && ++body_false_[r] == 1) {
            const int32_t h = HeadOf(r);
            if (h != kNoHead) --active_count_[h];
          }
        } else {
          ++body_unassigned_[r];
          if (literal_false && body_false_[r]-- == 1) {
            const int32_t h = HeadOf(r);
            if (h != kNoHead) ++active_count_[h];
          }
        }
      }
    };
    update(lists.positive, v == Val::kFalse);
    update(lists.negative, v == Val::kTrue);
  }

  bool Assign(GroundAtomId atom, Val v) {
    assert(v != Val::kUnknown);
    if (value_[atom] != Val::kUnknown) return value_[atom] == v;
    value_[atom] = v;
    trail_.push_back(atom);
    UpdateBodyCounters(atom, v, /*assign=*/true);
    queue_.push_back(atom);
    return true;
  }

  void UndoTo(size_t mark) {
    while (trail_.size() > mark) {
      const GroundAtomId atom = trail_.back();
      trail_.pop_back();
      UpdateBodyCounters(atom, value_[atom], /*assign=*/false);
      value_[atom] = Val::kUnknown;
    }
    queue_.clear();
    queue_head_ = 0;
  }

  // --- propagation ("atleast") ---------------------------------------

  /// Forces every body literal of `r` true. Returns false on conflict.
  bool ForceBodyTrue(uint32_t r) {
    const GroundRule& rule = store_->rule(r);
    for (GroundAtomId a : rule.positive_body) {
      if (!Assign(a, Val::kTrue)) return false;
    }
    for (GroundAtomId a : rule.negative_body) {
      if (!Assign(a, Val::kFalse)) return false;
    }
    return true;
  }

  /// Falsifies the single unassigned body literal of `r`. Returns false
  /// on conflict.
  bool FalsifyLastLiteral(uint32_t r) {
    const GroundRule& rule = store_->rule(r);
    for (GroundAtomId a : rule.positive_body) {
      if (value_[a] == Val::kUnknown) return Assign(a, Val::kFalse);
    }
    for (GroundAtomId a : rule.negative_body) {
      if (value_[a] == Val::kUnknown) return Assign(a, Val::kTrue);
    }
    assert(false && "no unassigned literal to falsify");
    return true;
  }

  /// The unique rule with head `h` whose body is not false. Requires
  /// active_count_[h] == 1.
  uint32_t SingleActiveRule(GroundAtomId h) const {
    for (uint32_t r : store_->heads(h)) {
      if (body_false_[r] == 0) return r;
    }
    assert(false && "active_count out of sync");
    return 0;
  }

  /// Derives consequences of a rule's current state. Returns false on
  /// conflict.
  bool ExamineRule(uint32_t r) {
    const int32_t head = HeadOf(r);
    if (body_false_[r] == 0) {
      if (body_unassigned_[r] == 0) {
        // Body fully true: fire.
        if (head == kNoHead) return false;
        if (!Assign(static_cast<GroundAtomId>(head), Val::kTrue)) {
          return false;
        }
      } else if (body_unassigned_[r] == 1) {
        const bool head_false =
            head == kNoHead || value_[head] == Val::kFalse;
        if (head_false && !FalsifyLastLiteral(r)) return false;
      }
      // Head true with this as the single active rule: body must hold.
      if (head != kNoHead && value_[head] == Val::kTrue &&
          active_count_[head] == 1 && !ForceBodyTrue(r)) {
        return false;
      }
    } else if (head != kNoHead) {
      // Rule deactivated: its head may have lost support.
      if (active_count_[head] == 0) {
        if (!Assign(static_cast<GroundAtomId>(head), Val::kFalse)) {
          return false;
        }
      } else if (active_count_[head] == 1 && value_[head] == Val::kTrue) {
        if (!ForceBodyTrue(SingleActiveRule(head))) return false;
      }
    }
    return true;
  }

  bool Propagate() {
    while (queue_head_ < queue_.size()) {
      const GroundAtomId atom = queue_[queue_head_++];
      const Val v = value_[atom];
      const RuleStore::AtomLists& lists = store_->lists(atom);
      for (uint32_t r : lists.positive) {
        if (!ExamineRule(r)) return false;
      }
      for (uint32_t r : lists.negative) {
        if (!ExamineRule(r)) return false;
      }
      if (v == Val::kFalse) {
        for (uint32_t r : lists.heads) {
          if (body_false_[r] != 0) continue;
          if (body_unassigned_[r] == 0) return false;  // Body true, head false.
          if (body_unassigned_[r] == 1 && !FalsifyLastLiteral(r)) {
            return false;
          }
        }
      } else {  // kTrue
        if (active_count_[atom] == 0) return false;  // True without support.
        if (active_count_[atom] == 1 &&
            !ForceBodyTrue(SingleActiveRule(atom))) {
          return false;
        }
      }
    }
    return true;
  }

  // --- unfounded-set falsification ("atmost") ------------------------

  /// Computes the atoms with well-founded external support given the
  /// current assignment, and falsifies the rest. Returns false on
  /// conflict (a true atom turned out unfounded). Sets *progress when it
  /// assigned anything.
  bool FalsifyUnfounded(bool* progress) {
    ComputeSupportClosure();
    *progress = false;
    for (GroundAtomId a = 0; a < num_atoms_; ++a) {
      if (supported_[a] || value_[a] == Val::kFalse) continue;
      // `a` is unfounded: no rule chain can ever support it.
      if (!Assign(a, Val::kFalse)) return false;
      *progress = true;
    }
    return true;
  }

  /// Propagation and unfounded-set falsification to mutual fixpoint.
  bool Expand() {
    for (;;) {
      if (!Propagate()) return false;
      bool progress = false;
      if (!FalsifyUnfounded(&progress)) return false;
      if (!progress) return true;
    }
  }

  // --- search ---------------------------------------------------------

  bool InitialPropagationSeeds() {
    // Empty-body rules fire unconditionally; atoms with no potentially
    // supporting rule are false (Clark-completion direction, valid under
    // stable semantics).
    for (uint32_t r = 0; r < store_->size(); ++r) {
      if (body_unassigned_[r] == 0 && body_false_[r] == 0) {
        const int32_t head = HeadOf(r);
        if (head == kNoHead) return false;
        if (!Assign(static_cast<GroundAtomId>(head), Val::kTrue)) {
          return false;
        }
      }
    }
    for (GroundAtomId a = 0; a < num_atoms_; ++a) {
      if (value_[a] == Val::kUnknown && active_count_[a] == 0) {
        if (!Assign(a, Val::kFalse)) return false;
      }
    }
    return true;
  }

  GroundAtomId PickUnassigned() const {
    for (GroundAtomId a = 0; a < num_atoms_; ++a) {
      if (value_[a] == Val::kUnknown) return a;
    }
    return kInvalidGroundAtom;
  }

  bool ReachedModelCap() const {
    return options_->max_models != 0 &&
           models_->size() >= options_->max_models;
  }

  template <typename Client>
  void RecordModel(Client& client) {
    AnswerSet model;
    for (GroundAtomId a = 0; a < num_atoms_; ++a) {
      if (value_[a] == Val::kTrue) model.atoms.push_back(a);
    }
    if (!client.AcceptModel(model.atoms)) return;
    models_->push_back(std::move(model));
  }

  template <typename Client>
  Status Search(Client& client) {
    const size_t entry_mark = trail_.size();
    Status status = OkStatus();
    if (Expand()) {
      const GroundAtomId atom = PickUnassigned();
      if (atom == kInvalidGroundAtom) {
        RecordModel(client);
      } else {
        ++decisions_;
        if (options_->max_decisions != 0 &&
            decisions_ > options_->max_decisions) {
          status = ResourceExhaustedError(
              "decision limit exceeded (" +
              std::to_string(options_->max_decisions) + ")");
        } else {
          // The client orders each decision's signs (warm-start guidance
          // explores the branch agreeing with the previous window's model
          // first). Both branches are still explored — ordering permutes
          // the enumeration, never prunes it.
          const Val first = client.FirstSign(atom);
          const Val second = first == Val::kTrue ? Val::kFalse : Val::kTrue;
          for (const Val v : {first, second}) {
            const size_t mark = trail_.size();
            Assign(atom, v);  // Atom is unassigned; cannot conflict here.
            status = Search(client);
            UndoTo(mark);
            if (!status.ok() || ReachedModelCap()) break;
          }
        }
      }
    }
    UndoTo(entry_mark);
    return status;
  }

  const RuleStore* store_ = nullptr;
  size_t num_atoms_ = 0;

  std::vector<Val> value_;
  std::vector<uint32_t> active_count_;
  std::vector<uint32_t> body_unassigned_;
  std::vector<uint32_t> body_false_;

  std::vector<GroundAtomId> trail_;
  /// Flat FIFO: [queue_head_, queue_.size()) is the pending segment.
  /// Reserved once per atom-capacity growth, so propagation never
  /// reallocates.
  std::vector<GroundAtomId> queue_;
  size_t queue_head_ = 0;

  // Scratch for ComputeSupportClosure / FalsifyUnfounded.
  std::vector<uint8_t> supported_;
  std::vector<uint32_t> unsupported_pos_;
  std::vector<GroundAtomId> ready_;

  // Scratch for VerifyStable.
  std::vector<uint8_t> in_model_;
  std::vector<uint8_t> reduct_enabled_;
  std::vector<uint8_t> least_true_;
  std::vector<uint32_t> least_missing_;
  std::vector<GroundAtomId> least_queue_;

  // Maintained fixpoint (see the section comment above). The two per-slot
  // arrays follow the store's compaction through RetractSlot/AppendSlot.
  bool maintained_valid_ = false;
  std::vector<uint8_t> derived_;
  std::vector<uint8_t> justifies_;
  std::vector<uint32_t> support_missing_;
  std::vector<uint32_t> support_count_;
  std::vector<GroundAtomId> retract_seeds_;
  std::vector<GroundAtomId> insert_seeds_;
  std::vector<GroundAtomId> work_;
  std::vector<GroundAtomId> rederive_;

  const SolverOptions* options_ = nullptr;
  std::vector<AnswerSet>* models_ = nullptr;
  size_t decisions_ = 0;
};

}  // namespace streamasp

#endif  // STREAMASP_SOLVE_PROPAGATION_CORE_H_
