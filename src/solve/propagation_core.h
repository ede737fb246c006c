#ifndef STREAMASP_SOLVE_PROPAGATION_CORE_H_
#define STREAMASP_SOLVE_PROPAGATION_CORE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "solve/solver.h"

namespace streamasp {

/// The one smodels-style propagation/search core shared by the throwaway
/// cold solver (solve/solver.cc) and the persistent incremental engine
/// (solve/incremental_solver.cc). Both used to maintain near-identical
/// copies of this machinery by hand; now there is exactly one copy,
/// parameterized over rule storage by its two front-ends:
///
///   * BuildFromRules — the static shape: ingest a normalized rule vector
///     once, with degree pre-counting so every occurrence list is
///     allocated exactly once (the dominant build cost on large ground
///     programs). Used by Solver::Solve, which discards the core after
///     one enumeration.
///   * Reset / EnsureAtomCapacity / AddRule / RemoveRule — the patched
///     arena shape: rules hook and unhook individually, removal
///     swap-compacts the rule arrays (mirroring the incremental
///     grounder's store compaction) so every per-rule array stays dense
///     for the linear passes. Used by IncrementalSolver, which keeps the
///     core alive across windows and patches it with GroundingDeltas.
///
/// Invariants maintained per rule:
///   body_unassigned_[r]  — body literals whose atom is still unknown,
///   body_false_[r]       — body literals currently false
///                          (positive literal with false atom, or negative
///                          literal with true atom),
/// and per atom:
///   active_count_[a]     — rules with head a whose body is not yet false.
///
/// Counters are updated eagerly in Assign/UndoTo; consequences are derived
/// when an atom is popped from the flat propagation FIFO.
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

  /// A normalized (non-disjunctive) rule: `head :- pos, not neg.` with
  /// head == kNoHead encoding an integrity constraint. The body lists
  /// keep up to four ids inline, as GroundRule's do.
  struct CoreRule {
    static constexpr int32_t kNoHead = -1;
    int32_t head = kNoHead;
    IdList pos;
    IdList neg;
  };

  static constexpr uint32_t kNoRuleIndex = static_cast<uint32_t>(-1);

  // -------------------------------------------------------------------
  // Static storage front-end (cold solver).

  /// Ingests a complete normalized program in one pass: pre-counts the
  /// per-atom occurrence degrees so each list is allocated exactly once
  /// instead of growing by repeated push_back reallocation.
  void BuildFromRules(std::vector<CoreRule> rules, size_t num_atoms) {
    Reset();
    EnsureAtomCapacity(num_atoms);
    rules_ = std::move(rules);
    body_unassigned_.resize(rules_.size(), 0);
    body_false_.resize(rules_.size(), 0);
    support_missing_.resize(rules_.size(), 0);

    std::vector<uint32_t> occ_degree(num_atoms, 0);
    std::vector<uint32_t> pos_degree(num_atoms, 0);
    std::vector<uint32_t> head_degree(num_atoms, 0);
    for (const CoreRule& rule : rules_) {
      for (GroundAtomId a : rule.pos) {
        ++occ_degree[a];
        ++pos_degree[a];
      }
      for (GroundAtomId a : rule.neg) ++occ_degree[a];
      if (rule.head != CoreRule::kNoHead) ++head_degree[rule.head];
    }
    for (GroundAtomId a = 0; a < num_atoms_; ++a) {
      occurrences_[a].reserve(occ_degree[a]);
      pos_occurrences_[a].reserve(pos_degree[a]);
      head_rules_[a].reserve(head_degree[a]);
    }

    for (uint32_t r = 0; r < rules_.size(); ++r) {
      const CoreRule& rule = rules_[r];
      body_unassigned_[r] =
          static_cast<uint32_t>(rule.pos.size() + rule.neg.size());
      for (GroundAtomId a : rule.pos) {
        occurrences_[a].push_back(Occurrence{r, true});
        pos_occurrences_[a].push_back(r);
      }
      for (GroundAtomId a : rule.neg) {
        occurrences_[a].push_back(Occurrence{r, false});
      }
      if (rule.head != CoreRule::kNoHead) {
        head_rules_[rule.head].push_back(r);
        ++active_count_[rule.head];
      } else {
        ++constraint_rules_;
      }
      if (!rule.neg.empty()) ++negative_body_rules_;
    }
  }

  // -------------------------------------------------------------------
  // Patched arena front-end (incremental solver).

  void Reset() {
    num_atoms_ = 0;
    negative_body_rules_ = 0;
    constraint_rules_ = 0;
    rules_.clear();
    value_.clear();
    occurrences_.clear();
    pos_occurrences_.clear();
    head_rules_.clear();
    active_count_.clear();
    body_unassigned_.clear();
    body_false_.clear();
    trail_.clear();
    queue_.clear();
    queue_head_ = 0;
    maintained_valid_ = false;
    derived_.clear();
    justifier_.clear();
    support_missing_.clear();
    support_count_.clear();
    retract_seeds_.clear();
    insert_seeds_.clear();
    list_dirty_.clear();
    dirty_atoms_.clear();
    fate_.clear();
    origin_at_.clear();
    moved_.clear();
    removed_origins_.clear();
  }

  void EnsureAtomCapacity(size_t num_atoms) {
    if (num_atoms <= num_atoms_) return;
    value_.resize(num_atoms, Val::kUnknown);
    occurrences_.resize(num_atoms);
    pos_occurrences_.resize(num_atoms);
    head_rules_.resize(num_atoms);
    active_count_.resize(num_atoms, 0);
    derived_.resize(num_atoms, 0);
    justifier_.resize(num_atoms, kNoRuleIndex);
    support_count_.resize(num_atoms, 0);
    list_dirty_.resize(num_atoms, 0);
    num_atoms_ = num_atoms;
    // Every atom enters the trail (and therefore the propagation queue)
    // at most once per assignment stack, so one num_atoms_-sized block
    // each removes all growth reallocations during search.
    trail_.reserve(num_atoms);
    queue_.reserve(num_atoms);
  }

  /// Hooks one rule into the watch structures; returns its index. The
  /// rule's atoms must be < num_atoms() (grow with EnsureAtomCapacity
  /// first).
  uint32_t AddRule(CoreRule rule) {
    FlushRemovals();
    const uint32_t r = static_cast<uint32_t>(rules_.size());
    for (GroundAtomId a : rule.pos) {
      occurrences_[a].push_back(Occurrence{r, true});
      pos_occurrences_[a].push_back(r);
    }
    for (GroundAtomId a : rule.neg) {
      occurrences_[a].push_back(Occurrence{r, false});
    }
    if (rule.head != CoreRule::kNoHead) {
      head_rules_[rule.head].push_back(r);
      ++active_count_[rule.head];
    } else {
      ++constraint_rules_;
    }
    if (!rule.neg.empty()) ++negative_body_rules_;
    body_unassigned_.push_back(
        static_cast<uint32_t>(rule.pos.size() + rule.neg.size()));
    body_false_.push_back(0);

    // Maintained-fixpoint bookkeeping. A rule outside the definite
    // fragment invalidates the maintained model; a definite rule updates
    // the support counters and (when already firing) seeds the forward
    // pass. support_missing_ stays index-aligned with rules_ even while
    // invalid so swap-compaction needs no special cases.
    uint32_t missing = 0;
    if (maintained_valid_) {
      if (rule.head == CoreRule::kNoHead || !rule.neg.empty()) {
        InvalidateMaintained();
      } else {
        for (GroundAtomId a : rule.pos) {
          if (!derived_[a]) ++missing;
        }
        if (missing == 0) {
          ++support_count_[rule.head];
          insert_seeds_.push_back(static_cast<GroundAtomId>(rule.head));
        }
      }
    }
    support_missing_.push_back(missing);

    rules_.push_back(std::move(rule));
    return r;
  }

  /// Unhooks rule `index` and swap-compacts the last rule into its slot
  /// (the caller mirrors the same move on any parallel per-rule arrays it
  /// keeps). The per-rule arrays, counters and justifiers change at once;
  /// the occurrence lists are fixed up lazily, once per list for a whole
  /// run of removals (see FlushRemovals), so a removal costs the removed
  /// and the moved rule's own literals rather than a scan of every list
  /// they sit on.
  void RemoveRule(uint32_t index) {
    assert(index < rules_.size());
    if (maintained_valid_) {
      const CoreRule& rule = rules_[index];
      // Definite fragment: while maintained, every live rule has a head.
      assert(rule.head != CoreRule::kNoHead);
      if (support_missing_[index] == 0) --support_count_[rule.head];
      if (derived_[rule.head] &&
          justifier_[rule.head] == index) {
        // The rule justifying this atom is gone: seed the retraction
        // cascade (the atom may be re-justified by an alternative rule
        // during CommitMaintainedPatch).
        justifier_[rule.head] = kNoRuleIndex;
        retract_seeds_.push_back(static_cast<GroundAtomId>(rule.head));
      }
    }
    if (moved_.empty() && removed_origins_.empty()) {
      // First removal of a run: the lists are labelled with the rule
      // indices as they are now, so origins are indices at this point.
      fate_.resize(rules_.size(), kNoRuleIndex);
      origin_at_.resize(rules_.size(), kNoRuleIndex);
    }
    {
      const CoreRule& rule = rules_[index];
      const uint32_t origin = OriginAt(index);
      fate_[origin] = kRemovedRule;
      removed_origins_.push_back(origin);
      MarkListsDirty(rule);
      if (rule.head != CoreRule::kNoHead) {
        --active_count_[rule.head];
      } else {
        --constraint_rules_;
      }
      if (!rule.neg.empty()) --negative_body_rules_;
    }

    const uint32_t last = static_cast<uint32_t>(rules_.size() - 1);
    if (index != last) {
      CoreRule moved = std::move(rules_[last]);
      origin_at_[index] = OriginAt(last);
      moved_.push_back(index);
      MarkListsDirty(moved);
      if (moved.head != CoreRule::kNoHead && maintained_valid_ &&
          justifier_[moved.head] == last) {
        justifier_[moved.head] = index;
      }
      rules_[index] = std::move(moved);
      body_unassigned_[index] = body_unassigned_[last];
      body_false_[index] = body_false_[last];
      support_missing_[index] = support_missing_[last];
    }
    origin_at_[last] = kNoRuleIndex;
    rules_.pop_back();
    body_unassigned_.pop_back();
    body_false_.pop_back();
    support_missing_.pop_back();
  }

  // -------------------------------------------------------------------
  // Introspection.

  size_t num_atoms() const { return num_atoms_; }
  size_t num_rules() const { return rules_.size(); }
  const CoreRule& rule(uint32_t r) const { return rules_[r]; }
  size_t negative_body_rules() const { return negative_body_rules_; }
  size_t constraint_rules() const { return constraint_rules_; }
  /// The watch lists of `atom`, in list order: every body occurrence as
  /// (rule, in positive body), the rules with `atom` in their positive
  /// body, and the rules it heads. Completes a pending removal run first.
  std::vector<std::pair<uint32_t, bool>> BodyOccurrencesOf(GroundAtomId atom) {
    FlushRemovals();
    std::vector<std::pair<uint32_t, bool>> out;
    for (const Occurrence& occ : occurrences_[atom]) {
      out.emplace_back(occ.rule, occ.in_positive_body);
    }
    return out;
  }
  const std::vector<uint32_t>& PositiveOccurrencesOf(GroundAtomId atom) {
    FlushRemovals();
    return pos_occurrences_[atom];
  }
  const std::vector<uint32_t>& HeadRulesOf(GroundAtomId atom) {
    FlushRemovals();
    return head_rules_[atom];
  }
  /// True when the live rule set has no negative literals and no
  /// constraints — the fragment with exactly one stable model (its least
  /// model), which both the definite fast path and the maintained
  /// fixpoint rely on.
  bool definite() const {
    return negative_body_rules_ == 0 && constraint_rules_ == 0;
  }

  // -------------------------------------------------------------------
  // Enumeration (shared seeds / expand / search / unwind).

  /// Enumerates stable-model candidates into `*models` (appended). The
  /// client filters candidates (AcceptModel) and orders branch signs
  /// (FirstSign). Always unwinds to the rest state — all atoms unknown,
  /// counters at their static values — so a persistent core is ready for
  /// the next patch and a throwaway one loses nothing.
  template <typename Client>
  Status Enumerate(const SolverOptions& options, Client& client,
                   std::vector<AnswerSet>* models) {
    FlushRemovals();
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

  /// Fills supported() with the well-founded supported closure under the
  /// current assignment (rules with a false body do not support). At rest
  /// this is the least-model closure of the live rules.
  void ComputeSupportClosure() {
    FlushRemovals();
    supported_.assign(num_atoms_, 0);
    unsupported_pos_.assign(rules_.size(), 0);
    ready_.clear();
    size_t ready_head = 0;

    auto mark_supported = [&](GroundAtomId a) {
      if (!supported_[a]) {
        supported_[a] = 1;
        ready_.push_back(a);
      }
    };

    for (uint32_t r = 0; r < rules_.size(); ++r) {
      if (body_false_[r] != 0 || rules_[r].head == CoreRule::kNoHead) {
        continue;
      }
      unsupported_pos_[r] = static_cast<uint32_t>(rules_[r].pos.size());
      if (unsupported_pos_[r] == 0) {
        mark_supported(static_cast<GroundAtomId>(rules_[r].head));
      }
    }
    while (ready_head < ready_.size()) {
      const GroundAtomId a = ready_[ready_head++];
      for (uint32_t r : pos_occurrences_[a]) {
        if (body_false_[r] != 0 || rules_[r].head == CoreRule::kNoHead) {
          continue;
        }
        if (--unsupported_pos_[r] == 0) {
          mark_supported(static_cast<GroundAtomId>(rules_[r].head));
        }
      }
    }
  }

  const std::vector<uint8_t>& supported() const { return supported_; }

  /// Exact stable-model test over the live (non-disjunctive) rule set,
  /// equivalent to IsStableModel on the assembled program: the model must
  /// satisfy every rule and equal the least model of the reduct. Uses the
  /// persistent pos_occurrences_ lists and flat scratch, so it allocates
  /// nothing after warm-up. `model` must be sorted.
  bool VerifyStable(const std::vector<GroundAtomId>& model) {
    FlushRemovals();
    in_model_.assign(num_atoms_, 0);
    for (GroundAtomId a : model) in_model_[a] = 1;
    reduct_enabled_.assign(rules_.size(), 0);

    // 1. The model must satisfy every rule; remember reduct membership.
    for (uint32_t r = 0; r < rules_.size(); ++r) {
      const CoreRule& rule = rules_[r];
      bool neg_blocked = false;
      for (GroundAtomId a : rule.neg) {
        if (in_model_[a]) {
          neg_blocked = true;
          break;
        }
      }
      if (neg_blocked) continue;
      reduct_enabled_[r] = 1;
      bool pos_holds = true;
      for (GroundAtomId a : rule.pos) {
        if (!in_model_[a]) {
          pos_holds = false;
          break;
        }
      }
      if (pos_holds) {
        if (rule.head == CoreRule::kNoHead || !in_model_[rule.head]) {
          return false;
        }
      }
    }

    // 2. The model must equal the least model of the reduct.
    least_true_.assign(num_atoms_, 0);
    least_missing_.assign(rules_.size(), 0);
    least_queue_.clear();
    size_t queue_head = 0;
    auto derive = [&](GroundAtomId a) {
      if (!least_true_[a]) {
        least_true_[a] = 1;
        least_queue_.push_back(a);
      }
    };
    for (uint32_t r = 0; r < rules_.size(); ++r) {
      if (!reduct_enabled_[r] || rules_[r].head == CoreRule::kNoHead) {
        continue;
      }
      least_missing_[r] = static_cast<uint32_t>(rules_[r].pos.size());
      if (least_missing_[r] == 0) {
        derive(static_cast<GroundAtomId>(rules_[r].head));
      }
    }
    while (queue_head < least_queue_.size()) {
      const GroundAtomId a = least_queue_[queue_head++];
      for (uint32_t r : pos_occurrences_[a]) {
        if (!reduct_enabled_[r] || rules_[r].head == CoreRule::kNoHead) {
          continue;
        }
        if (--least_missing_[r] == 0) {
          derive(static_cast<GroundAtomId>(rules_[r].head));
        }
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
  // model — its least model — as persistent state alongside the watch
  // structures:
  //   derived_[a]          — a is in the maintained model,
  //   justifier_[a]        — ONE rule currently justifying a. Because a
  //                          justifier is always recorded at the moment
  //                          its body first became fully derived, the
  //                          justifier edges form an acyclic forest over
  //                          the derived atoms,
  //   support_missing_[r]  — positive body occurrences of r not derived
  //                          (duplicates count per occurrence),
  //   support_count_[a]    — rules with head a and support_missing_ == 0.
  //
  // AddRule/RemoveRule fold each patch into seed lists; one
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
    FlushRemovals();
    derived_.assign(num_atoms_, 0);
    justifier_.assign(num_atoms_, kNoRuleIndex);
    support_count_.assign(num_atoms_, 0);
    retract_seeds_.clear();
    insert_seeds_.clear();
    work_.clear();
    size_t head = 0;
    for (uint32_t r = 0; r < rules_.size(); ++r) {
      assert(rules_[r].head != CoreRule::kNoHead);
      support_missing_[r] = static_cast<uint32_t>(rules_[r].pos.size());
      if (support_missing_[r] == 0) {
        const GroundAtomId h = static_cast<GroundAtomId>(rules_[r].head);
        ++support_count_[h];
        if (!derived_[h]) {
          derived_[h] = 1;
          justifier_[h] = r;
          work_.push_back(h);
        }
      }
    }
    while (head < work_.size()) {
      const GroundAtomId a = work_[head++];
      for (uint32_t r : pos_occurrences_[a]) {
        if (--support_missing_[r] == 0) {
          const GroundAtomId h = static_cast<GroundAtomId>(rules_[r].head);
          ++support_count_[h];
          if (!derived_[h]) {
            derived_[h] = 1;
            justifier_[h] = r;
            work_.push_back(h);
          }
        }
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
    FlushRemovals();
    size_t touched = 0;

    // Phase 1: retraction cascade. An atom leaves the model exactly when
    // its recorded justifier broke (was removed, or lost a derived
    // positive premise). support_missing_/support_count_ are updated at
    // each occurrence so phase 2 sees exact counts.
    work_.clear();
    size_t head = 0;
    for (GroundAtomId a : retract_seeds_) {
      if (derived_[a] && justifier_[a] == kNoRuleIndex) {
        derived_[a] = 0;
        work_.push_back(a);
      }
    }
    retract_seeds_.clear();
    while (head < work_.size()) {
      const GroundAtomId a = work_[head++];
      ++touched;
      for (uint32_t r : pos_occurrences_[a]) {
        if (support_missing_[r]++ == 0) {
          const GroundAtomId h = static_cast<GroundAtomId>(rules_[r].head);
          --support_count_[h];
          if (derived_[h] && justifier_[h] == r) {
            justifier_[h] = kNoRuleIndex;
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
      for (uint32_t r : head_rules_[a]) {
        if (support_missing_[r] == 0) {
          justifier_[a] = r;
          break;
        }
      }
      assert(justifier_[a] != kNoRuleIndex);
      derived_[a] = 1;
      rederive_.push_back(a);
    };
    for (size_t i = 0; i < deleted_end; ++i) consider(work_[i]);
    for (GroundAtomId a : insert_seeds_) consider(a);
    insert_seeds_.clear();
    while (rhead < rederive_.size()) {
      const GroundAtomId a = rederive_[rhead++];
      ++touched;
      for (uint32_t r : pos_occurrences_[a]) {
        if (--support_missing_[r] == 0) {
          const GroundAtomId h = static_cast<GroundAtomId>(rules_[r].head);
          ++support_count_[h];
          if (!derived_[h]) {
            derived_[h] = 1;
            justifier_[h] = r;
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
  struct Occurrence {
    uint32_t rule;
    bool in_positive_body;
  };

  static constexpr uint32_t kRemovedRule = kNoRuleIndex - 1;
  /// list_dirty_ bits: which of an atom's lists a removal run touched.
  static constexpr uint8_t kBodyListsDirty = 1;  ///< occurrences_, pos_...
  static constexpr uint8_t kHeadListDirty = 2;   ///< head_rules_

  /// The index rule `index` had when the current removal run began.
  uint32_t OriginAt(uint32_t index) const {
    return origin_at_[index] == kNoRuleIndex ? index : origin_at_[index];
  }

  void MarkListDirty(GroundAtomId atom, uint8_t bits) {
    if (list_dirty_[atom] == 0) dirty_atoms_.push_back(atom);
    list_dirty_[atom] |= bits;
  }
  void MarkListsDirty(const CoreRule& rule) {
    for (GroundAtomId a : rule.pos) MarkListDirty(a, kBodyListsDirty);
    for (GroundAtomId a : rule.neg) MarkListDirty(a, kBodyListsDirty);
    if (rule.head != CoreRule::kNoHead) {
      MarkListDirty(static_cast<GroundAtomId>(rule.head), kHeadListDirty);
    }
  }

  /// Relabels one list after a removal run: entries of removed rules go,
  /// entries of moved rules take their final index, and the survivors
  /// keep their relative order. Removing the rules one at a time (erase
  /// every entry of the removed rule, relabel the moved one's in place)
  /// leaves exactly this list, because neither step reorders survivors.
  template <typename Entry, typename RuleOf>
  void ApplyFates(std::vector<Entry>* list, RuleOf rule_of) const {
    size_t w = 0;
    for (size_t i = 0; i < list->size(); ++i) {
      Entry entry = (*list)[i];
      const uint32_t fate = fate_[rule_of(entry)];
      if (fate == kRemovedRule) continue;
      if (fate != kNoRuleIndex) rule_of(entry) = fate;
      (*list)[w++] = entry;
    }
    list->resize(w);
  }

  /// Completes a run of RemoveRule calls: one stable pass over every list
  /// the run touched. Until then the lists are labelled with the indices
  /// rules had when the run began (fate_ maps them to their final index,
  /// or marks them removed), so everything that reads a list — AddRule,
  /// enumeration, the closure and verification passes, the maintained
  /// fixpoint — flushes first.
  void FlushRemovals() {
    if (moved_.empty() && removed_origins_.empty()) return;
    for (uint32_t index : moved_) {
      if (index < rules_.size() && origin_at_[index] != kNoRuleIndex) {
        fate_[origin_at_[index]] = index;
      }
    }
    auto occurrence_rule = [](Occurrence& occ) -> uint32_t& {
      return occ.rule;
    };
    auto plain_rule = [](uint32_t& r) -> uint32_t& { return r; };
    for (GroundAtomId a : dirty_atoms_) {
      if (list_dirty_[a] & kBodyListsDirty) {
        ApplyFates(&occurrences_[a], occurrence_rule);
        ApplyFates(&pos_occurrences_[a], plain_rule);
      }
      if (list_dirty_[a] & kHeadListDirty) {
        ApplyFates(&head_rules_[a], plain_rule);
      }
      list_dirty_[a] = 0;
    }
    dirty_atoms_.clear();
    for (uint32_t origin : removed_origins_) fate_[origin] = kNoRuleIndex;
    for (uint32_t index : moved_) {
      if (index < origin_at_.size() && origin_at_[index] != kNoRuleIndex) {
        fate_[origin_at_[index]] = kNoRuleIndex;
        origin_at_[index] = kNoRuleIndex;
      }
    }
    removed_origins_.clear();
    moved_.clear();
  }

  // --- assignment and trail ------------------------------------------

  bool Assign(GroundAtomId atom, Val v) {
    assert(v != Val::kUnknown);
    if (value_[atom] != Val::kUnknown) return value_[atom] == v;
    value_[atom] = v;
    trail_.push_back(atom);
    for (const Occurrence& occ : occurrences_[atom]) {
      --body_unassigned_[occ.rule];
      const bool literal_false =
          occ.in_positive_body ? (v == Val::kFalse) : (v == Val::kTrue);
      if (literal_false) {
        if (++body_false_[occ.rule] == 1) {
          const int32_t h = rules_[occ.rule].head;
          if (h != CoreRule::kNoHead) --active_count_[h];
        }
      }
    }
    queue_.push_back(atom);
    return true;
  }

  void UndoTo(size_t mark) {
    while (trail_.size() > mark) {
      const GroundAtomId atom = trail_.back();
      trail_.pop_back();
      const Val v = value_[atom];
      for (const Occurrence& occ : occurrences_[atom]) {
        ++body_unassigned_[occ.rule];
        const bool literal_false =
            occ.in_positive_body ? (v == Val::kFalse) : (v == Val::kTrue);
        if (literal_false) {
          if (body_false_[occ.rule]-- == 1) {
            const int32_t h = rules_[occ.rule].head;
            if (h != CoreRule::kNoHead) ++active_count_[h];
          }
        }
      }
      value_[atom] = Val::kUnknown;
    }
    queue_.clear();
    queue_head_ = 0;
  }

  // --- propagation ("atleast") ---------------------------------------

  /// Forces every body literal of `r` true. Returns false on conflict.
  bool ForceBodyTrue(uint32_t r) {
    for (GroundAtomId a : rules_[r].pos) {
      if (!Assign(a, Val::kTrue)) return false;
    }
    for (GroundAtomId a : rules_[r].neg) {
      if (!Assign(a, Val::kFalse)) return false;
    }
    return true;
  }

  /// Falsifies the single unassigned body literal of `r`. Returns false
  /// on conflict.
  bool FalsifyLastLiteral(uint32_t r) {
    for (GroundAtomId a : rules_[r].pos) {
      if (value_[a] == Val::kUnknown) return Assign(a, Val::kFalse);
    }
    for (GroundAtomId a : rules_[r].neg) {
      if (value_[a] == Val::kUnknown) return Assign(a, Val::kTrue);
    }
    assert(false && "no unassigned literal to falsify");
    return true;
  }

  /// The unique rule with head `h` whose body is not false. Requires
  /// active_count_[h] == 1.
  uint32_t SingleActiveRule(GroundAtomId h) const {
    for (uint32_t r : head_rules_[h]) {
      if (body_false_[r] == 0) return r;
    }
    assert(false && "active_count out of sync");
    return 0;
  }

  /// Derives consequences of a rule's current state. Returns false on
  /// conflict.
  bool ExamineRule(uint32_t r) {
    const CoreRule& rule = rules_[r];
    if (body_false_[r] == 0) {
      if (body_unassigned_[r] == 0) {
        // Body fully true: fire.
        if (rule.head == CoreRule::kNoHead) return false;
        if (!Assign(static_cast<GroundAtomId>(rule.head), Val::kTrue)) {
          return false;
        }
      } else if (body_unassigned_[r] == 1) {
        const bool head_false =
            rule.head == CoreRule::kNoHead ||
            value_[rule.head] == Val::kFalse;
        if (head_false && !FalsifyLastLiteral(r)) return false;
      }
      // Head true with this as the single active rule: body must hold.
      if (rule.head != CoreRule::kNoHead &&
          value_[rule.head] == Val::kTrue &&
          active_count_[rule.head] == 1 && !ForceBodyTrue(r)) {
        return false;
      }
    } else {
      // Rule deactivated: its head may have lost support.
      const int32_t h = rule.head;
      if (h != CoreRule::kNoHead) {
        if (active_count_[h] == 0) {
          if (!Assign(static_cast<GroundAtomId>(h), Val::kFalse)) {
            return false;
          }
        } else if (active_count_[h] == 1 && value_[h] == Val::kTrue) {
          if (!ForceBodyTrue(SingleActiveRule(h))) return false;
        }
      }
    }
    return true;
  }

  bool Propagate() {
    while (queue_head_ < queue_.size()) {
      const GroundAtomId atom = queue_[queue_head_++];
      const Val v = value_[atom];
      for (const Occurrence& occ : occurrences_[atom]) {
        if (!ExamineRule(occ.rule)) return false;
      }
      if (v == Val::kFalse) {
        for (uint32_t r : head_rules_[atom]) {
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
    for (uint32_t r = 0; r < rules_.size(); ++r) {
      if (body_unassigned_[r] == 0 && body_false_[r] == 0) {
        if (rules_[r].head == CoreRule::kNoHead) return false;
        if (!Assign(static_cast<GroundAtomId>(rules_[r].head), Val::kTrue)) {
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

  size_t num_atoms_ = 0;
  std::vector<CoreRule> rules_;

  /// Live rules with a non-empty negative body / that are constraints;
  /// both zero ⇔ the live rule set is a definite program.
  size_t negative_body_rules_ = 0;
  size_t constraint_rules_ = 0;

  std::vector<Val> value_;
  std::vector<std::vector<Occurrence>> occurrences_;
  std::vector<std::vector<uint32_t>> pos_occurrences_;
  std::vector<std::vector<uint32_t>> head_rules_;
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

  // Maintained fixpoint (see the section comment above).
  bool maintained_valid_ = false;
  std::vector<uint8_t> derived_;
  std::vector<uint32_t> justifier_;
  std::vector<uint32_t> support_missing_;
  std::vector<uint32_t> support_count_;
  std::vector<GroundAtomId> retract_seeds_;
  std::vector<GroundAtomId> insert_seeds_;
  std::vector<GroundAtomId> work_;
  std::vector<GroundAtomId> rederive_;

  // Removal run awaiting FlushRemovals (see there). Origins are the
  // indices rules had when the run began.
  std::vector<uint32_t> fate_;       ///< Origin -> final index / removed.
  std::vector<uint32_t> origin_at_;  ///< Index -> origin of a moved rule.
  std::vector<uint32_t> moved_;      ///< Indices a moved rule landed on.
  std::vector<uint32_t> removed_origins_;
  std::vector<uint8_t> list_dirty_;  ///< Per atom: k*Dirty bits.
  std::vector<GroundAtomId> dirty_atoms_;

  const SolverOptions* options_ = nullptr;
  std::vector<AnswerSet>* models_ = nullptr;
  size_t decisions_ = 0;
};

}  // namespace streamasp

#endif  // STREAMASP_SOLVE_PROPAGATION_CORE_H_
