#ifndef STREAMASP_GROUND_RULE_STORE_H_
#define STREAMASP_GROUND_RULE_STORE_H_

#include <cstdint>
#include <vector>

#include "ground/ground_program.h"
#include "util/status.h"

namespace streamasp {

/// A ground program kept hookable: the rules in dense slots plus, per
/// atom, three watch lists of slots:
///   positive(a) — one entry per occurrence of `a` in a positive body
///                 (a body naming `a` twice owns two entries),
///   negative(a) — one entry per occurrence of `a` in a negative body,
///   heads(a)    — one entry per rule with `a` in its head.
///
/// Every entry is removable in O(1): each rule keeps a back position per
/// literal (its positive body, then its negative body, then its head),
/// the entry's index in the list it sits on. Kill swap-removes a rule's
/// entries (the list's last entry fills the hole, and its owner's back
/// position follows it); Compact then swap-compacts the killed slots out
/// of the dense rule array, highest first, relabelling each moved rule's
/// entries in place. The list order is therefore the order swap-removes
/// leave, not insertion order.
///
/// The one store serves both solver shapes: IncrementalGrounder owns a
/// persistent one (patched window by window, read in place by
/// IncrementalSolver), and Solver::Solve fills a throwaway one with Build.
class RuleStore {
 public:
  /// The per-atom watch lists.
  struct AtomLists {
    std::vector<uint32_t> positive;
    std::vector<uint32_t> negative;
    std::vector<uint32_t> heads;
  };

  size_t size() const { return rules_.size(); }
  size_t num_atoms() const { return lists_.size(); }
  const GroundRule& rule(uint32_t slot) const { return rules_[slot]; }
  const AtomLists& lists(GroundAtomId atom) const { return lists_[atom]; }
  const std::vector<uint32_t>& positive(GroundAtomId atom) const {
    return lists_[atom].positive;
  }
  const std::vector<uint32_t>& heads(GroundAtomId atom) const {
    return lists_[atom].heads;
  }
  /// Live rules that are integrity constraints / have a non-empty negative
  /// body / have more than one head atom.
  size_t constraint_rules() const { return constraint_rules_; }
  size_t negative_body_rules() const { return negative_body_rules_; }
  size_t disjunctive_rules() const { return disjunctive_rules_; }

  /// Drops every rule and every atom.
  void Clear();

  /// Grows the per-atom lists to `num_atoms` atoms.
  void EnsureAtoms(size_t num_atoms);

  /// Replaces the contents with `rules` over `num_atoms` atoms in one
  /// pass, pre-counting each list's length so every list is allocated
  /// exactly once.
  void Build(std::vector<GroundRule> rules, size_t num_atoms);

  /// Appends `rule` (its atoms must be < num_atoms()) at slot size() and
  /// hooks it into the lists.
  void Add(GroundRule rule);

  /// Unhooks the rule at `slot` from every list. The slot keeps its rule
  /// (dead) until the next Compact.
  void Kill(uint32_t slot);

  /// Swap-compacts every killed slot out of the rule array, highest slot
  /// first, appending each step — the slot and the head its rule had —
  /// to `*replay` in that order. A consumer keeping per-slot arrays
  /// applies the same steps ("move the last slot into the hole, if
  /// distinct, then shrink by one") to stay aligned with the store.
  void Compact(std::vector<RetractedSlot>* replay);

  /// Whole-store check: every back position points at its own entry, no
  /// two at the same one, and every entry is pointed at — so each atom's
  /// three lists equal, as multisets, the lists rebuilt from the live
  /// rules; the counters match; no slot awaits compaction. O(program),
  /// allocation-free once its scratch has grown; for tests and Debug
  /// builds.
  Status CheckConsistency() const;

 private:
  /// Calls `f(list, k)` for each of `rule`'s entries on `lists` (the
  /// store's, or a rebuilt copy) in back-position order: positive body,
  /// negative body, head.
  template <typename Lists, typename F>
  static void ForEachEntry(Lists& lists, const GroundRule& rule, F f);
  /// Appends slot's entries to the lists, recording the back positions.
  void Hook(uint32_t slot);
  enum ListKind { kPositive, kNegative, kHead };
  /// Swap-removes the entry at `hole` of `list`, atom's list of `kind`.
  void Unlink(std::vector<uint32_t>* list, uint32_t hole, GroundAtomId atom,
              ListKind kind);
  /// Steps the counters `rule` falls under up (`add`) or down.
  void Count(const GroundRule& rule, bool add);

  std::vector<GroundRule> rules_;
  /// Per slot: the back positions, in ForEachEntry order.
  std::vector<IdList> back_;
  std::vector<uint8_t> alive_;
  std::vector<AtomLists> lists_;
  std::vector<uint32_t> dead_;  ///< Killed slots awaiting Compact.
  size_t constraint_rules_ = 0;
  size_t negative_body_rules_ = 0;
  size_t disjunctive_rules_ = 0;
  /// CheckConsistency scratch: list start offsets on one flat line and
  /// the positions visited.
  mutable std::vector<size_t> check_offset_;
  mutable std::vector<uint8_t> check_seen_;
};

}  // namespace streamasp

#endif  // STREAMASP_GROUND_RULE_STORE_H_
