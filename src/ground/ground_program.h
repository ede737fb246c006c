#ifndef STREAMASP_GROUND_GROUND_PROGRAM_H_
#define STREAMASP_GROUND_GROUND_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "asp/atom.h"
#include "asp/packed_term.h"
#include "asp/symbol_table.h"
#include "ground/id_list.h"

namespace streamasp {

/// Sentinel for "no atom".
inline constexpr GroundAtomId kInvalidGroundAtom =
    static_cast<GroundAtomId>(-1);

/// Bidirectional map between ground atoms and dense ids, used to give the
/// solver an integer-indexed view of the ground program. The table is a
/// packed columnar store: a predicate column plus one tagged 64-bit word
/// per argument slot (see PackedTerm), found through a flat
/// open-addressing index of ids that hashes and compares packed words.
/// Interning a new atom appends to the columns and claims an index slot;
/// no per-atom node, key copy or Term vector is allocated. The grounder's
/// match loops and join indexes read candidate arguments slot-wise from
/// the same columns. Ids are dense and follow first-interning order.
class AtomTable {
 public:
  AtomTable() = default;

  AtomTable(const AtomTable&) = default;
  AtomTable& operator=(const AtomTable&) = default;
  AtomTable(AtomTable&&) noexcept = default;
  AtomTable& operator=(AtomTable&&) noexcept = default;

  /// Returns the id of predicate(args[0..arity)), interning on first use
  /// (one hash and one probe sequence on both the hit and the miss path).
  GroundAtomId Intern(SymbolId predicate, const PackedTerm* args,
                      uint32_t arity);
  /// As above for an Atom, whose arguments are packed first.
  GroundAtomId Intern(const Atom& atom);

  /// Returns the id of the atom or kInvalidGroundAtom if never interned.
  GroundAtomId Lookup(SymbolId predicate, const PackedTerm* args,
                      uint32_t arity) const;
  GroundAtomId Lookup(const Atom& atom) const;

  /// The atom for an id, unpacked from the columns. Requires a valid id.
  Atom GetAtom(GroundAtomId id) const;

  /// The name/arity signature of an id. Requires a valid id.
  PredicateSignature Signature(GroundAtomId id) const {
    return PredicateSignature{predicates_[id], PackedArity(id)};
  }

  /// The packed argument words of an id, PackedArity(id) slots. Requires
  /// a valid id; the pointer is invalidated by the next Intern.
  const PackedTerm* PackedArgs(GroundAtomId id) const {
    return packed_args_.data() + arg_offsets_[id];
  }
  uint32_t PackedArity(GroundAtomId id) const {
    return arg_offsets_[id + 1] - arg_offsets_[id];
  }

  /// Pre-sizes the table for `atoms` entries (e.g. the previous window's
  /// atom count in the incremental engines).
  void Reserve(size_t atoms);

  /// Retained bytes: the columns and the index, by capacity.
  size_t ApproxBytes() const;

  size_t size() const { return predicates_.size(); }

 private:
  /// One index slot: an id and the low half of its atom's hash, which
  /// rejects most mismatches without touching the columns.
  struct Slot {
    GroundAtomId id;
    uint32_t hash;
  };

  static uint64_t Hash(SymbolId predicate, const PackedTerm* args,
                       uint32_t arity);
  bool Equals(GroundAtomId id, SymbolId predicate, const PackedTerm* args,
              uint32_t arity) const;
  /// The slot holding the atom, or the empty slot where it would go.
  size_t Probe(uint64_t hash, SymbolId predicate, const PackedTerm* args,
               uint32_t arity) const;
  /// Rebuilds the index with `slots` slots (a power of two).
  void Rehash(size_t slots);

  std::vector<SymbolId> predicates_;
  /// Atom id's argument slots are packed_args_[arg_offsets_[id] ..
  /// arg_offsets_[id + 1]).
  std::vector<uint32_t> arg_offsets_{0};
  std::vector<PackedTerm> packed_args_;
  /// Open addressing with linear probing, at most half full; an empty
  /// slot holds kInvalidGroundAtom.
  std::vector<Slot> slots_;
};

/// A variable-free rule over dense atom ids:
///
///   head[0] | ... | head[h-1]
///     :- positive_body..., not negative_body... .
///
/// head.empty() encodes an integrity constraint.
///
/// The three id lists keep up to four ids inline (IdList), so a rule
/// costs no heap allocation unless a list is longer.
struct GroundRule {
  IdList head;
  IdList positive_body;
  IdList negative_body;

  bool is_fact() const {
    return head.size() == 1 && positive_body.empty() &&
           negative_body.empty();
  }
  bool is_constraint() const { return head.empty(); }

  friend bool operator==(const GroundRule& a, const GroundRule& b) {
    return a.head == b.head && a.positive_body == b.positive_body &&
           a.negative_body == b.negative_body;
  }
};

/// One step of a rule store's swap-compaction (see RuleStore::Compact):
/// the killed slot and the head its rule had (kInvalidGroundAtom for a
/// constraint). The head is published because the rule is gone by the
/// time a consumer replays the step.
struct RetractedSlot {
  uint32_t slot = 0;
  GroundAtomId head = kInvalidGroundAtom;
};

/// The window-to-window change of IncrementalGrounder's rule store, as
/// published after every GroundWindow call and consumed by
/// IncrementalSolver to keep its per-slot solve state aligned with the
/// store it reads in place. Atom ids are stable across the windows a
/// delta spans: the producing grounder interns atoms into one persistent
/// AtomTable, so per-atom solve state survives (only a full_rebuild
/// resets it).
///
/// The store is dense and kept compact by swap-compaction, so the delta
/// is an exact replay recipe rather than a set of rule identities:
///   1. `retracted_slots` lists the killed slots in descending order —
///      the order the store compacted them. A consumer replays each step
///      as "move the last slot into the hole (if distinct), then shrink
///      by one", which keeps its per-slot arrays aligned with the store.
///   2. slots [new_rules_begin, store size) were appended this window.
/// Window facts are ordinary store rules (one fact rule per distinct
/// window-fact atom), so their admission and expiry are part of 1 and 2.
struct GroundingDelta {
  /// The cache was rebuilt from scratch (first window, oversized delta,
  /// compaction, prior error): slot numbering and atom ids both restart,
  /// so consumers must drop their per-slot and per-atom state.
  bool full_rebuild = true;

  /// The producer recovered this window by snapshot diff because the
  /// caller's delta hint could not be applied (chain gap after a
  /// kDropOldest eviction, or an inconsistent hint). The replay recipe is
  /// exact — slot numbering and atom ids are unaffected — but consumers
  /// that maintain state keyed on the *continuity* of the hint chain
  /// (e.g. IncrementalSolver's maintained fixpoint) reset it deliberately
  /// instead of relying on downstream desync detection. Always false on a
  /// full_rebuild and for hint-less callers (who diff every window by
  /// design).
  bool resynced = false;

  /// Sequence number of the window this delta produced.
  uint64_t sequence = 0;

  /// Sequence number of the cached window this delta transitions FROM
  /// (meaningful iff !full_rebuild). Lets a consumer verify the
  /// exactly-once-in-order application chain even when the rule delta
  /// happens to be empty.
  uint64_t previous_sequence = 0;

  /// Store size before retraction, for consumer-side sync validation.
  size_t store_size_before = 0;

  /// Killed store slots in descending (compaction-replay) order.
  std::vector<RetractedSlot> retracted_slots;

  /// First store slot of this window's new rules.
  size_t new_rules_begin = 0;
};

/// The output of grounding: a propositional (variable-free) program, its
/// atom table, and bookkeeping used by the solver and by tests.
class GroundProgram {
 public:
  GroundProgram() = default;

  GroundProgram(AtomTable atoms, std::vector<GroundRule> rules)
      : atoms_(std::move(atoms)), rules_(std::move(rules)) {}

  GroundProgram(const GroundProgram&) = default;
  GroundProgram& operator=(const GroundProgram&) = default;
  GroundProgram(GroundProgram&&) noexcept = default;
  GroundProgram& operator=(GroundProgram&&) noexcept = default;

  const AtomTable& atoms() const { return atoms_; }
  AtomTable& mutable_atoms() { return atoms_; }

  const std::vector<GroundRule>& rules() const { return rules_; }
  std::vector<GroundRule>& mutable_rules() { return rules_; }

  void AddRule(GroundRule rule) { rules_.push_back(std::move(rule)); }

  /// Number of interned ground atoms (ids are 0..num_atoms()-1).
  size_t num_atoms() const { return atoms_.size(); }

  /// Renders the ground program in ASP syntax, one rule per line.
  std::string ToString(const SymbolTable& symbols) const;

  /// Set by the grounder that decided every instance (see Grounder): the
  /// rules are then exactly one fact per true atom, the program's one
  /// answer set. A caller that edits the rules of a decided program must
  /// clear the mark.
  bool decided() const { return decided_; }
  void set_decided(bool decided) { decided_ = decided; }

 private:
  AtomTable atoms_;
  std::vector<GroundRule> rules_;
  bool decided_ = false;
};

}  // namespace streamasp

#endif  // STREAMASP_GROUND_GROUND_PROGRAM_H_
