#ifndef STREAMASP_GROUND_INSTANTIATE_H_
#define STREAMASP_GROUND_INSTANTIATE_H_

/// The one instantiation core of the grounding layer, and the primitives
/// it is built from: variable bindings with trail-based undo, term
/// matching/substitution, comparison resolution, the compiled-rule
/// representation, per-predicate extensions with lazy join indexes, and
/// the equivalence-preserving ground-program simplification.
///
/// InstantiationCore holds the program analysis (predicate registry, SCC
/// components, compiled rules) and the evaluation state (extensions,
/// derivable marks) and runs one evaluation discipline: per component, a
/// round-1 pass that gives every body position a turn at the delta, then
/// semi-naive rounds for in-component recursion. Its two front-ends differ
/// only in the compile-time client (the retention policy) they pass in:
///
///   * the one-shot Grounder (ground/grounder.cc) retains nothing: rules
///     go to one output vector, no per-atom bookkeeping is kept, a
///     negative literal whose predicate's component is already final is
///     resolved eagerly and, while simplifying, instances over certain
///     atoms are decided (see InstantiationCore::DecideInstances);
///   * the IncrementalGrounder (ground/incremental_grounder.cc) keeps its
///     extensions, atom table and rule store across windows, records
///     support and body references per atom for retraction, and keeps
///     every negative literal (no extension is final across windows).
///
/// A cold grounding is the incremental discipline with every admission
/// window starting at 0: everything seeded is round 1's delta.

#include <cassert>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "asp/atom.h"
#include "asp/literal.h"
#include "asp/packed_term.h"
#include "asp/program.h"
#include "asp/term.h"
#include "ground/ground_program.h"
#include "ground/grounder.h"
#include "util/status.h"

namespace streamasp {
namespace ground_internal {

/// Variable binding with trail-based undo. Rules have few variables, so a
/// linear-scanned vector beats a hash map. Each entry carries the bound
/// value twice: as a Term (for substitution) and as its packed word (so
/// the slot-wise match loop compares one 64-bit word per already-bound
/// variable instead of a deep Term comparison).
class Binding {
 public:
  struct Entry {
    SymbolId var;
    Term term;
    PackedTerm packed;
  };

  const Term* Get(SymbolId var) const {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (it->var == var) return &it->term;
    }
    return nullptr;
  }

  /// Packed value of `var`, or the none word when unbound (bound values
  /// are never none, so none doubles as the not-found sentinel).
  PackedTerm GetPacked(SymbolId var) const {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (it->var == var) return it->packed;
    }
    return PackedTerm();
  }

  void Push(SymbolId var, const Term& value) {
    entries_.push_back(Entry{var, value, PackedTerm(value)});
  }

  /// Pushes a value already in packed form (the slot-wise match path);
  /// the Term twin is materialized from the packed word.
  void Push(SymbolId var, PackedTerm value) {
    entries_.push_back(Entry{var, value.ToTerm(), value});
  }

  size_t Mark() const { return entries_.size(); }
  void RewindTo(size_t mark) { entries_.resize(mark); }

  bool IsBound(SymbolId var) const { return Get(var) != nullptr; }

 private:
  std::vector<Entry> entries_;
};

/// Unifies a (possibly variable-containing) pattern with a ground term,
/// extending `binding`. On mismatch the caller rewinds using its mark.
bool MatchTerm(const Term& pattern, const Term& ground, Binding* binding);

/// Slot-wise variant over a packed candidate argument, the grounders'
/// match-loop fast path: inline pattern kinds and already-bound variables
/// compare as single words; only compound patterns (or compound ground
/// values on the arena escape path) fall back to the recursive MatchTerm.
bool MatchPackedTerm(const Term& pattern, PackedTerm ground,
                     Binding* binding);

/// Applies `binding` to a term. Unbound variables are left in place (the
/// result is ground iff all variables are bound).
Term SubstituteTerm(const Term& term, const Binding& binding);

/// True iff the (ground) term still contains an arithmetic node, i.e. the
/// expression could not be folded to an integer: symbolic operands or
/// division/modulo by zero. Such instances are undefined and skipped,
/// matching Clingo's treatment of undefined arithmetic.
bool ContainsUnfoldedArithmetic(const Term& term);

/// Instance construction of EmitInstance, straight into packed words:
/// writes the words of `pattern` under `binding` to out[0..arity).
/// `ground_words` holds the pattern's precomputed word per argument for
/// ground, defined arguments (copied as-is) and the none word elsewhere;
/// variables read their bound packed value, and only compound arguments
/// are substituted as Terms. Returns false when an argument is undefined
/// arithmetic (see ContainsUnfoldedArithmetic): the instance is skipped.
bool SubstitutePacked(const Atom& pattern,
                      const std::vector<PackedTerm>& ground_words,
                      const Binding& binding, PackedTerm* out);

/// Lazily built hash index over one argument position of an extension,
/// keyed by the argument's packed 64-bit word (deep Term hashing only
/// happens once per distinct compound value, inside arena interning).
struct PositionIndex {
  std::unordered_map<uint64_t, std::vector<uint32_t>, PackedBitsHash> map;
  size_t indexed_until = 0;  // Extension prefix already indexed.
};

/// All derived ("possible") ground atoms of one predicate, in derivation
/// order, plus semi-naive window bounds and join indexes. Entries may be
/// tombstoned (kInvalidGroundAtom) by the incremental client when an atom
/// is retracted; scans and index buckets skip tombstones.
struct PredicateExtension {
  std::vector<GroundAtomId> atoms;
  // Semi-naive bounds, only meaningful while this predicate's component is
  // being instantiated:
  //   old   = [0, delta_begin)
  //   delta = [delta_begin, delta_end)
  size_t delta_begin = 0;
  size_t delta_end = 0;
  // Extension size at the start of the current window: [window_start,
  // atoms.size()) is the window's admission delta (0 on a full evaluation,
  // so everything seeded is delta).
  size_t window_start = 0;
  std::vector<PositionIndex> indexes;  // Sized to arity on first use.
};

/// A rule preprocessed for instantiation.
struct CompiledRule {
  std::vector<Atom> heads;
  std::vector<int> head_preds;
  std::vector<Atom> positive;         // Positive body atoms, body order.
  std::vector<int> positive_preds;
  std::vector<Literal> comparisons;
  std::vector<Atom> negatives;
  std::vector<int> negative_preds;
  int component = 0;
  bool recursive = false;
  std::vector<size_t> same_component_positions;  // Indices into `positive`.
  // Per head/negative pattern, the packed word of every ground, defined
  // argument (none elsewhere), for SubstitutePacked.
  std::vector<std::vector<PackedTerm>> head_words;
  std::vector<std::vector<PackedTerm>> negative_words;
};

/// Attempts to resolve pending comparison literals under `binding`.
/// Comparisons whose two sides become ground are evaluated (undefined
/// arithmetic counts as false); `Var = expr` assignments whose other side
/// is ground bind the variable. Loops until no progress. Indexes of newly
/// resolved comparisons are appended to *newly_done so callers can unmark
/// them on backtracking (bindings themselves are rewound via the binding
/// mark). Returns false when a comparison is violated or an assignment
/// clashes with an existing binding.
bool ResolveComparisons(const CompiledRule& rule, Binding* binding,
                        std::vector<bool>* comparison_done,
                        std::vector<size_t>* newly_done);

/// Equivalence-preserving simplification of a ground program, in place:
/// negative literals on underivable atoms are erased, definite facts are
/// propagated out of positive bodies, and rules satisfied outright (a
/// definitely-true head or negative-body atom) are dropped. `derivable`
/// marks atoms some rule (or fact) can derive; it may over-approximate
/// (extra true bits weaken the pass but never change the stable models).
/// Stable models are preserved exactly. `num_atoms` bounds the atom ids
/// appearing in `rules`.
void SimplifyGroundRules(size_t num_atoms, const std::vector<bool>& derivable,
                         std::vector<GroundRule>* rules);

/// The output tail both grounders share: records the raw rule count,
/// simplifies when `simplify` is set (see SimplifyGroundRules) and fills
/// the output counters (num_rules, num_atoms, num_facts,
/// num_constraints).
void FinishOutput(bool simplify, size_t num_atoms,
                  const std::vector<bool>& derivable,
                  std::vector<GroundRule>* rules, GroundingStats* stats);

/// The max_ground_rules safety valve: kResourceExhausted once `emitted`
/// rules have been kept.
Status CheckRuleLimit(size_t emitted, size_t max_ground_rules);

/// The one bottom-up instantiation engine (see the file comment). It is
/// driven through a compile-time client, the retention policy, supplying:
///
///   static constexpr bool kResolveFinalNegatives
///       — resolve a negative literal against its predicate's extension
///         when that predicate's component is already final (the
///         precondition of DecideInstances);
///   void GrowAtoms(size_t count)
///       — atom ids below `count` now exist (per-atom bookkeeping);
///   void OnDerive(GroundAtomId id, int pred, uint32_t position)
///       — `id` became derivable at `position` of its extension;
///   Status Emit(GroundRule rule)
///       — keep one ground rule instance.
///
/// Everything else — analysis, extensions, join indexes, the match loop,
/// instance construction, the component driver — is shared.
class InstantiationCore {
 public:
  /// `program` and `atoms` must outlive the core; the atoms are interned
  /// into `*atoms`, which the caller owns (and may reset between full
  /// evaluations together with Reset()).
  InstantiationCore(const Program* program, AtomTable* atoms)
      : program_(program), atoms_(atoms) {}

  /// Program analysis, once per core: validates the program, registers
  /// every rule predicate, condenses the predicate dependency graph (body
  /// -> head; mutual edges between disjunctive head predicates) into
  /// topologically ordered strongly connected components and compiles the
  /// rules.
  Status Prepare();
  bool prepared() const { return prepared_; }

  /// Drops every extension and derivable mark, for a full evaluation over
  /// a reset atom table.
  void Reset();

  /// Opens a new admission window: each extension's current end becomes
  /// its window_start, so Evaluate(false, …) replays only what is derived
  /// from here on.
  void OpenWindow() {
    for (PredicateExtension& ext : extensions_) {
      ext.window_start = ext.atoms.size();
    }
  }

  const std::vector<bool>& derivable() const { return derivable_; }

  /// Turns on decisions for a client with final extensions (the one-shot
  /// grounding while it simplifies), before anything is seeded. Input
  /// facts and single-head program facts are then *certain*: true in
  /// every answer set. An instance is *decided* when its rule is not
  /// recursive (every positive body predicate lies in an earlier, final
  /// component), every matched atom is certain, it has one head, and every
  /// negative literal resolves away; its head becomes certain and it is
  /// emitted once, as a fact (nothing if the head was already certain). An
  /// instance with a negative literal over a final component whose atom is
  /// certain is dropped, and its head is not derived. Every other instance
  /// is emitted as usual and leaves the output undecided.
  void DecideInstances() { deciding_ = true; }

  /// True when deciding and no emitted instance was undecided: the emitted
  /// rules are exactly one fact per certain atom, the program's one answer
  /// set.
  bool decided() const { return deciding_ && !undecided_; }

  /// Seeds one input fact and emits its fact rule (once per distinct fact
  /// while deciding). A non-ground atom is rejected.
  template <typename Client>
  Status SeedInputFact(const Atom& fact, Client& client) {
    if (!fact.IsGround()) {
      return InvalidArgumentError("non-ground input fact: " +
                                  fact.ToString(program_->symbol_table()));
    }
    return EmitInputFact(AddDerivedAtom(fact, client), client);
  }

  /// As above, interning straight from the packed words.
  template <typename Client>
  Status SeedInputFact(const PackedFact& fact, Client& client) {
    const GroundAtomId id = InternInputFact(fact, client);
    if (id == kInvalidGroundAtom) return NonGroundInputFact(fact);
    if (!derivable_[id]) {
      Derive(id, FactPredIndex(fact.predicate, fact.arity), client);
    }
    return EmitInputFact(id, client);
  }

  /// Interns one packed input fact, not yet derivable. A non-ground one is
  /// not interned: kInvalidGroundAtom, which NonGroundInputFact reports.
  template <typename Client>
  GroundAtomId InternInputFact(const PackedFact& fact, Client& client) {
    assert(fact.arity <= PackedFact::kMaxArity);
    for (uint32_t i = 0; i < fact.arity; ++i) {
      const PackedTerm word = fact.args[i];
      if (!word.has_value() || word.is_variable() ||
          (word.is_escape() && !word.ToTerm().IsGround())) {
        return kInvalidGroundAtom;
      }
    }
    return Track(atoms_->Intern(fact.predicate, fact.args, fact.arity),
                 client);
  }

  Status NonGroundInputFact(const PackedFact& fact) const {
    return InvalidArgumentError(
        "non-ground input fact of predicate " +
        program_->symbol_table().NameOf(fact.predicate));
  }

  /// Makes the interned input fact `id` derivable, if it is not yet; its
  /// extension is found through a short table of the facts' predicates.
  template <typename Client>
  void DeriveInputFact(GroundAtomId id, Client& client) {
    if (derivable_[id]) return;
    const PredicateSignature sig = atoms_->Signature(id);
    Derive(id, FactPredIndex(sig.name, sig.arity), client);
  }

  /// Un-derives `id`, tombstoning slot `position` of extension `pred`.
  void Tombstone(GroundAtomId id, int pred, uint32_t position) {
    assert(derivable_[id]);
    derivable_[id] = false;
    extensions_[pred].atoms[position] = kInvalidGroundAtom;
  }

  /// Emits the program's own facts (bodiless rules) as derivable rules.
  /// While deciding, a single-head fact is certain and emitted once; a
  /// disjunctive one leaves the output undecided.
  template <typename Client>
  Status SeedProgramFacts(Client& client) {
    for (const Rule& rule : program_->rules()) {
      if (!rule.body().empty()) continue;
      GroundRule ground;
      for (const Atom& head : rule.head()) {
        if (!head.IsGround()) {
          return InvalidArgumentError(
              "non-ground fact: " + rule.ToString(program_->symbol_table()));
        }
        ground.head.push_back(AddDerivedAtom(head, client));
      }
      if (deciding_) {
        if (ground.head.size() != 1) {
          undecided_ = true;
        } else if (!MarkCertain(ground.head.front())) {
          continue;  // Already certain: its fact is out.
        }
      }
      STREAMASP_RETURN_IF_ERROR(client.Emit(std::move(ground)));
    }
    return OkStatus();
  }

  /// The component driver: every component in topological order, then the
  /// constraints over the final extensions. `full` marks an evaluation
  /// from scratch, the only one on which fact-independent rules (no
  /// positive body atom) fire; their instances persist.
  template <typename Client>
  Status Evaluate(bool full, Client& client) {
    for (int c = 0; c <= num_components_; ++c) {
      STREAMASP_RETURN_IF_ERROR(EvaluateComponent(c, full, client));
    }
    return OkStatus();
  }

 private:
  template <typename Client>
  Status EvaluateComponent(int component, bool full, Client& client);
  template <typename Client>
  Status EvaluateRule(CompiledRule* rule, int component,
                      size_t delta_position, bool round1, Client& client);
  template <typename Client>
  Status MatchFrom(CompiledRule* rule, size_t literal_index, int component,
                   size_t delta_position, bool round1, Binding* binding,
                   std::vector<GroundAtomId>* matched,
                   std::vector<bool>* comparison_done, Client& client);
  template <typename Client>
  Status EmitInstance(CompiledRule* rule, int component,
                      const Binding& binding,
                      const std::vector<GroundAtomId>& matched,
                      Client& client);

  /// Index of a predicate. Predicates first seen after Prepare (input
  /// facts no rule reads) belong to no component (-1).
  int PredIndex(const PredicateSignature& sig);

  /// PredIndex for packed input facts: a window carries few predicates,
  /// so a short linear table of the ones seen so far answers most lookups
  /// without hashing.
  int FactPredIndex(SymbolId predicate, uint32_t arity);

  /// Marks `id` certain; false if it already was.
  bool MarkCertain(GroundAtomId id) {
    if (certain_[id]) return false;
    certain_[id] = true;
    return true;
  }

  /// Emits the fact rule of input fact `id`; while deciding, only for the
  /// first copy, which makes it certain.
  template <typename Client>
  Status EmitInputFact(GroundAtomId id, Client& client) {
    if (deciding_ && !MarkCertain(id)) return OkStatus();  // A repeat.
    return client.Emit(GroundRule{{id}, {}, {}});
  }

  /// Grows the per-atom state after `id` was interned.
  template <typename Client>
  GroundAtomId Track(GroundAtomId id, Client& client) {
    if (id >= derivable_.size()) {
      derivable_.resize(id + 1, false);
      if (deciding_) certain_.resize(id + 1, false);
      client.GrowAtoms(id + 1);
    }
    return id;
  }

  /// Interns the instance SubstitutePacked wrote to `instance_args_` (an
  /// atom of `pattern`'s predicate).
  template <typename Client>
  GroundAtomId InternInstance(const Atom& pattern, Client& client) {
    return Track(atoms_->Intern(pattern.predicate(), instance_args_.data(),
                                pattern.arity()),
                 client);
  }

  /// As above and, if newly derivable, appends it to extension `pred`.
  template <typename Client>
  GroundAtomId AddDerivedInstance(const Atom& pattern, int pred,
                                  Client& client) {
    const GroundAtomId id = InternInstance(pattern, client);
    if (!derivable_[id]) Derive(id, pred, client);
    return id;
  }

  /// Fact seeding: as above for a ground Atom, looking the predicate up
  /// only for a newly derivable atom.
  template <typename Client>
  GroundAtomId AddDerivedAtom(const Atom& atom, Client& client) {
    const GroundAtomId id = Track(atoms_->Intern(atom), client);
    if (!derivable_[id]) Derive(id, PredIndex(atom.signature()), client);
    return id;
  }

  template <typename Client>
  void Derive(GroundAtomId id, int pred, Client& client) {
    derivable_[id] = true;
    PredicateExtension& ext = extensions_[pred];
    client.OnDerive(id, pred, static_cast<uint32_t>(ext.atoms.size()));
    ext.atoms.push_back(id);
  }

  /// The visible index range of `rule`'s positive literal `position` when
  /// `delta_position` takes the delta role.
  std::pair<size_t, size_t> LiteralRange(const CompiledRule& rule,
                                         size_t position, int component,
                                         size_t delta_position,
                                         bool round1) const;

  const Program* program_;
  AtomTable* atoms_;
  bool prepared_ = false;

  // --- program analysis (Prepare) ---
  std::unordered_map<PredicateSignature, int, PredicateSignatureHash>
      pred_index_;
  std::vector<PredicateSignature> pred_signatures_;
  std::vector<int> pred_component_;  ///< -1: registered after Prepare.
  int num_components_ = 0;
  /// Predicates and rules per component. The constraints form a last
  /// pseudo-component (num_components_) that owns no predicate.
  std::vector<std::vector<int>> component_preds_;
  std::vector<CompiledRule> compiled_;
  std::vector<std::vector<CompiledRule*>> component_rules_;
  /// Scratch for the instance EmitInstance is building, sized to the
  /// largest head/negative arity.
  std::vector<PackedTerm> instance_args_;

  /// FactPredIndex's table: (signature, index) of the fact predicates
  /// seen so far, at most kFactPredicates of them.
  static constexpr size_t kFactPredicates = 16;
  std::vector<std::pair<PredicateSignature, int>> fact_preds_;

  // --- evaluation state ---
  std::vector<bool> derivable_;
  std::vector<PredicateExtension> extensions_;
  /// Decisions (DecideInstances): per atom, whether it is certain, and
  /// whether an undecided instance was emitted.
  bool deciding_ = false;
  bool undecided_ = false;
  std::vector<bool> certain_;
};

template <typename Client>
Status InstantiationCore::EvaluateComponent(int component, bool full,
                                            Client& client) {
  const std::vector<CompiledRule*>& rules = component_rules_[component];
  if (rules.empty()) return OkStatus();
  const std::vector<int>& preds = component_preds_[component];
  for (int p : preds) {
    extensions_[p].delta_begin = extensions_[p].window_start;
    extensions_[p].delta_end = extensions_[p].atoms.size();
  }

  // Round 1: every position whose predicate has a window delta (admitted
  // facts or atoms derived by earlier components this window) takes the
  // delta role once; earlier positions see old-only, later ones see
  // everything — each new combination fires at its first delta position.
  for (CompiledRule* rule : rules) {
    if (rule->positive.empty()) {
      if (full) {
        STREAMASP_RETURN_IF_ERROR(
            EvaluateRule(rule, component, 0, true, client));
      }
      continue;
    }
    for (size_t j = 0; j < rule->positive.size(); ++j) {
      const auto [db, de] = LiteralRange(*rule, j, component, j, true);
      if (db >= de) continue;
      STREAMASP_RETURN_IF_ERROR(EvaluateRule(rule, component, j, true, client));
    }
  }

  // Semi-naive fixpoint for in-component recursion: later rounds advance
  // only the component's own deltas (external deltas were consumed in
  // round 1 and are full-range from here on).
  for (;;) {
    bool any_delta = false;
    for (int p : preds) {
      extensions_[p].delta_begin = extensions_[p].delta_end;
      extensions_[p].delta_end = extensions_[p].atoms.size();
      if (extensions_[p].delta_begin < extensions_[p].delta_end) {
        any_delta = true;
      }
    }
    if (!any_delta) break;
    for (CompiledRule* rule : rules) {
      if (!rule->recursive) continue;
      for (size_t j : rule->same_component_positions) {
        STREAMASP_RETURN_IF_ERROR(
            EvaluateRule(rule, component, j, false, client));
      }
    }
  }
  return OkStatus();
}

template <typename Client>
Status InstantiationCore::EvaluateRule(CompiledRule* rule, int component,
                                       size_t delta_position, bool round1,
                                       Client& client) {
  Binding binding;
  std::vector<GroundAtomId> matched(rule->positive.size(),
                                    kInvalidGroundAtom);
  std::vector<bool> comparison_done(rule->comparisons.size(), false);
  // Variable-free comparisons and seed assignments (X = 3 + 4) decide or
  // pre-bind before any literal is matched.
  std::vector<size_t> upfront_done;
  if (!ResolveComparisons(*rule, &binding, &comparison_done,
                          &upfront_done)) {
    return OkStatus();  // The rule can never fire.
  }
  return MatchFrom(rule, 0, component, delta_position, round1, &binding,
                   &matched, &comparison_done, client);
}

template <typename Client>
Status InstantiationCore::MatchFrom(CompiledRule* rule, size_t literal_index,
                                    int component, size_t delta_position,
                                    bool round1, Binding* binding,
                                    std::vector<GroundAtomId>* matched,
                                    std::vector<bool>* comparison_done,
                                    Client& client) {
  if (literal_index == rule->positive.size()) {
    return EmitInstance(rule, component, *binding, *matched, client);
  }

  const Atom& pattern = rule->positive[literal_index];
  PredicateExtension& ext = extensions_[rule->positive_preds[literal_index]];
  const auto [range_begin, range_end] =
      LiteralRange(*rule, literal_index, component, delta_position, round1);
  if (range_begin >= range_end) return OkStatus();

  // Pick an argument position that is ground under the current binding to
  // drive an index lookup; fall back to a scan.
  int index_position = -1;
  PackedTerm index_key;
  for (size_t p = 0; p < pattern.args().size(); ++p) {
    Term substituted = SubstituteTerm(pattern.args()[p], *binding);
    if (substituted.IsGround()) {
      index_position = static_cast<int>(p);
      index_key = PackedTerm(substituted);
      break;
    }
  }

  // The candidate list: either an index bucket or the full range. Buckets
  // are keyed by the argument's packed word, read off the atom table's
  // columnar mirror — no Term hashing on the probe or build path.
  const std::vector<uint32_t>* bucket = nullptr;
  if (index_position >= 0) {
    if (ext.indexes.empty()) ext.indexes.resize(pattern.args().size());
    PositionIndex& index = ext.indexes[index_position];
    // Extend the index to cover the whole extension (cheap, amortized).
    while (index.indexed_until < ext.atoms.size()) {
      const uint32_t i = static_cast<uint32_t>(index.indexed_until++);
      if (ext.atoms[i] == kInvalidGroundAtom) continue;  // Tombstone.
      index.map[atoms_->PackedArgs(ext.atoms[i])[index_position].bits()]
          .push_back(i);
    }
    auto it = index.map.find(index_key.bits());
    if (it == index.map.end()) return OkStatus();
    bucket = &it->second;
  }

  auto try_candidate = [&](size_t extension_index) -> Status {
    const GroundAtomId id = ext.atoms[extension_index];
    if (id == kInvalidGroundAtom) return OkStatus();  // Retracted.
    const PackedTerm* candidate_args = atoms_->PackedArgs(id);
    const size_t mark = binding->Mark();
    bool matches = atoms_->PackedArity(id) == pattern.args().size();
    for (size_t p = 0; matches && p < pattern.args().size(); ++p) {
      matches = MatchPackedTerm(pattern.args()[p], candidate_args[p], binding);
    }
    if (matches) {
      // Resolve comparisons/assignments that just became ground; prune on
      // failure. Assignment bindings land on the same trail and are
      // rewound with the candidate's mark.
      std::vector<size_t> newly_done;
      const bool comparisons_hold =
          ResolveComparisons(*rule, binding, comparison_done, &newly_done);
      if (comparisons_hold) {
        (*matched)[literal_index] = id;
        STREAMASP_RETURN_IF_ERROR(MatchFrom(
            rule, literal_index + 1, component, delta_position, round1,
            binding, matched, comparison_done, client));
      }
      for (size_t c : newly_done) (*comparison_done)[c] = false;
    }
    binding->RewindTo(mark);
    return OkStatus();
  };

  if (bucket != nullptr) {
    // Iterate by index over a size snapshot: a later literal of the same
    // predicate can lazily extend this very index while we are suspended
    // in the recursion, reallocating the bucket under a range-for (the
    // map's value reference itself survives rehashing). Entries appended
    // mid-iteration lie beyond range_end and are skipped regardless.
    const size_t bucket_size = bucket->size();
    for (size_t b = 0; b < bucket_size; ++b) {
      const uint32_t i = (*bucket)[b];
      if (i < range_begin || i >= range_end) continue;
      STREAMASP_RETURN_IF_ERROR(try_candidate(i));
    }
  } else {
    for (size_t i = range_begin; i < range_end; ++i) {
      STREAMASP_RETURN_IF_ERROR(try_candidate(i));
    }
  }
  return OkStatus();
}

template <typename Client>
Status InstantiationCore::EmitInstance(
    CompiledRule* rule, int component, const Binding& binding,
    const std::vector<GroundAtomId>& matched, Client& client) {
  // Decided so far: a non-recursive single-head rule over certain atoms
  // (see DecideInstances); the negative literals below may still undo it.
  bool decided = deciding_ && !rule->recursive && rule->heads.size() == 1;
  for (size_t i = 0; decided && i < matched.size(); ++i) {
    decided = certain_[matched[i]];
  }
  GroundRule ground;
  for (size_t i = 0; i < rule->negatives.size(); ++i) {
    const Atom& pattern = rule->negatives[i];
    if (!SubstitutePacked(pattern, rule->negative_words[i], binding,
                          instance_args_.data())) {
      return OkStatus();  // Undefined arithmetic: skip the instance.
    }
    if constexpr (Client::kResolveFinalNegatives) {
      if (pred_component_[rule->negative_preds[i]] < component) {
        // The predicate's extension is final: an underivable atom can
        // never become true, so `not atom` is certainly satisfied — drop
        // it. A certain atom is true in every answer set, so the body
        // never holds — drop the instance.
        const GroundAtomId existing = atoms_->Lookup(
            pattern.predicate(), instance_args_.data(), pattern.arity());
        if (existing == kInvalidGroundAtom || !derivable_[existing]) {
          continue;
        }
        if (deciding_ && certain_[existing]) return OkStatus();
        decided = false;
        ground.negative_body.push_back(existing);
        continue;
      }
    }
    decided = false;
    ground.negative_body.push_back(InternInstance(pattern, client));
  }

  for (size_t h = 0; h < rule->heads.size(); ++h) {
    if (!SubstitutePacked(rule->heads[h], rule->head_words[h], binding,
                          instance_args_.data())) {
      return OkStatus();  // Undefined arithmetic: skip the instance.
    }
    ground.head.push_back(
        AddDerivedInstance(rule->heads[h], rule->head_preds[h], client));
  }
  if (decided) {
    // Emitted as a fact, once per certain atom.
    if (!MarkCertain(ground.head.front())) return OkStatus();
  } else {
    ground.positive_body.assign(matched.begin(), matched.end());
    undecided_ = true;
  }
  return client.Emit(std::move(ground));
}

}  // namespace ground_internal
}  // namespace streamasp

#endif  // STREAMASP_GROUND_INSTANTIATE_H_
