#include "ground/incremental_grounder.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <utility>
#include <vector>

#include "ground/instantiate.h"

namespace streamasp {

namespace {

constexpr uint32_t kNoPosition = static_cast<uint32_t>(-1);

/// Compaction threshold: retraction tombstones extension slots and leaks
/// the retracted atoms' table entries, so once tombstoned atoms exceed
/// this fraction of the atom table the next window rebuilds from scratch,
/// which resets the table. Bounds cache memory to O(live ground program).
constexpr double kCompactGarbageFraction = 0.5;

/// Net per-atom change between two fact multisets: one (atom id, change)
/// entry per atom met, in the order first met.
using NetDelta = std::vector<std::pair<GroundAtomId, int64_t>>;

}  // namespace

/// The retained instantiation state around the shared InstantiationCore
/// (ground/instantiate.h). The engine is the core's incremental client:
///  * extensions, the atom table and the emitted rule store persist across
///    GroundWindow calls; each window replays only its fact delta;
///  * negative literals are never eagerly resolved against "final"
///    extensions (extensions are never final across windows) — the
///    solver's propagation recovers the lost pruning;
///  * emitted rules carry support/dependency bookkeeping so expired facts
///    retract their dependent instances (support counting);
///  * the rule store also holds one fact rule per distinct window-fact
///    atom, so it is the whole window program the solver reads.
class IncrementalGrounder::Engine {
 public:
  Engine(const Program* program, GroundingOptions options,
         IncrementalGroundingOptions incremental)
      : options_(options),
        inc_(incremental),
        core_(program, &atoms_) {}

  Status GroundWindow(uint64_t sequence,
                      const std::vector<PackedFact>& facts,
                      const FactDelta* delta, GroundingStats* stats);

  void Invalidate() { cache_valid_ = false; }
  bool cache_valid() const { return cache_valid_; }
  uint64_t cached_sequence() const { return cached_sequence_; }
  const RuleStore& store() const { return store_; }
  const AtomTable& atom_table() const { return atoms_; }
  const GroundingDelta& last_delta() const { return delta_; }
  const GroundingStats& call_stats() const { return call_stats_; }

  // --- InstantiationCore client: the incremental retention policy ---
  static constexpr bool kResolveFinalNegatives = false;
  void GrowAtoms(size_t count) {
    atom_pred_.resize(count, -1);
    support_.resize(count, 0);
    ext_pos_.resize(count, kNoPosition);
    store_.EnsureAtoms(count);
    window_counts_.resize(count, 0);
    net_slot_.resize(count, kNoPosition);
  }
  void OnDerive(GroundAtomId id, int pred, uint32_t position) {
    atom_pred_[id] = pred;
    ext_pos_[id] = position;
  }
  /// Appends a rule to the store with its support and body references.
  Status Emit(GroundRule rule);

 private:
  // --- dynamic cache primitives ---
  bool derivable(GroundAtomId id) const { return core_.derivable()[id]; }
  void RetractAtom(GroundAtomId id, std::vector<GroundAtomId>* worklist);
  /// Kills a store rule (the store compacts kills away in a batch) and
  /// drops its heads' support.
  void KillRule(uint32_t slot, std::vector<GroundAtomId>* worklist);
  /// The window-fact rule of atom `id`: added when the atom's window count
  /// leaves 0, killed when it returns to 0. Neither touches support_,
  /// which counts window copies directly.
  void AddFactRule(GroundAtomId id);
  void KillFactRule(GroundAtomId id);

  // --- per-window phases ---
  /// Nets `delta`'s expiries, then its admissions, into `*net`,
  /// interning their atoms. False when the hint cannot be replayed onto
  /// the cached window (see FactDelta); the window then rebuilds.
  bool NetHint(size_t window_size, const FactDelta* delta, NetDelta* net);
  Status ApplyNetDelta(const NetDelta& net);
  Status CheckWindowCounts(const std::vector<PackedFact>& facts) const;
  Status CheckStore() const;
  Status Rebuild(const std::vector<PackedFact>& facts);

  GroundingOptions options_;
  IncrementalGroundingOptions inc_;

  // --- dynamic cache (reset by Rebuild) ---
  bool cache_valid_ = false;
  uint64_t cached_sequence_ = 0;
  AtomTable atoms_;
  /// Program analysis (built on the first window) plus the extensions and
  /// derivable marks; interns into atoms_.
  ground_internal::InstantiationCore core_;
  std::vector<int> atom_pred_;         ///< Atom id -> predicate index.
  std::vector<uint32_t> support_;      ///< Deriving rules + window count.
  std::vector<uint32_t> ext_pos_;      ///< Atom id -> extension position.
  /// The cached instantiation plus the window-fact rules, kept dense by
  /// swap-compaction after each retraction batch. Its positive lists are
  /// the dependency index retraction follows.
  RuleStore store_;
  size_t fact_rules_ = 0;  ///< Window-fact rules in store_.
  size_t tombstoned_atoms_ = 0;
  std::vector<uint32_t> window_counts_;  ///< Atom id -> copies in window.
  size_t window_total_ = 0;
  /// Atom id -> its entry in the net delta being computed; kNoPosition
  /// between computations.
  std::vector<uint32_t> net_slot_;

  /// Replay recipe of the last GroundWindow call (see ground_program.h).
  GroundingDelta delta_;

  GroundingStats call_stats_;
};

void IncrementalGrounder::Engine::KillRule(
    uint32_t slot, std::vector<GroundAtomId>* worklist) {
  store_.Kill(slot);
  ++call_stats_.rules_retracted;
  for (GroundAtomId h : store_.rule(slot).head) {
    assert(support_[h] > 0);
    if (--support_[h] == 0 && derivable(h)) worklist->push_back(h);
  }
}

void IncrementalGrounder::Engine::AddFactRule(GroundAtomId id) {
  store_.Add(GroundRule{{id}, {}, {}});
  ++fact_rules_;
}

void IncrementalGrounder::Engine::KillFactRule(GroundAtomId id) {
  // Any bodiless single-head rule for `id` will do: a program fact for the
  // same atom is the identical rule, so the store's contents come out the
  // same whichever of the two goes.
  for (const uint32_t slot : store_.heads(id)) {
    if (store_.rule(slot).is_fact()) {
      store_.Kill(slot);
      --fact_rules_;
      return;
    }
  }
  assert(false && "window fact without its fact rule");
}

void IncrementalGrounder::Engine::RetractAtom(
    GroundAtomId id, std::vector<GroundAtomId>* worklist) {
  assert(support_[id] == 0);
  core_.Tombstone(id, atom_pred_[id], ext_pos_[id]);
  ext_pos_[id] = kNoPosition;
  ++tombstoned_atoms_;
  // Dependent instances lose a positive-body atom that no current fact
  // can derive: remove them (their heads may cascade). Each kill takes
  // the rule's entries off the list, the last one included.
  const std::vector<uint32_t>& dependents = store_.positive(id);
  while (!dependents.empty()) KillRule(dependents.back(), worklist);
}

Status IncrementalGrounder::Engine::Emit(GroundRule rule) {
  STREAMASP_RETURN_IF_ERROR(ground_internal::CheckRuleLimit(
      store_.size() - fact_rules_, options_.max_ground_rules));
  for (GroundAtomId h : rule.head) ++support_[h];
  store_.Add(std::move(rule));
  ++call_stats_.rules_new;
  return OkStatus();
}

bool IncrementalGrounder::Engine::NetHint(size_t window_size,
                                          const FactDelta* delta,
                                          NetDelta* net) {
  if (delta == nullptr || delta->previous_sequence != cached_sequence_ ||
      window_total_ + delta->admitted.size() !=
          window_size + delta->expired.size()) {
    return false;
  }
  // A rejected hint rebuilds, which resets the atom table, so interning
  // an expired fact the table lacks is harmless; on a replayed hint such
  // an atom nets to zero (admitted and expired across a folded gap) and
  // stays an unused table entry.
  const auto add_all = [&](const std::vector<PackedFact>& facts,
                           int64_t change) {
    for (const PackedFact& fact : facts) {
      const GroundAtomId id = core_.InternInputFact(fact, *this);
      if (id == kInvalidGroundAtom) return false;
      if (net_slot_[id] == kNoPosition) {  // First touch: a new entry.
        net_slot_[id] = static_cast<uint32_t>(net->size());
        net->emplace_back(id, 0);
      }
      (*net)[net_slot_[id]].second += change;
    }
    return true;
  };
  bool replayable =
      add_all(delta->expired, -1) && add_all(delta->admitted, 1);
  for (const auto& [id, change] : *net) {
    net_slot_[id] = kNoPosition;
    // The delta may take no copy the cached window does not hold.
    if (change + window_counts_[id] < 0) replayable = false;
  }
  return replayable;
}

Status IncrementalGrounder::Engine::ApplyNetDelta(const NetDelta& net) {
  core_.OpenWindow();

  // Retract first: expired support disappears before admitted facts (or
  // the delta replay) can re-derive anything, so an atom that loses its
  // facts and regains them via a new rule firing takes the tombstone ->
  // re-append path and lands in the admission delta.
  std::vector<GroundAtomId> worklist;
  for (const auto& [id, change] : net) {
    if (change >= 0) continue;
    const uint32_t drop = static_cast<uint32_t>(-change);
    if (window_counts_[id] < drop || support_[id] < drop) {
      return InternalError("fact delta inconsistent with cached window");
    }
    window_counts_[id] -= drop;
    support_[id] -= drop;
    if (window_counts_[id] == 0) KillFactRule(id);
    if (support_[id] == 0 && derivable(id)) worklist.push_back(id);
  }
  while (!worklist.empty()) {
    const GroundAtomId id = worklist.back();
    worklist.pop_back();
    if (!derivable(id) || support_[id] != 0) continue;
    RetractAtom(id, &worklist);
  }
  store_.Compact(&delta_.retracted_slots);
  // Retraction and compaction are done; everything appended from here on
  // (admitted fact rules, then the delta replay's instances) is the
  // window's new-rule tail.
  delta_.new_rules_begin = store_.size();

  for (const auto& [id, change] : net) {
    if (change <= 0) continue;
    core_.DeriveInputFact(id, *this);
    if (window_counts_[id] == 0) AddFactRule(id);
    window_counts_[id] += static_cast<uint32_t>(change);
    support_[id] += static_cast<uint32_t>(change);
  }
  return OkStatus();
}

/// Debug-only contract check: after applying the net delta, the tracked
/// window multiset must equal the facts vector exactly. Release builds
/// trust a shape-consistent hint's contents (the emitting windowers are
/// tested to uphold the invariant); the Debug and sanitizer CI legs run
/// every differential test through this full comparison.
Status IncrementalGrounder::Engine::CheckWindowCounts(
    const std::vector<PackedFact>& facts) const {
#ifndef NDEBUG
  std::vector<uint32_t> expected(window_counts_.size(), 0);
  for (const PackedFact& fact : facts) {
    const GroundAtomId id =
        atoms_.Lookup(fact.predicate, fact.args, fact.arity);
    if (id == kInvalidGroundAtom) {
      return InternalError("a window fact was never interned");
    }
    ++expected[id];
  }
  if (expected != window_counts_) {
    return InternalError(
        "window delta hint disagrees with the window's facts");
  }
#else
  (void)facts;
#endif
  return OkStatus();
}

/// Debug-only whole-store check after every window (see
/// RuleStore::CheckConsistency), plus the window-fact rule count.
Status IncrementalGrounder::Engine::CheckStore() const {
#ifndef NDEBUG
  STREAMASP_RETURN_IF_ERROR(store_.CheckConsistency());
  size_t window_atoms = 0;
  for (const uint32_t count : window_counts_) window_atoms += count != 0;
  if (window_atoms != fact_rules_) {
    return InternalError("window-fact rules disagree with the window");
  }
#endif
  return OkStatus();
}

Status IncrementalGrounder::Engine::Rebuild(
    const std::vector<PackedFact>& facts) {
  // Atom interning restarts, but the previous window's population is the
  // best size estimate: reserve up front so the hot Intern loop never
  // rehashes mid-window.
  const size_t previous_atoms = atoms_.size();
  atoms_ = AtomTable();
  if (previous_atoms > 0) atoms_.Reserve(previous_atoms);
  core_.Reset();
  atom_pred_.clear();
  support_.clear();
  ext_pos_.clear();
  store_.Clear();
  fact_rules_ = 0;
  tombstoned_atoms_ = 0;
  window_counts_.clear();
  net_slot_.clear();

  // The program's own facts become permanently supported store rules.
  STREAMASP_RETURN_IF_ERROR(core_.SeedProgramFacts(*this));
  // Window facts: derivable + supported (by their window counts), with
  // one fact rule per distinct atom.
  for (const PackedFact& fact : facts) {
    const GroundAtomId id = core_.InternInputFact(fact, *this);
    if (id == kInvalidGroundAtom) return core_.NonGroundInputFact(fact);
    core_.DeriveInputFact(id, *this);
    if (window_counts_[id]++ == 0) AddFactRule(id);
    ++support_[id];
  }

  // Every admission window starts at 0 after the reset, so everything
  // seeded above is this window's delta and the evaluation performs the
  // full bottom-up instantiation (fact-independent rules included).
  return core_.Evaluate(/*full=*/true, *this);
}

Status IncrementalGrounder::Engine::GroundWindow(
    uint64_t sequence, const std::vector<PackedFact>& facts,
    const FactDelta* delta, GroundingStats* stats) {
  call_stats_ = GroundingStats{};
  if (!core_.prepared()) STREAMASP_RETURN_IF_ERROR(core_.Prepare());

  const size_t store_before = store_.size();
  const size_t rules_before = store_before - fact_rules_;
  bool full = !cache_valid_;
  if (!full) {
    // Memory bound: retraction tombstones extension slots and leaks the
    // retracted atoms' table entries; rebuild once they dominate.
    if (static_cast<double>(tombstoned_atoms_) >
        kCompactGarbageFraction * static_cast<double>(atoms_.size())) {
      full = true;
    }
  }
  // Until this window succeeds: partially applied state is unusable.
  cache_valid_ = false;
  NetDelta net;
  if (!full) full = !NetHint(facts.size(), delta, &net);
  if (!full) {
    size_t magnitude = 0;
    for (const auto& [id, change] : net) {
      magnitude += static_cast<size_t>(std::llabs(change));
    }
    if (static_cast<double>(magnitude) >
        inc_.fallback_delta_fraction *
            static_cast<double>(std::max<size_t>(facts.size(), 1))) {
      full = true;
    }
  }

  delta_ = GroundingDelta{};
  delta_.full_rebuild = full;
  delta_.sequence = sequence;
  delta_.previous_sequence = cached_sequence_;
  delta_.store_size_before = store_before;

  Status status = OkStatus();
  if (full) {
    // A rebuild discards the cache wholesale; rules_retracted stays 0 —
    // it counts only instances removed by expired-fact retraction.
    call_stats_.incremental_fallbacks = 1;
    status = Rebuild(facts);
    delta_.new_rules_begin = 0;  // The whole store is this window's.
  } else {
    call_stats_.incremental_windows = 1;
    status = ApplyNetDelta(net);
    if (status.ok()) status = CheckWindowCounts(facts);
    if (status.ok()) status = core_.Evaluate(/*full=*/false, *this);
  }
  if (status.ok()) status = CheckStore();
  STREAMASP_RETURN_IF_ERROR(status);
  window_total_ = facts.size();
  call_stats_.rules_retained =
      full ? 0 : rules_before - call_stats_.rules_retracted;
  // Nothing is simplified here: the sizes count the instantiated rules
  // plus one fact rule per window fact copy.
  call_stats_.num_rules_raw = store_.size() - fact_rules_ + window_total_;
  call_stats_.num_rules = call_stats_.num_rules_raw;
  call_stats_.num_atoms = atoms_.size();
  call_stats_.num_facts = window_total_;
  cache_valid_ = true;
  cached_sequence_ = sequence;
  call_stats_.atom_table_bytes = atoms_.ApproxBytes();
  if (stats != nullptr) *stats = call_stats_;
  return OkStatus();
}

IncrementalGrounder::IncrementalGrounder(
    const Program* program, GroundingOptions options,
    IncrementalGroundingOptions incremental)
    : engine_(std::make_unique<Engine>(program, options, incremental)) {}

IncrementalGrounder::~IncrementalGrounder() = default;

Status IncrementalGrounder::GroundWindow(uint64_t sequence,
                                         const std::vector<PackedFact>& facts,
                                         const FactDelta* delta,
                                         GroundingStats* stats) {
  STREAMASP_RETURN_IF_ERROR(
      engine_->GroundWindow(sequence, facts, delta, stats));
  cumulative_.Accumulate(engine_->call_stats());
  return OkStatus();
}

void IncrementalGrounder::Invalidate() { engine_->Invalidate(); }

bool IncrementalGrounder::cache_valid() const {
  return engine_->cache_valid();
}

uint64_t IncrementalGrounder::cached_sequence() const {
  return engine_->cached_sequence();
}

const RuleStore& IncrementalGrounder::cached_rules() const {
  return engine_->store();
}

const AtomTable& IncrementalGrounder::atom_table() const {
  return engine_->atom_table();
}

const GroundingDelta& IncrementalGrounder::last_delta() const {
  return engine_->last_delta();
}

}  // namespace streamasp
