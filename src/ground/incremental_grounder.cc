#include "ground/incremental_grounder.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <functional>
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
///    retract their dependent instances (support counting).
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
  const std::vector<GroundRule>& store() const { return store_; }
  const AtomTable& atom_table() const { return atoms_; }
  const GroundingDelta& last_delta() const { return delta_; }
  const GroundingStats& call_stats() const { return call_stats_; }

  // --- InstantiationCore client: the incremental retention policy ---
  static constexpr bool kResolveFinalNegatives = false;
  void GrowAtoms(size_t count) {
    atom_pred_.resize(count, -1);
    support_.resize(count, 0);
    ext_pos_.resize(count, kNoPosition);
    body_rules_.resize(count);
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
  /// Marks a store rule dead (kills compact away in CompactStore).
  void KillRule(uint32_t slot, std::vector<GroundAtomId>* worklist);
  /// Swap-compacts the marked dead slots out of the dense store.
  void CompactStore();
  /// Drops a dying rule's body references, each in O(1) through its back
  /// position (swap-remove, as a scan for the slot would do it).
  void RemoveBodyRefs(uint32_t slot);

  // --- per-window phases ---
  Status ComputeNetDelta(const std::vector<PackedFact>& facts,
                         const FactDelta* delta, NetDelta* net,
                         bool* used_snapshot_diff);
  /// Adds `change` to atom `id`'s entry in `net`, made on first touch;
  /// returns the entry's new value.
  int64_t AddNet(GroundAtomId id, int64_t change, NetDelta* net) {
    if (net_slot_[id] == kNoPosition) {
      net_slot_[id] = static_cast<uint32_t>(net->size());
      net->emplace_back(id, 0);
    }
    return (*net)[net_slot_[id]].second += change;
  }
  /// Ends a net computation: every net_slot_ mark goes back to kNoPosition.
  void ReleaseNet(const NetDelta& net) {
    for (const auto& [id, change] : net) net_slot_[id] = kNoPosition;
  }
  Status ApplyNetDelta(const NetDelta& net);
  Status CheckWindowCounts(const std::vector<PackedFact>& facts) const;
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
  std::vector<std::vector<uint32_t>> body_rules_;  ///< Atom -> rule slots.
  /// The cached instantiation, kept dense by swap-compaction after each
  /// retraction batch so its slots mirror the incremental solver's rules.
  std::vector<GroundRule> store_;
  /// Per store slot: where each positive-body literal's reference sits in
  /// body_rules_ (a back position), so retraction and compaction touch
  /// only the rules' own literals, never a scan of a whole list.
  std::vector<IdList> body_ref_pos_;
  std::vector<bool> alive_;            ///< Per store slot; all true between
                                       ///< windows (kills compact away).
  std::vector<uint32_t> dead_slots_;   ///< Kill batch awaiting compaction.
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

void IncrementalGrounder::Engine::RemoveBodyRefs(uint32_t slot) {
  const IdList& body = store_[slot].positive_body;
  IdList& positions = body_ref_pos_[slot];
  for (uint32_t k = 0; k < body.size(); ++k) {
    std::vector<uint32_t>& refs = body_rules_[body[k]];
    // An empty list belongs to an atom retracted earlier in this batch
    // (RetractAtom took its references).
    if (refs.empty()) continue;
    // The entry a front-to-back scan for `slot` would meet first: with a
    // repeated body atom the rule owns several equal entries, and the
    // lowest position among those not yet dropped goes.
    uint32_t first = k;
    for (uint32_t j = k + 1; j < body.size(); ++j) {
      if (body[j] == body[k] && positions[j] < positions[first]) first = j;
    }
    // Literal `first` takes over literal k's entry; k's is the one gone.
    const uint32_t hole = positions[first];
    positions[first] = positions[k];
    positions[k] = kNoPosition;
    // Swap-remove: the last entry fills the hole, and its owner's back
    // position follows it.
    const uint32_t tail = static_cast<uint32_t>(refs.size() - 1);
    if (hole != tail) {
      const uint32_t owner = refs[tail];
      refs[hole] = owner;
      const IdList& owner_body = store_[owner].positive_body;
      IdList& owner_positions = body_ref_pos_[owner];
      for (uint32_t j = 0; j < owner_body.size(); ++j) {
        if (owner_body[j] == body[k] && owner_positions[j] == tail) {
          owner_positions[j] = hole;
          break;
        }
      }
    }
    refs.pop_back();
  }
}

void IncrementalGrounder::Engine::KillRule(
    uint32_t slot, std::vector<GroundAtomId>* worklist) {
  assert(alive_[slot]);
  alive_[slot] = false;
  ++call_stats_.rules_retracted;
  RemoveBodyRefs(slot);
  for (GroundAtomId h : store_[slot].head) {
    assert(support_[h] > 0);
    if (--support_[h] == 0 && derivable(h)) worklist->push_back(h);
  }
  dead_slots_.push_back(slot);
}

void IncrementalGrounder::Engine::CompactStore() {
  if (dead_slots_.empty()) return;
  // Highest slot first: the rule pulled into each hole is then always
  // alive, so body references need retargeting exactly once.
  std::sort(dead_slots_.begin(), dead_slots_.end(),
            std::greater<uint32_t>());
  // Publish the exact replay order so a mirroring consumer (the
  // incremental solver) can apply the identical swap-compaction and keep
  // its rule indices aligned with the store's slot numbering.
  delta_.retracted_slots.insert(delta_.retracted_slots.end(),
                                dead_slots_.begin(), dead_slots_.end());
  for (const uint32_t slot : dead_slots_) {
    const uint32_t last = static_cast<uint32_t>(store_.size() - 1);
    if (slot != last) {
      // The moved rule's references sit at its back positions; relabel
      // them in place.
      const IdList& body = store_[last].positive_body;
      const IdList& positions = body_ref_pos_[last];
      for (uint32_t k = 0; k < body.size(); ++k) {
        body_rules_[body[k]][positions[k]] = slot;
      }
      store_[slot] = std::move(store_[last]);
      body_ref_pos_[slot] = std::move(body_ref_pos_[last]);
      alive_[slot] = true;
    }
    store_.pop_back();
    body_ref_pos_.pop_back();
    alive_.pop_back();
  }
  dead_slots_.clear();
}

void IncrementalGrounder::Engine::RetractAtom(
    GroundAtomId id, std::vector<GroundAtomId>* worklist) {
  assert(support_[id] == 0);
  core_.Tombstone(id, atom_pred_[id], ext_pos_[id]);
  ext_pos_[id] = kNoPosition;
  ++tombstoned_atoms_;
  // Dependent instances lose a positive-body atom that no current fact
  // can derive: remove them (their heads may cascade).
  std::vector<uint32_t> dependents = std::move(body_rules_[id]);
  body_rules_[id].clear();
  for (uint32_t slot : dependents) {
    if (alive_[slot]) KillRule(slot, worklist);
  }
}

Status IncrementalGrounder::Engine::Emit(GroundRule rule) {
  STREAMASP_RETURN_IF_ERROR(ground_internal::CheckRuleLimit(
      store_.size(), options_.max_ground_rules));
  const uint32_t slot = static_cast<uint32_t>(store_.size());
  IdList positions;
  for (GroundAtomId b : rule.positive_body) {
    positions.push_back(static_cast<uint32_t>(body_rules_[b].size()));
    body_rules_[b].push_back(slot);
  }
  for (GroundAtomId h : rule.head) ++support_[h];
  store_.push_back(std::move(rule));
  body_ref_pos_.push_back(std::move(positions));
  alive_.push_back(true);
  ++call_stats_.rules_new;
  return OkStatus();
}

Status IncrementalGrounder::Engine::ComputeNetDelta(
    const std::vector<PackedFact>& facts, const FactDelta* delta,
    NetDelta* net, bool* used_snapshot_diff) {
  // A snapshot diff counts as a *resync* only when the caller supplied a
  // hint that could not be used (chain gap after a kDropOldest eviction,
  // or an inconsistent hint): the computed delta is still exact, but
  // downstream consumers treat their incrementally maintained solve state
  // as suspect. Hint-less callers diff every window by design — that is
  // the normal mode, not a resync.
  *used_snapshot_diff = false;
  // A usable hint is relative to the cached window, agrees in totals and
  // expires a sub-multiset of it: every expired fact is interned, and no
  // more copies expire than the window holds. Only then are its
  // admissions interned; any other hint falls through to the snapshot
  // diff, which interns the window's facts alone.
  bool consistent = delta != nullptr &&
                    delta->previous_sequence == cached_sequence_ &&
                    window_total_ + delta->admitted.size() ==
                        facts.size() + delta->expired.size();
  if (consistent) {
    for (const PackedFact& e : delta->expired) {
      const GroundAtomId id = atoms_.Lookup(e.predicate, e.args, e.arity);
      if (id == kInvalidGroundAtom ||
          AddNet(id, -1, net) + window_counts_[id] < 0) {
        consistent = false;
        break;
      }
    }
  }
  if (!consistent) {
    *used_snapshot_diff = delta != nullptr;
    ReleaseNet(*net);
    net->clear();
    // Snapshot diff: net = multiset(facts) - multiset(cached window).
    for (GroundAtomId id = 0; id < window_counts_.size(); ++id) {
      if (window_counts_[id] != 0) {
        AddNet(id, -static_cast<int64_t>(window_counts_[id]), net);
      }
    }
  }
  for (const PackedFact& fact : consistent ? delta->admitted : facts) {
    const GroundAtomId id = core_.InternInputFact(fact, *this);
    if (id == kInvalidGroundAtom) return core_.NonGroundInputFact(fact);
    AddNet(id, 1, net);
  }
  ReleaseNet(*net);
  return OkStatus();
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
    delta_.fact_delta.emplace_back(id, change);
    if (support_[id] == 0 && derivable(id)) worklist.push_back(id);
  }
  while (!worklist.empty()) {
    const GroundAtomId id = worklist.back();
    worklist.pop_back();
    if (!derivable(id) || support_[id] != 0) continue;
    RetractAtom(id, &worklist);
  }
  CompactStore();

  for (const auto& [id, change] : net) {
    if (change <= 0) continue;
    core_.DeriveInputFact(id, *this);
    window_counts_[id] += static_cast<uint32_t>(change);
    support_[id] += static_cast<uint32_t>(change);
    delta_.fact_delta.emplace_back(id, change);
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
  body_rules_.clear();
  store_.clear();
  body_ref_pos_.clear();
  alive_.clear();
  dead_slots_.clear();
  tombstoned_atoms_ = 0;
  window_counts_.clear();
  net_slot_.clear();

  // The program's own facts become permanently supported store rules.
  STREAMASP_RETURN_IF_ERROR(core_.SeedProgramFacts(*this));
  // Window facts: derivable + supported, but their fact rules are not in
  // the cache (the delta's fact view carries them).
  for (const PackedFact& fact : facts) {
    const GroundAtomId id = core_.InternInputFact(fact, *this);
    if (id == kInvalidGroundAtom) return core_.NonGroundInputFact(fact);
    core_.DeriveInputFact(id, *this);
    ++window_counts_[id];
    ++support_[id];
  }
  // A rebuild restarts slot numbering and atom interning, so the delta's
  // fact view is the full window multiset, not a diff.
  for (GroundAtomId id = 0; id < window_counts_.size(); ++id) {
    if (window_counts_[id] != 0) {
      delta_.fact_delta.emplace_back(
          id, static_cast<int64_t>(window_counts_[id]));
    }
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
  bool resynced = false;
  if (!full) {
    STREAMASP_RETURN_IF_ERROR(ComputeNetDelta(facts, delta, &net, &resynced));
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
  delta_.resynced = !full && resynced;
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
    // Retraction and compaction are done; everything the delta replay
    // appends from here on is the window's new-rule tail.
    delta_.new_rules_begin = store_.size();
    if (status.ok()) status = CheckWindowCounts(facts);
    if (status.ok()) status = core_.Evaluate(/*full=*/false, *this);
  }
  STREAMASP_RETURN_IF_ERROR(status);
  window_total_ = facts.size();
  call_stats_.rules_retained =
      full ? 0 : store_before - call_stats_.rules_retracted;
  // Nothing is simplified here: the sizes are the raw store's plus the
  // window's fact rules.
  call_stats_.num_rules_raw = store_.size() + window_total_;
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

const std::vector<GroundRule>& IncrementalGrounder::cached_rules() const {
  return engine_->store();
}

const AtomTable& IncrementalGrounder::atom_table() const {
  return engine_->atom_table();
}

const GroundingDelta& IncrementalGrounder::last_delta() const {
  return engine_->last_delta();
}

}  // namespace streamasp
