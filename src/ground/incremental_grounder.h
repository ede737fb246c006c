#ifndef STREAMASP_GROUND_INCREMENTAL_GROUNDER_H_
#define STREAMASP_GROUND_INCREMENTAL_GROUNDER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "asp/program.h"
#include "ground/ground_program.h"
#include "ground/grounder.h"
#include "ground/rule_store.h"
#include "util/status.h"

namespace streamasp {

/// Tuning knobs for window-to-window grounding reuse.
struct IncrementalGroundingOptions {
  /// Full re-grounding threshold: when the *net* per-atom delta magnitude
  /// (expirations + admissions after cancelling churn that nets out)
  /// exceeds this fraction of the window size, replaying the delta would
  /// touch most of the cache anyway, so the grounder rebuilds from
  /// scratch instead. Tumbling windows carry no delta, so they are
  /// always grounded afresh.
  double fallback_delta_fraction = 0.5;

  /// Unread; kept only for perfbench/replay.cc (goes with ROADMAP item 9).
  bool assemble_output = false;
};

/// Window-to-window incremental grounder: caches the instantiation of the
/// previous window and, given the fact delta between overlapping windows,
/// retracts ground rules whose support expired and instantiates only the
/// rule instances enabled by admitted facts.
///
/// Instantiation itself is the core shared with the one-shot Grounder
/// (ground/instantiate.h); this class is its retaining client. It owns
/// only what is incremental: netting the windower's delta hint, support
/// counting with retraction and swap-compaction of the rule
/// store, and the published GroundingDelta. The store is the partition's
/// one copy of its ground program: an IncrementalSolver reads it in place
/// and replays only the delta onto its per-slot solve state.
///
/// Correctness model (see ARCHITECTURE.md, "Incremental window
/// grounding"): the cache is an *overgrounded* program — instantiation
/// without eager negation resolution is monotone in the input facts, so
/// the cached rule set is always a superset of what a fresh grounding of
/// the current window would emit, and the superfluous instances (bodies
/// depending on atoms no current fact can derive) cannot fire under
/// stable-model semantics. Retraction is support-counting (DRed-style
/// delete without rederive): an atom whose last deriving rule or window
/// fact disappears is retracted and its dependent rule instances are
/// removed transitively. Positive cycles can survive retraction
/// unsupported; they are unfounded sets, which the solver falsifies, so
/// over-retention never changes the answer sets. Net: for every window,
/// the cached store (which holds one fact rule per distinct window fact)
/// has exactly the stable models of Grounder::Ground(program, facts),
/// while only the fact delta is ever re-instantiated.
///
/// Not thread-safe: one instance serves one (sub-)stream from one thread
/// at a time. The parallel reasoner keeps one instance per partition, and
/// every engine shape feeds partition i its windows one at a time, in
/// window order.
class IncrementalGrounder {
 public:
  /// The windower-supplied fact delta between two consecutive windows:
  /// window(previous_sequence) - expired + admitted == the current window,
  /// as multisets. GroundWindow replays a hint when three things hold:
  /// previous_sequence is the cached window, the totals agree (cached
  /// window size - expired + admitted == facts.size()), and netting the
  /// expiries against the admissions takes no atom's count below zero.
  /// Anything else rebuilds the window from scratch: no hint (tumbling
  /// windows), a chain break (the window after an errored one), or a
  /// lying hint. Every shed window's delta is folded into its successor
  /// upstream (FoldDelta), so a hint chains from the window this grounder
  /// saw last even across sheds. A hint's *contents* are trusted in
  /// Release builds (supplying the above invariant is the query
  /// processor's contract, which stream_test's QueryProcessorTest cases
  /// pin down); Debug builds re-verify the applied delta against the
  /// facts multiset and fail the call on a lying hint.
  struct FactDelta {
    uint64_t previous_sequence = 0;
    std::vector<PackedFact> expired;
    std::vector<PackedFact> admitted;
  };

  /// `program` must outlive the grounder and must not change between
  /// calls (the compiled rule set and dependency components are cached).
  IncrementalGrounder(const Program* program, GroundingOptions options = {},
                      IncrementalGroundingOptions incremental = {});
  ~IncrementalGrounder();

  IncrementalGrounder(const IncrementalGrounder&) = delete;
  IncrementalGrounder& operator=(const IncrementalGrounder&) = delete;

  /// Grounds the window with sequence number `sequence` holding exactly
  /// `facts` (ground; duplicates allowed and counted as duplicate fact
  /// rules, mirroring Grounder) into the cached store and publishes
  /// the change as last_delta(). `delta` carries the windower's
  /// expired/admitted sets (see FactDelta); without one the window is
  /// grounded from scratch. `stats` receives
  /// this call's counters, including the reuse counters (num_rules and
  /// num_facts count the raw store and the window's facts).
  Status GroundWindow(
      uint64_t sequence, const std::vector<PackedFact>& facts,
      const FactDelta* delta = nullptr, GroundingStats* stats = nullptr);

  /// Drops the cache; the next GroundWindow fully regrounds. Called
  /// internally when a grounding error leaves the cache inconsistent.
  void Invalidate();

  /// True when a cached window is available for delta reuse.
  bool cache_valid() const;

  /// Sequence number of the cached window (meaningful iff cache_valid()).
  uint64_t cached_sequence() const;

  /// The persistent rule store: the cached instantiation plus one fact
  /// rule `a.` per distinct window-fact atom `a` (a fact the window holds
  /// k times still has one fact rule; duplicate fact rules never change
  /// stable models). Valid after a successful GroundWindow, until the next
  /// GroundWindow/Invalidate call. By itself it is answer-equivalent to a
  /// cold grounding of the window (see the class comment's correctness
  /// model).
  const RuleStore& cached_rules() const;

  /// The persistent atom table behind the cached rules' (stable) ids.
  const AtomTable& atom_table() const;

  /// Replay recipe for the last GroundWindow call: which store slots the
  /// window retracted (with their heads) and appended. IncrementalSolver
  /// reads it with the store.
  const GroundingDelta& last_delta() const;

  /// Running totals over all GroundWindow calls on this instance.
  const GroundingStats& cumulative_stats() const { return cumulative_; }

 private:
  class Engine;
  std::unique_ptr<Engine> engine_;
  GroundingStats cumulative_;
};

}  // namespace streamasp

#endif  // STREAMASP_GROUND_INCREMENTAL_GROUNDER_H_
