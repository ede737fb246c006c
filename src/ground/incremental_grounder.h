#ifndef STREAMASP_GROUND_INCREMENTAL_GROUNDER_H_
#define STREAMASP_GROUND_INCREMENTAL_GROUNDER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "asp/program.h"
#include "ground/ground_program.h"
#include "ground/grounder.h"
#include "util/status.h"

namespace streamasp {

/// Tuning knobs for window-to-window grounding reuse.
struct IncrementalGroundingOptions {
  /// Full re-grounding threshold: when the *net* per-atom delta magnitude
  /// (expirations + admissions after cancelling churn that nets out)
  /// exceeds this fraction of the window size, replaying the delta would
  /// touch most of the cache anyway, so the grounder rebuilds from
  /// scratch instead. slide == window (tumbling) always lands above any
  /// fraction < 2.0, so tumbling streams degrade gracefully to per-window
  /// full grounding.
  double fallback_delta_fraction = 0.5;

  /// Assemble the per-window output program (scratch copy of the store +
  /// fact rules + the shared simplification pass). Callers that solve
  /// through an IncrementalSolver consume the cached store and the
  /// GroundingDelta directly, so they disable assembly and skip that
  /// whole per-window linear pass — the delta-driven replacement of the
  /// simplify cost ROADMAP calls out. With assembly off, output() is
  /// stale/empty and only cached_rules()/last_delta()/atom_table() are
  /// meaningful; num_rules/num_facts stats count the raw store instead of
  /// the simplified output.
  bool assemble_output = true;
};

/// Window-to-window incremental grounder: caches the instantiation of the
/// previous window and, given the fact delta between overlapping windows,
/// retracts ground rules whose support expired and instantiates only the
/// rule instances enabled by admitted facts.
///
/// Instantiation itself is the core shared with the one-shot Grounder
/// (ground/instantiate.h); this class is its retaining client. It owns
/// only what is incremental: the net-delta computation and snapshot diff,
/// support counting with retraction and swap-compaction of the rule
/// store, the published GroundingDelta and the per-window output
/// assembly.
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
/// over-retention never changes the answer sets. The per-window output is
/// a scratch copy of the cached store (kept dense by swap-compaction)
/// plus the window's fact rules, passed through the same
/// equivalence-preserving simplification the one-shot Grounder uses
/// (GroundingOptions::simplify) — simplification is window-specific, so
/// it runs on the copy and never touches the cache. Net: for every
/// window, GroundWindow's output has exactly the stable models of
/// Grounder::Ground(program, facts), while only the fact delta is ever
/// re-instantiated.
///
/// Not thread-safe: one instance serves one (sub-)stream from one thread
/// at a time. The parallel reasoner keeps one instance per partition, and
/// every engine shape feeds partition i its windows one at a time, in
/// window order.
class IncrementalGrounder {
 public:
  /// The windower-supplied fact delta between two consecutive windows:
  /// window(previous_sequence) - expired + admitted == the current window,
  /// as multisets. Supplying it lets GroundWindow skip its own snapshot
  /// diff; a delta whose previous_sequence does not match the cached
  /// window (e.g. a kDropOldest eviction left a gap in the stream) or
  /// whose counts are inconsistent with the facts vector is ignored in
  /// favour of the snapshot diff. A shape-consistent hint's *contents* are
  /// trusted in Release builds (supplying the above invariant is the
  /// query processor's contract, which stream_test's QueryProcessorTest
  /// cases pin down); Debug builds re-verify the applied delta against the
  /// facts multiset and fail the call on a lying hint.
  struct FactDelta {
    uint64_t previous_sequence = 0;
    std::vector<Atom> expired;
    std::vector<Atom> admitted;
  };

  /// `program` must outlive the grounder and must not change between
  /// calls (the compiled rule set and dependency components are cached).
  IncrementalGrounder(const Program* program, GroundingOptions options = {},
                      IncrementalGroundingOptions incremental = {});
  ~IncrementalGrounder();

  IncrementalGrounder(const IncrementalGrounder&) = delete;
  IncrementalGrounder& operator=(const IncrementalGrounder&) = delete;

  /// Grounds the window with sequence number `sequence` holding exactly
  /// `facts` (ground atoms; duplicates allowed and preserved as duplicate
  /// fact rules, mirroring Grounder). The returned program is owned by
  /// the grounder and valid until the next GroundWindow/Invalidate call.
  /// `delta` optionally carries the windower's expired/admitted sets (see
  /// FactDelta); `stats` receives this call's counters, including the
  /// reuse counters.
  StatusOr<const GroundProgram*> GroundWindow(
      uint64_t sequence, const std::vector<Atom>& facts,
      const FactDelta* delta = nullptr, GroundingStats* stats = nullptr);

  /// Drops the cache; the next GroundWindow fully regrounds. Called
  /// internally when a grounding error leaves the cache inconsistent.
  void Invalidate();

  /// True when a cached window is available for delta reuse.
  bool cache_valid() const;

  /// Whether this grounder assembles the per-window output program
  /// (IncrementalGroundingOptions::assemble_output). Callers that solve
  /// from output() must check this: with assembly off only the delta
  /// view is maintained.
  bool assembles_output() const;

  /// Sequence number of the cached window (meaningful iff cache_valid()).
  uint64_t cached_sequence() const;

  /// The persistent instantiation store (window facts excluded — those are
  /// described by last_delta().fact_delta). Valid after a successful
  /// GroundWindow, until the next GroundWindow/Invalidate call. Together
  /// with the fact rules this is answer-equivalent to the assembled,
  /// simplified output (see the class comment's correctness model).
  const std::vector<GroundRule>& cached_rules() const;

  /// The persistent atom table behind the cached rules' (stable) ids.
  const AtomTable& atom_table() const;

  /// Replay recipe for the last GroundWindow call: what the window
  /// retracted, appended, and changed among the fact rules. Feed to
  /// IncrementalSolver::SolveWindow.
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
