#ifndef STREAMASP_STREAMRULE_PIPELINE_H_
#define STREAMASP_STREAMRULE_PIPELINE_H_

#include <condition_variable>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "depgraph/decomposition.h"
#include "stream/query_processor.h"
#include "streamrule/accuracy.h"
#include "streamrule/emission.h"
#include "streamrule/parallel_reasoner.h"
#include "util/bounded_queue.h"
#include "util/status.h"

namespace streamasp {

/// Configuration for the end-to-end pipeline.
struct PipelineOptions {
  /// Tuple-based window size handed to the reasoning layer.
  size_t window_size = 10000;

  /// Sliding windows: emit a window every `window_slide` surviving items
  /// once the first window_size items have arrived, re-processing the
  /// overlapping suffix (CQELS/C-SPARQL semantics). 0 or == window_size
  /// keeps tumbling windows. Sliding windows carry expired/admitted
  /// deltas, which grounding and solving reuse consume (see
  /// ReasonerOptions::reuse_grounding and SolverOptions::reuse_solving,
  /// set through `reasoner.reasoner`).
  size_t window_slide = 0;

  /// Run whole-window reasoning (R) instead of dependency-partitioned
  /// parallel reasoning (PR). Mostly for baselines.
  bool disable_partitioning = false;

  /// Run the staged asynchronous engine: ingest/windowing on the caller
  /// thread, reasoning as tasks on a SharedReasonerPool lane with several
  /// windows in flight, answers delivered in order by whichever task
  /// completes a window next. false keeps the fully synchronous
  /// one-window-at-a-time loop (the differential-testing oracle for the
  /// async path).
  bool async = false;

  /// Capacity of the window work queue between the windower and the
  /// pool lane (async only). Together with the lane's inflight cap this
  /// bounds how many windows are in flight at once. Must be >= 1.
  size_t max_inflight_windows = 4;

  /// Threads of the private SharedReasonerPool an async engine builds
  /// when shared_pool is not set (see
  /// ProvidePrivatePool in streamrule/validate.h); 0 picks
  /// DefaultThreadCount(). Ignored for sync engines and for engines on
  /// an external pool.
  size_t num_reason_workers = 0;

  /// Process-wide shared reasoning executor (async only); an async
  /// pipeline without one builds a private pool of num_reason_workers
  /// threads instead. Either way the pipeline spawns no threads of its
  /// own: every admitted window becomes one unit-cost task on the
  /// pipeline's DRR lane of this pool, and each of the window's
  /// partitions beyond the first one more, queued at the lane's front —
  /// so a window's partitions are reasoned in parallel on the pool
  /// without any pool task ever waiting for another (see PoolTask).
  /// Ordered delivery is collaborative — whichever task (or shedding
  /// caller) completes a window next drains the reorder buffer: one
  /// thread at a time, strictly increasing sequence order, byte-identical
  /// output under kBlock. The pool must outlive the pipeline (holding the
  /// shared_ptr here guarantees it).
  std::shared_ptr<SharedReasonerPool> shared_pool;

  /// DRR weight of this pipeline's lane on shared_pool (>= 1): the share
  /// of dispatch slots it receives while contending with other lanes.
  /// Each lane task costs one DRR credit, so a window costs one credit per
  /// partition.
  size_t pool_weight = 1;

  /// Cap on this pipeline's concurrently running lane tasks (windows and
  /// partitions) on its pool. 0 picks min(max_inflight_windows, pool
  /// threads) on a shared pool and all of a private pool's threads.
  /// Also sizes the pipeline's reasoner-slot set — the cap guarantees a
  /// free slot for every window task (see PoolTask).
  size_t pool_max_inflight = 0;

  /// Per-session window quota, enforced at the ingest boundary like the
  /// admission filter (async only): when > 0, a window closing while
  /// this many windows are already admitted-but-undelivered is shed as a
  /// rejection (counted, tombstoned, delta folded) instead of queued.
  /// Unlike kReject backpressure this bounds queued + reasoning windows
  /// together, which is the per-tenant quota the session server exposes.
  size_t max_queued_windows = 0;

  /// What Push does when the work queue is full (async only). kBlock is
  /// lossless and keeps async output identical to sync; kDropOldest /
  /// kReject shed load under overload — every shed window is counted in
  /// PipelineStats AND surfaces as a kShed tombstone event, in strict
  /// sequence order, so ordered consumers (the session server) account
  /// for the sequence instead of waiting forever.
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;

  /// Caller-controlled admission control (deterministic load shedding):
  /// when set, every window the windower closes is offered to this
  /// predicate on the caller thread; returning false sheds the window
  /// exactly like a kReject refusal — counted as rejected, delta folded
  /// into the next emission, tombstone delivered — independent of the
  /// backpressure policy, and in sync mode too (where the queue-based
  /// policies never engage). The overload test suite uses it to drive
  /// reproducible shed patterns; a production caller can use it as an
  /// upstream load-shedding hook (e.g. shed when a latency SLO is
  /// already blown).
  std::function<bool(const TripleWindow&)> admission_filter;

  InputDependencyOptions dependency;
  DecompositionOptions decomposition;
  ParallelReasonerOptions reasoner;
};

/// Rolling statistics over every window the pipeline processed. Snapshots
/// are returned by value from StreamRulePipeline::stats(), which is safe
/// to call from any thread while the async engine runs.
struct PipelineStats {
  uint64_t windows = 0;  ///< Windows reasoned successfully.
  uint64_t items = 0;    ///< Items in those windows.
  uint64_t answers = 0;
  double total_latency_ms = 0;  ///< Sum of per-window reasoning latency.
  double max_latency_ms = 0;
  double total_critical_path_ms = 0;
  uint64_t errors = 0;

  // --- async engine counters (zero in sync mode, except that the
  // admission filter counts under rejected_windows in both modes) ---
  uint64_t enqueued_windows = 0;  ///< Windows admitted to the work queue.
  uint64_t dropped_windows = 0;   ///< Evicted by kDropOldest backpressure.
  uint64_t rejected_windows = 0;  ///< Refused by kReject backpressure or
                                  ///< the admission filter.
  size_t max_queue_depth = 0;     ///< Work-queue high-water mark.
  size_t max_reorder_depth = 0;   ///< Reorder-buffer high-water mark.

  // --- graceful-degradation accounting (streamrule/accuracy.h) ---
  uint64_t shed_items = 0;  ///< Items in shed (dropped/rejected) windows.

  // --- grounding reuse counters (zero without grounding reuse), summed
  // over every partition of every reasoned window ---
  uint64_t incremental_windows = 0;   ///< Partition groundings that reused.
  uint64_t grounding_fallbacks = 0;   ///< Full re-groundings (first window,
                                      ///< oversized delta, compaction).
  uint64_t grounding_rules_retained = 0;
  uint64_t grounding_rules_retracted = 0;
  uint64_t grounding_rules_new = 0;

  // --- solver reuse counters (zero without solving reuse), summed over
  // every partition of every reasoned window ---
  uint64_t incremental_solve_windows = 0;  ///< Partition solves that patched
                                           ///< the persistent engine.
  uint64_t solve_rebuilds = 0;      ///< Full solver re-ingests (first window,
                                    ///< grounder fallback).
  uint64_t solver_rules_retained = 0;
  uint64_t solver_rules_retracted = 0;
  uint64_t solver_rules_new = 0;
  uint64_t warm_start_hits = 0;     ///< Partition solves guided by the
                                    ///< previous window's model.
  uint64_t atoms_touched = 0;       ///< Atom assignments recomputed (the
                                    ///< touched cone on maintained windows,
                                    ///< the full atom count elsewhere).
  uint64_t assignments_reused = 0;  ///< Assignments carried over verbatim
                                    ///< from the maintained fixpoint.
  uint64_t fixpoint_maintained_windows = 0;  ///< Partition solves answered
                                    ///< by committing the delta patch into
                                    ///< the maintained model alone.

  // --- phase-time totals summed over every partition of every reasoned
  // window (CPU-ish; partitions run concurrently), for the bench gates ---
  double total_ground_ms = 0;
  double total_solve_ms = 0;

  // --- compact-data-plane footprint (high-water marks, not totals):
  // how many bytes the packed plane retains per triple it holds ---
  size_t window_store_bytes = 0;  ///< Peak windower/query retained bytes,
                                  ///< sampled on the caller thread at each
                                  ///< window close.
  size_t atom_table_bytes = 0;    ///< Peak per-window AtomTable bytes
                                  ///< (summed over partitions).
  uint64_t max_window_items = 0;  ///< Largest reasoned window.

  double mean_latency_ms() const {
    return windows == 0 ? 0.0 : total_latency_ms / static_cast<double>(windows);
  }

  /// Windows lost to load shedding (evicted + refused), i.e. the number
  /// of tombstones the pipeline emitted.
  uint64_t shed_windows() const { return dropped_windows + rejected_windows; }

  /// Exact stream-level completeness under load shedding: items reasoned
  /// over items admitted by the windower (accuracy.h CompletenessRatio).
  /// Exactly 1.0 when nothing was shed. Windows lost to reasoning
  /// *errors* are tracked separately (errors) and not counted here.
  double completeness() const {
    return CompletenessRatio(items, items + shed_items);
  }

  /// Retained data-plane bytes (window store + grounding atom table, both
  /// at peak) per triple of the largest window — the machine-independent
  /// memory-compactness gate benched by tools/check_bench_regression.py.
  double bytes_per_triple() const {
    return max_window_items == 0
               ? 0.0
               : static_cast<double>(window_store_bytes + atom_table_bytes) /
                     static_cast<double>(max_window_items);
  }
};

/// The full extended-StreamRule loop behind one call: design-time input
/// dependency analysis, then stream in → filter → window → partition →
/// parallel reasoning → combined answers out. This is the one-stop API the
/// examples hand-assemble from parts; it owns the query processor and the
/// reasoner(s) and reports rolling statistics.
///
///   auto pipeline = StreamRulePipeline::Create(&program, options,
///       [](EmissionEvent& event) { ... });
///   pipeline->Push(triple);   // repeatedly
///   pipeline->Flush();        // end of stream
///
/// With options.async set, the run-time is a staged engine:
///
///   caller thread:  ingest → filter → windower ─┐
///                                               ▼
///                        BoundedQueue<TripleWindow> (backpressure)
///                                               ▼
///   pool lane:      one task per window (reasoner slot checked out),
///                   one more per partition beyond the first; several
///                   windows in flight on the lane's pool (shared, or
///                   private with num_reason_workers threads)
///                                               ▼
///   last finisher:  reorder buffer keyed by window sequence →
///                   EmissionHandler strictly in window order
///
/// The handler is always invoked from exactly one thread at a time and
/// strictly in window-sequence order, even when windows complete out of
/// order. With the lossless kBlock policy the observable output is
/// byte-identical to async=false.
///
/// Thread-safety contract:
///   * Push / PushBatch / Flush must be called from one
///     thread at a time (they share the windower's mutable state). That
///     thread need not be the one that created the pipeline.
///   * stats() and the simple accessors are safe from any thread, at any
///     time, including while the async engine is mid-window.
///   * The handler runs on the caller thread in sync mode and on a pool
///     thread (or a shedding caller) in async mode — never on two
///     threads at once, always in strictly increasing sequence order.
///   * The handler must not call back into Push/Flush on the same
///     pipeline.
class StreamRulePipeline {
 public:
  /// Runs design-time analysis on `program` (which must outlive the
  /// pipeline) and wires the run-time components, delivering every
  /// emitted window — result, error, or shed tombstone — as one ordered
  /// EmissionEvent. Reasoning exceptions become kError events in both
  /// modes — they never propagate out of Push — so an ordered consumer
  /// sees exactly one event per emitted window. The handler may steal the
  /// event's window (it is discarded right after the handler returns).
  /// Fails on a null handler, when the program is invalid or declares no
  /// usable input predicates, or when the options are inconsistent
  /// (streamrule/validate.h).
  static StatusOr<std::unique_ptr<StreamRulePipeline>> Create(
      const Program* program, PipelineOptions options,
      EmissionHandler handler);

  /// Drains every admitted window (without flushing a partial one), then
  /// stops the private pool, if any.
  ~StreamRulePipeline();

  StreamRulePipeline(const StreamRulePipeline&) = delete;
  StreamRulePipeline& operator=(const StreamRulePipeline&) = delete;

  /// Feeds one raw stream item. In async mode this may block (kBlock
  /// backpressure) or shed a window (kDropOldest/kReject) when
  /// max_inflight_windows is reached.
  void Push(const Triple& triple);

  /// Feeds a batch.
  void PushBatch(const std::vector<Triple>& triples);

  /// Emits the trailing partial window and, in async mode, blocks until
  /// every in-flight window has been reasoned and delivered.
  /// The pipeline remains usable afterwards.
  void Flush();

  /// Thread-safe snapshot of the rolling statistics.
  PipelineStats stats() const;

  const PartitioningPlan& plan() const { return plan_; }
  const DecompositionInfo& decomposition_info() const { return info_; }

  /// Partitions every window splits into: one per community, or
  /// reasoner.num_shards for each community the key-flow analysis
  /// splits (see ParallelReasonerOptions::num_shards).
  size_t num_partitions() const { return num_partitions_; }

  /// Threads of the pipeline's private pool (0 in sync mode and on an
  /// external shared_pool — see pool_queue() for the lane).
  size_t num_reason_workers() const {
    return private_pool_ == nullptr ? 0 : private_pool_->num_threads();
  }

  /// The pipeline's lane on its reasoner pool (null in sync mode).
  /// Exposes the lane's weight, inflight cap and task counters for tests
  /// and the session server's stats surface.
  const std::shared_ptr<SharedReasonerPool::Queue>& pool_queue() const {
    return pool_queue_;
  }

  /// Most reasoner slots ever checked out at once (async mode; 0
  /// otherwise). Never exceeds pool_queue()->max_inflight() — the slot
  /// invariant PoolTask relies on.
  size_t max_slots_in_use() const;

 private:
  /// A window being reasoned on the pool (defined in pipeline.cc).
  struct PoolWindow;

  /// A reasoned (or shed) window parked in the reorder buffer until every
  /// lower-sequence window has been delivered. Shed windows ride the same
  /// buffer so tombstones interleave with results in sequence order.
  struct CompletedWindow {
    TripleWindow window;
    StatusOr<ParallelReasonerResult> result{InternalError("not run")};
    bool shed = false;  ///< Tombstone: deliver as a kShed event.
  };

  StreamRulePipeline(const Program* program, PipelineOptions options,
                     PartitioningPlan plan, DecompositionInfo info,
                     EmissionHandler handler);

  /// Provides the private pool when no external one is set, builds (or
  /// adopts) the DRR lane, and fills the reasoner slots.
  void StartAsyncEngine();
  /// One admitted window's task on the pool lane. It never waits: it
  /// TryPops a window from the work queue (a miss means an eviction
  /// consumed it — benign surplus), checks a reasoner slot out, splits
  /// the window, submits partitions 1..n-1 to the FRONT of the lane,
  /// reasons partition 0 itself and returns. An atomic countdown elects
  /// the last partition to finish; it runs FinishPoolWindow. A
  /// one-partition window takes the same path with zero subtasks.
  ///
  /// Slot invariant: a slot stays checked out until its window's last
  /// partition finishes, yet checkout never finds the free list empty.
  /// Partition tasks queue at the lane's front, so a window task is only
  /// dispatched while none of the lane's partition tasks are queued; then
  /// every window holding a slot has a task running, and those tasks plus
  /// the new one fit the lane's inflight cap, which equals the slot
  /// count.
  void PoolTask();
  /// Reasons partition `index` of a pooled window; the last partition of
  /// the window to finish runs FinishPoolWindow.
  void ReasonPoolPartition(const std::shared_ptr<PoolWindow>& pool_window,
                           size_t index);
  /// Join continuation: finishes the window (or reports `error`, a split
  /// failure), checks its slot back in, parks the outcome in the reorder
  /// buffer and collaborates on ordered delivery.
  void FinishPoolWindow(PoolWindow& pool_window,
                        std::exception_ptr error = nullptr);
  /// Ordered delivery: whoever calls first (a finishing pool
  /// task, a shedding caller) takes the drain baton and delivers every
  /// deliverable window in sequence order; concurrent callers see the
  /// baton held and return — the holder's re-check after each delivery
  /// observes their insertions, so nothing is stranded.
  void DrainCompleted();
  /// Stage boundary: windower output → work queue (applies backpressure).
  void EnqueueWindow(TripleWindow window);
  /// The synchronous oracle path: reason + emit on the caller thread.
  void ProcessWindowSync(TripleWindow& window);
  /// Records stats and invokes the handler for one reasoned window (the
  /// handler may gut `window`, which the caller is about to discard).
  void DeliverResult(TripleWindow& window,
                     const StatusOr<ParallelReasonerResult>& result);
  /// Accounts for one shed window and routes its tombstone into the
  /// emission stream (directly in sync mode; via the reorder buffer in
  /// async mode). `evicted` distinguishes asynchronous kDropOldest
  /// evictions (counted dropped, delta NOT folded — the gap is
  /// mid-stream) from synchronous refusals (kReject / admission filter:
  /// counted rejected, delta folded into the next emission).
  void ShedWindow(TripleWindow window, bool evicted);
  /// Invokes the handler with one tombstone.
  void DeliverShed(TripleWindow& window);
  /// True when the smallest completed sequence has no smaller sequence
  /// still in flight. Requires emit_mutex_.
  bool CanEmitLocked() const;

  const Program* program_;
  PipelineOptions options_;
  PartitioningPlan plan_;
  DecompositionInfo info_;
  EmissionHandler handler_;
  size_t num_partitions_ = 0;
  std::unique_ptr<StreamQueryProcessor> query_;

  /// Sync mode's single reasoner (null in async mode).
  std::unique_ptr<ParallelReasoner> sync_reasoner_;

  mutable std::mutex stats_mutex_;
  PipelineStats stats_;

  // --- async engine state (null/empty in sync mode) ---
  std::unique_ptr<BoundedQueue<TripleWindow>> work_queue_;
  /// The pool this pipeline built for itself (null when it runs on an
  /// external shared_pool, and in sync mode). Also held by
  /// options_.shared_pool; kept here to tell private from external.
  std::shared_ptr<SharedReasonerPool> private_pool_;
  /// This pipeline's DRR lane on options_.shared_pool.
  std::shared_ptr<SharedReasonerPool::Queue> pool_queue_;
  /// Checked-in reasoner slots, one per unit of the lane's inflight cap.
  /// A window holds its slot from split to finish; the slot invariant
  /// (PoolTask) guarantees checkout always finds a free one.
  mutable std::mutex slots_mutex_;
  std::vector<std::unique_ptr<ParallelReasoner>> free_slots_;
  size_t slots_in_use_ = 0;      ///< Guarded by slots_mutex_.
  size_t max_slots_in_use_ = 0;  ///< Guarded by slots_mutex_.
  /// Drain baton (guarded by emit_mutex_): true while some thread is
  /// inside DrainCompleted's delivery loop.
  bool draining_ = false;

  std::mutex emit_mutex_;
  std::condition_variable drained_cv_;  ///< Wakes Flush waiters.
  std::map<uint64_t, CompletedWindow> completed_;  ///< Reorder buffer.
  std::set<uint64_t> inflight_;  ///< Admitted, not yet reasoned.
  size_t delivering_ = 0;  ///< Windows mid-delivery (baton holder).
};

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_PIPELINE_H_
