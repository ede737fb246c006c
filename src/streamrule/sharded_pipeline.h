#ifndef STREAMASP_STREAMRULE_SHARDED_PIPELINE_H_
#define STREAMASP_STREAMRULE_SHARDED_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "stream/shard_key.h"
#include "stream/window_store.h"
#include "streamrule/pipeline.h"
#include "util/bounded_queue.h"

namespace streamasp {

/// Configuration of the sharded multi-pipeline engine.
struct ShardedPipelineOptions {
  /// Number of independent shard pipelines. Each shard owns a full
  /// StreamRulePipeline (windower + reasoner machinery) plus one feeder
  /// thread, so the stream is windowed on num_shards threads instead of
  /// one.
  size_t num_shards = 2;

  /// Partition key (see stream/shard_key.h). null uses SubjectShardKey().
  /// Answers are shard-count-invariant only when the key respects the
  /// program's input dependencies — subject keys for subject-local
  /// programs, CommunityShardKey(plan) for community-partitioned ones.
  /// The router helps the key out with the paper's duplication device:
  /// items of a *duplicated* predicate (one whose ground atoms several
  /// dependency communities need, PartitioningPlan::DuplicatedPredicates)
  /// are broadcast to every shard, so rules that join a duplicated
  /// predicate against facts living on another shard do not silently
  /// lose the join. The key still decides the item's *owning* shard,
  /// which is the copy global window accounting and the merged window
  /// count — replicas are pure reasoning context.
  ShardKeyExtractor shard_key;

  /// Items buffered per shard before the router hands them to the shard's
  /// feeder as one batch (amortizes queue crossings). Global window
  /// boundaries always cut a batch regardless of fill.
  size_t router_batch_size = 256;

  /// Capacity of each shard's feeder command queue (batches + punctuation
  /// in flight between the router and that shard). Always lossless
  /// (kBlock): a full feeder queue backpressures the router.
  size_t feeder_queue_capacity = 8;

  /// Capacity of the merge queue between shard deliveries and the merge
  /// thread. 0 picks max(8, 2 * num_shards).
  size_t merge_queue_capacity = 0;

  /// Per-shard pipeline configuration. window_size and window_slide are
  /// interpreted globally: a window boundary falls after every
  /// window_size-th (then every window_slide-th) routed item *across all
  /// shards*, and each shard reasons its slice of that global window.
  ///
  /// Load shedding is supported: lossy backpressure (kDropOldest /
  /// kReject — async shards only, sync pipelines have no work queue to
  /// shed from) and pipeline.admission_filter both work under sharding,
  /// including with sliding global windows. A shed sub-window surfaces
  /// as a kShed tombstone in the shard's ordered emission stream, so the
  /// merge releases its slot
  /// instead of stalling; the merged window is delivered with
  /// completeness < 1 (see ShardedPipelineStats and
  /// ParallelReasonerResult::completeness). Synchronously shed sliding
  /// sub-windows fold their delta into the shard's next emission
  /// (StreamQueryProcessor::FoldShedDelta), mirroring the router's
  /// skipped-empty-slice folding, so incremental reuse stays exact
  /// across the gap.
  ///
  /// window_slide in (0, window_size) selects *sliding global windows*:
  /// the router retains the global window's contents and, at each
  /// boundary, punctuates every shard holding a non-empty slice with its
  /// routed split of the global expired/admitted delta
  /// (StreamRulePipeline::CloseWindow(WindowDelta)). Routing is per-item
  /// and pure, so the per-shard deltas compose back to exactly the
  /// global delta (duplicated-predicate items appear in every shard's
  /// delta — admitted and expired alike — matching their broadcast) and
  /// the merged answers stay byte-identical to the unsharded sliding
  /// oracle. reuse_grounding / reuse_solving therefore
  /// keep their full delta-sized per-window cost under sharding: each
  /// shard's incremental grounders retract/replay only its slice of the
  /// slide, and the paired persistent solvers patch instead of
  /// re-ingesting. With tumbling global windows (slide 0 or ==
  /// window_size) the sub-windows share no content, so the caches fall
  /// back every window — correct but not faster.
  ///
  /// Threads: async shards without an external pool share ONE private
  /// pool and one lane, so pipeline.num_reason_workers is the thread
  /// count of the whole engine, not of each shard (0 picks
  /// DefaultThreadCount() for the engine); a config that wants N
  /// threads per shard sets N * num_shards. The lane's default cap is
  /// every pool thread. Sync shards' reasoner.num_threads left at 0 is
  /// budgeted across shards (hardware threads / num_shards each).
  PipelineOptions pipeline;
};

/// Statistics of the sharded engine: the per-shard PipelineStats, their
/// aggregate, and the router/merge counters. Snapshots are returned by
/// value from ShardedPipelineEngine::stats(), safe from any thread.
struct ShardedPipelineStats {
  /// Field-wise sum (max for the high-water marks) over per_shard. Note
  /// `answers` counts per-shard sub-window answers before merging;
  /// `merged_answers` counts what consumers actually saw.
  PipelineStats aggregate;
  std::vector<PipelineStats> per_shard;

  /// Items routed to each shard (post-filter). Includes broadcast
  /// replicas, so with duplicated predicates the sum across shards
  /// exceeds the number of pushed items by exactly broadcast_copies.
  std::vector<uint64_t> routed_items;
  /// Items the router dropped because their predicate is not declared as
  /// an input of the program.
  uint64_t filtered_items = 0;
  /// Extra per-shard copies fanned out for duplicated predicates (the
  /// owner's copy is not counted). Zero when the plan has no duplicated
  /// predicates or the engine runs a single shard.
  uint64_t broadcast_copies = 0;

  /// Global windows delivered to the handler.
  uint64_t merged_windows = 0;
  /// Answers delivered to the handler (after cross-shard combining).
  uint64_t merged_answers = 0;
  /// Global windows suppressed because a shard sub-window failed (the
  /// per-shard error is also counted in aggregate.errors) or because the
  /// emission handler threw.
  uint64_t merge_errors = 0;
  /// High-water mark of the merge queue.
  size_t max_merge_queue_depth = 0;
  /// High-water mark of global windows buffered in the merge reorder
  /// stage (complete or partially assembled).
  size_t max_merge_reorder_depth = 0;

  // --- sliding-router counters (zero for tumbling global windows) ---
  /// Delta punctuations delivered to shards (boundary × contributing
  /// shard pairs).
  uint64_t delta_punctuations = 0;
  /// Boundary × shard pairs where a shard with *pending deltas* was
  /// skipped because its slice of the global window was empty; the
  /// folded deltas are delivered with its next punctuation. (A shard the
  /// key never routes to is skipped silently — it has nothing to fold.)
  uint64_t skipped_empty_slices = 0;

  // --- graceful-degradation counters (all zero / 1.0 unless a lossy
  // backpressure policy or admission filter actually shed work) ---
  /// Shard sub-windows that were shed (tombstoned) instead of reasoned.
  /// Also reflected item-wise in aggregate.shed_items.
  uint64_t shed_subwindows = 0;
  /// Merged windows delivered with completeness < 1.0 (at least one shed
  /// contribution).
  uint64_t degraded_windows = 0;
  /// Mean per-window completeness (items reasoned / items admitted,
  /// accuracy.h CompletenessRatio) over delivered merged windows; exactly
  /// 1.0 when nothing was shed.
  double mean_completeness = 1.0;
  /// Worst per-window completeness observed; exactly 1.0 when nothing
  /// was shed.
  double min_completeness = 1.0;
};

/// Horizontal scale-out of the staged engine: hash-partitions the input
/// stream across `num_shards` independent StreamRulePipeline instances and
/// globally merges their emissions back into strict window-sequence order.
///
///   caller thread:  filter ─► shard key ─► router (global window count)
///        │ per-shard BoundedQueue<ShardCommand> (batches + punctuation)
///        ▼
///   feeder threads: shard pipeline Push / CloseWindow   × num_shards
///        │ each shard: windower ─► engine-wide pool lane ─► ordered
///        │             delivery
///        ▼
///   merge thread:   BoundedQueue<MergeItem> ─► reorder by global window
///                   ─► combine shard answers ─► EmissionHandler
///
/// Window semantics: the router counts surviving items and punctuates
/// every shard after each window_size-th item, so global window g is the
/// same set of items the unsharded pipeline would put in its window g —
/// merely split by shard key into per-shard sub-windows that are windowed
/// and reasoned concurrently. Under sliding global windows
/// (window_slide < window_size) the router additionally retains the
/// global window's contents and each punctuation carries the shard's
/// split of the global expired/admitted delta, so the shard windowers
/// emit delta-carrying sliding sub-windows and the incremental
/// grounding/solving caches stay warm across overlapping global windows
/// (shards whose slice is empty are skipped; their deltas fold into the
/// next punctuation). The merge stage combines the sub-window answers
/// with the paper's combining-handler semantics (one pick per shard,
/// unioned; CombiningHandler), which makes the delivered answers
/// *shard-count-invariant and byte-identical to the synchronous oracle*
/// whenever the shard key respects the program's input dependencies.
/// This is the paper's input-dependency partitioning lifted from intra-
/// window parallelism to pipeline-level scale-out — including its
/// duplication device: items of predicates the plan marks as duplicated
/// (needed by rules in more than one dependency community, e.g.
/// car_number in the connected P' variant) are broadcast to every shard
/// as reasoning context, because a hash key alone cannot co-locate them
/// with every rule that joins against them. Each such item still has one
/// *owning* shard (its hash); replicas never count toward global window
/// boundaries, the merged window's items, or completeness.
///
/// Ordering guarantee: the handler runs on the single merge thread, once
/// per global window, in strictly increasing global sequence order, no
/// matter how shards race. Reasoning failures consume their slot (the
/// window is skipped and counted, never reordered or stalled on), and so
/// do shed sub-windows: a shard that sheds a sub-window emits a tombstone
/// in its ordered stream, the merge counts it as that shard's
/// contribution, and the global window is delivered with the surviving
/// shards' answers and completeness < 1 — overload degrades answers, it
/// never stalls or reorders the merge.
///
/// Thread-safety: Push/PushBatch/Flush single caller thread at a time;
/// stats()/accessors any thread. The handler must not re-enter the
/// engine. Internally every wait is on the stage one level downstream
/// (router → feeder queues → shard pipelines → merge queue), so no stage
/// ever waits on its own stage.
///
/// The merged TripleWindow holds the global window's items grouped by
/// shard (shard 0's slice first), not in original stream arrival order;
/// sizes and sequences match the unsharded pipeline exactly (broadcast
/// replicas are skipped at the merge — only the owning shard's copy of a
/// duplicated-predicate item lands in the merged window).
class ShardedPipelineEngine {
 public:
  /// Builds num_shards pipelines over `program` (one design-time analysis
  /// each; `program` must outlive the engine) and starts the feeder and
  /// merge threads, delivering every merged global window as one ordered
  /// EmissionEvent on the merge thread: kResult for a combined window
  /// (completeness < 1 when shed shard contributions degraded it — a
  /// fully shed window still delivers kResult with zero answers), kError
  /// when a shard sub-window failed or cross-shard combining did (the
  /// slot is consumed, never stalled on). The engine itself emits no
  /// kShed events: shard-level tombstones are absorbed into the merged
  /// window's completeness. Fails on a null program/handler or options
  /// the shared validator rejects (zero shards, lossy backpressure on
  /// synchronous shard pipelines — see streamrule/validate.h).
  static StatusOr<std::unique_ptr<ShardedPipelineEngine>> Create(
      const Program* program, ShardedPipelineOptions options,
      EmissionHandler handler);

  /// Drains every admitted global window (without flushing a partial
  /// one), then stops feeders, shard pipelines and the merge thread.
  ~ShardedPipelineEngine();

  ShardedPipelineEngine(const ShardedPipelineEngine&) = delete;
  ShardedPipelineEngine& operator=(const ShardedPipelineEngine&) = delete;

  /// Routes one raw stream item. May block when a downstream stage is
  /// saturated (lossless backpressure all the way to the caller).
  void Push(const Triple& triple);

  /// Routes a batch.
  void PushBatch(const std::vector<Triple>& triples);

  /// Closes the trailing partial global window (if any), then blocks
  /// until every admitted global window has been reasoned on all shards,
  /// merged, and delivered. The engine remains usable afterwards.
  void Flush();

  /// Thread-safe snapshot across all shards plus router/merge counters.
  ShardedPipelineStats stats() const;

  size_t num_shards() const { return shards_.size(); }

  /// Threads of the engine's private pool, counted once for all shards
  /// (0 for sync shards and on an external shared_pool/shared_queue).
  size_t num_reason_workers() const {
    return private_pool_ == nullptr ? 0 : private_pool_->num_threads();
  }

  /// Introspection into one shard's pipeline (plan, decomposition info…).
  const StreamRulePipeline& shard(size_t index) const {
    return *shards_[index];
  }

 private:
  /// One unit of work for a shard's feeder thread: items to push, then
  /// optionally a window-close (global boundary punctuation — carrying
  /// the shard's delta under sliding global windows), then optionally a
  /// flush-and-acknowledge barrier.
  struct ShardCommand {
    std::vector<Triple> batch;
    bool close_window = false;
    std::optional<WindowDelta> delta;  ///< Sliding punctuation payload.
    bool flush = false;
  };

  /// One shard's reasoned sub-window travelling to the merge thread — or
  /// its tombstone: a shed sub-window travels with shed == true, its
  /// items intact (the merge accounts them as admitted-but-unreasoned)
  /// and `result` untouched.
  struct MergeItem {
    uint64_t global_sequence = 0;
    size_t shard = 0;
    bool shed = false;
    TripleWindow window;
    StatusOr<ParallelReasonerResult> result{InternalError("not run")};
  };

  /// A global window being reassembled from its shard contributions.
  struct PendingMerge {
    std::vector<MergeItem> contributions;
    uint32_t expected = 0;
  };

  ShardedPipelineEngine(const Program* program,
                        ShardedPipelineOptions options,
                        EmissionHandler handler);

  Status StartShards();
  bool sliding() const { return slide_ < window_size_; }
  /// True when `triple` sits in shard `shard`'s sub-window only as a
  /// broadcast replica of a duplicated predicate (its owning shard is a
  /// different one). Pure in (triple, shard), so the merge can recompute
  /// ownership instead of tagging items in flight.
  bool IsReplica(const Triple& triple, size_t shard) const;
  /// Routes one pre-filtered item (caller thread).
  void Route(const Triple& triple);
  /// Cuts the current tumbling global window: assigns the next global
  /// sequence, records the expected contributors, punctuates their
  /// feeders.
  void CloseGlobalWindow();
  /// Sliding counterpart: punctuates every shard with a non-empty slice
  /// of the retained global window, each close carrying the shard's
  /// accumulated expired/admitted delta.
  void CloseGlobalSlidingWindow();
  /// Hands a shard's pending batch to its feeder (with optional close;
  /// a non-null delta makes the close a sliding delta punctuation).
  void DispatchBatch(size_t shard, bool close_window,
                     std::optional<WindowDelta> delta = std::nullopt);
  void FeederLoop(size_t shard);
  /// Shard result and error events funnel here; the sub-window's items
  /// are stolen, not copied (see EmissionEvent::window).
  void OnShardDelivery(size_t shard, TripleWindow& window,
                       StatusOr<ParallelReasonerResult> result);
  /// Shard shed (tombstone) events funnel here: releases the shed
  /// sub-window's merge slot so the global window assembles without it.
  void OnShardShed(size_t shard, TripleWindow& window);
  void MergeLoop();
  /// Assembles and delivers one complete global window (merge thread).
  void DeliverMerged(uint64_t global_sequence,
                     std::vector<MergeItem> contributions);

  const Program* program_;
  ShardedPipelineOptions options_;
  EmissionHandler handler_;
  CombiningHandler merge_combiner_;

  std::unordered_set<SymbolId> selected_;  ///< Router's input filter.
  /// Predicates the shards' partitioning plan duplicates across
  /// communities; the router broadcasts their items to every shard.
  std::unordered_set<SymbolId> duplicated_;
  size_t window_size_ = 1;                 ///< Global window length.
  size_t slide_ = 1;  ///< Global slide; == window_size_ for tumbling.

  // --- router state (caller thread only) ---
  std::vector<std::vector<Triple>> batches_;    ///< Per-shard micro-batch.
  std::vector<size_t> pending_in_window_;  ///< Per-shard items this window.
  size_t window_fill_ = 0;       ///< Items routed since the last boundary.
  uint64_t next_global_sequence_ = 0;

  // --- sliding router state (caller thread only; untouched when
  // tumbling). The retained global window is a columnar WindowStore with
  // a shard-assignment column; eviction in global arrival order keeps
  // every per-shard expired list a prefix of that shard's retained
  // sub-stream. ---
  WindowStore global_window_{
      WindowStore::Options{/*with_timestamps=*/false, /*with_shards=*/true}};
  std::vector<std::vector<Triple>> pending_expired_;   ///< Per shard.
  std::vector<std::vector<Triple>> pending_admitted_;  ///< Per shard.
  std::vector<size_t> slice_count_;  ///< Retained items per shard.
  size_t arrivals_since_emit_ = 0;
  bool emitted_once_ = false;

  // --- router counters (written by the caller thread only; relaxed
  // atomics so stats() can read them from anywhere without putting a
  // lock on the per-item routing hot path) ---
  std::vector<std::atomic<uint64_t>> routed_items_;
  std::atomic<uint64_t> filtered_items_{0};
  std::atomic<uint64_t> broadcast_copies_{0};
  std::atomic<uint64_t> delta_punctuations_{0};
  std::atomic<uint64_t> skipped_empty_slices_{0};
  /// Peak bytes of the router's retained global WindowStore, published on
  /// the caller-thread sliding push path (stats() must not touch
  /// global_window_ itself — it races the router).
  std::atomic<size_t> router_window_bytes_{0};

  // --- shards ---
  /// The async shards' shared private pool (null for sync shards and on
  /// an external pool). The shards hold it too; drained by their
  /// destructors before it is joined.
  std::shared_ptr<SharedReasonerPool> private_pool_;
  std::vector<std::unique_ptr<StreamRulePipeline>> shards_;
  std::vector<std::unique_ptr<BoundedQueue<ShardCommand>>> feeder_queues_;
  std::vector<std::thread> feeders_;

  /// Per-shard FIFO of global sequences, one entry per punctuated
  /// sub-window: the router appends before punctuating, the shard's
  /// delivery pops (deliveries are in local window order).
  std::mutex mapping_mutex_;
  std::vector<std::deque<uint64_t>> global_sequence_of_;

  /// Feeder flush barrier.
  std::mutex flush_mutex_;
  std::condition_variable flush_cv_;
  size_t flush_acks_ = 0;

  // --- merge stage ---
  std::unique_ptr<BoundedQueue<MergeItem>> merge_queue_;
  std::thread merger_;
  mutable std::mutex merge_mutex_;
  std::condition_variable merge_drained_cv_;  ///< Wakes Flush waiters.
  /// Expected contribution count per assigned global window.
  std::unordered_map<uint64_t, uint32_t> expected_;
  uint64_t assigned_windows_ = 0;   ///< Global sequences handed out.
  uint64_t delivered_windows_ = 0;  ///< Emission slots consumed (ok + err).
  uint64_t merged_windows_ = 0;
  uint64_t merged_answers_ = 0;
  uint64_t merge_errors_ = 0;
  uint64_t shed_subwindows_ = 0;
  uint64_t degraded_windows_ = 0;
  double completeness_sum_ = 0;  ///< Over delivered merged windows.
  double min_completeness_ = 1.0;
  size_t max_merge_reorder_depth_ = 0;
};

/// A dependency-graph-derived shard key: routes every item to the
/// community its predicate belongs to under `plan` (see
/// DecomposeInputDependencyGraph), so whole dependency communities shard
/// together. A duplicated predicate's items hash to their first
/// community (their owner); the router's broadcast places the replica
/// copies on every other shard, so cross-community rules keep their
/// joins. Predicates unknown to the plan map to community 0, mirroring
/// PartitioningHandler.
ShardKeyExtractor CommunityShardKey(const PartitioningPlan& plan);

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_SHARDED_PIPELINE_H_
