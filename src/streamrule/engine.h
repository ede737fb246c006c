#ifndef STREAMASP_STREAMRULE_ENGINE_H_
#define STREAMASP_STREAMRULE_ENGINE_H_

#include <memory>
#include <vector>

#include "streamrule/emission.h"
#include "streamrule/pipeline.h"
#include "streamrule/sharded_pipeline.h"

namespace streamasp {

/// One validated configuration for every engine shape. The facade picks
/// the run-time from it:
///   * num_shards == 0 — a single StreamRulePipeline; pipeline.async
///     selects the synchronous oracle loop or the staged async engine.
///   * num_shards >= 1 — the ShardedPipelineEngine with that many shard
///     pipelines (1 is a legitimate degenerate sharded engine: router +
///     merge around one shard — distinct from num_shards == 0, which has
///     neither).
/// The sharded knobs below num_shards are ignored when it is 0.
struct EngineConfig {
  /// 0 = unsharded single pipeline; >= 1 = sharded engine.
  size_t num_shards = 0;

  /// Partition key (sharded only; see stream/shard_key.h). null uses
  /// SubjectShardKey().
  ShardKeyExtractor shard_key;

  /// Router micro-batch size (sharded only).
  size_t router_batch_size = 256;

  /// Per-shard feeder queue capacity (sharded only).
  size_t feeder_queue_capacity = 8;

  /// Merge queue capacity; 0 picks max(8, 2 * num_shards) (sharded only).
  size_t merge_queue_capacity = 0;

  /// The per-pipeline configuration every shape shares: window geometry,
  /// reuse flags, async staging, backpressure, admission filter,
  /// reasoner options. Under sharding window_size/window_slide are
  /// interpreted globally (see ShardedPipelineOptions::pipeline).
  PipelineOptions pipeline;
};

/// One stats surface across every engine shape. `reasoning` aggregates
/// the pipeline-level counters (the single pipeline's stats unsharded,
/// the field-wise shard aggregate sharded); the flat fields carry the
/// delivery/router/merge view consumers actually gate on. Snapshots are
/// returned by value from StreamEngine::stats(), safe from any thread.
struct EngineStats {
  /// Shape marker: 0 = unsharded, else the shard count.
  size_t num_shards = 0;

  /// Pipeline-level aggregate (see PipelineStats). Sharded: `windows`/
  /// `answers` count per-shard sub-windows before merging; unsharded
  /// they equal delivered_windows/delivered_answers.
  PipelineStats reasoning;
  /// Per-shard breakdown (empty unsharded).
  std::vector<PipelineStats> per_shard;

  /// Items routed to each shard (empty unsharded).
  std::vector<uint64_t> routed_items;
  /// Items dropped upstream because their predicate is not a program
  /// input (sharded router filter; 0 unsharded — the windower filters
  /// silently).
  uint64_t filtered_items = 0;

  /// kResult emissions delivered to the handler: merged global windows
  /// (sharded) or reasoned windows (unsharded).
  uint64_t delivered_windows = 0;
  /// Answers those deliveries carried (post cross-shard combining).
  uint64_t delivered_answers = 0;
  /// Emission slots consumed by failures: merge_errors (sharded) or
  /// reasoning errors (unsharded).
  uint64_t delivery_errors = 0;

  /// Counters of the engine's reasoner-pool lane (all zero for the
  /// synchronous shapes; sharded engines share one lane): a task per
  /// admitted window plus one per partition beyond the first.
  SharedReasonerPool::Queue::Stats lane;

  // --- sharded merge/router counters (zero unsharded) ---
  size_t max_merge_queue_depth = 0;
  size_t max_merge_reorder_depth = 0;
  uint64_t delta_punctuations = 0;
  uint64_t skipped_empty_slices = 0;
  uint64_t shed_subwindows = 0;

  // --- graceful-degradation view over delivered windows ---
  /// Delivered windows with completeness < 1 (sharded; unsharded windows
  /// are all-or-nothing, so always 0 — whole shed windows count under
  /// shed_windows()).
  uint64_t degraded_windows = 0;
  double mean_completeness = 1.0;
  double min_completeness = 1.0;

  /// Whole windows lost to load shedding: pipeline tombstones unsharded,
  /// 0 sharded (sub-window sheds degrade completeness instead — see
  /// shed_subwindows).
  uint64_t shed_windows() const {
    return num_shards == 0 ? reasoning.shed_windows() : 0;
  }

  /// Stream-level completeness (items reasoned / items admitted), the
  /// quantity the burst-overload bench gates: identical formula for both
  /// shapes because `reasoning` sums items/shed_items across shards.
  double completeness() const { return reasoning.completeness(); }

  /// Emitted windows that were accounted for — delivered, errored, or
  /// tombstoned. An emitted window outside this count means an ordered
  /// consumer stalled (the bench gates pin it to the expected total).
  uint64_t accounted_windows() const {
    return num_shards == 0
               ? delivered_windows + delivery_errors + shed_windows()
               : delivered_windows + delivery_errors;
  }

  /// Largest per-shard routed-item count (reasoning.items unsharded) —
  /// the bench's router-skew indicator.
  uint64_t max_shard_items() const {
    if (routed_items.empty()) return reasoning.items;
    uint64_t max_items = 0;
    for (uint64_t routed : routed_items) {
      if (routed > max_items) max_items = routed;
    }
    return max_items;
  }

  /// Retained data-plane bytes per triple of the largest window (see
  /// PipelineStats::bytes_per_triple; sharded aggregates include the
  /// router's retained global window).
  double bytes_per_triple() const { return reasoning.bytes_per_triple(); }
};

/// The one engine surface: a facade over StreamRulePipeline (sync or
/// async) and ShardedPipelineEngine that picks the run-time shape from a
/// single validated EngineConfig and delivers one ordered EmissionEvent
/// stream either way. The server, the examples and both benches drive
/// this; the underlying engines stay public for tests and for consumers
/// that need punctuation-level control (the facade adds no behavior, so
/// output through it is byte-identical to driving the engines directly).
///
/// Thread-safety mirrors the engines: Push/PushBatch/Flush from one
/// thread at a time, stats() from anywhere, the handler must not
/// re-enter the engine.
class StreamEngine {
 public:
  /// Builds the engine `config` describes over `program` (which must
  /// outlive the engine). Fails on null program/handler or options the
  /// shared validator rejects (streamrule/validate.h).
  static StatusOr<std::unique_ptr<StreamEngine>> Create(
      const Program* program, EngineConfig config, EmissionHandler handler);

  /// Feeds one raw stream item. May block (lossless backpressure) or
  /// shed (lossy policies / admission filter) exactly as the underlying
  /// engine would.
  void Push(const Triple& triple);

  /// Feeds a batch.
  void PushBatch(const std::vector<Triple>& triples);

  /// Emits the trailing partial window (if any) and blocks until every
  /// admitted window has been reasoned, merged, and delivered. The
  /// engine remains usable afterwards.
  void Flush();

  /// Thread-safe unified snapshot.
  EngineStats stats() const;

  /// 0 when unsharded.
  size_t num_shards() const;

  /// Threads of the engine's private reasoner pool (counted once for a
  /// sharded engine); 0 for the synchronous shapes and for engines on an
  /// external shared_pool.
  size_t num_reason_workers() const;

  /// The underlying engine, for introspection (plan, decomposition info,
  /// punctuation-level control). Exactly one is non-null.
  StreamRulePipeline* pipeline() { return pipeline_.get(); }
  const StreamRulePipeline* pipeline() const { return pipeline_.get(); }
  ShardedPipelineEngine* sharded() { return sharded_.get(); }
  const ShardedPipelineEngine* sharded() const { return sharded_.get(); }

 private:
  StreamEngine() = default;

  std::unique_ptr<StreamRulePipeline> pipeline_;
  std::unique_ptr<ShardedPipelineEngine> sharded_;
};

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_ENGINE_H_
