#ifndef STREAMASP_STREAMRULE_ENGINE_H_
#define STREAMASP_STREAMRULE_ENGINE_H_

#include <memory>

#include "streamrule/emission.h"
#include "streamrule/pipeline.h"

namespace streamasp {

/// One validated configuration for every engine shape: pipeline.async
/// selects the synchronous oracle loop or the staged async engine, and
/// pipeline.reasoner.num_shards bounds the buckets each window's
/// dependency communities split into (see PartitioningHandler) —
/// sharding is partitioning, not a second engine.
struct EngineConfig {
  /// Window geometry, reuse flags, async staging, backpressure, admission
  /// filter, reasoner options (including num_shards).
  PipelineOptions pipeline;
};

/// One stats surface across every engine shape. Snapshots are returned by
/// value from StreamEngine::stats(), safe from any thread.
struct EngineStats {
  /// The configured bucket bound (pipeline.reasoner.num_shards): 0 when
  /// unsharded.
  size_t num_shards = 0;

  /// Partitions per window the key-flow analysis chose under that bound
  /// (StreamRulePipeline::num_partitions).
  size_t num_partitions = 0;

  /// Pipeline-level counters (see PipelineStats): reasoning.windows and
  /// reasoning.answers are the kResult emissions delivered to the handler
  /// and their answers, reasoning.errors the kError ones.
  PipelineStats reasoning;

  /// Counters of the engine's reasoner-pool lane (all zero for the
  /// synchronous shape): a task per admitted window plus one per
  /// partition beyond the first — under reuse, one per partition.
  SharedReasonerPool::Queue::Stats lane;

  /// Whole windows lost to load shedding (pipeline tombstones).
  uint64_t shed_windows() const { return reasoning.shed_windows(); }

  /// Stream-level completeness (items reasoned / items admitted), the
  /// quantity the burst-overload bench gates.
  double completeness() const { return reasoning.completeness(); }

  /// Emitted windows that were accounted for — delivered, errored, or
  /// tombstoned. An emitted window outside this count means an ordered
  /// consumer stalled (the bench gates pin it to the expected total).
  uint64_t accounted_windows() const {
    return reasoning.windows + reasoning.errors + shed_windows();
  }

  /// Retained data-plane bytes per triple of the largest window (see
  /// PipelineStats::bytes_per_triple).
  double bytes_per_triple() const { return reasoning.bytes_per_triple(); }
};

/// The one engine surface: a facade over StreamRulePipeline (sync or
/// async) built from a single validated EngineConfig, delivering one
/// ordered EmissionEvent stream. The server, the examples, the benches
/// and perfbench drive this; the pipeline stays public for tests and for
/// introspection (the facade adds no behavior, so output through it is
/// byte-identical to driving the pipeline directly).
///
/// Thread-safety mirrors the pipeline: Push/PushBatch/Flush from one
/// thread at a time, stats() from anywhere, the handler must not
/// re-enter the engine.
class StreamEngine {
 public:
  /// Builds the engine `config` describes over `program` (which must
  /// outlive the engine). Fails wherever StreamRulePipeline::Create does:
  /// a null program or handler, a program it refuses, or options the
  /// shared validator rejects (streamrule/validate.h).
  static StatusOr<std::unique_ptr<StreamEngine>> Create(
      const Program* program, EngineConfig config, EmissionHandler handler);

  /// Feeds one raw stream item. May block (lossless backpressure) or
  /// shed (lossy policies / admission filter) exactly as the pipeline
  /// would.
  void Push(const Triple& triple) { pipeline_->Push(triple); }

  /// Feeds a batch.
  void PushBatch(const std::vector<Triple>& triples) {
    pipeline_->PushBatch(triples);
  }

  /// Emits the trailing partial window (if any) and blocks until every
  /// admitted window has been reasoned and delivered. The engine remains
  /// usable afterwards.
  void Flush() { pipeline_->Flush(); }

  /// Thread-safe unified snapshot.
  EngineStats stats() const;

  /// Threads of the engine's private reasoner pool; 0 for the synchronous
  /// shape and for engines on an external shared_pool.
  size_t num_reason_workers() const {
    return pipeline_->num_reason_workers();
  }

  /// The underlying pipeline, for introspection (plan, decomposition
  /// info, lane gauges).
  StreamRulePipeline* pipeline() { return pipeline_.get(); }
  const StreamRulePipeline* pipeline() const { return pipeline_.get(); }

 private:
  StreamEngine() = default;

  std::unique_ptr<StreamRulePipeline> pipeline_;
  size_t num_shards_ = 0;
};

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_ENGINE_H_
