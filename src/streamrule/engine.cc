#include "streamrule/engine.h"

#include <utility>

namespace streamasp {

StatusOr<std::unique_ptr<StreamEngine>> StreamEngine::Create(
    const Program* program, EngineConfig config, EmissionHandler handler) {
  std::unique_ptr<StreamEngine> engine(new StreamEngine());
  if (config.num_shards == 0) {
    STREAMASP_ASSIGN_OR_RETURN(
        engine->pipeline_,
        StreamRulePipeline::Create(program, std::move(config.pipeline),
                                   std::move(handler)));
    return engine;
  }
  ShardedPipelineOptions sharded;
  sharded.num_shards = config.num_shards;
  sharded.shard_key = std::move(config.shard_key);
  sharded.router_batch_size = config.router_batch_size;
  sharded.feeder_queue_capacity = config.feeder_queue_capacity;
  sharded.merge_queue_capacity = config.merge_queue_capacity;
  sharded.pipeline = std::move(config.pipeline);
  STREAMASP_ASSIGN_OR_RETURN(
      engine->sharded_,
      ShardedPipelineEngine::Create(program, std::move(sharded),
                                    std::move(handler)));
  return engine;
}

void StreamEngine::Push(const Triple& triple) {
  if (pipeline_ != nullptr) {
    pipeline_->Push(triple);
  } else {
    sharded_->Push(triple);
  }
}

void StreamEngine::PushBatch(const std::vector<Triple>& triples) {
  if (pipeline_ != nullptr) {
    pipeline_->PushBatch(triples);
  } else {
    sharded_->PushBatch(triples);
  }
}

void StreamEngine::Flush() {
  if (pipeline_ != nullptr) {
    pipeline_->Flush();
  } else {
    sharded_->Flush();
  }
}

size_t StreamEngine::num_shards() const {
  return sharded_ == nullptr ? 0 : sharded_->num_shards();
}

size_t StreamEngine::num_reason_workers() const {
  return pipeline_ != nullptr ? pipeline_->num_reason_workers()
                              : sharded_->num_reason_workers();
}

EngineStats StreamEngine::stats() const {
  EngineStats out;
  const StreamRulePipeline& lane_owner =
      pipeline_ != nullptr ? *pipeline_ : sharded_->shard(0);
  if (lane_owner.pool_queue() != nullptr) {
    out.lane = lane_owner.pool_queue()->stats();
  }
  if (pipeline_ != nullptr) {
    out.reasoning = pipeline_->stats();
    out.delivered_windows = out.reasoning.windows;
    out.delivered_answers = out.reasoning.answers;
    out.delivery_errors = out.reasoning.errors;
    return out;
  }
  const ShardedPipelineStats sharded = sharded_->stats();
  out.num_shards = sharded_->num_shards();
  out.reasoning = sharded.aggregate;
  out.per_shard = sharded.per_shard;
  out.routed_items = sharded.routed_items;
  out.filtered_items = sharded.filtered_items;
  out.delivered_windows = sharded.merged_windows;
  out.delivered_answers = sharded.merged_answers;
  out.delivery_errors = sharded.merge_errors;
  out.max_merge_queue_depth = sharded.max_merge_queue_depth;
  out.max_merge_reorder_depth = sharded.max_merge_reorder_depth;
  out.delta_punctuations = sharded.delta_punctuations;
  out.skipped_empty_slices = sharded.skipped_empty_slices;
  out.shed_subwindows = sharded.shed_subwindows;
  out.degraded_windows = sharded.degraded_windows;
  out.mean_completeness = sharded.mean_completeness;
  out.min_completeness = sharded.min_completeness;
  return out;
}

}  // namespace streamasp
