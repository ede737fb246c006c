#include "streamrule/engine.h"

#include <utility>

namespace streamasp {

StatusOr<std::unique_ptr<StreamEngine>> StreamEngine::Create(
    const Program* program, EngineConfig config, EmissionHandler handler) {
  std::unique_ptr<StreamEngine> engine(new StreamEngine());
  engine->num_shards_ = config.pipeline.reasoner.num_shards;
  STREAMASP_ASSIGN_OR_RETURN(
      engine->pipeline_,
      StreamRulePipeline::Create(program, std::move(config.pipeline),
                                 std::move(handler)));
  return engine;
}

EngineStats StreamEngine::stats() const {
  EngineStats out;
  out.num_shards = num_shards_;
  out.num_partitions = pipeline_->num_partitions();
  if (pipeline_->pool_queue() != nullptr) {
    out.lane = pipeline_->pool_queue()->stats();
  }
  out.reasoning = pipeline_->stats();
  return out;
}

}  // namespace streamasp
