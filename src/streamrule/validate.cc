#include "streamrule/validate.h"

#include <algorithm>

#include "streamrule/pipeline.h"

namespace streamasp {

void NormalizePipelineOptions(PipelineOptions* options) {
  if (options->reuse_grounding) {
    options->reasoner.reasoner.reuse_grounding = true;
  }
  if (options->reuse_solving) {
    options->reasoner.reasoner.solving.reuse_solving = true;
  }
}

std::shared_ptr<SharedReasonerPool> ProvidePrivatePool(
    PipelineOptions* options) {
  if (!options->async || options->shared_pool != nullptr) {
    return nullptr;
  }
  const size_t threads = options->num_reason_workers != 0
                             ? options->num_reason_workers
                             : DefaultThreadCount();
  options->shared_pool = std::make_shared<SharedReasonerPool>(threads);
  return options->shared_pool;
}

size_t ResolveLaneCap(const PipelineOptions& options, bool private_pool) {
  size_t cap = options.pool_max_inflight;
  if (cap == 0) {
    cap = options.shared_pool->num_threads();
    if (!private_pool) cap = std::min(cap, options.max_inflight_windows);
  }
  return std::max<size_t>(cap, 1);
}

Status ValidatePipelineOptions(const PipelineOptions& options) {
  if (options.async && options.max_inflight_windows == 0) {
    return InvalidArgumentError("async mode needs max_inflight_windows >= 1");
  }
  if (options.window_slide > options.window_size) {
    return InvalidArgumentError("window_slide must not exceed window_size");
  }
  const bool pooled = options.shared_pool != nullptr;
  if (pooled && !options.async) {
    return InvalidArgumentError(
        "a shared reasoner pool requires async mode (sync pipelines reason "
        "on the caller thread and submit nothing to the pool)");
  }
  if (pooled && options.pool_weight == 0) {
    return InvalidArgumentError("pool_weight must be >= 1");
  }
  if (options.max_queued_windows > 0 && !options.async) {
    return InvalidArgumentError(
        "max_queued_windows only bounds the async engine's in-flight "
        "windows (sync mode never queues); set async, or use "
        "admission_filter for synchronous shedding");
  }
  return OkStatus();
}

}  // namespace streamasp
