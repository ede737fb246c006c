#ifndef STREAMASP_STREAMRULE_VALIDATE_H_
#define STREAMASP_STREAMRULE_VALIDATE_H_

#include <cstddef>
#include <memory>

#include "util/status.h"
#include "util/thread_pool.h"

namespace streamasp {

struct PipelineOptions;

/// The one place that decides an async engine's executor: an async
/// configuration without a shared_pool gets a private SharedReasonerPool
/// of num_reason_workers threads (0 picks DefaultThreadCount()),
/// installed as options->shared_pool so the engine takes the pooled path
/// unchanged. Returns that private pool, or null when the options already
/// name a pool or are synchronous.
std::shared_ptr<SharedReasonerPool> ProvidePrivatePool(
    PipelineOptions* options);

/// Inflight cap of a new lane on options.shared_pool (which must be set):
/// pool_max_inflight, or when that is 0 the pool's thread count for a
/// private pool (its one lane is the only tenant, so the cap must leave
/// no thread idle — window and partition tasks count alike) and
/// min(max_inflight_windows, pool threads) on a shared pool; at least 1.
size_t ResolveLaneCap(const PipelineOptions& options, bool private_pool);

/// Create-time option validation of StreamRulePipeline (and so of the
/// StreamEngine facade) — the cross-cutting rules live here exactly once,
/// with uniform messages:
///   * async mode needs max_inflight_windows >= 1;
///   * window_slide must not exceed window_size;
///   * a shared pool requires async mode, with pool_weight >= 1;
///   * max_queued_windows requires async mode.
/// A sync pipeline with a lossy backpressure policy is allowed (the policy
/// simply never engages).
Status ValidatePipelineOptions(const PipelineOptions& options);

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_VALIDATE_H_
