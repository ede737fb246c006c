#include "streamrule/parallel_reasoner.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>

#include "depgraph/atom_level.h"
#include "util/logging.h"
#include "util/timer.h"

namespace streamasp {

namespace {

size_t ResolveThreadCount(size_t requested) {
  return requested != 0 ? requested : DefaultThreadCount();
}

/// Resolves the reuse knobs once, before any engine is built. Either flag
/// selects the one reuse path (an incremental grounder paired with an
/// incremental solver), and both flags are set to the outcome. A
/// disjunctive program reasons cold: the incremental solver reads the
/// grounder's store in place and takes normal rules only (see
/// solve/incremental_solver.h).
ReasonerOptions ResolveReuseOptions(const Program* program,
                                    ReasonerOptions options) {
  bool reuse = options.reuse_grounding || options.solving.reuse_solving;
  if (reuse) {
    for (const Rule& rule : program->rules()) {
      if (rule.head().size() > 1) {
        STREAMASP_LOG(kWarning)
            << "reuse disabled: program has disjunctive rules";
        reuse = false;
        break;
      }
    }
  }
  options.reuse_grounding = reuse;
  options.solving.reuse_solving = reuse;
  return options;
}

/// A Job over `partitions` whose timer started at `timer`'s start
/// (partition_ms stays 0 for externally produced partitions).
ParallelReasoner::Job MakeJob(std::vector<std::vector<Triple>> partitions,
                              WallTimer timer = WallTimer()) {
  ParallelReasoner::Job job;
  job.timer = timer;
  const size_t n = partitions.size();
  job.windows.resize(n);
  for (size_t i = 0; i < n; ++i) {
    job.total_partition_items += partitions[i].size();
    job.windows[i].items = std::move(partitions[i]);
  }
  job.outcomes.resize(n, StatusOr<ReasonerResult>(InternalError("not run")));
  job.errors.resize(n);
  return job;
}

}  // namespace

ParallelReasoner::ParallelReasoner(const Program* program,
                                   PartitioningPlan plan,
                                   ParallelReasonerOptions options)
    : program_(program),
      reasoner_options_(ResolveReuseOptions(program, options.reasoner)),
      handler_(SplitIntoBuckets(*program, std::move(plan), options.num_shards)),
      combiner_(options.combining),
      reasoner_(program, reasoner_options_) {
  // The caller reasons too, so the pool supplies the other threads.
  const size_t pool_threads = ResolveThreadCount(options.num_threads) - 1;
  if (pool_threads > 0) {
    pool_ = std::make_unique<SharedReasonerPool>(pool_threads);
    lane_ = pool_->CreateQueue(/*weight=*/1, /*max_inflight=*/pool_threads);
  }
  if (incremental()) {
    // One engine pair per partition Split produces.
    const size_t partitions = handler_.num_partitions();
    partition_engines_.reserve(partitions);
    for (size_t i = 0; i < partitions; ++i) {
      partition_engines_.push_back(std::make_unique<PartitionEngines>(
          program_, reasoner_options_));
    }
  }
}

ParallelReasoner::Job ParallelReasoner::Split(
    const TripleWindow& window) const {
  WallTimer timer;
  Job job = MakeJob(handler_.Partition(window.items), timer);
  job.incremental = incremental();
  for (TripleWindow& sub : job.windows) sub.sequence = window.sequence;
  if (job.incremental && window.has_delta) {
    // Partition the delta with the same routing as the items: the
    // per-item mapping is pure, so partition i's expired/admitted are
    // exactly the delta of partition i's sub-stream. (Auxiliary views of
    // items already counted via window.items: don't re-count strays.)
    std::vector<std::vector<Triple>> expired =
        handler_.Partition(window.expired, /*count_strays=*/false);
    std::vector<std::vector<Triple>> admitted =
        handler_.Partition(window.admitted, /*count_strays=*/false);
    for (size_t i = 0; i < job.windows.size(); ++i) {
      job.windows[i].has_delta = true;
      job.windows[i].delta_base = window.delta_base;
      job.windows[i].expired = std::move(expired[i]);
      job.windows[i].admitted = std::move(admitted[i]);
    }
  }
  job.partition_ms = timer.ElapsedMillis();
  return job;
}

void ParallelReasoner::ReasonPartition(Job* job, size_t index) {
  try {
    // No engine pair is the cold path.
    PartitionEngines* engines =
        job->incremental ? partition_engines_[index].get() : nullptr;
    job->outcomes[index] =
        engines == nullptr
            ? reasoner_.Process(job->windows[index])
            : reasoner_.Process(job->windows[index], &engines->grounder,
                                &engines->solver);
  } catch (...) {
    job->errors[index] = std::current_exception();
  }
}

StatusOr<ParallelReasonerResult> ParallelReasoner::Finish(Job job) const {
  ParallelReasonerResult result;
  result.reason_ms = job.timer.ElapsedMillis() - job.partition_ms;
  result.partition_ms = job.partition_ms;
  result.num_partitions = job.num_partitions();
  result.total_partition_items = job.total_partition_items;
  for (const std::exception_ptr& error : job.errors) {
    if (error != nullptr) std::rethrow_exception(error);
  }

  std::vector<std::vector<GroundAnswer>> per_partition;
  per_partition.reserve(job.outcomes.size());
  result.partition_latency_ms.reserve(job.outcomes.size());
  for (StatusOr<ReasonerResult>& outcome : job.outcomes) {
    if (!outcome.ok()) return outcome.status();
    result.partition_latency_ms.push_back(outcome->latency_ms);
    result.grounding.Accumulate(outcome->grounding);
    result.solving.Accumulate(outcome->solving);
    result.ground_ms += outcome->ground_ms;
    result.solve_ms += outcome->solve_ms;
    per_partition.push_back(std::move(outcome->answers));
  }

  WallTimer phase;
  STREAMASP_ASSIGN_OR_RETURN(result.answers,
                             combiner_.Combine(per_partition));
  result.combine_ms = phase.ElapsedMillis();

  double slowest = 0;
  for (double ms : result.partition_latency_ms) {
    slowest = std::max(slowest, ms);
  }
  result.critical_path_ms =
      result.partition_ms + slowest + result.combine_ms;
  result.latency_ms = job.timer.ElapsedMillis();
  return result;
}

StatusOr<ParallelReasonerResult> ParallelReasoner::Run(Job job) {
  const size_t n = job.num_partitions();
  if (lane_ == nullptr || n < 2) {
    for (size_t i = 0; i < n; ++i) ReasonPartition(&job, i);
    return Finish(std::move(job));
  }
  // A countdown of this call's fanned-out partitions: the caller waits
  // for exactly those, not for the lane, so concurrent callers never
  // extend each other's waits. Waiting is safe because the caller is not
  // a task of the private pool. The last task notifies under the mutex,
  // so `join` outlives every touch of it.
  struct Join {
    std::mutex mutex;
    std::condition_variable done;
    size_t pending;
  } join;
  join.pending = n - 1;
  const auto wait = [&join] {
    std::unique_lock<std::mutex> lock(join.mutex);
    join.done.wait(lock, [&join] { return join.pending == 0; });
  };
  size_t i = 1;
  try {
    for (; i < n; ++i) {
      lane_->Submit([this, &job, i, &join] {
        ReasonPartition(&job, i);
        std::lock_guard<std::mutex> lock(join.mutex);
        if (--join.pending == 0) join.done.notify_one();
      });
    }
  } catch (...) {
    // Partitions i..n-1 were never submitted; wait out the ones that
    // were — they still reference `job`.
    {
      std::lock_guard<std::mutex> lock(join.mutex);
      join.pending -= n - i;
    }
    wait();
    throw;
  }
  ReasonPartition(&job, 0);
  wait();
  return Finish(std::move(job));
}

StatusOr<ParallelReasonerResult> ParallelReasoner::Process(
    const TripleWindow& window) {
  std::unique_lock<std::mutex> lock(incremental_mutex_, std::defer_lock);
  if (incremental()) lock.lock();
  return Run(Split(window));
}

StatusOr<ParallelReasonerResult> ParallelReasoner::ProcessPartitions(
    const std::vector<std::vector<Triple>>& partitions) {
  return Run(MakeJob(partitions));
}

}  // namespace streamasp
