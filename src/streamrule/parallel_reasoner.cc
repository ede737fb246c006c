#include "streamrule/parallel_reasoner.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <type_traits>
#include <utility>

#include "depgraph/atom_level.h"
#include "util/logging.h"
#include "util/timer.h"

namespace streamasp {

namespace {

size_t ResolveThreadCount(size_t requested) {
  return requested != 0 ? requested : DefaultThreadCount();
}

/// Resolves the reuse knobs once, before any engine is built: solving
/// reuse implies grounding reuse (the solver patch is the incremental
/// grounder's delta) and lets the grounder skip per-window output
/// assembly (the solver consumes the cached store directly). Disjunctive
/// programs keep the cold solve path — their shifted rules would break
/// the solver's 1:1 store-slot mirroring (see solve/incremental_solver.h).
ReasonerOptions ResolveReuseOptions(const Program* program,
                                    ReasonerOptions options) {
  if (!options.solving.reuse_solving) return options;
  for (const Rule& rule : program->rules()) {
    if (rule.head().size() > 1) {
      STREAMASP_LOG(kWarning)
          << "reuse_solving disabled: program has disjunctive rules";
      options.solving.reuse_solving = false;
      return options;
    }
  }
  options.reuse_grounding = true;
  options.incremental.assemble_output = false;
  return options;
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
  if (reasoner_options_.reuse_grounding) {
    // One engine per partition Split produces.
    const size_t partitions = handler_.num_partitions();
    partition_grounders_.reserve(partitions);
    for (size_t i = 0; i < partitions; ++i) {
      partition_grounders_.push_back(std::make_unique<IncrementalGrounder>(
          program_, reasoner_options_.grounding,
          reasoner_options_.incremental));
    }
    if (reasoner_options_.solving.reuse_solving) {
      partition_solvers_.reserve(partitions);
      for (size_t i = 0; i < partitions; ++i) {
        partition_solvers_.push_back(
            std::make_unique<IncrementalSolver>(reasoner_options_.solving));
      }
    }
  }
}

ParallelReasoner::Job ParallelReasoner::Split(
    const TripleWindow& window) const {
  WallTimer timer;
  Job job = MakeJob(handler_.Partition(window.items), timer);
  job.incremental = reasoner_options_.reuse_grounding;
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

template <typename Item>
ParallelReasoner::Job ParallelReasoner::MakeJob(
    std::vector<std::vector<Item>> partitions, WallTimer timer) const {
  Job job;
  job.timer = timer;
  const size_t n = partitions.size();
  for (const auto& partition : partitions) {
    job.total_partition_items += partition.size();
  }
  if constexpr (std::is_same_v<Item, Triple>) {
    job.windows.resize(n);
    for (size_t i = 0; i < n; ++i) {
      job.windows[i].items = std::move(partitions[i]);
    }
  } else {
    job.facts = std::move(partitions);
  }
  job.outcomes.resize(n, StatusOr<ReasonerResult>(InternalError("not run")));
  job.errors.resize(n);
  return job;
}

void ParallelReasoner::ReasonPartition(Job* job, size_t index) {
  try {
    if (!job->windows.empty()) {
      // A null grounder is the cold path.
      IncrementalGrounder* grounder =
          job->incremental ? partition_grounders_[index].get() : nullptr;
      IncrementalSolver* solver =
          job->incremental && reasoner_options_.solving.reuse_solving
              ? partition_solvers_[index].get()
              : nullptr;
      job->outcomes[index] =
          reasoner_.Process(job->windows[index], grounder, solver);
    } else {
      job->outcomes[index] = reasoner_.ProcessFacts(job->facts[index]);
    }
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

void ParallelReasoner::RunTasks(Job* job) {
  const size_t n = job->num_partitions();
  if (lane_ == nullptr || n < 2) {
    for (size_t i = 0; i < n; ++i) ReasonPartition(job, i);
    return;
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
      lane_->Submit([this, job, i, &join] {
        ReasonPartition(job, i);
        std::lock_guard<std::mutex> lock(join.mutex);
        if (--join.pending == 0) join.done.notify_one();
      });
    }
  } catch (...) {
    // Partitions i..n-1 were never submitted; wait out the ones that
    // were — they still reference *job.
    {
      std::lock_guard<std::mutex> lock(join.mutex);
      join.pending -= n - i;
    }
    wait();
    throw;
  }
  ReasonPartition(job, 0);
  wait();
}

StatusOr<ParallelReasonerResult> ParallelReasoner::Process(
    const TripleWindow& window) {
  std::unique_lock<std::mutex> lock(incremental_mutex_, std::defer_lock);
  if (reasoner_options_.reuse_grounding) lock.lock();
  Job job = Split(window);
  RunTasks(&job);
  return Finish(std::move(job));
}

StatusOr<ParallelReasonerResult> ParallelReasoner::ProcessFacts(
    const std::vector<Atom>& facts) {
  WallTimer timer;
  Job job = MakeJob(handler_.PartitionFacts(facts), timer);
  job.partition_ms = timer.ElapsedMillis();
  RunTasks(&job);
  return Finish(std::move(job));
}

StatusOr<ParallelReasonerResult> ParallelReasoner::ProcessPartitions(
    const std::vector<std::vector<Triple>>& partitions) {
  Job job = MakeJob(partitions);
  RunTasks(&job);
  return Finish(std::move(job));
}

StatusOr<ParallelReasonerResult> ParallelReasoner::ProcessFactPartitions(
    const std::vector<std::vector<Atom>>& partitions) {
  Job job = MakeJob(partitions);
  RunTasks(&job);
  return Finish(std::move(job));
}

}  // namespace streamasp
