#ifndef STREAMASP_STREAMRULE_PARALLEL_REASONER_H_
#define STREAMASP_STREAMRULE_PARALLEL_REASONER_H_

#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "depgraph/partitioning_plan.h"
#include "streamrule/combining_handler.h"
#include "streamrule/partitioning_handler.h"
#include "streamrule/reasoner.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace streamasp {

/// Configuration of the parallel reasoner.
struct ParallelReasonerOptions {
  ReasonerOptions reasoner;
  CombiningOptions combining;

  /// Threads that reason one Process call's partitions: the calling
  /// thread plus a private SharedReasonerPool of num_threads - 1 threads
  /// it fans the other partitions out to; 0 uses DefaultThreadCount().
  /// 1 is the inline mode: no pool is spawned and Process reasons the
  /// partitions one after another on the calling thread. The reasoner
  /// an async pipeline hosts is built inline: the pipeline's lane drives
  /// its Split/ReasonPartition/Finish phases itself, as lane tasks, and
  /// never calls Process.
  size_t num_threads = 0;

  /// Upper bound on the buckets per dependency community. Above 1, the
  /// constructor runs the key-flow analysis (SplitIntoBuckets in
  /// depgraph/atom_level.h), which splits each community it can prove
  /// safe into num_shards buckets and keeps every other community whole;
  /// each partition gets its own incremental grounder and solver under
  /// reuse. 0 and 1 both mean no buckets and no analysis.
  size_t num_shards = 0;
};

/// The outcome of parallel reasoning over one window.
struct ParallelReasonerResult {
  std::vector<GroundAnswer> answers;

  /// End-to-end measured wall latency (partitioning + parallel reasoning +
  /// combining). On a machine with at least as many free cores as
  /// partitions this approaches critical_path_ms; on fewer cores the
  /// parallel phase is partially serialized.
  double latency_ms = 0;
  double partition_ms = 0;
  double reason_ms = 0;   ///< Wall time of the parallel phase.
  double combine_ms = 0;

  /// Hardware-independent parallel latency: partition_ms + the slowest
  /// partition's reasoner latency + combine_ms. This is the quantity the
  /// paper's 8-core testbed measures as "reasoning latency of PR"; the
  /// figure harnesses report it alongside the measured wall time (see
  /// docs/benchmarks.md on the single-core substitution).
  double critical_path_ms = 0;

  size_t num_partitions = 0;
  /// Per-partition reasoner latencies (same order as partitions).
  std::vector<double> partition_latency_ms;
  /// Sum of partition sizes; exceeds the window size exactly by the
  /// duplicated items (paper §IV: "the average percentage of instances of
  /// the duplicated predicate in a window is 25%").
  size_t total_partition_items = 0;

  /// Grounding counters summed over the window's partitions, including
  /// the incremental reuse counters under reuse.
  GroundingStats grounding;

  /// Solver reuse counters summed over the window's partitions (all zero
  /// without reuse).
  SolverStats solving;

  /// Grounding / solving phase time summed over the window's partitions
  /// (CPU-ish totals, not wall time — partitions run concurrently). The
  /// benches report these so the reuse gates can compare phase cost
  /// independently of pipeline overhead.
  double ground_ms = 0;
  double solve_ms = 0;
};

/// The reasoner PR of the extended StreamRule architecture (the grey box
/// of Figure 6): partitioning handler → n parallel copies of reasoner R
/// (each over the full program but only its sub-window) → combining
/// handler.
///
/// One reasoning body, three phases: Split partitions a window (and, for
/// reuse, its delta) into a Job, ReasonPartition reasons one partition of
/// it, Finish combines the answers and sums the statistics. Process and
/// ProcessPartitions are two entry points over one run body (every
/// partition reasoned, then Finish), which the sync oracle and the
/// benches call; the async engine runs the same phases as separate pool
/// tasks instead (see StreamRulePipeline::PoolTask), so every engine
/// shape reasons through identical code. The one input is the triple
/// window: each partition's Reasoner converts its items to facts, as R
/// includes the data format processor.
///
/// The run body reasons partitions 1..n-1 as tasks on the reasoner's
/// private pool lane and partition 0 on the calling thread, then waits
/// for exactly those partitions (a per-call countdown, not the whole
/// lane). The caller is never a task of that pool, so the wait is safe;
/// pool tasks themselves never wait.
///
/// Thread-safety: the handlers are immutable and Reasoner is
/// thread-compatible, so ReasonPartition may run for different partitions
/// of one Job concurrently, and concurrent Process calls on one instance
/// are safe — they share the private lane, and each call waits only for
/// its own partitions, never for another caller's. Under reuse, Process
/// additionally serializes whole windows on an internal mutex: the
/// per-partition incremental grounders and solvers are stateful, and
/// interleaving two windows through one cache would corrupt its
/// window-to-window diff. ProcessPartitions always reasons cold.
/// Callers driving the phases themselves take that duty over: partition i
/// of incremental Jobs is reasoned one at a time, in window order.
/// Different partitions, and different windows' partitions, may overlap
/// (the pool engine chains each partition index across windows; see
/// StreamRulePipeline::PoolTask). Split, Finish and cold Jobs touch no
/// shared state.
class ParallelReasoner {
 public:
  /// Dependency-guided mode: partitions follow `plan` (built by
  /// DecomposeInputDependencyGraph at design time), split into buckets as
  /// options.num_shards allows. `program` must outlive the reasoner.
  ParallelReasoner(const Program* program, PartitioningPlan plan,
                   ParallelReasonerOptions options = {});

  /// One window between Split and Finish: its partitions, a result slot
  /// per partition, and the phase timers. Each ReasonPartition(i) writes
  /// only slot i, so distinct partitions may be reasoned concurrently.
  struct Job {
    /// One sub-window per partition: items, plus sequence and delta on
    /// the reuse path.
    std::vector<TripleWindow> windows;
    /// Reuse path: partition i grounds through its incremental grounder.
    bool incremental = false;

    std::vector<StatusOr<ReasonerResult>> outcomes;
    /// An exception thrown while reasoning partition i (Finish rethrows
    /// the first).
    std::vector<std::exception_ptr> errors;

    size_t total_partition_items = 0;
    double partition_ms = 0;
    WallTimer timer;  ///< Started when the split began.

    size_t num_partitions() const { return outcomes.size(); }
  };

  /// Split phase: partitions the window's items and, under reuse, its
  /// expired/admitted delta with the same routing, so each partition's
  /// incremental grounder receives its own sub-stream delta (the routing
  /// — community, then key bucket — is per item and pure). Always at
  /// least one partition.
  Job Split(const TripleWindow& window) const;

  /// Reason phase: reasons partition `index` of `job` into its slot.
  /// Never throws — an exception is parked in job->errors[index].
  void ReasonPartition(Job* job, size_t index);

  /// Finish phase: combines the partitions' answers, sums their
  /// statistics, and sets partition_ms, reason_ms, combine_ms,
  /// critical_path_ms and latency_ms. The first failed partition (in
  /// partition order) fails the window; a parked exception is rethrown.
  StatusOr<ParallelReasonerResult> Finish(Job job) const;

  /// Full PR pipeline over a triple window: Split, every partition
  /// reasoned (fanned out on the private pool, or inline), Finish. Under
  /// reuse each partition's grounder and solver replay the window's split
  /// delta (see Split).
  /// A partition's exception propagates after every partition has run.
  StatusOr<ParallelReasonerResult> Process(const TripleWindow& window);

  /// Reasons over externally produced partitions — how the PR_Ran_k
  /// baselines of Figures 7–10 are run (RandomPartitioner output goes
  /// here). Partitioning time is reported as 0. Always cold, also on a
  /// reuse reasoner: the partitions need not follow the plan, so the
  /// per-partition incremental engines never see them.
  StatusOr<ParallelReasonerResult> ProcessPartitions(
      const std::vector<std::vector<Triple>>& partitions);

  const PartitioningHandler& partitioning_handler() const { return handler_; }

  /// True when Split produces incremental Jobs: reuse was requested (by
  /// either flag) and the program is not disjunctive.
  bool incremental() const { return reasoner_options_.reuse_grounding; }

 private:
  /// The run body behind Process and ProcessPartitions: reasons every
  /// partition of `job` (inline without a pool), then Finishes it.
  StatusOr<ParallelReasonerResult> Run(Job job);

  const Program* program_;
  ReasonerOptions reasoner_options_;
  PartitioningHandler handler_;
  CombiningHandler combiner_;
  Reasoner reasoner_;
  /// The private pool (num_threads - 1 threads) and its one lane; both
  /// null in inline mode (num_threads resolves to 1).
  std::unique_ptr<SharedReasonerPool> pool_;
  std::shared_ptr<SharedReasonerPool::Queue> lane_;

  /// One partition's reuse state: its incremental grounder and the
  /// persistent solver patched with that grounder's deltas.
  struct PartitionEngines {
    PartitionEngines(const Program* program, const ReasonerOptions& options)
        : grounder(program, options.grounding, options.incremental),
          solver(options.solving) {}
    IncrementalGrounder grounder;
    IncrementalSolver solver;
  };

  /// One engine pair per partition (reuse only), plus the mutex that
  /// serializes Process's windows through them.
  std::mutex incremental_mutex_;
  std::vector<std::unique_ptr<PartitionEngines>> partition_engines_;
};

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_PARALLEL_REASONER_H_
