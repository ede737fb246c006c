#ifndef STREAMASP_UTIL_THREAD_POOL_H_
#define STREAMASP_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace streamasp {

/// std::thread::hardware_concurrency() with the conventional fallback of 2
/// when the hardware cannot be queried. The one source of truth for every
/// "0 means pick for me" thread-count option.
inline size_t DefaultThreadCount() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 2 : hardware;
}

/// The one reasoning executor: a fixed set of worker threads, one task
/// lane (Queue) per tenant, and weighted deficit-round-robin dispatch
/// across the lanes, so the worker budget is O(pool), not O(tenants), and
/// one hot tenant cannot starve the rest. Shared process-wide by the
/// session server, and instantiated privately — one pool, one lane — by
/// every async engine configured without a shared pool and by a
/// ParallelReasoner with num_threads > 1.
///
/// Scheduling model:
///   * Every task has unit cost. Each rotation of the active-lane ring
///     refills a lane's credit to its weight; a lane consumes one credit
///     per task it dispatches, so over any busy interval lane i receives
///     weight_i / sum(weights) of the dispatch slots (classic DRR with
///     quantum == weight).
///   * Each lane additionally carries a max_inflight cap — the most of
///     its tasks that may execute concurrently. A lane at its cap leaves
///     the rotation and rejoins when one of its tasks completes, so a
///     single tenant can never occupy more than its cap of the workers
///     no matter how deep its backlog is.
///
/// Lanes are unbounded FIFOs: admission control (how much work a tenant
/// may buffer) belongs to the submitting pipeline, which already has
/// bounded queues and shedding policies — the pool only decides *whose*
/// task runs next.
///
/// Fan out and continue, never wait: a task running on the pool must
/// never block on the completion of another task of the same pool (any
/// lane) — with every worker blocked that way nothing could run the tasks
/// they wait for. Work that needs a join instead submits its subtasks to
/// the front of its own lane (SubmitFront) and returns; whichever subtask
/// finishes last runs the join as a continuation. That is how async
/// pipelines reason a window's partitions in parallel (see
/// StreamRulePipeline::PoolTask) without an extra thread or a wait. A
/// thread outside the pool may wait for lane tasks freely — on the whole
/// lane (Queue::Drain), or on a countdown of its own tasks, which is how
/// ParallelReasoner::Process joins its partitions.
///
/// Thread-safety: everything is safe from any thread. Destruction
/// contract: no lane may have queued or running tasks that anyone still
/// waits for when the pool is destroyed (the pipelines' destructors
/// Drain their lanes; a ParallelReasoner has joined every partition it
/// submitted); tasks submitted while the pool is shutting down are
/// dropped and counted as completed so Drain cannot hang.
class SharedReasonerPool {
 public:
  /// One tenant's task lane. Obtained from CreateQueue; safe to use from
  /// any thread.
  class Queue : public std::enable_shared_from_this<Queue> {
   public:
    /// Point-in-time lane counters (pool mutex held briefly).
    struct Stats {
      uint64_t submitted = 0;
      uint64_t completed = 0;
      size_t max_queued = 0;  ///< Lane backlog high-water mark.
    };

    /// Enqueues one unit-cost task at the back of the lane for DRR
    /// dispatch.
    void Submit(std::function<void()> task);

    /// Enqueues one unit-cost task at the FRONT of the lane: it runs
    /// before every task already queued here. For continuations of a task
    /// already running on this lane (a window's partition subtasks), so
    /// started work finishes before the lane's next queued task starts.
    /// The task is otherwise an ordinary lane task: it consumes one DRR
    /// credit and counts against max_inflight when dispatched.
    void SubmitFront(std::function<void()> task);

    /// Blocks until every task submitted to this lane so far has
    /// finished executing — including tasks those tasks submit while
    /// they run (a running task counts as inflight until it returns).
    void Drain();

    Stats stats() const;
    size_t weight() const { return weight_; }
    size_t max_inflight() const { return max_inflight_; }

   private:
    friend class SharedReasonerPool;

    Queue(SharedReasonerPool* pool, size_t weight, size_t max_inflight)
        : pool_(pool), weight_(weight), max_inflight_(max_inflight) {}

    /// Submit/SubmitFront body: queue at the back or the front.
    void Enqueue(std::function<void()> task, bool front);

    SharedReasonerPool* const pool_;
    const size_t weight_;
    const size_t max_inflight_;

    // --- all guarded by pool_->mutex_ ---
    std::deque<std::function<void()>> tasks_;
    size_t inflight_ = 0;   ///< Tasks of this lane currently executing.
    size_t credit_ = 0;     ///< Remaining DRR quantum this rotation.
    bool scheduled_ = false;  ///< Linked into the pool's active ring.
    uint64_t submitted_ = 0;
    uint64_t completed_ = 0;
    size_t max_queued_ = 0;
  };

  /// Spawns `num_threads` workers (at least one).
  explicit SharedReasonerPool(size_t num_threads);

  /// Joins the workers (a running task finishes first). Lanes must have
  /// no queued tasks left (see the class contract); any still queued are
  /// discarded.
  ~SharedReasonerPool();

  SharedReasonerPool(const SharedReasonerPool&) = delete;
  SharedReasonerPool& operator=(const SharedReasonerPool&) = delete;

  /// Creates a lane with the given DRR weight (>= 1; 0 is clamped to 1)
  /// and concurrent-execution cap (>= 1; 0 is clamped to 1).
  std::shared_ptr<Queue> CreateQueue(size_t weight, size_t max_inflight);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();
  /// True when the lane has a task it is allowed to start right now.
  bool RunnableLocked(const Queue& queue) const {
    return !queue.tasks_.empty() && queue.inflight_ < queue.max_inflight_;
  }
  /// Links the lane into the active ring with a fresh quantum (no-op if
  /// already linked). Requires mutex_; caller notifies work_available_.
  void ActivateLocked(std::shared_ptr<Queue> queue);

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable task_done_;  ///< Wakes Queue::Drain waiters.
  /// The DRR rotation: lanes with (possibly) dispatchable work. Lanes
  /// found non-runnable at the front are unlinked lazily and relinked by
  /// Submit or task completion.
  std::deque<std::shared_ptr<Queue>> active_;
  std::vector<std::thread> threads_;
  bool shutting_down_ = false;
};

}  // namespace streamasp

#endif  // STREAMASP_UTIL_THREAD_POOL_H_
