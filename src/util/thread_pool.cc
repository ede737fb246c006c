#include "util/thread_pool.h"

#include <utility>

namespace streamasp {

SharedReasonerPool::SharedReasonerPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

SharedReasonerPool::~SharedReasonerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

std::shared_ptr<SharedReasonerPool::Queue> SharedReasonerPool::CreateQueue(
    size_t weight, size_t max_inflight) {
  if (weight == 0) weight = 1;
  if (max_inflight == 0) max_inflight = 1;
  // Queue's constructor is private; go through new + shared_ptr directly.
  return std::shared_ptr<Queue>(new Queue(this, weight, max_inflight));
}

void SharedReasonerPool::ActivateLocked(std::shared_ptr<Queue> queue) {
  if (queue->scheduled_) return;
  queue->scheduled_ = true;
  // A fresh quantum on (re)activation: a lane that emptied or hit its
  // inflight cap starts its next burst with full credit, which bounds how
  // long it can be deferred to one rotation of the ring.
  queue->credit_ = queue->weight_;
  active_.push_back(std::move(queue));
}

void SharedReasonerPool::Queue::Submit(std::function<void()> task) {
  Enqueue(std::move(task), /*front=*/false);
}

void SharedReasonerPool::Queue::SubmitFront(std::function<void()> task) {
  Enqueue(std::move(task), /*front=*/true);
}

void SharedReasonerPool::Queue::Enqueue(std::function<void()> task,
                                        bool front) {
  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(pool_->mutex_);
    if (pool_->shutting_down_) {
      // Post-shutdown submissions (a contract violation — lanes are
      // drained before the pool dies) are dropped but accounted, so a
      // late Drain still terminates.
      ++submitted_;
      ++completed_;
      return;
    }
    if (front) {
      tasks_.push_front(std::move(task));
    } else {
      tasks_.push_back(std::move(task));
    }
    ++submitted_;
    if (tasks_.size() > max_queued_) max_queued_ = tasks_.size();
    if (inflight_ < max_inflight_) {
      // Notify whenever this task is dispatchable right now — not only
      // when the lane (re)activates. A task landing on a lane already in
      // the ring still needs a sleeping worker: the worker that was woken
      // for the lane's previous task may be blocked inside it, and
      // without this wake the rest of the pool would sleep over runnable
      // work until some unrelated submit or completion.
      if (!scheduled_) pool_->ActivateLocked(shared_from_this());
      notify = true;
    }
  }
  if (notify) pool_->work_available_.notify_one();
}

void SharedReasonerPool::Queue::Drain() {
  std::unique_lock<std::mutex> lock(pool_->mutex_);
  pool_->task_done_.wait(
      lock, [this] { return tasks_.empty() && inflight_ == 0; });
}

SharedReasonerPool::Queue::Stats SharedReasonerPool::Queue::stats() const {
  std::lock_guard<std::mutex> lock(pool_->mutex_);
  Stats out;
  out.submitted = submitted_;
  out.completed = completed_;
  out.max_queued = max_queued_;
  return out;
}

void SharedReasonerPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_available_.wait(
        lock, [this] { return shutting_down_ || !active_.empty(); });
    if (active_.empty()) {
      // Shutting down with no schedulable lane. A lane brought back by a
      // completion is handled by the completing worker itself (it loops
      // rather than exits while the ring is non-empty), so exiting here
      // strands nothing.
      return;
    }
    // DRR dispatch: examine the front lane. Non-runnable lanes unlink
    // (they rejoin on Submit/completion); an exhausted quantum refills
    // and rotates to the back; otherwise dispatch one task on credit.
    std::shared_ptr<Queue> queue = active_.front();
    if (!RunnableLocked(*queue)) {
      active_.pop_front();
      queue->scheduled_ = false;
      continue;
    }
    if (queue->credit_ == 0) {
      queue->credit_ = queue->weight_;
      active_.pop_front();
      active_.push_back(std::move(queue));
      continue;
    }
    --queue->credit_;
    std::function<void()> task = std::move(queue->tasks_.front());
    queue->tasks_.pop_front();
    ++queue->inflight_;
    if (!RunnableLocked(*queue)) {
      // Emptied or at its inflight cap: leave the ring until something
      // changes (keeping it would make the rotation spin over it).
      active_.pop_front();
      queue->scheduled_ = false;
    }
    lock.unlock();
    task();
    task = nullptr;  // Destroy captured state outside the critical section.
    lock.lock();
    --queue->inflight_;
    ++queue->completed_;
    if (!queue->scheduled_ && RunnableLocked(*queue)) {
      // The completion freed an inflight slot for a backlogged lane.
      ActivateLocked(queue);
      work_available_.notify_one();
    }
    if (queue->tasks_.empty() && queue->inflight_ == 0) {
      task_done_.notify_all();
    }
  }
}

}  // namespace streamasp
