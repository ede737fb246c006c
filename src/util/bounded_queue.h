#ifndef STREAMASP_UTIL_BOUNDED_QUEUE_H_
#define STREAMASP_UTIL_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>

namespace streamasp {

/// What a bounded queue does when a producer pushes into a full queue.
enum class BackpressurePolicy {
  /// Block the producer until a consumer makes room (lossless; the
  /// default, and the only policy that preserves exactly-once window
  /// processing end to end).
  kBlock,
  /// Evict the oldest queued item to admit the new one (bounded lag;
  /// favours fresh windows under overload, classic stream-processing
  /// load shedding).
  kDropOldest,
  /// Refuse the new item and tell the producer (caller-controlled
  /// shedding).
  kReject,
};

constexpr const char* BackpressurePolicyName(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock:
      return "block";
    case BackpressurePolicy::kDropOldest:
      return "drop-oldest";
    case BackpressurePolicy::kReject:
      return "reject";
  }
  return "unknown";
}

/// True for the load-shedding policies: items can be lost at this stage
/// boundary, so the producer must account for every kDroppedOldest /
/// kRejected outcome. The async pipeline turns each loss into a kShed
/// tombstone in its ordered emission stream, so downstream consumers see
/// an explicit release for the lost sequence instead of a permanent gap.
constexpr bool IsLossyPolicy(BackpressurePolicy policy) {
  return policy != BackpressurePolicy::kBlock;
}

/// Outcome of one BoundedQueue::Push under the queue's policy.
enum class QueuePushResult {
  kOk,            ///< Item admitted; nothing displaced.
  kDroppedOldest, ///< Item admitted; the oldest item was evicted.
  kRejected,      ///< Item refused (kReject policy, queue full).
  kClosed,        ///< Item refused; the queue was closed.
};

/// Monotonic counters describing a queue's lifetime so far.
struct BoundedQueueStats {
  uint64_t pushed = 0;    ///< Items admitted.
  uint64_t popped = 0;    ///< Items handed to consumers.
  uint64_t dropped = 0;   ///< Items evicted under kDropOldest.
  uint64_t rejected = 0;  ///< Items refused under kReject.
  size_t max_depth = 0;   ///< High-water mark of the queue depth.
};

/// Bounded multi-producer/multi-consumer FIFO with a configurable
/// backpressure policy — the stage boundary of the asynchronous pipeline
/// (ingest/windower on one side, the reasoner pool's lane on the other).
///
/// All operations are thread-safe. Consumers poll with TryPop. Close()
/// wakes every blocked producer (which observe kClosed), after which the
/// queue rejects new pushes forever.
template <typename T>
class BoundedQueue {
 public:
  /// Called under kDropOldest with the evicted item and its successor
  /// (the new oldest item, or the incoming one when the queue held only
  /// the evicted item), before the eviction. It runs under the queue's
  /// lock, so it must take no other lock.
  using FoldFn = std::function<void(T* evicted, T* successor)>;

  /// `capacity` must be >= 1 (0 is clamped to 1). `fold`, when set, lets
  /// an evicted item hand its state on to its successor (the pipeline
  /// folds an evicted window's delta into the next window).
  explicit BoundedQueue(size_t capacity,
                        BackpressurePolicy policy = BackpressurePolicy::kBlock,
                        FoldFn fold = nullptr)
      : capacity_(capacity == 0 ? 1 : capacity),
        policy_(policy),
        fold_(std::move(fold)) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Pushes one item, applying the backpressure policy when full. The
  /// item lost to the policy is moved into `*displaced` when `displaced`
  /// is non-null, so the producer can account for the loss: the evicted
  /// oldest item under kDropOldest, the refused item itself under
  /// kReject.
  QueuePushResult Push(T value, T* displaced = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (policy_ == BackpressurePolicy::kBlock) {
      not_full_.wait(lock,
                     [this] { return closed_ || items_.size() < capacity_; });
    }
    if (closed_) return QueuePushResult::kClosed;

    QueuePushResult outcome = QueuePushResult::kOk;
    if (items_.size() >= capacity_) {
      switch (policy_) {
        case BackpressurePolicy::kBlock:
          break;  // Unreachable: the wait above guaranteed room.
        case BackpressurePolicy::kDropOldest:
          if (fold_ != nullptr) {
            fold_(&items_.front(),
                  items_.size() > 1 ? &items_[1] : &value);
          }
          if (displaced != nullptr) *displaced = std::move(items_.front());
          items_.pop_front();
          ++stats_.dropped;
          outcome = QueuePushResult::kDroppedOldest;
          break;
        case BackpressurePolicy::kReject:
          ++stats_.rejected;
          if (displaced != nullptr) *displaced = std::move(value);
          return QueuePushResult::kRejected;
      }
    }
    items_.push_back(std::move(value));
    ++stats_.pushed;
    stats_.max_depth = std::max(stats_.max_depth, items_.size());
    return outcome;
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    std::optional<T> out(std::move(items_.front()));
    items_.pop_front();
    ++stats_.popped;
    lock.unlock();
    not_full_.notify_one();
    return out;
  }

  /// Irreversibly stops admission. Already-queued items remain poppable.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }
  BackpressurePolicy policy() const { return policy_; }

  BoundedQueueStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  const size_t capacity_;
  const BackpressurePolicy policy_;
  const FoldFn fold_;

  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  BoundedQueueStats stats_;
  bool closed_ = false;
};

}  // namespace streamasp

#endif  // STREAMASP_UTIL_BOUNDED_QUEUE_H_
