// BoundedQueue: FIFO semantics, close/drain, and the three backpressure
// policies, including a multi-producer/multi-consumer stress per policy.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "util/bounded_queue.h"

namespace streamasp {
namespace {

TEST(BoundedQueueTest, FifoAndCounters) {
  BoundedQueue<int> queue(4);
  EXPECT_EQ(queue.capacity(), 4u);
  EXPECT_EQ(queue.Push(1), QueuePushResult::kOk);
  EXPECT_EQ(queue.Push(2), QueuePushResult::kOk);
  EXPECT_EQ(queue.size(), 2u);

  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_EQ(queue.TryPop(), std::nullopt);

  const BoundedQueueStats stats = queue.stats();
  EXPECT_EQ(stats.pushed, 2u);
  EXPECT_EQ(stats.popped, 2u);
  EXPECT_EQ(stats.max_depth, 2u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(BoundedQueueTest, ZeroCapacityClampsToOne) {
  BoundedQueue<int> queue(0, BackpressurePolicy::kReject);
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_EQ(queue.Push(1), QueuePushResult::kOk);
  EXPECT_EQ(queue.Push(2), QueuePushResult::kRejected);
}

TEST(BoundedQueueTest, CloseDrainsThenStopsConsumers) {
  BoundedQueue<int> queue(4);
  ASSERT_EQ(queue.Push(7), QueuePushResult::kOk);
  queue.Close();
  EXPECT_EQ(queue.Push(8), QueuePushResult::kClosed);

  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));  // Queued items survive Close.
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(queue.Pop(&out));  // Then Pop reports shutdown.
  EXPECT_TRUE(queue.closed());
}

TEST(BoundedQueueTest, CloseWakesBlockedProducer) {
  BoundedQueue<int> queue(1, BackpressurePolicy::kBlock);
  ASSERT_EQ(queue.Push(1), QueuePushResult::kOk);

  std::atomic<bool> returned{false};
  QueuePushResult result = QueuePushResult::kOk;
  std::thread producer([&] {
    result = queue.Push(2);  // Blocks: queue is full.
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned);
  queue.Close();
  producer.join();
  EXPECT_EQ(result, QueuePushResult::kClosed);
}

TEST(BoundedQueueTest, BlockPolicyBlocksUntilConsumerMakesRoom) {
  BoundedQueue<int> queue(1, BackpressurePolicy::kBlock);
  ASSERT_EQ(queue.Push(1), QueuePushResult::kOk);

  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_EQ(queue.Push(2), QueuePushResult::kOk);
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned);

  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_TRUE(returned);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
}

TEST(BoundedQueueTest, DropOldestEvictsFrontAndReturnsIt) {
  BoundedQueue<int> queue(2, BackpressurePolicy::kDropOldest);
  EXPECT_EQ(queue.Push(1), QueuePushResult::kOk);
  EXPECT_EQ(queue.Push(2), QueuePushResult::kOk);

  int displaced = 0;
  EXPECT_EQ(queue.Push(3, &displaced), QueuePushResult::kDroppedOldest);
  EXPECT_EQ(displaced, 1);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.stats().dropped, 1u);

  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 3);
}

TEST(BoundedQueueTest, RejectRefusesWhenFull) {
  BoundedQueue<int> queue(2, BackpressurePolicy::kReject);
  EXPECT_EQ(queue.Push(1), QueuePushResult::kOk);
  EXPECT_EQ(queue.Push(2), QueuePushResult::kOk);
  EXPECT_EQ(queue.Push(3), QueuePushResult::kRejected);
  EXPECT_EQ(queue.stats().rejected, 1u);
  EXPECT_EQ(queue.size(), 2u);

  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(queue.Push(4), QueuePushResult::kOk);
}

TEST(BoundedQueueTest, RejectHandsTheRefusedItemBack) {
  // A refused item is not lost with the by-value argument: the producer
  // gets it back to account for (the pipeline tombstones it).
  BoundedQueue<std::vector<int>> queue(1, BackpressurePolicy::kReject);
  std::vector<int> refused;
  EXPECT_EQ(queue.Push({1, 2}, &refused), QueuePushResult::kOk);
  EXPECT_TRUE(refused.empty());
  EXPECT_EQ(queue.Push({3, 4, 5}, &refused), QueuePushResult::kRejected);
  EXPECT_EQ(refused, (std::vector<int>{3, 4, 5}));
}

// MPMC stress: `producers` threads push `per_producer` unique ints through
// a small queue while `consumers` threads drain it. Returns the multiset
// of consumed values as a sorted vector.
std::vector<int> RunStress(BoundedQueue<int>& queue, int producers,
                           int per_producer, int consumers,
                           std::vector<int>* displaced_out) {
  std::mutex sink_mutex;
  std::vector<int> consumed;
  std::vector<int> displaced;

  std::vector<std::thread> consumer_threads;
  for (int c = 0; c < consumers; ++c) {
    consumer_threads.emplace_back([&] {
      int value = 0;
      while (queue.Pop(&value)) {
        std::lock_guard<std::mutex> lock(sink_mutex);
        consumed.push_back(value);
      }
    });
  }

  std::vector<std::thread> producer_threads;
  for (int p = 0; p < producers; ++p) {
    producer_threads.emplace_back([&, p] {
      for (int i = 0; i < per_producer; ++i) {
        const int value = p * per_producer + i;
        int evicted = -1;
        const QueuePushResult result = queue.Push(value, &evicted);
        if (result == QueuePushResult::kDroppedOldest) {
          std::lock_guard<std::mutex> lock(sink_mutex);
          displaced.push_back(evicted);
        }
      }
    });
  }
  for (std::thread& t : producer_threads) t.join();
  queue.Close();
  for (std::thread& t : consumer_threads) t.join();

  std::sort(consumed.begin(), consumed.end());
  if (displaced_out != nullptr) {
    std::sort(displaced.begin(), displaced.end());
    *displaced_out = std::move(displaced);
  }
  return consumed;
}

constexpr int kProducers = 4;
constexpr int kPerProducer = 2000;
constexpr int kConsumers = 3;
constexpr int kTotal = kProducers * kPerProducer;

TEST(BoundedQueueStressTest, BlockPolicyIsLossless) {
  BoundedQueue<int> queue(8, BackpressurePolicy::kBlock);
  const std::vector<int> consumed =
      RunStress(queue, kProducers, kPerProducer, kConsumers, nullptr);

  // Every value exactly once, in some order.
  ASSERT_EQ(consumed.size(), static_cast<size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) EXPECT_EQ(consumed[i], i);

  const BoundedQueueStats stats = queue.stats();
  EXPECT_EQ(stats.pushed, static_cast<uint64_t>(kTotal));
  EXPECT_EQ(stats.popped, static_cast<uint64_t>(kTotal));
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_LE(stats.max_depth, 8u);
}

TEST(BoundedQueueStressTest, DropOldestAccountsForEveryItem) {
  BoundedQueue<int> queue(4, BackpressurePolicy::kDropOldest);
  std::vector<int> displaced;
  const std::vector<int> consumed =
      RunStress(queue, kProducers, kPerProducer, kConsumers, &displaced);

  // Admission is total (drop-oldest never refuses); each value ends up
  // consumed or displaced, never both, never twice.
  ASSERT_EQ(consumed.size() + displaced.size(), static_cast<size_t>(kTotal));
  std::vector<int> all(consumed);
  all.insert(all.end(), displaced.begin(), displaced.end());
  std::sort(all.begin(), all.end());
  for (int i = 0; i < kTotal; ++i) EXPECT_EQ(all[i], i);

  const BoundedQueueStats stats = queue.stats();
  EXPECT_EQ(stats.pushed, static_cast<uint64_t>(kTotal));
  EXPECT_EQ(stats.dropped, static_cast<uint64_t>(displaced.size()));
  EXPECT_EQ(stats.popped, static_cast<uint64_t>(consumed.size()));
  EXPECT_LE(stats.max_depth, 4u);
}

TEST(BoundedQueueStressTest, RejectNeverDuplicatesOrBlocks) {
  BoundedQueue<int> queue(4, BackpressurePolicy::kReject);
  const std::vector<int> consumed =
      RunStress(queue, kProducers, kPerProducer, kConsumers, nullptr);

  // No duplicates, and consumed + rejected covers every push attempt.
  std::set<int> unique(consumed.begin(), consumed.end());
  EXPECT_EQ(unique.size(), consumed.size());

  const BoundedQueueStats stats = queue.stats();
  EXPECT_EQ(stats.pushed, static_cast<uint64_t>(consumed.size()));
  EXPECT_EQ(stats.pushed + stats.rejected, static_cast<uint64_t>(kTotal));
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_LE(stats.max_depth, 4u);
}

}  // namespace
}  // namespace streamasp
