// BoundedQueue: FIFO semantics, close/drain, the three backpressure
// policies (with a multi-producer/multi-consumer stress per policy), and
// the eviction fold that hands an evicted window's delta to its successor.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "stream/query_processor.h"
#include "stream/triple.h"
#include "util/bounded_queue.h"

namespace streamasp {
namespace {

/// Pops every item of `queue` with TryPop, in order.
template <typename T>
std::vector<T> PopAll(BoundedQueue<T>& queue) {
  std::vector<T> out;
  while (std::optional<T> item = queue.TryPop()) {
    out.push_back(std::move(*item));
  }
  return out;
}

TEST(BoundedQueueTest, FifoAndCounters) {
  BoundedQueue<int> queue(4);
  EXPECT_EQ(queue.capacity(), 4u);
  EXPECT_EQ(queue.Push(1), QueuePushResult::kOk);
  EXPECT_EQ(queue.Push(2), QueuePushResult::kOk);
  EXPECT_EQ(queue.size(), 2u);

  EXPECT_EQ(queue.TryPop(), std::optional<int>(1));
  EXPECT_EQ(queue.TryPop(), std::optional<int>(2));
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

TEST(BoundedQueueTest, CloseKeepsQueuedItemsPoppable) {
  BoundedQueue<int> queue(4);
  ASSERT_EQ(queue.Push(7), QueuePushResult::kOk);
  queue.Close();
  EXPECT_EQ(queue.Push(8), QueuePushResult::kClosed);

  EXPECT_EQ(queue.TryPop(), std::optional<int>(7));  // Survives Close.
  EXPECT_EQ(queue.TryPop(), std::nullopt);
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.stats().pushed, 1u);
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

  EXPECT_EQ(queue.TryPop(), std::optional<int>(1));
  producer.join();
  EXPECT_TRUE(returned);
  EXPECT_EQ(queue.TryPop(), std::optional<int>(2));
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
  EXPECT_EQ(PopAll(queue), (std::vector<int>{2, 3}));
}

TEST(BoundedQueueTest, RejectRefusesWhenFull) {
  BoundedQueue<int> queue(2, BackpressurePolicy::kReject);
  EXPECT_EQ(queue.Push(1), QueuePushResult::kOk);
  EXPECT_EQ(queue.Push(2), QueuePushResult::kOk);
  EXPECT_EQ(queue.Push(3), QueuePushResult::kRejected);
  EXPECT_EQ(queue.stats().rejected, 1u);
  EXPECT_EQ(queue.size(), 2u);

  ASSERT_TRUE(queue.TryPop().has_value());
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

// ------------------------------------------------------ Eviction fold.

TEST(BoundedQueueTest, DropOldestFoldsTheEvictedItemIntoItsSuccessor) {
  // The successor is the new oldest item, or the incoming one when the
  // evicted item was alone in the queue.
  for (const size_t capacity : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    std::vector<std::pair<int, int>> folds;
    BoundedQueue<int> queue(capacity, BackpressurePolicy::kDropOldest,
                            [&](int* evicted, int* successor) {
                              folds.emplace_back(*evicted, *successor);
                              *successor += 100 * *evicted;
                            });
    for (int v = 1; v <= static_cast<int>(capacity) + 2; ++v) {
      queue.Push(v);
    }
    const int first_kept = 3;
    ASSERT_EQ(folds.size(), 2u);
    EXPECT_EQ(folds[0], std::make_pair(1, 2));
    EXPECT_EQ(folds[1], std::make_pair(2 + 100, first_kept));
    const std::vector<int> kept = PopAll(queue);
    ASSERT_EQ(kept.size(), capacity);
    EXPECT_EQ(kept.front(), first_kept + 100 * 102);
  }
  // Block and reject never fold.
  for (const BackpressurePolicy policy :
       {BackpressurePolicy::kBlock, BackpressurePolicy::kReject}) {
    bool folded = false;
    BoundedQueue<int> queue(1, policy, [&](int*, int*) { folded = true; });
    queue.Push(1);
    if (policy == BackpressurePolicy::kReject) queue.Push(2);
    EXPECT_EQ(PopAll(queue), std::vector<int>{1});
    EXPECT_FALSE(folded);
  }
}

/// The windows a [window_size, slide] query processor closes over items
/// 0, 1, 2, ... of a one-predicate stream whose payloads repeat mod 5, so
/// windows hold duplicates.
std::vector<TripleWindow> StreamWindows(size_t window_size, size_t slide,
                                        size_t items) {
  const SymbolId p = 1;
  std::vector<TripleWindow> windows;
  StreamQueryProcessor processor(window_size, slide, [&](TripleWindow w) {
    windows.push_back(std::move(w));
  });
  processor.RegisterPredicate(p);
  for (size_t i = 0; i < items; ++i) {
    processor.Push(Triple{PackedTerm::Integer(static_cast<int64_t>(i % 5)),
                          p, PackedTerm()});
  }
  return windows;
}

std::map<int64_t, int> Multiset(const std::vector<Triple>& items) {
  std::map<int64_t, int> counts;
  for (const Triple& t : items) ++counts[t.subject.integer_value()];
  return counts;
}

/// The delta contract across evictions: a popped window that keeps its
/// delta is relative to the window popped before it (`base`, or the empty
/// window for kNoDeltaBase), and base - expired + admitted == its items.
void ExpectChainsFrom(const TripleWindow* base, const TripleWindow& popped) {
  std::map<int64_t, int> running;
  if (popped.delta_base != TripleWindow::kNoDeltaBase) {
    ASSERT_NE(base, nullptr);
    EXPECT_EQ(popped.delta_base, base->sequence);
    running = Multiset(base->items);
  }
  for (const Triple& t : popped.admitted) ++running[t.subject.integer_value()];
  for (const Triple& t : popped.expired) {
    if (--running[t.subject.integer_value()] == 0) {
      running.erase(t.subject.integer_value());
    }
  }
  EXPECT_EQ(running, Multiset(popped.items)) << "window " << popped.sequence;
}

// Property: under kDropOldest with the pipeline's fold, however the pops
// and pushes interleave, every popped window that keeps its delta chains
// from the window popped before it, and its composed delta applied to
// that window as multisets gives exactly its items.
TEST(BoundedQueueFoldTest, ComposedDeltaTurnsTheBaseIntoTheSuccessor) {
  const std::vector<TripleWindow> windows =
      StreamWindows(/*window_size=*/12, /*slide=*/2, /*items=*/120);
  ASSERT_EQ(windows.size(), 55u);
  for (const size_t capacity : {size_t{1}, size_t{3}}) {
    for (const size_t pops_every : {size_t{2}, size_t{3}, size_t{5}}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + ", pop every " +
                   std::to_string(pops_every));
      BoundedQueue<TripleWindow> queue(
          capacity, BackpressurePolicy::kDropOldest, &FoldDelta);
      std::optional<TripleWindow> base;
      size_t evictions = 0;
      size_t folded = 0;
      auto pop = [&] {
        std::optional<TripleWindow> popped = queue.TryPop();
        if (!popped.has_value()) return;
        if (popped->has_delta) {
          ExpectChainsFrom(base.has_value() ? &*base : nullptr, *popped);
          if (popped->expired.size() + popped->admitted.size() > 4) ++folded;
        }
        base = std::move(popped);
      };
      for (size_t w = 0; w < windows.size(); ++w) {
        TripleWindow evicted;
        if (queue.Push(windows[w], &evicted) ==
            QueuePushResult::kDroppedOldest) {
          ++evictions;
          EXPECT_TRUE(evicted.expired.empty());
          EXPECT_TRUE(evicted.admitted.empty());
        }
        if (w % pops_every == 0) pop();
      }
      while (queue.size() > 0) pop();
      EXPECT_GT(evictions, 0u);
      EXPECT_GT(folded, 0u);
      EXPECT_EQ(base->sequence, windows.back().sequence);
    }
  }
}

// A run of consecutive evictions composes each delta into the next, and
// the bound drops the composition once it lists more than twice the
// window's items: from then on each eviction hands its successor no
// delta, while the windows behind it keep their own.
TEST(BoundedQueueFoldTest, RunOfEvictionsComposesUntilTheBound) {
  // Window 12, slide 2: a slide adds 4 delta triples, so the composition
  // of the first window (12 admitted) and k more slides lists 12 + 4k.
  const std::vector<TripleWindow> windows =
      StreamWindows(/*window_size=*/12, /*slide=*/2, /*items=*/40);
  for (const size_t capacity : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    BoundedQueue<TripleWindow> queue(
        capacity, BackpressurePolicy::kDropOldest, &FoldDelta);
    ASSERT_EQ(queue.Push(windows[0]), QueuePushResult::kOk);
    const TripleWindow base = *queue.TryPop();
    for (size_t w = 1; w <= capacity + 2; ++w) queue.Push(windows[w]);
    // Two evictions: the new front spans three slides from `base`.
    std::vector<TripleWindow> kept = PopAll(queue);
    ASSERT_EQ(kept.size(), capacity);
    ASSERT_TRUE(kept[0].has_delta);
    EXPECT_EQ(kept[0].delta_base, base.sequence);
    EXPECT_EQ(kept[0].expired.size(), 6u);
    EXPECT_EQ(kept[0].admitted.size(), 6u);
    ExpectChainsFrom(&base, kept[0]);

    // A run long enough to pass 2 × 12: 12 + 4k > 24 from k = 4 on.
    for (size_t w = 0; w < windows.size(); ++w) queue.Push(windows[w]);
    kept = PopAll(queue);
    ASSERT_EQ(kept.size(), capacity);
    EXPECT_FALSE(kept[0].has_delta);
    EXPECT_EQ(kept[0].delta_base, TripleWindow::kNoDeltaBase);
    EXPECT_TRUE(kept[0].expired.empty());
    EXPECT_TRUE(kept[0].admitted.empty());
    EXPECT_EQ(kept[0].items, windows[windows.size() - capacity].items);
    for (size_t i = 1; i < kept.size(); ++i) {
      ASSERT_TRUE(kept[i].has_delta);
      ExpectChainsFrom(&kept[i - 1], kept[i]);
    }
  }
}

TEST(BoundedQueueFoldTest, TumblingWindowsFoldNothing) {
  const std::vector<TripleWindow> windows =
      StreamWindows(/*window_size=*/4, /*slide=*/0, /*items=*/24);
  ASSERT_EQ(windows.size(), 6u);
  BoundedQueue<TripleWindow> queue(2, BackpressurePolicy::kDropOldest,
                                   &FoldDelta);
  for (const TripleWindow& window : windows) queue.Push(window);
  const std::vector<TripleWindow> kept = PopAll(queue);
  ASSERT_EQ(kept.size(), 2u);
  for (size_t i = 0; i < kept.size(); ++i) {
    const TripleWindow& original = windows[windows.size() - 2 + i];
    EXPECT_EQ(kept[i].sequence, original.sequence);
    EXPECT_FALSE(kept[i].has_delta);
    EXPECT_EQ(kept[i].delta_base, TripleWindow::kNoDeltaBase);
    EXPECT_TRUE(kept[i].expired.empty());
    EXPECT_TRUE(kept[i].admitted.empty());
    EXPECT_EQ(kept[i].items, original.items);
  }
  EXPECT_EQ(queue.stats().dropped, 4u);
}

// MPMC stress: `producers` threads push `per_producer` unique ints through
// a small queue while `consumers` threads poll it with TryPop until it is
// closed and drained. Returns the multiset of consumed values as a sorted
// vector.
std::vector<int> RunStress(BoundedQueue<int>& queue, int producers,
                           int per_producer, int consumers,
                           std::vector<int>* displaced_out) {
  std::mutex sink_mutex;
  std::vector<int> consumed;
  std::vector<int> displaced;

  std::vector<std::thread> consumer_threads;
  for (int c = 0; c < consumers; ++c) {
    consumer_threads.emplace_back([&] {
      for (;;) {
        // Read before the pop: once closed, no push lands, so an empty
        // pop after it means drained.
        const bool closed = queue.closed();
        const std::optional<int> value = queue.TryPop();
        if (value.has_value()) {
          std::lock_guard<std::mutex> lock(sink_mutex);
          consumed.push_back(*value);
        } else if (closed) {
          return;
        } else {
          std::this_thread::yield();
        }
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
