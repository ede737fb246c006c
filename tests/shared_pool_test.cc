// The shared reasoner pool's scheduler: deficit-round-robin weighting
// across tenant lanes, per-lane in-flight caps, drain semantics, and the
// lane counters the server's fairness accounting reads.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace streamasp {
namespace {

/// A manually released gate: tasks parked on Wait() hold a pool worker
/// until the test calls Open(), letting the test build up lane backlogs
/// deterministically before any dispatch decisions happen.
class Gate {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Records which lane each dispatched task belonged to, in execution
/// order. Single-worker pools make the order deterministic.
class DispatchLog {
 public:
  void Record(char tag) {
    std::lock_guard<std::mutex> lock(mutex_);
    order_.push_back(tag);
  }

  std::vector<char> order() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return order_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<char> order_;
};

TEST(SharedPoolTest, DeficitRoundRobinHonorsWeights) {
  // One worker, so dispatch order is the scheduler's decision alone. A
  // gate task parks the worker while both lanes build their backlogs.
  SharedReasonerPool pool(1);
  auto gate_lane = pool.CreateQueue(/*weight=*/1, /*max_inflight=*/1);
  Gate gate;
  gate_lane->Submit([&gate] { gate.Wait(); });

  auto light = pool.CreateQueue(/*weight=*/1, /*max_inflight=*/1);
  auto heavy = pool.CreateQueue(/*weight=*/3, /*max_inflight=*/3);
  DispatchLog log;
  constexpr int kLight = 8;
  constexpr int kHeavy = 24;
  for (int i = 0; i < kLight; ++i) {
    light->Submit([&log] { log.Record('l'); });
  }
  for (int i = 0; i < kHeavy; ++i) {
    heavy->Submit([&log] { log.Record('h'); });
  }

  gate.Open();
  light->Drain();
  heavy->Drain();
  gate_lane->Drain();

  const std::vector<char> order = log.order();
  ASSERT_EQ(order.size(), static_cast<size_t>(kLight + kHeavy));
  // DRR with quantum == weight: over any prefix of the busy interval the
  // heavy lane gets ~3x the light lane's dispatch slots, never drifting
  // further than one quantum from the ideal split.
  int light_seen = 0;
  int heavy_seen = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    (order[i] == 'l' ? light_seen : heavy_seen)++;
    if (light_seen < kLight && heavy_seen < kHeavy) {
      EXPECT_LE(std::abs(heavy_seen - 3 * light_seen), 4)
          << "prefix " << i << ": heavy=" << heavy_seen
          << " light=" << light_seen;
    }
  }
  EXPECT_EQ(light_seen, kLight);
  EXPECT_EQ(heavy_seen, kHeavy);
}

TEST(SharedPoolTest, InflightCapBoundsOneLanesConcurrency) {
  SharedReasonerPool pool(4);
  auto capped = pool.CreateQueue(/*weight=*/1, /*max_inflight=*/1);

  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 16; ++i) {
    capped->Submit([&running, &peak] {
      const int now = running.fetch_add(1) + 1;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      // Linger long enough that a second dispatch of this lane (a cap
      // violation) would overlap on the 4-worker pool.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      running.fetch_sub(1);
    });
  }
  capped->Drain();
  EXPECT_EQ(peak.load(), 1) << "cap-1 lane ran tasks concurrently";
}

TEST(SharedPoolTest, LaneUsesItsFullCapWhenWorkersAreFree) {
  // Four tasks that each wait until all four are running: completes only
  // if the pool dispatches the whole cap of one lane concurrently.
  SharedReasonerPool pool(4);
  auto lane = pool.CreateQueue(/*weight=*/1, /*max_inflight=*/4);

  std::mutex mutex;
  std::condition_variable cv;
  int running = 0;
  for (int i = 0; i < 4; ++i) {
    lane->Submit([&mutex, &cv, &running] {
      std::unique_lock<std::mutex> lock(mutex);
      ++running;
      cv.notify_all();
      cv.wait(lock, [&running] { return running == 4; });
    });
  }
  lane->Drain();
  EXPECT_EQ(running, 4);
}

TEST(SharedPoolTest, StatsCountSubmittedCompletedAndBacklog) {
  SharedReasonerPool pool(1);
  auto gate_lane = pool.CreateQueue(1, 1);
  Gate gate;
  gate_lane->Submit([&gate] { gate.Wait(); });

  auto lane = pool.CreateQueue(2, 2);
  for (int i = 0; i < 6; ++i) {
    lane->Submit([] {});
  }
  {
    const SharedReasonerPool::Queue::Stats parked = lane->stats();
    EXPECT_EQ(parked.submitted, 6u);
    EXPECT_EQ(parked.completed, 0u);
    EXPECT_EQ(parked.max_queued, 6u);
  }
  gate.Open();
  lane->Drain();
  gate_lane->Drain();
  const SharedReasonerPool::Queue::Stats drained = lane->stats();
  EXPECT_EQ(drained.submitted, 6u);
  EXPECT_EQ(drained.completed, 6u);
  EXPECT_EQ(drained.max_queued, 6u);
}

TEST(SharedPoolTest, DrainIsPerLaneAndReusable) {
  SharedReasonerPool pool(2);
  auto a = pool.CreateQueue(1, 2);
  auto b = pool.CreateQueue(1, 2);

  std::atomic<int> a_done{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5; ++i) {
      a->Submit([&a_done] { a_done.fetch_add(1); });
    }
    b->Submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(1)); });
    a->Drain();
    EXPECT_EQ(a_done.load(), 5 * (round + 1));
  }
  b->Drain();
  const auto b_stats = b->stats();
  EXPECT_EQ(b_stats.completed, 3u);
}

TEST(SharedPoolTest, ZeroWeightAndCapAreClamped) {
  SharedReasonerPool pool(1);
  auto lane = pool.CreateQueue(/*weight=*/0, /*max_inflight=*/0);
  EXPECT_GE(lane->weight(), 1u);
  EXPECT_GE(lane->max_inflight(), 1u);
  std::atomic<bool> ran{false};
  lane->Submit([&ran] { ran.store(true); });
  lane->Drain();
  EXPECT_TRUE(ran.load());
}

// ---------------------------------------------------------------------------
// Front-of-lane submission: how a running task fans subtasks out on its
// own lane and continues without waiting (pooled partition fan-out).
// ---------------------------------------------------------------------------

TEST(SharedPoolTest, FrontSubmittedTaskRunsBeforeOlderQueuedTasks) {
  SharedReasonerPool pool(1);
  auto gate_lane = pool.CreateQueue(1, 1);
  Gate gate;
  gate_lane->Submit([&gate] { gate.Wait(); });

  auto lane = pool.CreateQueue(/*weight=*/4, /*max_inflight=*/1);
  DispatchLog log;
  lane->Submit([&log] { log.Record('a'); });
  lane->Submit([&log] { log.Record('b'); });
  lane->SubmitFront([&log] { log.Record('F'); });
  lane->SubmitFront([&log] { log.Record('G'); });
  EXPECT_EQ(lane->stats().max_queued, 4u);

  gate.Open();
  lane->Drain();
  gate_lane->Drain();
  EXPECT_EQ(log.order(), (std::vector<char>{'G', 'F', 'a', 'b'}));
  EXPECT_EQ(lane->stats().submitted, 4u);
  EXPECT_EQ(lane->stats().completed, 4u);
}

TEST(SharedPoolTest, FrontSubmittedTasksConsumeDrrCredit) {
  // Two weight-1 lanes: if front-submitted tasks were free of credit, the
  // front lane would run its whole backlog before the other lane's first.
  SharedReasonerPool pool(1);
  auto gate_lane = pool.CreateQueue(1, 1);
  Gate gate;
  gate_lane->Submit([&gate] { gate.Wait(); });

  auto front = pool.CreateQueue(/*weight=*/1, /*max_inflight=*/4);
  auto back = pool.CreateQueue(/*weight=*/1, /*max_inflight=*/4);
  DispatchLog log;
  constexpr int kTasks = 6;
  for (int i = 0; i < kTasks; ++i) {
    front->SubmitFront([&log] { log.Record('f'); });
    back->Submit([&log] { log.Record('b'); });
  }
  gate.Open();
  front->Drain();
  back->Drain();
  gate_lane->Drain();

  const std::vector<char> order = log.order();
  ASSERT_EQ(order.size(), static_cast<size_t>(2 * kTasks));
  int front_seen = 0;
  int back_seen = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    (order[i] == 'f' ? front_seen : back_seen)++;
    EXPECT_LE(std::abs(front_seen - back_seen), 1)
        << "prefix " << i << ": front=" << front_seen
        << " back=" << back_seen;
  }
}

TEST(SharedPoolTest, FrontSubmittedTasksRespectTheInflightCap) {
  SharedReasonerPool pool(4);
  auto capped = pool.CreateQueue(/*weight=*/1, /*max_inflight=*/1);

  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 16; ++i) {
    capped->SubmitFront([&running, &peak] {
      const int now = running.fetch_add(1) + 1;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      running.fetch_sub(1);
    });
  }
  capped->Drain();
  EXPECT_EQ(peak.load(), 1) << "cap-1 lane ran front tasks concurrently";
}

TEST(SharedPoolTest, DrainWaitsForTasksSubmittedByRunningTasks) {
  SharedReasonerPool pool(2);
  auto lane = pool.CreateQueue(/*weight=*/1, /*max_inflight=*/2);
  std::atomic<bool> grandchild_ran{false};
  lane->Submit([&lane, &grandchild_ran] {
    lane->Submit([&lane, &grandchild_ran] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      lane->SubmitFront([&grandchild_ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        grandchild_ran.store(true);
      });
    });
  });
  lane->Drain();
  EXPECT_TRUE(grandchild_ran.load());
  EXPECT_EQ(lane->stats().submitted, 3u);
  EXPECT_EQ(lane->stats().completed, 3u);
}

TEST(SharedPoolTest, CapOneTaskFanningOutToItsOwnLaneDoesNotDeadlock) {
  // The pooled-window shape on the tightest lane: the parent front-submits
  // its subtasks and returns instead of waiting for them, so they run
  // after it on the lane's one slot — and before the lane's older work.
  SharedReasonerPool pool(2);
  auto lane = pool.CreateQueue(/*weight=*/1, /*max_inflight=*/1);
  DispatchLog log;
  lane->Submit([&lane, &log] {
    for (char child : {'3', '2', '1'}) {
      lane->SubmitFront([&log, child] { log.Record(child); });
    }
    log.Record('P');
  });
  lane->Submit([&log] { log.Record('L'); });
  lane->Drain();
  EXPECT_EQ(log.order(), (std::vector<char>{'P', '1', '2', '3', 'L'}));
}

}  // namespace
}  // namespace streamasp
