// common::BoundedQueue: FIFO within a lane, lane-priority drain order,
// capacity bound shared across lanes, close-then-drain semantics, blocking
// push backpressure, high-water tracking, and conservation under concurrent
// producers/consumers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/error.hpp"

namespace {

using memxct::InvariantError;
using memxct::common::BoundedQueue;

TEST(BoundedQueue, FifoWithinOneLane) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(i));
  for (int i = 0; i < 5; ++i) {
    const auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(q.size(), 0);
}

TEST(BoundedQueue, TryPushRejectsWhenFullAcrossLanes) {
  BoundedQueue<int> q(2, 3);  // capacity bounds the TOTAL across lanes
  EXPECT_TRUE(q.try_push(0, 0));
  EXPECT_TRUE(q.try_push(1, 2));
  EXPECT_FALSE(q.try_push(2, 1)) << "third item must exceed total capacity";
  EXPECT_EQ(q.size(), 2);
  (void)q.pop();
  EXPECT_TRUE(q.try_push(2, 1)) << "room after a pop";
}

TEST(BoundedQueue, PopDrainsLanesInPriorityOrder) {
  BoundedQueue<int> q(8, 3);
  // Enqueue out of priority order: bulk first, interactive last.
  EXPECT_TRUE(q.try_push(20, 2));
  EXPECT_TRUE(q.try_push(21, 2));
  EXPECT_TRUE(q.try_push(10, 1));
  EXPECT_TRUE(q.try_push(0, 0));
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) order.push_back(*q.pop());
  EXPECT_EQ(order, (std::vector<int>{0, 10, 20, 21}));
}

TEST(BoundedQueue, CloseDrainsRemainingThenSignalsEnd) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.try_push(3)) << "closed queue must reject pushes";
  EXPECT_FALSE(q.push(3)) << "closed queue must reject blocking pushes";
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_EQ(*q.pop(), 2);
  EXPECT_FALSE(q.pop().has_value()) << "drained + closed ends the stream";
}

TEST(BoundedQueue, BlockingPushWaitsForRoom) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // must block until the consumer makes room
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(pushed.load()) << "push returned while the queue was full";
  EXPECT_EQ(*q.pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(*q.pop(), 2);
}

TEST(BoundedQueue, HighWaterTracksPeakAndResets) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.high_water(), 0);
  (void)q.try_push(1);
  (void)q.try_push(2);
  (void)q.try_push(3);
  (void)q.pop();
  (void)q.pop();
  EXPECT_EQ(q.high_water(), 3) << "peak, not current depth";
  q.reset_high_water();
  EXPECT_EQ(q.high_water(), 1) << "reset re-seeds from current depth";
}

TEST(BoundedQueue, ConservesItemsUnderConcurrency) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 200;
  BoundedQueue<int> q(8, 2);
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i)
        EXPECT_TRUE(q.push(p * kPerProducer + i, i % 2));
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (const auto v = q.pop()) {
        sum.fetch_add(*v);
        popped.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (int c = 0; c < kConsumers; ++c)
    threads[static_cast<std::size_t>(kProducers + c)].join();
  const int total = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), total);
  EXPECT_EQ(sum.load(),
            static_cast<long long>(total) * (total - 1) / 2);  // 0..total-1
  EXPECT_LE(q.high_water(), 8) << "capacity bound violated under load";
}

TEST(BoundedQueue, RejectsInvalidConstruction) {
  EXPECT_THROW(BoundedQueue<int>(0), InvariantError);
  EXPECT_THROW(BoundedQueue<int>(1, 0), InvariantError);
  BoundedQueue<int> q(1, 1);
  EXPECT_THROW((void)q.try_push(0, 5), InvariantError);  // lane out of range
}

}  // namespace
