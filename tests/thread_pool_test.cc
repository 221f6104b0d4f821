// The fixed-size worker pool backing morsel parallelism: submission,
// parallel execution, FIFO draining on Shutdown, and the post-shutdown
// Submit contract (returns false rather than dropping work silently).

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace exodus::util {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&] { ++ran; }));
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, JobsRunInParallel) {
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  // Four jobs that each wait for all four to be running: passes only
  // if the pool really has four concurrent workers.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      if (++arrived == 4) {
        cv.notify_all();
      } else {
        cv.wait_for(lock, std::chrono::seconds(5),
                    [&] { return arrived == 4; });
      }
    }));
  }
  pool.Shutdown();
  EXPECT_EQ(arrived, 4);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedJobs) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(pool.Submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
      }));
    }
    pool.Shutdown();  // must run all 20, not discard the queue
  }
  EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPoolTest, SubmitAfterShutdownReturnsFalse) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
  pool.Shutdown();  // idempotent
}

TEST(ThreadPoolTest, WorkersSpawnLazilyOnFirstSubmit) {
  ThreadPool pool(4);
  // Construction configures the width but starts nothing: a pool that
  // is never used (every Database owns one) costs no threads.
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.spawned(), 0u);
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.Submit([&] { ++ran; }));
  EXPECT_EQ(pool.spawned(), 4u);
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, ShutdownWithoutUseSpawnsNothing) {
  ThreadPool pool(3);
  pool.Shutdown();
  EXPECT_EQ(pool.spawned(), 0u);
  EXPECT_FALSE(pool.Submit([] {}));  // no late spawn after shutdown
  EXPECT_EQ(pool.spawned(), 0u);
}

}  // namespace
}  // namespace exodus::util
