// Tests for the synchronization LCOs: latch, barrier, event, semaphore,
// mutex, condition_variable — from tasks and from external threads.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "px/px.hpp"

namespace {

struct LcoTest : ::testing::Test {
  px::runtime rt{[] {
    px::scheduler_config c;
    c.num_workers = 4;
    return c;
  }()};
};

// ---- latch ---------------------------------------------------------------

TEST_F(LcoTest, LatchReleasesWaitersAtZero) {
  px::latch l(3);
  std::atomic<int> released{0};
  for (int i = 0; i < 5; ++i)
    rt.post([&] {
      l.wait();
      released.fetch_add(1);
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(released.load(), 0);
  l.count_down(2);
  EXPECT_FALSE(l.try_wait());
  l.count_down();
  rt.wait_quiescent();
  EXPECT_EQ(released.load(), 5);
  EXPECT_TRUE(l.try_wait());
}

TEST_F(LcoTest, LatchWaitAfterZeroReturnsImmediately) {
  px::latch l(1);
  l.count_down();
  l.wait();
  SUCCEED();
}

TEST_F(LcoTest, LatchArriveAndWait) {
  px::latch l(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 4; ++i)
    rt.post([&] {
      l.arrive_and_wait();
      done.fetch_add(1);
    });
  rt.wait_quiescent();
  EXPECT_EQ(done.load(), 4);
}

TEST_F(LcoTest, LatchExternalThreadWait) {
  px::latch l(1);
  rt.post([&] {
    px::this_task::sleep_for(std::chrono::milliseconds(10));
    l.count_down();
  });
  l.wait();  // external thread blocks on condvar path
  SUCCEED();
}

// ---- barrier -------------------------------------------------------------

TEST_F(LcoTest, BarrierSynchronizesPhases) {
  constexpr int parties = 4, rounds = 10;
  px::barrier bar(parties);
  std::atomic<int> in_phase{0};
  std::atomic<int> max_seen{0};
  std::atomic<int> errors{0};
  for (int p = 0; p < parties; ++p)
    rt.post([&, p] {
      for (int r = 0; r < rounds; ++r) {
        int const now = in_phase.fetch_add(1) + 1;
        int expected = max_seen.load();
        while (now > expected &&
               !max_seen.compare_exchange_weak(expected, now)) {
        }
        bar.arrive_and_wait();
        // All parties arrived; between barriers the counter must have hit
        // exactly `parties`.
        bar.arrive_and_wait();
        if (p == 0) {
          if (in_phase.exchange(0) != parties) errors.fetch_add(1);
          max_seen.store(0);
        }
        bar.arrive_and_wait();
      }
    });
  rt.wait_quiescent();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(bar.phase(), static_cast<std::uint64_t>(3 * rounds));
}

TEST_F(LcoTest, BarrierSingleParty) {
  px::barrier bar(1);
  for (int i = 0; i < 5; ++i) bar.arrive_and_wait();
  EXPECT_EQ(bar.phase(), 5u);
}

// ---- event -----------------------------------------------------------------

TEST_F(LcoTest, EventReleasesAllWaiters) {
  px::event ev;
  std::atomic<int> woke{0};
  for (int i = 0; i < 6; ++i)
    rt.post([&] {
      ev.wait();
      woke.fetch_add(1);
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(woke.load(), 0);
  ev.set();
  rt.wait_quiescent();
  EXPECT_EQ(woke.load(), 6);
  // Set events admit new waiters immediately.
  rt.post([&] {
    ev.wait();
    woke.fetch_add(1);
  });
  rt.wait_quiescent();
  EXPECT_EQ(woke.load(), 7);
}

TEST_F(LcoTest, EventReset) {
  px::event ev;
  ev.set();
  EXPECT_TRUE(ev.is_set());
  ev.reset();
  EXPECT_FALSE(ev.is_set());
}

// ---- semaphore ------------------------------------------------------------

TEST_F(LcoTest, SemaphoreLimitsConcurrency) {
  px::counting_semaphore sem(2);
  std::atomic<int> inside{0}, peak{0}, total{0};
  for (int i = 0; i < 20; ++i)
    rt.post([&] {
      sem.acquire();
      int const now = inside.fetch_add(1) + 1;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      px::this_task::sleep_for(std::chrono::milliseconds(2));
      inside.fetch_sub(1);
      sem.release();
      total.fetch_add(1);
    });
  rt.wait_quiescent();
  EXPECT_EQ(total.load(), 20);
  EXPECT_LE(peak.load(), 2);
  EXPECT_EQ(sem.value(), 2);
}

TEST_F(LcoTest, SemaphoreTryAcquire) {
  px::counting_semaphore sem(1);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
  sem.release();
}

TEST_F(LcoTest, SemaphoreBulkRelease) {
  px::counting_semaphore sem(0);
  std::atomic<int> done{0};
  for (int i = 0; i < 3; ++i)
    rt.post([&] {
      sem.acquire();
      done.fetch_add(1);
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(done.load(), 0);
  sem.release(3);
  rt.wait_quiescent();
  EXPECT_EQ(done.load(), 3);
}

// ---- mutex / condition_variable --------------------------------------------

TEST_F(LcoTest, MutexMutualExclusionAcrossTasks) {
  px::mutex m;
  long counter = 0;
  for (int t = 0; t < 8; ++t)
    rt.post([&] {
      for (int i = 0; i < 500; ++i) {
        std::lock_guard<px::mutex> guard(m);
        ++counter;
      }
    });
  rt.wait_quiescent();
  EXPECT_EQ(counter, 4000);
}

TEST_F(LcoTest, MutexTryLock) {
  px::mutex m;
  EXPECT_TRUE(m.try_lock());
  EXPECT_FALSE(m.try_lock());
  m.unlock();
}

TEST_F(LcoTest, MutexHolderCanSuspend) {
  px::mutex m;
  px::event holding;  // the contender starts only once the lock is held
  std::atomic<bool> slow_done{false};
  rt.post([&] {
    std::lock_guard<px::mutex> guard(m);
    holding.set();
    px::this_task::sleep_for(std::chrono::milliseconds(20));
    slow_done.store(true);
  });
  rt.post([&] {
    holding.wait();
    std::lock_guard<px::mutex> guard(m);
    EXPECT_TRUE(slow_done.load());  // only acquired after the sleeper left
  });
  rt.wait_quiescent();
}

TEST_F(LcoTest, ConditionVariableProducerConsumer) {
  px::mutex m;
  px::condition_variable cv;
  std::vector<int> queue;
  std::atomic<long> consumed_sum{0};
  constexpr int n = 200;

  for (int c = 0; c < 3; ++c)
    rt.post([&] {
      for (;;) {
        std::unique_lock<px::mutex> lock(m);
        cv.wait(lock, [&] { return !queue.empty(); });
        // FIFO so the poison pills (enqueued last) drain last.
        int v = queue.front();
        queue.erase(queue.begin());
        lock.unlock();
        if (v < 0) return;  // poison pill
        consumed_sum.fetch_add(v);
      }
    });

  rt.post([&] {
    for (int i = 1; i <= n; ++i) {
      {
        std::unique_lock<px::mutex> lock(m);
        queue.push_back(i);
      }
      cv.notify_one();
      if (i % 32 == 0) px::this_task::yield();
    }
    for (int c = 0; c < 3; ++c) {
      {
        std::unique_lock<px::mutex> lock(m);
        queue.push_back(-1);
      }
      cv.notify_one();
    }
  });

  rt.wait_quiescent();
  EXPECT_EQ(consumed_sum.load(), static_cast<long>(n) * (n + 1) / 2);
}

TEST_F(LcoTest, ConditionVariableNotifyAll) {
  px::mutex m;
  px::condition_variable cv;
  bool go = false;
  std::atomic<int> woke{0};
  for (int i = 0; i < 5; ++i)
    rt.post([&] {
      std::unique_lock<px::mutex> lock(m);
      cv.wait(lock, [&] { return go; });
      woke.fetch_add(1);
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  {
    std::unique_lock<px::mutex> lock(m);
    go = true;
  }
  cv.notify_all();
  rt.wait_quiescent();
  EXPECT_EQ(woke.load(), 5);
}

}  // namespace
