#include "server/thread_pool.h"

#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace parj::server {
namespace {

/// Count-down latch whose wait gives up after a generous deadline, so a
/// lost or misdirected wake-up fails the test instead of hanging it.
class TimedLatch {
 public:
  explicit TimedLatch(int count) : count_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--count_ <= 0) cv_.notify_all();
  }

  /// True when the count reached zero before the deadline.
  bool Wait(std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return count_ <= 0; });
  }

  bool ArriveAndWait() {
    CountDown();
    return Wait();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int count_;
};

/// Starts the pool and gives every worker time to park: afterwards a
/// submission can only reach a worker through a wake-up.
void StartAndLetPark(ThreadPool& pool) {
  pool.ParallelFor(static_cast<size_t>(pool.thread_count()) + 1,
                   [](size_t) {});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

TEST(ThreadPoolTest, LazyStart) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.started());
  EXPECT_EQ(pool.thread_count(), 2);
  std::promise<void> ran;
  pool.Submit([&] { ran.set_value(); });
  ran.get_future().wait();
  EXPECT_TRUE(pool.started());
}

TEST(ThreadPoolTest, ManySmallSubmittedTasks) {
  ThreadPool pool(4);
  constexpr int kTasks = 500;
  std::atomic<int> count{0};
  std::promise<void> all_done;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (count.fetch_add(1) + 1 == kTasks) all_done.set_value();
    });
  }
  all_done.get_future().wait();
  EXPECT_EQ(count.load(), kTasks);
  EXPECT_GE(pool.stats().tasks_executed, static_cast<uint64_t>(kTasks));
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForFromConcurrentSubmitters) {
  // Stress: several external threads drive fork-joins on one pool at once.
  ThreadPool pool(2);
  constexpr int kSubmitters = 4;
  constexpr size_t kPerSubmitter = 250;
  std::atomic<int> total{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      pool.ParallelFor(kPerSubmitter, [&](size_t) { total.fetch_add(1); });
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(total.load(), kSubmitters * static_cast<int>(kPerSubmitter));
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A pool-run task fanning out again (a pool-served query executing its
  // shards) must complete via caller participation.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolTest, GangLargerThanPoolRunsConcurrently) {
  // 5 barrier-coupled members on a 1-thread pool: only guaranteed
  // concurrency (overflow threads) can pass the barrier.
  ThreadPool pool(1);
  constexpr int kMembers = 5;
  std::barrier sync(kMembers);
  std::atomic<int> passed{0};
  pool.RunGang(kMembers, [&](int) {
    sync.arrive_and_wait();
    passed.fetch_add(1);
    sync.arrive_and_wait();
  });
  EXPECT_EQ(passed.load(), kMembers);
  EXPECT_GE(pool.stats().overflow_threads, 2u);
  EXPECT_EQ(pool.stats().gangs_run, 1u);
}

TEST(ThreadPoolTest, GangReusesIdleWorkers) {
  ThreadPool pool(4);
  // Park-then-run once so workers are demonstrably idle.
  pool.ParallelFor(4, [](size_t) {});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::barrier sync(3);
  pool.RunGang(3, [&](int) { sync.arrive_and_wait(); });
  // All members fit on idle workers; no overflow thread needed.
  EXPECT_EQ(pool.stats().overflow_threads, 0u);
}

TEST(ThreadPoolTest, RunWorkersRunsEveryMemberExactlyOnce) {
  ThreadPool pool(2);
  constexpr int kMembers = 8;
  std::vector<std::atomic<int>> hits(kMembers);
  pool.RunWorkers(kMembers, [&](int m) { hits[m].fetch_add(1); });
  for (int m = 0; m < kMembers; ++m) EXPECT_EQ(hits[m].load(), 1) << m;
  EXPECT_EQ(pool.stats().worker_gangs_run, 1u);
}

TEST(ThreadPoolTest, RunWorkersOnSaturatedPoolFallsBackToCaller) {
  // Pool fully busy: every member must still run (the caller claims the
  // ones no idle worker picked up) — degraded parallelism, never deadlock.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.Submit([gate] { gate.wait(); });
  std::atomic<int> ran{0};
  pool.RunWorkers(4, [&](int) { ran.fetch_add(1); });
  release.set_value();
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPoolTest, RunWorkersNestedInsidePoolTaskCompletes) {
  // A pool-served query's executor calling RunWorkers from a pool thread
  // (the serving layer's actual call shape) must not deadlock.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(3, [&](size_t) {
    pool.RunWorkers(4, [&](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 12);
}

TEST(ThreadPoolTest, SharedPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::Shared(), &ThreadPool::Shared());
  EXPECT_GE(ThreadPool::Shared().thread_count(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) pool.Submit([&] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolTest, BackToBackSubmitsWakeDistinctWorkers) {
  // K tasks that each wait for all K: they pass only if every submit woke
  // a different parked worker. A wake that lands on an already-woken
  // worker leaves one task queued behind a blocked one.
  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  StartAndLetPark(pool);
  TimedLatch all_running(kThreads);
  std::atomic<int> passed{0};
  std::promise<void> done;
  std::atomic<int> finished{0};
  for (int i = 0; i < kThreads; ++i) {
    pool.Submit([&] {
      if (all_running.ArriveAndWait()) passed.fetch_add(1);
      if (finished.fetch_add(1) + 1 == kThreads) done.set_value();
    });
  }
  done.get_future().wait();
  EXPECT_EQ(passed.load(), kThreads);
}

TEST(ThreadPoolTest, RunWorkersMembersStartWhileMemberZeroRuns) {
  // Member 0 (the caller) waits for every other member to start: the
  // handoffs must wake their workers, not leave the members to the caller.
  constexpr int kMembers = 4;
  ThreadPool pool(kMembers);
  StartAndLetPark(pool);
  TimedLatch others_started(kMembers - 1);
  bool all_started = false;
  std::atomic<int> ran{0};
  pool.RunWorkers(kMembers, [&](int m) {
    ran.fetch_add(1);
    if (m == 0) {
      all_started = others_started.Wait();
    } else {
      others_started.CountDown();
    }
  });
  EXPECT_TRUE(all_started);
  EXPECT_EQ(ran.load(), kMembers);
}

TEST(ThreadPoolTest, ParallelForHelpersLandOnDistinctWorkers) {
  // n indices that each wait for all n can only finish if the caller and
  // the n - 1 helpers run on n distinct threads at once.
  constexpr size_t kThreads = 3;
  ThreadPool pool(static_cast<int>(kThreads));
  StartAndLetPark(pool);
  TimedLatch all_running(kThreads + 1);
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::atomic<int> passed{0};
  pool.ParallelFor(kThreads + 1, [&](size_t) {
    {
      std::lock_guard<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
    }
    if (all_running.ArriveAndWait()) passed.fetch_add(1);
  });
  EXPECT_EQ(passed.load(), static_cast<int>(kThreads + 1));
  EXPECT_EQ(threads.size(), kThreads + 1);
}

TEST(ThreadPoolTest, DestructorWakesEveryParkedWorker) {
  auto pool = std::make_unique<ThreadPool>(4);
  StartAndLetPark(*pool);
  std::promise<void> destroyed;
  std::future<void> destroyed_future = destroyed.get_future();
  std::thread destroyer([&pool, &destroyed] {
    pool.reset();  // joins every worker
    destroyed.set_value();
  });
  if (destroyed_future.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    // A hung destructor can be neither joined nor safely abandoned.
    std::fprintf(stderr, "a parked worker was never woken to exit\n");
    std::abort();
  }
  destroyer.join();
}

}  // namespace
}  // namespace parj::server
