#include "util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace fedshap {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(257);
  pool.ParallelFor(257, [&](int i) { touched[i].fetch_add(1); });
  for (int i = 0; i < 257; ++i) EXPECT_EQ(touched[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForZeroAndNegativeCounts) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](int) { ++calls; });
  pool.ParallelFor(-5, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.ParallelFor(5, [&](int i) { order.push_back(i); });
  std::vector<int> expected = {0, 1, 2, 3, 4};
  EXPECT_EQ(order, expected);  // inline execution preserves order
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int batch = 0; batch < 10; ++batch) {
    pool.ParallelFor(50, [&](int i) { total.fetch_add(i); });
  }
  EXPECT_EQ(total.load(), 10 * (49 * 50 / 2));
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

TEST(ThreadPoolTest, DestructionWithPendingWorkCompletes) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.WaitIdle();
  }  // destructor joins workers
  EXPECT_EQ(counter.load(), 20);
}

TEST(TaskGroupTest, WaitsOnlyForOwnTasks) {
  ThreadPool pool(4);
  std::atomic<int> own{0};
  std::atomic<bool> release_other{false};
  // A long-running foreign task occupies the pool...
  pool.Submit([&release_other] {
    while (!release_other.load()) std::this_thread::yield();
  });
  // ...while the group's own short tasks complete and Wait returns
  // without waiting for the foreign task (WaitIdle would hang here).
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Run([&own] { own.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(own.load(), 8);
  release_other.store(true);
  pool.WaitIdle();
}

TEST(TaskGroupTest, NullPoolRunsInline) {
  TaskGroup group(nullptr);
  int runs = 0;
  group.Run([&runs] { ++runs; });
  group.Run([&runs] { ++runs; });
  group.Wait();
  EXPECT_EQ(runs, 2);
}

TEST(TaskGroupTest, ConcurrentGroupsShareOnePoolWithoutCrosstalk) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&pool, &total] {
      TaskGroup group(&pool);
      for (int i = 0; i < 16; ++i) {
        group.Run([&total] { total.fetch_add(1); });
      }
      group.Wait();
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(total.load(), 64);
}

// Regression: ParallelFor used to wait for the whole pool to go idle, so
// an unrelated long-running task made it block indefinitely. It now waits
// on a per-call TaskGroup and returns as soon as its own indices finish.
TEST(ThreadPoolTest, ParallelForIgnoresForeignTasks) {
  ThreadPool pool(4);
  std::atomic<bool> release_other{false};
  pool.Submit([&release_other] {
    while (!release_other.load()) std::this_thread::yield();
  });
  std::atomic<int> covered{0};
  pool.ParallelFor(32, [&covered](int) { covered.fetch_add(1); });
  EXPECT_EQ(covered.load(), 32);  // returned while the blocker still runs
  release_other.store(true);
  pool.WaitIdle();
}

// Regression: calling ParallelFor from inside one of the pool's own
// worker threads used to deadlock once every worker was occupied (each
// nested call waited for tasks no free worker could run). Nested calls
// now detect their own pool and run inline.
TEST(ThreadPoolTest, NestedParallelForFromWorkerRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  // Outer fan-out occupies every worker; each body nests another
  // ParallelFor on the same pool.
  pool.ParallelFor(4, [&](int) {
    pool.ParallelFor(8, [&inner_total](int) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallersDoNotCrosstalk) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&pool, &total] {
      pool.ParallelFor(25, [&total](int) { total.fetch_add(1); });
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(total.load(), 4 * 25);
}

TEST(WorkerBudgetTest, GrantsUpToTotalAndReleases) {
  WorkerBudget budget(4);
  EXPECT_EQ(budget.total(), 4);
  EXPECT_EQ(budget.TryAcquire(3), 3);
  EXPECT_EQ(budget.in_use(), 3);
  EXPECT_EQ(budget.TryAcquire(3), 1);  // only one slot left
  EXPECT_EQ(budget.TryAcquire(1), 0);  // exhausted: callers go sequential
  budget.Release(1);
  EXPECT_EQ(budget.TryAcquire(5), 1);
  budget.Release(3);
  budget.Release(1);
  EXPECT_EQ(budget.in_use(), 0);
}

TEST(WorkerBudgetTest, LeaseIsScoped) {
  WorkerBudget budget(2);
  {
    WorkerBudget::Lease outer(budget, 2);
    EXPECT_EQ(outer.granted(), 2);
    WorkerBudget::Lease nested(budget, 2);
    // The nested layer sees a saturated budget: the oversubscription
    // guard that keeps TrainFedAvg sequential under EvaluateBatch.
    EXPECT_EQ(nested.granted(), 0);
  }
  EXPECT_EQ(budget.in_use(), 0);
}

TEST(WorkerBudgetTest, ZeroAndNegativeWantedAreNoops) {
  WorkerBudget budget(2);
  EXPECT_EQ(budget.TryAcquire(0), 0);
  EXPECT_EQ(budget.TryAcquire(-3), 0);
  budget.Release(0);
  budget.Release(-1);
  EXPECT_EQ(budget.in_use(), 0);
}

TEST(WorkerBudgetTest, TotalClampedToOne) {
  WorkerBudget budget(0);
  EXPECT_EQ(budget.total(), 1);
  budget.SetTotal(-5);
  EXPECT_EQ(budget.total(), 1);
}

// Regression: releasing more slots than were acquired used to drive
// in_use_ negative, silently inflating every later TryAcquire grant. The
// debug build now fails loudly; the release build clamps at zero.
TEST(WorkerBudgetTest, OverReleaseIsCaught) {
  WorkerBudget budget(4);
  EXPECT_EQ(budget.TryAcquire(1), 1);
#ifndef NDEBUG
  EXPECT_DEATH(budget.Release(2), "");
#else
  budget.Release(2);  // clamped, not negative
  EXPECT_EQ(budget.in_use(), 0);
  EXPECT_EQ(budget.TryAcquire(100), 4);  // grants never exceed total
#endif
}

// Shrinking the budget below the outstanding lease count must not grant
// new slots (or corrupt accounting) until enough leases drain.
TEST(WorkerBudgetTest, ShrinkBelowInUseStopsGrantsUntilDrained) {
  WorkerBudget budget(4);
  EXPECT_EQ(budget.TryAcquire(3), 3);
  budget.SetTotal(2);
  EXPECT_EQ(budget.total(), 2);
  EXPECT_EQ(budget.TryAcquire(1), 0);  // 3 in use > new total
  budget.Release(1);
  EXPECT_EQ(budget.TryAcquire(1), 0);  // still at the new ceiling
  budget.Release(1);
  EXPECT_EQ(budget.TryAcquire(1), 1);  // back under: grants resume
  budget.Release(1);
  budget.Release(1);
  EXPECT_EQ(budget.in_use(), 0);
}

}  // namespace
}  // namespace fedshap
