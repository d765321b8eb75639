#ifndef FEDSHAP_UTIL_THREAD_POOL_H_
#define FEDSHAP_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fedshap {

/// Fixed-size worker pool used to evaluate independent FL coalitions in
/// parallel (the paper simulates providers with multiprocessing; we use
/// in-process threads).
///
/// Tasks are `void()` closures; exceptions must not escape them (the library
/// is exception-free). `WaitIdle()` blocks until every submitted task has
/// finished, which gives benches a simple fork/join structure.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int num_threads);
  /// Drains outstanding tasks and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed.
  void WaitIdle();

  /// Number of worker threads.
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(i) for i in [0, count), distributing across the pool, and
  /// returns when all iterations finished. Waits only for its own
  /// iterations (via a per-call TaskGroup), so concurrent callers and
  /// unrelated background tasks on the same pool never block each other.
  /// Called from one of this pool's own workers it degrades to an inline
  /// sequential loop instead of deadlocking on itself. Safe to call
  /// repeatedly.
  void ParallelFor(int count, const std::function<void(int)>& fn);

  /// Number of hardware threads, at least 1.
  static int DefaultThreads();

 private:
  friend class TaskGroup;

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  int active_ = 0;
  bool shutdown_ = false;
};

/// A caller-owned join handle over a subset of a ThreadPool's tasks.
///
/// `WaitIdle()` waits for *every* task in a pool, which makes a shared
/// pool unusable by concurrent independent callers (each would wait on
/// the others' work). A TaskGroup counts only its own submissions:
/// `Run()` enqueues a task on the pool and `Wait()` blocks until exactly
/// those tasks finished. Several TaskGroups can share one pool without
/// cross-talk — this is how concurrent ParallelFor calls share a pool.
///
/// Tasks submitted through a group must never themselves submit to or
/// wait on the same pool (no nesting): the group's waiter parks on its
/// own condition variable, so a pool whose workers are all blocked on
/// inner work would deadlock.
class TaskGroup {
 public:
  /// Binds the group to `pool`. A null pool degrades Run() to inline
  /// execution, so callers need no special sequential path.
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  /// Waits for outstanding tasks (a destructor must not leak closures
  /// that reference the caller's stack).
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `task` on the pool (or runs it inline without a pool).
  void Run(std::function<void()> task);

  /// Blocks until every task Run() through this group has completed.
  void Wait();

 private:
  ThreadPool* pool_;
  std::mutex mutex_;
  std::condition_variable done_;
  int pending_ = 0;
};

/// Advisory accounting of compute-thread slots: `TryAcquire` never
/// blocks, it grants between 0 and `wanted` slots depending on what is
/// free. No library code leases from it; it stays only because
/// bench/e2e/replay.cc still names Lease and Global(), and goes with
/// those leases in the next change to bench/e2e.
class WorkerBudget {
 public:
  /// A budget of `total` slots (clamped to >= 1).
  explicit WorkerBudget(int total);

  /// The process-wide budget, sized to DefaultThreads().
  static WorkerBudget& Global();

  /// Total slots.
  int total() const;
  /// Slots currently leased.
  int in_use() const;
  /// Re-sizes the budget (tests; clamped to >= 1). Outstanding leases
  /// keep their grants.
  void SetTotal(int total);

  /// Grants min(wanted, free) slots without blocking; returns the grant
  /// (possibly 0). When a SetTotal() shrink left more slots leased than
  /// the new total, nothing is free and the grant is 0 until enough
  /// leases drain back under the total. Every grant must be returned via
  /// Release.
  int TryAcquire(int wanted);
  /// Returns `granted` slots obtained from TryAcquire. Returning more
  /// than is currently leased is a bug (caught by a debug check); release
  /// clamps at zero rather than driving the accounting negative, so a
  /// double-release cannot silently inflate later grants.
  void Release(int granted);

  /// RAII lease: acquires up to `wanted` slots for the scope.
  class Lease {
   public:
    /// Acquires up to `wanted` slots from `budget`.
    Lease(WorkerBudget& budget, int wanted)
        : budget_(budget), granted_(budget.TryAcquire(wanted)) {}
    /// Returns the granted slots.
    ~Lease() { budget_.Release(granted_); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    /// Slots this lease holds (0 = nothing free, run sequentially).
    int granted() const { return granted_; }

   private:
    WorkerBudget& budget_;
    int granted_;
  };

 private:
  mutable std::mutex mutex_;
  int total_;
  int in_use_ = 0;
};

}  // namespace fedshap

#endif  // FEDSHAP_UTIL_THREAD_POOL_H_
