#include "util/thread_pool.h"

#include <algorithm>

#include "util/logging.h"

namespace fedshap {

namespace {

/// The pool whose WorkerLoop the current thread is running, if any.
/// ParallelFor consults it to fall back to an inline loop instead of
/// deadlocking when re-entered from one of its own workers.
thread_local const ThreadPool* t_current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(1, num_threads);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return tasks_.empty() && active_ == 0; });
}

void ThreadPool::ParallelFor(int count, const std::function<void(int)>& fn) {
  if (count <= 0) return;
  // From one of our own workers, queueing and waiting would park the
  // worker on tasks only this pool can run — with every worker inside a
  // ParallelFor the pool deadlocks. Inline execution is always safe.
  if (t_current_pool == this || num_threads() == 1 || count == 1) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  // A per-call TaskGroup joins exactly these iterations, so concurrent
  // ParallelFor calls and unrelated background submissions on the same
  // pool never wait on each other (WaitIdle would drain the whole pool).
  TaskGroup group(this);
  for (int i = 0; i < count; ++i) {
    group.Run([&fn, i] { fn(i); });
  }
  group.Wait();
}

int ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void TaskGroup::Run(std::function<void()> task) {
  if (pool_ == nullptr) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
  }
  pool_->Submit([this, task = std::move(task)] {
    task();
    std::lock_guard<std::mutex> lock(mutex_);
    if (--pending_ == 0) done_.notify_all();
  });
}

void TaskGroup::Wait() {
  if (pool_ == nullptr) return;
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return pending_ == 0; });
}

WorkerBudget::WorkerBudget(int total) : total_(std::max(1, total)) {}

WorkerBudget& WorkerBudget::Global() {
  static WorkerBudget* budget =
      new WorkerBudget(ThreadPool::DefaultThreads());
  return *budget;
}

int WorkerBudget::total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

int WorkerBudget::in_use() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_use_;
}

void WorkerBudget::SetTotal(int total) {
  std::lock_guard<std::mutex> lock(mutex_);
  total_ = std::max(1, total);
}

int WorkerBudget::TryAcquire(int wanted) {
  if (wanted <= 0) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  const int granted = std::clamp(total_ - in_use_, 0, wanted);
  in_use_ += granted;
  return granted;
}

void WorkerBudget::Release(int granted) {
  if (granted <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  FEDSHAP_DCHECK(granted <= in_use_);
  // Clamp rather than go negative: a double-release must not inflate
  // every later TryAcquire grant past the configured total.
  in_use_ = std::max(0, in_use_ - granted);
}

void ThreadPool::WorkerLoop() {
  t_current_pool = this;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !tasks_.empty(); });
      if (shutdown_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (tasks_.empty() && active_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace fedshap
