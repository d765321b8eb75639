#include "service/valuation_service.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "service/cluster.h"
#include "util/logging.h"
#include "util/serialization.h"
#include "util/thread_pool.h"

namespace fedshap {

namespace {

/// Suffixes of a job's state files under `<state_dir>/jobs/`.
constexpr const char* kSpecSuffix = ".job";
constexpr const char* kSnapshotSuffix = ".snap";
constexpr const char* kResultSuffix = ".result";

/// Pending prefetch plans beyond this are dropped oldest-first: a stale
/// plan's coalitions are mostly evaluated (cache hits) by the time the
/// prefetcher would reach them, so keeping the newest plans is both the
/// bound and the better speculation.
constexpr size_t kMaxPrefetchPlans = 32;

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

ValuationService::ValuationService(const ServiceConfig& config)
    : config_(config), paused_(config.paused) {
  if (!config_.state_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.state_dir + "/jobs", ec);
    std::filesystem::create_directories(config_.state_dir + "/store", ec);
    if (ec) {
      FEDSHAP_LOG(Warning) << "could not create state directory "
                           << config_.state_dir << ": " << ec.message();
    }
  }
  const int workers = std::max(1, config_.workers);
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  // One prefetch thread per service: speculation is budget-gated (see
  // PrefetchLoop), so a single drainer is enough and keeps ordering of
  // plans simple. It idles when no job asks for prefetch.
  prefetcher_ = std::thread([this] { PrefetchLoop(); });
}

ValuationService::~ValuationService() { Stop(); }

std::string ValuationService::JobFilePath(const std::string& name,
                                          const char* suffix) const {
  return config_.state_dir + "/jobs/" + name + suffix;
}

void ValuationService::RemoveJobFiles(const std::string& name) const {
  if (config_.state_dir.empty()) return;
  std::error_code ec;
  std::filesystem::remove(JobFilePath(name, kSpecSuffix), ec);
  std::filesystem::remove(JobFilePath(name, kSnapshotSuffix), ec);
  std::filesystem::remove(JobFilePath(name, kResultSuffix), ec);
}

Result<std::shared_ptr<ValuationService::Workload>>
ValuationService::GetOrBuildWorkload(const ScenarioSpec& scenario) {
  const std::string key = scenario.CanonicalKey();
  {
    // Single flight per key: two builders would both open and attach the
    // same store directory, and the one opening while the other's first
    // flush writes the manifest fails. A second builder waits instead.
    std::unique_lock<std::mutex> lock(mutex_);
    workload_built_.wait(lock, [&] { return building_.count(key) == 0; });
    auto it = workloads_.find(key);
    if (it != workloads_.end()) return it->second;
    building_.insert(key);
  }
  // Build unlocked: data generation, model init and the store's
  // load-on-open preload take real time, and holding the service mutex
  // here would stall every worker transition and status query.
  Result<std::shared_ptr<Workload>> built = BuildWorkload(scenario, key);
  std::lock_guard<std::mutex> lock(mutex_);
  building_.erase(key);
  workload_built_.notify_all();
  if (built.ok()) workloads_.emplace(key, *built);
  return built;
}

Result<std::shared_ptr<ValuationService::Workload>>
ValuationService::BuildWorkload(const ScenarioSpec& scenario,
                                const std::string& key) {
  auto workload = std::make_shared<Workload>();
  workload->key = key;
  FEDSHAP_ASSIGN_OR_RETURN(workload->utility, scenario.Build());
  workload->fingerprint = workload->utility->Fingerprint();
  if (config_.cluster != nullptr) {
    // Coordinator mode: the cache fronts a ClusterUtility, so every miss
    // ships to the coalition's shard instead of training here. The cache
    // stays the single source of truth for hits and fresh-training
    // accounting, which is why values and counts match the clusterless
    // run bit-for-bit. The locally built utility doubles as the degraded
    // fallback: when no worker is schedulable past the grace window, the
    // coalition trains right here and the job keeps converging.
    config_.cluster->RegisterWorkload(key, scenario, workload->fingerprint);
    workload->remote = std::make_unique<ClusterUtility>(
        config_.cluster, key, workload->utility.get());
    workload->cache = std::make_unique<UtilityCache>(workload->remote.get());
  } else {
    workload->cache = std::make_unique<UtilityCache>(workload->utility.get());
  }
  if (!config_.state_dir.empty()) {
    // One store per workload under the service's state directory; always
    // opened in resume mode — a service exists to accumulate and reuse
    // trainings, so trusting its own store is the point.
    FEDSHAP_ASSIGN_OR_RETURN(
        workload->store,
        OpenAndAttachStore(config_.state_dir + "/store/utilities",
                           /*resume=*/true, *workload->utility,
                           *workload->cache, config_.store_flush_bytes));
  }
  return workload;
}

Status ValuationService::SubmitInternal(const JobSpec& spec,
                                        bool restore_snapshot) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("job has no name");
  }
  {
    // Early reject before paying for a workload build. The name is only
    // reserved at the final insert, so a concurrent duplicate submit is
    // still caught below.
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return Status::FailedPrecondition("service is stopped");
    if (jobs_.count(spec.name) != 0) {
      return Status::AlreadyExists("job '" + spec.name + "' already exists");
    }
  }

  auto job = std::make_unique<Job>();
  job->spec = spec;
  FEDSHAP_ASSIGN_OR_RETURN(job->workload, GetOrBuildWorkload(spec.scenario));
  job->session = std::make_shared<UtilitySession>(job->workload->cache.get());
  job->session->set_fused(spec.fuse);
  if (IsResumable(spec.estimator)) {
    FEDSHAP_ASSIGN_OR_RETURN(
        job->sweep, MakeSweep(spec, job->workload->utility->num_clients()));
    if (restore_snapshot && !config_.state_dir.empty()) {
      Status restored =
          LoadSnapshot(*job->sweep, JobFilePath(spec.name, kSnapshotSuffix));
      if (!restored.ok() && restored.code() != StatusCode::kNotFound) {
        return restored;
      }
    }
    job->completed_units = job->sweep->completed_units();
    job->total_units = job->sweep->total_units();
  } else {
    job->total_units = 1;
  }

  if (!config_.state_dir.empty()) {
    FEDSHAP_RETURN_NOT_OK(WriteFileAtomic(JobFilePath(spec.name, kSpecSuffix),
                                          spec.ToLine() + "\n"));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) return Status::FailedPrecondition("service is stopped");
  if (jobs_.count(spec.name) != 0) {
    return Status::AlreadyExists("job '" + spec.name + "' already exists");
  }
  queue_.push_back(spec.name);
  auto [it, inserted] = jobs_.emplace(spec.name, std::move(job));
  ++jobs_submitted_;
  // Seed the prefetcher with the job's opening coalitions: while the job
  // waits behind the queue, its first slice's trainings can already run.
  QueuePrefetchLocked(*it->second);
  runnable_.notify_one();
  return Status::OK();
}

Status ValuationService::Submit(const JobSpec& spec) {
  return SubmitInternal(spec, /*restore_snapshot=*/false);
}

Status ValuationService::Recover() {
  if (config_.state_dir.empty()) return Status::OK();
  std::error_code ec;
  std::filesystem::directory_iterator dir(config_.state_dir + "/jobs", ec);
  if (ec) return Status::OK();  // Nothing persisted yet.

  Status first_error = Status::OK();
  for (const std::filesystem::directory_entry& entry : dir) {
    const std::filesystem::path& path = entry.path();
    if (path.extension() != kSpecSuffix) continue;
    const std::string name = path.stem().string();

    Result<std::string> line = ReadFileToString(path.string());
    if (!line.ok()) {
      if (first_error.ok()) first_error = line.status();
      continue;
    }
    Result<JobSpec> spec = JobSpec::FromLine(*line);
    if (!spec.ok()) {
      if (first_error.ok()) first_error = spec.status();
      continue;
    }

    // A persisted result means the job completed in a previous process:
    // serve it as done without rebuilding its workload.
    Result<std::string> encoded =
        ReadFileToString(JobFilePath(name, kResultSuffix));
    if (encoded.ok()) {
      Result<ValuationResult> result = DecodeValuationResult(*encoded);
      if (result.ok()) {
        auto job = std::make_unique<Job>();
        job->spec = std::move(spec).value();
        job->state = JobState::kDone;
        job->result = std::move(result).value();
        job->completed_units = job->total_units = 1;
        std::lock_guard<std::mutex> lock(mutex_);
        if (jobs_.count(name) == 0) {  // Skip if live (double Recover).
          jobs_.emplace(name, std::move(job));
          ++jobs_submitted_;
        }
        continue;
      }
      // A corrupt result file falls through to a clean re-run.
    }

    Status submitted = SubmitInternal(*spec, /*restore_snapshot=*/true);
    // AlreadyExists just means the job is live (double Recover).
    if (!submitted.ok() &&
        submitted.code() != StatusCode::kAlreadyExists &&
        first_error.ok()) {
      first_error = submitted;
    }
  }
  state_changed_.notify_all();
  return first_error;
}

JobStatus ValuationService::StatusOfLocked(const std::string& name,
                                           const Job& job) const {
  JobStatus status;
  status.name = name;
  status.state = job.state;
  status.spec = job.spec;
  status.completed_units = job.completed_units;
  status.total_units = job.total_units;
  status.result = job.result;
  status.error = job.error;
  status.workload_fingerprint =
      job.workload != nullptr ? job.workload->fingerprint : 0;
  return status;
}

Result<JobStatus> ValuationService::GetStatus(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(name);
  if (it == jobs_.end()) {
    return Status::NotFound("no job named '" + name + "'");
  }
  return StatusOfLocked(name, *it->second);
}

std::vector<JobStatus> ValuationService::ListJobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobStatus> statuses;
  statuses.reserve(jobs_.size());
  for (const auto& [name, job] : jobs_) {
    statuses.push_back(StatusOfLocked(name, *job));
  }
  return statuses;
}

Status ValuationService::Cancel(const std::string& name) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = jobs_.find(name);
  if (it == jobs_.end()) {
    return Status::NotFound("no job named '" + name + "'");
  }
  Job& job = *it->second;
  switch (job.state) {
    case JobState::kQueued:
      FinalizeLocked(name, job, JobState::kCancelled);
      return Status::OK();
    case JobState::kRunning:
      // The owning worker observes the flag after its current slice.
      job.cancel_requested = true;
      return Status::OK();
    default:
      return Status::FailedPrecondition("job '" + name + "' is already " +
                                        JobStateName(job.state));
  }
}

Status ValuationService::Purge(const std::string& name) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = jobs_.find(name);
  if (it == jobs_.end()) {
    return Status::NotFound("no job named '" + name + "'");
  }
  const JobState state = it->second->state;
  if (state == JobState::kQueued || state == JobState::kRunning) {
    return Status::FailedPrecondition("job '" + name +
                                      "' is still active; cancel it first");
  }
  RemoveJobFiles(name);
  jobs_.erase(it);
  return Status::OK();
}

Result<ValuationResult> ValuationService::Wait(const std::string& name) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    auto it = jobs_.find(name);
    if (it == jobs_.end()) {
      return Status::NotFound("no job named '" + name + "'");
    }
    const Job& job = *it->second;
    switch (job.state) {
      case JobState::kDone:
        return job.result;
      case JobState::kFailed:
        return Status::Internal("job '" + name + "' failed: " + job.error);
      case JobState::kCancelled:
        return Status::FailedPrecondition("job '" + name +
                                          "' was cancelled");
      default:
        break;
    }
    if (stopping_) {
      return Status::FailedPrecondition(
          "service halted before job '" + name + "' finished");
    }
    state_changed_.wait(lock);
  }
}

bool ValuationService::WaitAll() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    bool all_terminal = true;
    for (const auto& [name, job] : jobs_) {
      const JobState state = job->state;
      if (state == JobState::kQueued || state == JobState::kRunning) {
        all_terminal = false;
        break;
      }
    }
    if (all_terminal) return true;
    if (stopping_) return false;
    state_changed_.wait(lock);
  }
}

void ValuationService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  runnable_.notify_all();
  state_changed_.notify_all();
  prefetch_ready_.notify_all();
  // Serialize the join/flush phase: Stop() may be called concurrently
  // (an explicit Stop racing the destructor, or a caller racing an
  // in-flight speculative training), and std::thread::join is not safe
  // to race with itself.
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // The prefetcher must be parked before the stores are flushed (and,
  // in the destructor that follows, closed): a speculative training is
  // a write-through into the very store being shut down.
  if (prefetcher_.joinable()) prefetcher_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  FlushStoresLocked();
}

bool ValuationService::halted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stopping_;
}

void ValuationService::Resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  runnable_.notify_all();
}

ServiceStats ValuationService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats stats;
  stats.jobs_submitted = jobs_submitted_;
  for (const auto& [name, job] : jobs_) {
    switch (job->state) {
      case JobState::kDone:
        ++stats.jobs_done;
        break;
      case JobState::kFailed:
        ++stats.jobs_failed;
        break;
      case JobState::kCancelled:
        ++stats.jobs_cancelled;
        break;
      default:
        break;
    }
  }
  stats.slices_executed = slices_executed_;
  stats.workloads = workloads_.size();
  stats.prefetch_trainings = prefetch_trainings_;
  for (const auto& [name, job] : jobs_) {
    if (job->session != nullptr) {
      stats.prefetch_credited += job->session->prefetch_credited();
      stats.prefetch_consumed += job->session->prefetch_consumed();
    }
  }
  for (const auto& [key, workload] : workloads_) {
    stats.trainings_computed += workload->cache->misses();
    stats.trainings_preloaded += workload->cache->preloaded();
    if (workload->store != nullptr) {
      const UtilityStoreStats store = workload->store->stats();
      stats.store_entries += store.entries;
      stats.store_segments += store.sealed_segments;
      stats.store_bytes += store.sealed_bytes + store.active_bytes;
      stats.store_mapped_bytes += store.mapped_bytes;
      stats.store_evictions += store.evictions;
      stats.store_compactions += store.compactions;
    }
  }
  return stats;
}

void ValuationService::FlushStoresLocked() {
  for (const auto& [key, workload] : workloads_) {
    if (workload->store == nullptr) continue;
    Status flushed = workload->store->Flush();
    if (!flushed.ok()) {
      FEDSHAP_LOG(Warning) << "store flush failed for workload " << key
                           << ": " << flushed.ToString();
    }
  }
}

void ValuationService::FinalizeLocked(const std::string& name, Job& job,
                                      JobState state) {
  job.state = state;
  if (state == JobState::kDone && !config_.state_dir.empty()) {
    Status written = WriteFileAtomic(JobFilePath(name, kResultSuffix),
                                     EncodeValuationResult(job.result));
    if (!written.ok()) {
      FEDSHAP_LOG(Warning) << "could not persist result of job " << name
                           << ": " << written.ToString();
    }
    std::error_code ec;
    std::filesystem::remove(JobFilePath(name, kSnapshotSuffix), ec);
  }
  if (state == JobState::kCancelled) {
    RemoveJobFiles(name);
  }
  state_changed_.notify_all();
}

void ValuationService::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    runnable_.wait(lock, [this] {
      return stopping_ || (!paused_ && !queue_.empty());
    });
    if (stopping_) return;
    if (config_.max_slices > 0 &&
        slices_executed_ >= config_.max_slices) {
      // The test hook tripped: halt exactly as Stop() would, leaving
      // still-queued jobs checkpointed on disk for the next Recover().
      stopping_ = true;
      runnable_.notify_all();
      state_changed_.notify_all();
      prefetch_ready_.notify_all();
      return;
    }
    const std::string name = queue_.front();
    queue_.pop_front();
    auto it = jobs_.find(name);
    if (it == jobs_.end()) continue;  // Purged while queued.
    Job& job = *it->second;
    if (job.state != JobState::kQueued) continue;  // Cancelled stale entry.
    RunSlice(name, job, lock);
  }
}

void ValuationService::RunSlice(const std::string& name, Job& job,
                                std::unique_lock<std::mutex>& lock) {
  job.state = JobState::kRunning;
  // The slice itself runs unlocked: the estimator and session belong to
  // this worker until the job transitions out of kRunning, and the
  // shared cache below is internally synchronized.
  UtilitySession* session = job.session.get();
  ResumableEstimator* sweep = job.sweep.get();
  const JobSpec spec = job.spec;
  lock.unlock();

  // This worker thread is one compute thread for the slice's duration:
  // lease its slot from the global budget so TrainFedAvg calls nested
  // under a fully-busy service fan no further (see util/thread_pool.h).
  WorkerBudget::Lease compute_slot(WorkerBudget::Global(), 1);

  bool finished = false;
  ValuationResult result;
  std::string error;

  if (sweep != nullptr) {
    Status stepped = sweep->Step(*session, spec.checkpoint_every);
    if (stepped.ok() && !config_.state_dir.empty()) {
      // Checkpoint after every slice; a failed checkpoint fails the job
      // rather than silently weakening the crash-recovery contract.
      stepped = SaveSnapshot(*sweep, JobFilePath(name, kSnapshotSuffix));
    }
    if (!stepped.ok()) {
      error = stepped.ToString();
    } else if (sweep->done()) {
      // Fence the speculation before materializing the result: every
      // in-flight credit for this session lands first, keeping the
      // final num_fresh_trainings exact.
      if (spec.prefetch > 0) DrainPrefetchForSession(session);
      Result<ValuationResult> finish = sweep->Finish(*session);
      if (finish.ok()) {
        finished = true;
        result = std::move(finish).value();
      } else {
        error = finish.status().ToString();
      }
    }
  } else {
    Result<ValuationResult> one_shot = RunOneShot(spec, *session);
    if (one_shot.ok()) {
      finished = true;
      result = std::move(one_shot).value();
    } else {
      error = one_shot.status().ToString();
    }
  }

  lock.lock();
  ++slices_executed_;
  if (sweep != nullptr) {
    job.completed_units = sweep->completed_units();
    job.total_units = sweep->total_units();
  } else if (finished) {
    job.completed_units = 1;
  }
  if (!error.empty()) {
    job.error = error;
    FinalizeLocked(name, job, JobState::kFailed);
  } else if (finished) {
    job.result = std::move(result);
    FinalizeLocked(name, job, JobState::kDone);
  } else if (job.cancel_requested) {
    FinalizeLocked(name, job, JobState::kCancelled);
  } else {
    job.state = JobState::kQueued;
    // The estimator is quiescent until a worker dequeues the job again:
    // publish what it will evaluate next so the prefetcher can train
    // those coalitions while the job waits its turn in the queue.
    QueuePrefetchLocked(job);
    queue_.push_back(name);
    runnable_.notify_one();
    state_changed_.notify_all();  // Progress is observable state too.
  }
}

void ValuationService::QueuePrefetchLocked(Job& job) {
  if (job.spec.prefetch <= 0 || job.sweep == nullptr ||
      job.session == nullptr || stopping_) {
    return;
  }
  PrefetchPlan plan;
  plan.coalitions =
      job.sweep->PeekNext(static_cast<size_t>(job.spec.prefetch));
  if (plan.coalitions.empty()) return;  // Nothing determined to peek at.
  plan.workload = job.workload;
  plan.session = job.session;
  while (prefetch_queue_.size() >= kMaxPrefetchPlans) {
    prefetch_queue_.pop_front();
  }
  prefetch_queue_.push_back(std::move(plan));
  prefetch_ready_.notify_one();
}

void ValuationService::PrefetchLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    prefetch_ready_.wait(lock, [this] {
      return stopping_ || !prefetch_queue_.empty();
    });
    if (stopping_) return;
    PrefetchPlan plan = std::move(prefetch_queue_.front());
    prefetch_queue_.pop_front();
    prefetch_active_session_ = plan.session.get();
    lock.unlock();

    size_t trained = 0;
    for (const Coalition& coalition : plan.coalitions) {
      {
        std::lock_guard<std::mutex> stop_check(mutex_);
        if (stopping_) break;
      }
      // Speculate only on idle capacity: when demand work holds every
      // budget slot, drop the rest of the plan instead of competing —
      // prefetch is an optimization, never an obligation.
      const int granted = WorkerBudget::Global().TryAcquire(1);
      if (granted == 0) break;
      bool fresh = false;
      Result<UtilityRecord> record =
          plan.workload->cache->Get(coalition, &fresh);
      WorkerBudget::Global().Release(granted);
      if (!record.ok()) break;  // The demand path will surface the error.
      if (fresh) {
        // Exactly-once attribution: single-flight in the cache means this
        // training can never also be counted by the job's own Evaluate.
        plan.session->CreditPrefetchedTraining(coalition);
        ++trained;
      }
    }

    lock.lock();
    prefetch_trainings_ += trained;
    prefetch_active_session_ = nullptr;
    prefetch_idle_.notify_all();
  }
}

void ValuationService::DrainPrefetchForSession(
    const UtilitySession* session) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Queued speculation for a finishing job is useless: everything it
  // would train, the job has either evaluated already or never will.
  for (auto it = prefetch_queue_.begin(); it != prefetch_queue_.end();) {
    if (it->session.get() == session) {
      it = prefetch_queue_.erase(it);
    } else {
      ++it;
    }
  }
  prefetch_idle_.wait(lock, [this, session] {
    return prefetch_active_session_ != session;
  });
}

}  // namespace fedshap
