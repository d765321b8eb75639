#ifndef FEDSHAP_SERVICE_VALUATION_SERVICE_H_
#define FEDSHAP_SERVICE_VALUATION_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/resumable.h"
#include "core/valuation_result.h"
#include "fl/utility.h"
#include "fl/utility_cache.h"
#include "fl/utility_store.h"
#include "service/job_spec.h"
#include "util/status.h"

namespace fedshap {

/// \file
/// The multi-tenant valuation job service: many concurrent valuation
/// jobs over shared, deduplicated utility evaluations.
///
/// Every job is one valuation run (a JobSpec: workload + estimator +
/// budget). The service keys workloads by content fingerprint and gives
/// all jobs of one workload a single shared UtilityCache (and, when a
/// state directory is configured, a single shared on-disk UtilityStore),
/// so a coalition trained for job A is a free cache hit for job B — the
/// cache's single-flight guarantee holds *across* jobs: under any
/// concurrency each distinct coalition is trained at most once per
/// workload, ever. Per-job accounting stays exact through per-job
/// UtilitySessions (each job still charges the recorded training cost of
/// every coalition it asked for, so reported costs are those of an
/// isolated run; `num_fresh_trainings` records what the job really
/// computed).
///
/// Resumable estimators run in checkpointed slices: after every
/// `JobSpec::checkpoint_every` work units the estimator snapshot is
/// written to the state directory and the job goes to the back of the
/// run queue, which both bounds crash loss and round-robins workers
/// across jobs. A stopped or killed service restarts with `Recover()`:
/// completed jobs are served from their persisted results, in-flight
/// jobs resume from their snapshots and the shared store, and every
/// resumed job finishes bit-identical to an uninterrupted run (the
/// property tests/service_test.cc asserts).

/// Lifecycle state of a job.
enum class JobState {
  kQueued,     ///< Submitted, waiting for a worker.
  kRunning,    ///< A worker is executing a slice right now.
  kDone,       ///< Finished; the result is available.
  kFailed,     ///< The estimator returned an error; see JobStatus::error.
  kCancelled,  ///< Cancelled before completion.
};

/// Stable lowercase name of `state` ("queued", "running", ...).
const char* JobStateName(JobState state);

/// A point-in-time snapshot of one job, as returned by GetStatus/ListJobs.
struct JobStatus {
  /// The job's unique name.
  std::string name;
  /// Current lifecycle state.
  JobState state = JobState::kQueued;
  /// The submitted spec.
  JobSpec spec;
  /// Work units done / total for resumable estimators (0/1 for one-shot
  /// estimators, which cannot report intra-run progress).
  size_t completed_units = 0;
  /// Total work units (0 until the workload is built for one-shots).
  size_t total_units = 0;
  /// The finished result; meaningful only when state == kDone.
  ValuationResult result;
  /// The failure message; meaningful only when state == kFailed.
  std::string error;
  /// Content fingerprint of the job's workload (0 for recovered done
  /// jobs, whose workload is never rebuilt).
  uint64_t workload_fingerprint = 0;
};

/// Aggregate service counters, for throughput reporting and ops.
struct ServiceStats {
  /// Jobs accepted over the service's lifetime (including recovered).
  size_t jobs_submitted = 0;
  /// Jobs currently in a terminal state, by kind.
  size_t jobs_done = 0;
  /// Jobs that failed.
  size_t jobs_failed = 0;
  /// Jobs that were cancelled.
  size_t jobs_cancelled = 0;
  /// Checkpointed slices executed so far.
  size_t slices_executed = 0;
  /// Distinct workload contexts (shared cache+store instances) built.
  size_t workloads = 0;
  /// FL trainings actually computed by this process, across workloads.
  size_t trainings_computed = 0;
  /// Trainings served read-through from persistent stores.
  size_t trainings_preloaded = 0;
  /// Live records across all attached stores.
  size_t store_entries = 0;
  /// Sealed segments across all attached stores.
  size_t store_segments = 0;
  /// On-disk bytes (sealed + active) across all attached stores.
  uint64_t store_bytes = 0;
  /// Memory-mapped bytes across all attached stores.
  uint64_t store_mapped_bytes = 0;
  /// Segment unmaps forced by the mapped-byte budget.
  size_t store_evictions = 0;
  /// Compactions completed across all attached stores.
  size_t store_compactions = 0;
  /// Always 0: the service has no speculative prefetcher. Kept only
  /// because bench/e2e reads it; delete with that reference.
  size_t prefetch_trainings = 0;
  /// Always 0, for the same reason as `prefetch_trainings`.
  size_t prefetch_consumed = 0;
};

/// Configuration of a ValuationService.
class ClusterDispatcher;

struct ServiceConfig {
  /// Worker threads executing job slices; this is the number of jobs
  /// that make progress concurrently (within a slice, evaluation is
  /// sequential — cross-job concurrency is the parallelism axis, and the
  /// single-flight cache turns overlapping jobs into free hits).
  int workers = 2;
  /// State directory for durable operation: job specs, estimator
  /// snapshots, finished results and the per-workload utility stores all
  /// live here, and Recover() resumes from it after a restart. Empty
  /// runs the service fully in memory (nothing survives the process).
  std::string state_dir;
  /// Flush the utility store to disk after this many appended record
  /// bytes (1 = after every training; the crash-loss bound, see
  /// UtilityCache::AttachStore).
  size_t store_flush_bytes = 1;
  /// Testing hook: when > 0, the service halts (stops scheduling slices,
  /// as if Stop() were called) after this many slices in total —
  /// a deterministic way to simulate a mid-job shutdown.
  size_t max_slices = 0;
  /// Start with scheduling paused: workers idle until Resume(). Lets a
  /// caller Recover() and inspect/cancel jobs (fedshapd --status) without
  /// recovered jobs starting to execute.
  bool paused = false;
  /// When set, the service runs as a cluster coordinator: every
  /// per-workload cache miss is shipped to the dispatcher's sharded
  /// workers instead of training locally. Estimator state, checkpoints
  /// and the fresh-training accounting stay on the coordinator, so
  /// values are bit-identical to a clusterless run at any worker count.
  /// Not owned; must outlive the service.
  ClusterDispatcher* cluster = nullptr;
};

/// The multi-tenant valuation job service. Thread-safe: all public
/// methods may be called from any thread.
class ValuationService {
 public:
  /// Starts `config.workers` worker threads immediately. When
  /// `config.state_dir` is set, the directory layout is created on
  /// first use; call Recover() to load a previous process's jobs.
  explicit ValuationService(const ServiceConfig& config);

  /// Stops the service (checkpointing in-flight jobs) and joins workers.
  ~ValuationService();

  ValuationService(const ValuationService&) = delete;
  ValuationService& operator=(const ValuationService&) = delete;

  /// Re-loads every job persisted in the state directory: jobs with a
  /// saved result enter the table as done; unfinished jobs are
  /// re-submitted, resumable ones restoring their estimator snapshot.
  /// No-op without a state directory. Call before submitting new work.
  Status Recover();

  /// Accepts a job. Builds (or reuses) the workload context
  /// synchronously — expect tens of milliseconds for a "digits" scenario
  /// on first submit — then enqueues the job and returns. Fails with
  /// AlreadyExists when the name is taken (including by a finished job
  /// still in the table: names are durable identities; Purge first to
  /// reuse one).
  Status Submit(const JobSpec& spec);

  /// Snapshot of one job's state. NotFound for unknown names.
  Result<JobStatus> GetStatus(const std::string& name) const;

  /// Snapshot of every known job, in name order.
  std::vector<JobStatus> ListJobs() const;

  /// Requests cancellation. A queued job cancels immediately; a running
  /// job cancels after its current slice (one-shot estimators cannot be
  /// interrupted mid-run and cancel only if still queued). Cancelling
  /// deletes the job's persisted state. FailedPrecondition when the job
  /// is already terminal.
  Status Cancel(const std::string& name);

  /// Removes a *terminal* job from the table and deletes its persisted
  /// state (spec, snapshot, result — not the shared utility store).
  /// FailedPrecondition while the job is queued or running.
  Status Purge(const std::string& name);

  /// Blocks until `name` reaches a terminal state (or the service
  /// halts), then returns its result: the ValuationResult when done, an
  /// error describing the failure/cancellation otherwise.
  Result<ValuationResult> Wait(const std::string& name);

  /// Blocks until every submitted job is terminal. Returns false when
  /// the service halted (Stop() or the max_slices test hook) with jobs
  /// still unfinished.
  bool WaitAll();

  /// Graceful shutdown: workers finish their current slice (writing its
  /// checkpoint), every attached store is flushed, and the worker
  /// threads are joined. Idempotent; implied by the destructor. In-flight
  /// jobs stay queued on disk for the next Recover().
  void Stop();

  /// True once Stop() ran or the max_slices halt tripped.
  bool halted() const;

  /// Starts scheduling when the service was created paused. No-op
  /// otherwise.
  void Resume();

  /// Current aggregate counters.
  ServiceStats stats() const;

 private:
  /// One workload context: the utility function plus the shared
  /// evaluation substrate every job of this workload routes through.
  struct Workload {
    std::string key;                       ///< ScenarioSpec::CanonicalKey().
    uint64_t fingerprint = 0;              ///< Utility content fingerprint.
    std::unique_ptr<UtilityFunction> utility;
    /// Cluster mode only: the ClusterUtility the cache wraps instead of
    /// `utility`, routing misses to the sharded workers. `utility` is
    /// still built locally — it provides the fingerprint the handshake
    /// verifies and the identity the store binds to.
    std::unique_ptr<UtilityFunction> remote;
    std::unique_ptr<UtilityCache> cache;   ///< Shared across jobs.
    std::unique_ptr<UtilityStore> store;   ///< Null without a state dir.
  };

  /// Internal job record. The estimator/session members are only
  /// touched by the worker currently running the job (a job is claimed
  /// by at most one worker at a time); the mirrored progress counters
  /// are what GetStatus reads under the service mutex.
  struct Job {
    JobSpec spec;
    JobState state = JobState::kQueued;
    std::shared_ptr<Workload> workload;
    std::unique_ptr<UtilitySession> session;
    std::unique_ptr<ResumableEstimator> sweep;  ///< Null for one-shots.
    ValuationResult result;
    std::string error;
    bool cancel_requested = false;
    size_t completed_units = 0;
    size_t total_units = 0;
  };

  /// Returns the shared workload context for `scenario`, building it
  /// (data generation, store open + preload) when absent. The expensive
  /// build runs *outside* the service mutex so workers and status
  /// queries are never stalled behind it; it is single-flight per
  /// scenario key, so a racing caller waits for the first builder's
  /// context instead of opening the same store a second time.
  Result<std::shared_ptr<Workload>> GetOrBuildWorkload(
      const ScenarioSpec& scenario);
  /// The build GetOrBuildWorkload runs unlocked.
  Result<std::shared_ptr<Workload>> BuildWorkload(const ScenarioSpec& scenario,
                                                  const std::string& key);
  /// Submit with everything expensive (workload build, snapshot
  /// restore, spec persistence) done unlocked; only the name
  /// reservation and queue insertion hold the mutex.
  Status SubmitInternal(const JobSpec& spec, bool restore_snapshot);
  void WorkerLoop();
  /// Runs one slice of `job` outside the lock; re-acquires it to record
  /// the transition. `lock` must be held on entry and is held on return.
  void RunSlice(const std::string& name, Job& job,
                std::unique_lock<std::mutex>& lock);
  void FinalizeLocked(const std::string& name, Job& job, JobState state);
  JobStatus StatusOfLocked(const std::string& name, const Job& job) const;
  std::string JobFilePath(const std::string& name, const char* suffix) const;
  void RemoveJobFiles(const std::string& name) const;
  void FlushStoresLocked();

  const ServiceConfig config_;
  mutable std::mutex mutex_;
  /// Serializes Stop()'s join/flush phase so concurrent Stop() calls
  /// (e.g. an explicit Stop racing the destructor) are safe.
  std::mutex stop_mutex_;
  std::condition_variable runnable_;      ///< Signals queue activity.
  std::condition_variable state_changed_; ///< Signals job transitions.
  std::map<std::string, std::unique_ptr<Job>> jobs_;
  std::map<std::string, std::shared_ptr<Workload>> workloads_;
  /// Scenario keys whose workload is being built right now.
  std::set<std::string> building_;
  std::condition_variable workload_built_;  ///< Signals building_ shrinking.
  std::deque<std::string> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
  bool paused_ = false;
  size_t slices_executed_ = 0;
  size_t jobs_submitted_ = 0;
};

}  // namespace fedshap

#endif  // FEDSHAP_SERVICE_VALUATION_SERVICE_H_
