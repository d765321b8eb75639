#include "service/cluster.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <utility>

#include "fl/utility_store.h"
#include "util/logging.h"
#include "util/serialization.h"

namespace fedshap {

namespace {

using Clock = std::chrono::steady_clock;

int MillisUntil(Clock::time_point now, Clock::time_point deadline) {
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
  return left.count() < 0 ? 0 : static_cast<int>(left.count());
}

// A registered shard index far past any real deployment is a corrupt or
// hostile handshake, not a worker.
constexpr int kMaxShardIndex = 4096;

}  // namespace

std::string EncodeWorkerRegistration(const WorkerRegistration& registration) {
  ByteWriter writer;
  writer.PutVarint(registration.protocol_version);
  // shard + 1, so "assign me one" (-1) encodes as 0 in a varint.
  writer.PutVarint(static_cast<uint64_t>(registration.shard + 1));
  writer.PutVarint(registration.pid);
  writer.PutVarint(registration.workloads.size());
  for (const auto& [key, fingerprint] : registration.workloads) {
    writer.PutString(key);
    writer.PutU64(fingerprint);
  }
  return writer.bytes();
}

Result<WorkerRegistration> DecodeWorkerRegistration(std::string_view payload) {
  ByteReader reader(payload);
  WorkerRegistration registration;
  FEDSHAP_ASSIGN_OR_RETURN(registration.protocol_version,
                           reader.GetVarintAtMost(UINT32_MAX));
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t shard_plus_1,
                           reader.GetVarintAtMost(kMaxShardIndex));
  registration.shard = static_cast<int>(shard_plus_1) - 1;
  FEDSHAP_ASSIGN_OR_RETURN(registration.pid, reader.GetVarint());
  // Each workload is a key (at least its length byte) and a u64.
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t count, reader.GetCount(1 + 8));
  registration.workloads.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    FEDSHAP_ASSIGN_OR_RETURN(std::string key, reader.GetString());
    FEDSHAP_ASSIGN_OR_RETURN(uint64_t fingerprint, reader.GetU64());
    registration.workloads.emplace_back(std::move(key), fingerprint);
  }
  FEDSHAP_RETURN_NOT_OK(reader.CheckAtEnd("Register frame"));
  return registration;
}

std::string EncodeWelcome(const WorkerWelcome& welcome) {
  ByteWriter writer;
  writer.PutVarint(welcome.protocol_version);
  writer.PutVarint(static_cast<uint64_t>(welcome.shard));
  return writer.bytes();
}

Result<WorkerWelcome> DecodeWelcome(std::string_view payload) {
  ByteReader reader(payload);
  WorkerWelcome welcome;
  FEDSHAP_ASSIGN_OR_RETURN(welcome.protocol_version,
                           reader.GetVarintAtMost(UINT32_MAX));
  FEDSHAP_ASSIGN_OR_RETURN(welcome.shard, reader.GetVarintAtMost(INT_MAX));
  FEDSHAP_RETURN_NOT_OK(reader.CheckAtEnd("Welcome frame"));
  return welcome;
}

std::string EncodeReject(std::string_view reason) {
  ByteWriter writer;
  writer.PutString(reason);
  return writer.bytes();
}

Result<std::string> DecodeReject(std::string_view payload) {
  ByteReader reader(payload);
  FEDSHAP_ASSIGN_OR_RETURN(std::string reason, reader.GetString());
  FEDSHAP_RETURN_NOT_OK(reader.CheckAtEnd("Reject frame"));
  return reason;
}

std::string EncodeWorkload(const WorkloadAnnouncement& workload) {
  ByteWriter writer;
  writer.PutString(workload.key);
  EncodeScenarioSpec(workload.scenario, writer);
  writer.PutU64(workload.fingerprint);
  return writer.bytes();
}

Result<WorkloadAnnouncement> DecodeWorkload(std::string_view payload) {
  ByteReader reader(payload);
  WorkloadAnnouncement workload;
  FEDSHAP_ASSIGN_OR_RETURN(workload.key, reader.GetString());
  FEDSHAP_ASSIGN_OR_RETURN(workload.scenario, DecodeScenarioSpec(reader));
  FEDSHAP_ASSIGN_OR_RETURN(workload.fingerprint, reader.GetU64());
  FEDSHAP_RETURN_NOT_OK(reader.CheckAtEnd("Workload frame"));
  return workload;
}

std::string EncodeAssign(const TaskAssignment& assignment) {
  ByteWriter writer;
  writer.PutVarint(assignment.task_id);
  writer.PutString(assignment.workload_key);
  PutCoalition(writer, assignment.coalition);
  return writer.bytes();
}

Result<TaskAssignment> DecodeAssign(std::string_view payload) {
  ByteReader reader(payload);
  TaskAssignment assignment;
  FEDSHAP_ASSIGN_OR_RETURN(assignment.task_id, reader.GetVarint());
  FEDSHAP_ASSIGN_OR_RETURN(assignment.workload_key, reader.GetString());
  FEDSHAP_ASSIGN_OR_RETURN(assignment.coalition, GetCoalition(reader));
  FEDSHAP_RETURN_NOT_OK(reader.CheckAtEnd("Assign frame"));
  return assignment;
}

std::string EncodeResult(const TaskResult& result) {
  ByteWriter writer;
  writer.PutVarint(result.task_id);
  writer.PutU64(result.coalition_hash);
  writer.PutDouble(result.record.utility);
  writer.PutDouble(result.record.cost_seconds);
  writer.PutU8(result.fresh ? 1 : 0);
  return writer.bytes();
}

Result<TaskResult> DecodeResult(std::string_view payload) {
  ByteReader reader(payload);
  TaskResult result;
  FEDSHAP_ASSIGN_OR_RETURN(result.task_id, reader.GetVarint());
  FEDSHAP_ASSIGN_OR_RETURN(result.coalition_hash, reader.GetU64());
  FEDSHAP_ASSIGN_OR_RETURN(result.record.utility, reader.GetDouble());
  FEDSHAP_ASSIGN_OR_RETURN(result.record.cost_seconds, reader.GetDouble());
  FEDSHAP_ASSIGN_OR_RETURN(result.fresh, reader.GetU8());
  FEDSHAP_RETURN_NOT_OK(reader.CheckAtEnd("Result frame"));
  return result;
}

std::string EncodeError(const TaskError& error) {
  ByteWriter writer;
  writer.PutVarint(error.task_id);
  writer.PutString(error.message);
  return writer.bytes();
}

Result<TaskError> DecodeError(std::string_view payload) {
  ByteReader reader(payload);
  TaskError error;
  FEDSHAP_ASSIGN_OR_RETURN(error.task_id, reader.GetVarint());
  FEDSHAP_ASSIGN_OR_RETURN(error.message, reader.GetString());
  FEDSHAP_RETURN_NOT_OK(reader.CheckAtEnd("Error frame"));
  return error;
}

int ClusterDispatcher::NextDeadlineMs(const MonitorDeadlines& deadlines) {
  // The clamp bounds wrong inputs, it is not the scheduling policy: the
  // wait is whichever timer class has the earliest real deadline, so a
  // 50ms breaker cooldown cannot be held hostage by a 10s heartbeat timer
  // (or vice versa) the way a single heuristic tick could.
  constexpr int kMinTickMs = 10;
  constexpr int kMaxTickMs = 250;
  int wait = kMaxTickMs;
  for (int candidate : {deadlines.heartbeat_ms, deadlines.breaker_ms}) {
    if (candidate >= 0) wait = std::min(wait, candidate);
  }
  return std::max(wait, kMinTickMs);
}

ClusterDispatcher::ClusterDispatcher(const Options& options)
    : options_(options) {}

ClusterDispatcher::~ClusterDispatcher() { Shutdown(); }

void ClusterDispatcher::StartMonitorLocked() {
  if (!monitor_.joinable()) {
    monitor_ = std::thread([this] { MonitorLoop(); });
  }
}

void ClusterDispatcher::ServeListener(std::unique_ptr<TcpListener> listener) {
  std::lock_guard<std::mutex> lock(mutex_);
  listener_ = std::move(listener);
  acceptor_ = std::thread([this] { AcceptLoop(); });
}

Result<int> ClusterDispatcher::ListenAndServe(const TcpEndpoint& endpoint) {
  FEDSHAP_ASSIGN_OR_RETURN(std::unique_ptr<TcpListener> listener,
                           TcpListener::Listen(endpoint));
  const int port = listener->port();
  ServeListener(std::move(listener));
  FEDSHAP_LOG(Info) << "[cluster] serving worker registrations on port "
                    << port;
  return port;
}

int ClusterDispatcher::listen_port() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return listener_ != nullptr ? listener_->port() : -1;
}

void ClusterDispatcher::RegisterWorkload(const std::string& key,
                                         const ScenarioSpec& scenario,
                                         uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  WorkloadInfo info;
  info.scenario = scenario;
  info.fingerprint = fingerprint;
  workloads_.emplace(key, std::move(info));
}

bool ClusterDispatcher::SchedulableLocked(const WorkerState& worker) const {
  // Half-open is schedulable: that is the probe traffic which decides
  // whether the breaker closes again.
  return worker.alive && worker.breaker != BreakerState::kOpen;
}

bool ClusterDispatcher::HasSchedulableWorkerLocked() const {
  for (const auto& worker : workers_) {
    if (SchedulableLocked(*worker)) return true;
  }
  return false;
}

bool ClusterDispatcher::WaitForWorkerLocked(
    std::unique_lock<std::mutex>& lock) {
  while (!stopping_) {
    if (HasSchedulableWorkerLocked()) return true;
    // The grace window belongs to the outage, not to this evaluation: the
    // first waiter arms it and every other waiter shares it. (A worker
    // that came and went while we slept ended the old outage; this is a
    // new one.)
    const Clock::time_point now = Clock::now();
    if (!outage_deadline_.has_value()) {
      outage_deadline_ =
          now + std::chrono::milliseconds(options_.degraded_grace_ms);
    }
    const Clock::time_point deadline = *outage_deadline_;
    if (now >= deadline) {
      if (!outage_announced_) {
        outage_announced_ = true;
        FEDSHAP_LOG(Warning)
            << "[cluster] no schedulable worker for "
            << options_.degraded_grace_ms
            << " ms; training on the coordinator until a worker returns";
      }
      return false;
    }
    workers_changed_.wait_until(lock, deadline);
  }
  return false;
}

void ClusterDispatcher::EndOutageLocked(size_t index) {
  if (!outage_deadline_.has_value() || !SchedulableLocked(*workers_[index])) {
    return;
  }
  if (outage_announced_) {
    const auto lasted = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - *outage_deadline_ +
        std::chrono::milliseconds(options_.degraded_grace_ms));
    FEDSHAP_LOG(Info) << "[cluster] worker " << index
                      << " schedulable; outage over after " << lasted.count()
                      << " ms";
  }
  outage_deadline_.reset();
  outage_announced_ = false;
}

int ClusterDispatcher::PickWorkerLocked(const Coalition& coalition) const {
  if (workers_.empty()) return -1;
  // The divisor is the total shard count, not the live count: a
  // coalition's home shard must not move when an unrelated worker dies,
  // or shard-local store reuse (and the reassignment accounting) would
  // churn. Dead or breaker-open shards probe linearly to the next
  // schedulable one.
  const size_t total = workers_.size();
  const size_t home = static_cast<size_t>(coalition.Hash() % total);
  for (size_t probe = 0; probe < total; ++probe) {
    const size_t index = (home + probe) % total;
    if (SchedulableLocked(*workers_[index])) return static_cast<int>(index);
  }
  return -1;
}

Status ClusterDispatcher::AssignLocked(uint64_t task_id, PendingTask& task,
                                       int worker_index) {
  WorkerState& worker = *workers_[static_cast<size_t>(worker_index)];
  if (worker.announced.insert(task.workload_key).second) {
    auto it = workloads_.find(task.workload_key);
    if (it == workloads_.end()) {
      worker.announced.erase(task.workload_key);
      return Status::InvalidArgument("workload '" + task.workload_key +
                                     "' was never registered");
    }
    Status sent = worker.channel->Send(
        cluster_proto::kWorkload,
        EncodeWorkload({task.workload_key, it->second.scenario,
                        it->second.fingerprint}));
    if (!sent.ok()) {
      MarkWorkerDeadLocked(static_cast<size_t>(worker_index));
      return sent;
    }
  }
  Status sent = worker.channel->Send(
      cluster_proto::kAssign,
      EncodeAssign({task_id, task.workload_key, task.coalition}));
  if (!sent.ok()) {
    MarkWorkerDeadLocked(static_cast<size_t>(worker_index));
    return sent;
  }
  task.worker = worker_index;
  worker.inflight.insert(task_id);
  ++stats_.tasks_dispatched;
  return Status::OK();
}

Result<UtilityRecord> ClusterDispatcher::Evaluate(
    const std::string& workload_key, const Coalition& coalition,
    bool* worker_fresh) {
  if (worker_fresh != nullptr) *worker_fresh = false;
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) {
    return Status::FailedPrecondition("cluster dispatcher is shut down");
  }
  if (workloads_.find(workload_key) == workloads_.end()) {
    return Status::InvalidArgument("workload '" + workload_key +
                                   "' was never registered");
  }
  const uint64_t task_id = ++next_task_id_;
  PendingTask& task = pending_[task_id];
  task.workload_key = workload_key;
  task.coalition = coalition;
  int attempts = 0;
  while (!task.done) {
    if (stopping_) {
      if (task.worker >= 0 &&
          static_cast<size_t>(task.worker) < workers_.size()) {
        workers_[static_cast<size_t>(task.worker)]->inflight.erase(task_id);
      }
      pending_.erase(task_id);
      return Status::FailedPrecondition("cluster dispatcher is shut down");
    }
    if (task.worker < 0) {
      // (Re-)dispatch, re-picking while send failures kill workers under
      // us and waiting out the grace window when no shard is schedulable.
      const int worker_index = PickWorkerLocked(coalition);
      if (worker_index >= 0) {
        (void)AssignLocked(task_id, task, worker_index);
        continue;
      }
      if (WaitForWorkerLocked(lock)) continue;
      if (stopping_) continue;  // loop head returns the shutdown error
      pending_.erase(task_id);
      return Status::Unavailable(
          "no schedulable cluster worker within the degraded grace window");
    }
    // Dispatched: wait for the result under the per-attempt deadline.
    // `task.worker < 0` also wakes us — the worker died with no live
    // successor and MarkWorkerDeadLocked handed the re-dispatch back.
    if (options_.rpc_deadline_ms <= 0) {
      completed_.wait(
          lock, [&] { return task.done || stopping_ || task.worker < 0; });
      continue;
    }
    const bool signalled = completed_.wait_for(
        lock, std::chrono::milliseconds(options_.rpc_deadline_ms),
        [&] { return task.done || stopping_ || task.worker < 0; });
    if (signalled) continue;
    // Attempt deadline expired: charge the slow worker's breaker, take
    // the task back and re-dispatch (the worker may still answer later;
    // exactly-once application keeps whichever result lands first). A
    // dropped result frame is recovered here too: the re-dispatch goes to
    // the same home shard, whose cache turns the re-run into a hit.
    ++stats_.retried_tasks;
    if (task.worker >= 0 &&
        static_cast<size_t>(task.worker) < workers_.size()) {
      workers_[static_cast<size_t>(task.worker)]->inflight.erase(task_id);
      BreakerFailureLocked(static_cast<size_t>(task.worker));
    }
    task.worker = -1;
    ++attempts;
    if (options_.max_task_attempts > 0 &&
        attempts >= options_.max_task_attempts) {
      pending_.erase(task_id);
      return Status::DeadlineExceeded(
          "evaluation exhausted " + std::to_string(attempts) +
          " attempt(s) of " + std::to_string(options_.rpc_deadline_ms) +
          "ms each");
    }
  }
  Status error = task.error;
  UtilityRecord record = task.record;
  const bool fresh = task.fresh;
  pending_.erase(task_id);
  if (!error.ok()) return error;
  if (worker_fresh != nullptr) *worker_fresh = fresh;
  return record;
}

void ClusterDispatcher::NoteDegradedEvaluation() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.degraded_evaluations;
}

void ClusterDispatcher::FailTaskLocked(uint64_t task_id, PendingTask& task,
                                       Status error) {
  (void)task_id;
  task.done = true;
  task.error = std::move(error);
  completed_.notify_all();
}

void ClusterDispatcher::BreakerFailureLocked(size_t index) {
  if (options_.breaker_trip_threshold <= 0) return;
  WorkerState& worker = *workers_[index];
  ++worker.consecutive_failures;
  const Clock::time_point now = Clock::now();
  if (worker.breaker == BreakerState::kHalfOpen) {
    // The probe failed: straight back to open for another cooldown.
    worker.breaker = BreakerState::kOpen;
    worker.breaker_open_until =
        now + std::chrono::milliseconds(options_.breaker_cooldown_ms);
    FEDSHAP_LOG(Warning) << "[cluster] worker " << index
                         << " breaker probe failed; re-opened";
  } else if (worker.breaker == BreakerState::kClosed &&
             worker.consecutive_failures >= options_.breaker_trip_threshold) {
    worker.breaker = BreakerState::kOpen;
    worker.breaker_open_until =
        now + std::chrono::milliseconds(options_.breaker_cooldown_ms);
    ++stats_.breaker_trips;
    FEDSHAP_LOG(Warning) << "[cluster] worker " << index << " breaker open "
                         << "after " << worker.consecutive_failures
                         << " consecutive failure(s)";
  }
  monitor_wake_.notify_all();
  workers_changed_.notify_all();
}

void ClusterDispatcher::BreakerSuccessLocked(size_t index) {
  WorkerState& worker = *workers_[index];
  worker.consecutive_failures = 0;
  if (worker.breaker != BreakerState::kClosed) {
    // From open, this is a late answer to an expired attempt: the worker
    // is schedulable again without a half-open probe.
    worker.breaker = BreakerState::kClosed;
    EndOutageLocked(index);
    FEDSHAP_LOG(Info) << "[cluster] worker " << index
                      << " breaker closed after successful probe";
    workers_changed_.notify_all();
  }
}

void ClusterDispatcher::MarkWorkerDeadLocked(size_t index) {
  WorkerState& worker = *workers_[index];
  if (!worker.alive) return;
  worker.alive = false;
  worker.died_at = Clock::now();
  if (worker.channel != nullptr) worker.channel->Shutdown();
  std::set<uint64_t> orphans;
  orphans.swap(worker.inflight);
  workers_changed_.notify_all();
  if (stopping_) return;
  ++stats_.workers_lost;
  FEDSHAP_LOG(Warning) << "[cluster] worker " << index << " lost with "
                       << orphans.size() << " in-flight coalition(s)";
  // Fail over every orphaned coalition to the next live shard. The
  // retrained result converges bit-identically: the training is
  // deterministic in the workload, not in which worker runs it.
  for (uint64_t task_id : orphans) {
    auto it = pending_.find(task_id);
    if (it == pending_.end() || it->second.done) continue;
    PendingTask& task = it->second;
    task.worker = -1;
    for (;;) {
      const int next = PickWorkerLocked(task.coalition);
      if (next < 0) {
        // No live successor right now: hand the re-dispatch back to the
        // task's Evaluate, which waits out what is left of the outage's
        // grace window for a reconnect before failing Unavailable (the
        // degraded-mode cue).
        completed_.notify_all();
        break;
      }
      if (AssignLocked(task_id, task, next).ok()) {
        ++stats_.reassigned_coalitions;
        break;
      }
    }
  }
}

Status ClusterDispatcher::ValidateRegistrationLocked(
    const WorkerRegistration& registration) {
  if (registration.protocol_version != kClusterProtocolVersion) {
    return Status::InvalidArgument(
        "protocol version mismatch: worker speaks v" +
        std::to_string(registration.protocol_version) +
        ", coordinator speaks v" + std::to_string(kClusterProtocolVersion));
  }
  for (const auto& [key, fingerprint] : registration.workloads) {
    // A key this coordinator has not registered (yet) is fine — the
    // worker may outlive several coordinator jobs — but a fingerprint
    // clash on a shared key means the worker built a different workload
    // under the same name, and its cache must not be trusted.
    auto it = workloads_.find(key);
    if (it != workloads_.end() && it->second.fingerprint != fingerprint) {
      return Status::InvalidArgument(
          "workload '" + key + "' fingerprint mismatch: worker has " +
          std::to_string(fingerprint) + ", coordinator expects " +
          std::to_string(it->second.fingerprint));
    }
  }
  return Status::OK();
}

void ClusterDispatcher::AttachWorker(std::unique_ptr<FrameChannel> channel) {
  // Read the Register frame, polling in short ticks so a shutdown is not
  // held up by a silent dialer.
  constexpr int kHandshakeTicks = 8;
  std::optional<Frame> frame;
  for (int tick = 0; tick < kHandshakeTicks && !frame.has_value(); ++tick) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    Result<std::optional<Frame>> received = channel->Recv(250);
    if (!received.ok()) return;  // dialer vanished or sent garbage
    frame = std::move(*received);
  }
  if (!frame.has_value() || frame->type != cluster_proto::kRegister) {
    FEDSHAP_LOG(Warning) << "[cluster] dropping connection that did not "
                         << "open with a Register frame";
    return;
  }
  Result<WorkerRegistration> registration =
      DecodeWorkerRegistration(frame->payload);
  if (!registration.ok()) {
    FEDSHAP_LOG(Warning) << "[cluster] malformed registration: "
                         << registration.status();
    return;
  }

  std::shared_ptr<FrameChannel> shared(std::move(channel));
  std::thread stale_receiver;
  size_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    Status valid = ValidateRegistrationLocked(*registration);
    if (!valid.ok()) {
      FEDSHAP_LOG(Warning) << "[cluster] rejecting registration: " << valid;
      (void)shared->Send(cluster_proto::kReject,
                         EncodeReject(valid.message()));
      return;
    }
    if (registration->shard >= 0) {
      // A worker resuming its shard home (reconnect, or a scripted
      // harness pinning shard identities). Grow placeholder slots as
      // needed so the coalition->shard map is stable from the start.
      index = static_cast<size_t>(registration->shard);
      while (workers_.size() <= index) {
        workers_.push_back(std::make_unique<WorkerState>());
      }
      WorkerState& state = *workers_[index];
      if (state.alive) MarkWorkerDeadLocked(index);  // replaced connection
      stale_receiver = std::move(state.receiver);
    } else {
      index = workers_.size();
      workers_.push_back(std::make_unique<WorkerState>());
    }
  }
  // Join the previous generation's receiver outside the lock; its channel
  // is shut down, so it unwinds promptly.
  if (stale_receiver.joinable()) stale_receiver.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    WorkerState& state = *workers_[index];
    state.channel = shared;
    ++state.generation;
    state.consecutive_failures = 0;
    state.breaker = BreakerState::kClosed;
    state.last_seen = Clock::now();
    // Seed the announce set from the validated fingerprints: a reconnect
    // resumes with its caches warm and must not be re-sent workloads it
    // already holds.
    for (const auto& [key, fingerprint] : registration->workloads) {
      state.announced.insert(key);
    }
    // Welcome before alive: an Evaluate thread must not race an Assign
    // frame ahead of the shard grant.
    if (!shared->Send(cluster_proto::kWelcome,
                      EncodeWelcome({.shard = static_cast<int>(index)}))
             .ok()) {
      state.channel.reset();
      return;
    }
    state.alive = true;
    EndOutageLocked(index);
    if (state.generation > 1) {
      ++stats_.worker_reconnects;
      stats_.recovery_seconds_total +=
          std::chrono::duration<double>(Clock::now() - state.died_at).count();
      FEDSHAP_LOG(Info) << "[cluster] worker " << index << " reconnected "
                        << "(generation " << state.generation << ", pid "
                        << registration->pid << ")";
    } else {
      ++stats_.workers_added;
      FEDSHAP_LOG(Info) << "[cluster] worker registered on shard " << index
                        << " (pid " << registration->pid << ")";
    }
    state.receiver = std::thread(
        [this, index, generation = state.generation, ch = state.channel] {
          ReceiverLoop(index, generation, ch);
        });
    // The monitor starts with the first worker, not in the constructor, so
    // a harness may construct the dispatcher, fork subprocess workers, and
    // only then go multi-threaded.
    StartMonitorLocked();
    workers_changed_.notify_all();
    completed_.notify_all();  // orphaned tasks can re-dispatch here
  }
}

void ClusterDispatcher::AcceptLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    Result<std::unique_ptr<FrameChannel>> accepted = listener_->Accept(250);
    if (!accepted.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!stopping_) {
        FEDSHAP_LOG(Warning) << "[cluster] listener failed: "
                             << accepted.status();
      }
      return;
    }
    if (*accepted == nullptr) continue;  // timeout tick
    AttachWorker(std::move(*accepted));
  }
}

void ClusterDispatcher::HandleFrame(size_t index, uint64_t generation,
                                    const Frame& frame) {
  std::lock_guard<std::mutex> lock(mutex_);
  WorkerState& worker = *workers_[index];
  if (worker.generation != generation) return;  // stale connection
  worker.last_seen = Clock::now();
  switch (frame.type) {
    case cluster_proto::kHeartbeat:
      return;  // liveness only; last_seen is already refreshed
    case cluster_proto::kResult: {
      Result<TaskResult> result = DecodeResult(frame.payload);
      if (!result.ok()) {
        FEDSHAP_LOG(Warning) << "[cluster] malformed result frame from "
                             << "worker " << index << "; ignored: "
                             << result.status();
        return;
      }
      // Any well-formed task response proves the worker responsive.
      BreakerSuccessLocked(index);
      auto it = pending_.find(result->task_id);
      if (it == pending_.end() || it->second.done ||
          it->second.coalition.Hash() != result->coalition_hash) {
        // Exactly-once application: a duplicate delivery, a frame for a
        // task already failed over and completed elsewhere, or a stale
        // id. The first accepted result won; drop this one.
        ++stats_.duplicate_results_ignored;
        return;
      }
      PendingTask& task = it->second;
      task.done = true;
      task.record = result->record;
      task.fresh = result->fresh;
      if (task.worker >= 0 &&
          static_cast<size_t>(task.worker) < workers_.size()) {
        workers_[static_cast<size_t>(task.worker)]->inflight.erase(
            result->task_id);
      }
      ++stats_.results_applied;
      if (task.fresh) ++stats_.worker_fresh_trainings;
      completed_.notify_all();
      return;
    }
    case cluster_proto::kError: {
      Result<TaskError> error = DecodeError(frame.payload);
      if (!error.ok()) {
        FEDSHAP_LOG(Warning) << "[cluster] malformed error frame from "
                             << "worker " << index << "; ignored: "
                             << error.status();
        return;
      }
      BreakerSuccessLocked(index);
      auto it = pending_.find(error->task_id);
      if (it == pending_.end() || it->second.done) {
        ++stats_.duplicate_results_ignored;
        return;
      }
      worker.inflight.erase(error->task_id);
      FailTaskLocked(error->task_id, it->second,
                     Status::Internal("worker " + std::to_string(index) +
                                      " failed evaluation: " +
                                      error->message));
      return;
    }
    default:
      FEDSHAP_LOG(Warning) << "[cluster] unexpected frame type " << frame.type
                           << " from worker " << index;
      return;
  }
}

void ClusterDispatcher::ReceiverLoop(size_t index, uint64_t generation,
                                     std::shared_ptr<FrameChannel> channel) {
  for (;;) {
    Result<std::optional<Frame>> received = channel->Recv(250);
    if (!received.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      // A corrupt frame (CRC mismatch) or EOF kills the connection, but
      // only the current generation may declare the slot dead — a
      // reconnect may already have swapped in a fresh channel.
      if (workers_[index]->generation == generation) {
        MarkWorkerDeadLocked(index);
      }
      return;
    }
    if (!received->has_value()) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_ || workers_[index]->generation != generation) return;
      continue;
    }
    HandleFrame(index, generation, **received);
  }
}

ClusterDispatcher::MonitorDeadlines ClusterDispatcher::ComputeDeadlinesLocked(
    Clock::time_point now) const {
  MonitorDeadlines deadlines;
  for (const auto& worker : workers_) {
    if (!worker->alive) continue;
    if (options_.heartbeat_timeout_ms > 0) {
      const int until = MillisUntil(
          now, worker->last_seen +
                   std::chrono::milliseconds(options_.heartbeat_timeout_ms));
      if (deadlines.heartbeat_ms < 0 || until < deadlines.heartbeat_ms) {
        deadlines.heartbeat_ms = until;
      }
    }
    if (worker->breaker == BreakerState::kOpen) {
      const int until = MillisUntil(now, worker->breaker_open_until);
      if (deadlines.breaker_ms < 0 || until < deadlines.breaker_ms) {
        deadlines.breaker_ms = until;
      }
    }
  }
  return deadlines;
}

void ClusterDispatcher::MonitorLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    const int tick_ms = NextDeadlineMs(ComputeDeadlinesLocked(Clock::now()));
    monitor_wake_.wait_for(lock, std::chrono::milliseconds(tick_ms));
    if (stopping_) return;
    const Clock::time_point now = Clock::now();
    for (size_t i = 0; i < workers_.size(); ++i) {
      if (!workers_[i]->alive) continue;
      const auto silent = std::chrono::duration_cast<std::chrono::milliseconds>(
          now - workers_[i]->last_seen);
      if (silent.count() > options_.heartbeat_timeout_ms) {
        FEDSHAP_LOG(Warning) << "[cluster] worker " << i << " heartbeat "
                             << "silent for " << silent.count() << "ms";
        MarkWorkerDeadLocked(i);
        continue;
      }
      if (workers_[i]->breaker == BreakerState::kOpen &&
          now >= workers_[i]->breaker_open_until) {
        // Cooldown elapsed: half-open, letting one round of probe traffic
        // through to decide close-or-reopen.
        workers_[i]->breaker = BreakerState::kHalfOpen;
        EndOutageLocked(i);
        ++stats_.breaker_probes;
        FEDSHAP_LOG(Info) << "[cluster] worker " << i
                          << " breaker half-open; probing";
        workers_changed_.notify_all();
        completed_.notify_all();
      }
    }
  }
}

size_t ClusterDispatcher::live_workers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t live = 0;
  for (const auto& worker : workers_) {
    if (worker->alive) ++live;
  }
  return live;
}

ClusterStats ClusterDispatcher::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void ClusterDispatcher::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shut_down_) return;
    shut_down_ = true;
    stopping_ = true;
    if (listener_ != nullptr) listener_->Shutdown();
    for (auto& worker : workers_) {
      if (worker->channel == nullptr) continue;  // placeholder slot
      if (worker->alive) {
        (void)worker->channel->Send(cluster_proto::kShutdown, "");
      }
      worker->channel->Shutdown();
    }
    for (auto& [task_id, task] : pending_) {
      if (!task.done) {
        FailTaskLocked(task_id, task,
                       Status::FailedPrecondition(
                           "cluster dispatcher is shut down"));
      }
    }
    completed_.notify_all();
    monitor_wake_.notify_all();
    workers_changed_.notify_all();
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& worker : workers_) {
    if (worker->receiver.joinable()) worker->receiver.join();
  }
  if (monitor_.joinable()) monitor_.join();
}

Result<double> ClusterUtility::Evaluate(const Coalition& coalition) const {
  Result<UtilityRecord> record =
      dispatcher_->Evaluate(workload_key_, coalition);
  if (record.ok()) return record->utility;
  if (record.status().code() == StatusCode::kUnavailable) {
    // Degraded mode: no schedulable worker within the grace window. Train
    // the coalition right here on the coordinator's own build — the
    // utility is deterministic in the workload, not in where it runs, so
    // the value is the same bits a worker would have produced.
    dispatcher_->NoteDegradedEvaluation();
    return fallback_->Evaluate(coalition);
  }
  return record.status();
}

}  // namespace fedshap
