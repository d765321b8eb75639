#include "service/cluster_worker.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <utility>

#include "util/logging.h"
#include "util/serialization.h"

namespace fedshap {

namespace {

std::string EncodeResult(uint64_t task_id, uint64_t coalition_hash,
                         const UtilityRecord& record, bool fresh) {
  ByteWriter writer;
  writer.PutVarint(task_id);
  writer.PutU64(coalition_hash);
  writer.PutDouble(record.utility);
  writer.PutDouble(record.cost_seconds);
  writer.PutU8(fresh ? 1 : 0);
  return std::string(writer.bytes());
}

std::string EncodeError(uint64_t task_id, const std::string& message) {
  ByteWriter writer;
  writer.PutVarint(task_id);
  writer.PutString(message);
  return std::string(writer.bytes());
}

// Errors that end the session but not the worker: the connection is gone
// (or stalled past its send deadline) and a reconnect may succeed.
bool IsConnectionLoss(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded;
}

// Liveness beats sent from a side thread so a long training in the serve
// loop never looks like a dead worker to the coordinator.
class HeartbeatThread {
 public:
  HeartbeatThread(FrameChannel* channel, int interval_ms,
                  const std::atomic<uint64_t>* trainings)
      : channel_(channel), interval_ms_(interval_ms), trainings_(trainings) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~HeartbeatThread() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      wake_.wait_for(lock, std::chrono::milliseconds(interval_ms_));
      if (stop_) return;
      ByteWriter writer;
      writer.PutVarint(trainings_->load());
      // Plain Send, never the fault hook: heartbeats are not part of the
      // deterministic per-site event streams the tests script.
      if (!channel_->Send(cluster_proto::kHeartbeat, writer.bytes()).ok()) {
        return;  // coordinator gone; the serve loop will see EOF too
      }
    }
  }

  FrameChannel* channel_;
  const int interval_ms_;
  const std::atomic<uint64_t>* trainings_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
};

}  // namespace

ClusterWorker::ClusterWorker(FrameChannel* channel,
                             const ClusterWorkerOptions& options)
    : channel_(channel),
      options_(options),
      faults_(options.faults != nullptr ? options.faults
                                        : FaultInjector::Global()) {}

void ClusterWorker::AttachChannel(FrameChannel* channel) {
  channel_ = channel;
  held_results_.clear();
  welcomed_ = false;
  shutdown_received_ = false;
  killed_by_fault_ = false;
}

Status ClusterWorker::HandleWorkload(const Frame& frame) {
  ByteReader reader(frame.payload);
  FEDSHAP_ASSIGN_OR_RETURN(std::string key, reader.GetString());
  FEDSHAP_ASSIGN_OR_RETURN(ScenarioSpec scenario, DecodeScenarioSpec(reader));
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t fingerprint, reader.GetU64());
  if (workloads_.count(key) != 0) return Status::OK();  // re-announce
  WorkloadContext context;
  FEDSHAP_ASSIGN_OR_RETURN(context.utility, scenario.Build());
  if (context.utility->Fingerprint() != fingerprint) {
    // The worker rebuilt a different workload than the coordinator: an
    // environment skew that would silently corrupt values. Refuse.
    return Status::Internal(
        "workload fingerprint mismatch for '" + key +
        "': worker built a different utility than the coordinator");
  }
  context.fingerprint = fingerprint;
  context.cache = std::make_unique<UtilityCache>(context.utility.get());
  if (!options_.store_dir.empty()) {
    const std::string stem = options_.store_dir + "/shard-" +
                             std::to_string(options_.shard) + "/utilities";
    FEDSHAP_ASSIGN_OR_RETURN(
        context.store,
        OpenAndAttachStore(stem, /*resume=*/true, *context.utility,
                           *context.cache, options_.store_flush_bytes));
  }
  workloads_.emplace(std::move(key), std::move(context));
  return Status::OK();
}

Status ClusterWorker::SendControl(uint32_t type, const std::string& payload) {
  Status sent = channel_->Send(type, payload);
  if (!sent.ok() && !IsConnectionLoss(sent)) {
    return Status::Unavailable("connection lost: " + sent.message());
  }
  return sent;
}

Status ClusterWorker::SendResultFrame(const std::string& payload) {
  if (faults_ != nullptr && faults_->Fire(FaultSite::kDropFrame)) {
    FEDSHAP_LOG(Warning) << "[cluster-worker " << options_.shard
                         << "] fault: dropping result frame";
    return Status::OK();
  }
  if (faults_ != nullptr && faults_->Fire(FaultSite::kReorderFrame)) {
    FEDSHAP_LOG(Warning) << "[cluster-worker " << options_.shard
                         << "] fault: holding result frame back";
    held_results_.push_back(payload);
    return Status::OK();
  }
  // Result frames go through the channel's network-fault hook: this is
  // where a scripted partition / delay-frame / corrupt-frame fires, at a
  // deterministic result ordinal.
  FEDSHAP_RETURN_NOT_OK(
      channel_->SendFaulted(cluster_proto::kResult, payload, faults_));
  if (faults_ != nullptr && faults_->Fire(FaultSite::kDupFrame)) {
    FEDSHAP_LOG(Warning) << "[cluster-worker " << options_.shard
                         << "] fault: duplicating result frame";
    FEDSHAP_RETURN_NOT_OK(
        channel_->SendFaulted(cluster_proto::kResult, payload, faults_));
  }
  // A held-back frame ships after the one that overtook it.
  std::vector<std::string> held;
  held.swap(held_results_);
  for (const std::string& frame_payload : held) {
    FEDSHAP_RETURN_NOT_OK(
        channel_->SendFaulted(cluster_proto::kResult, frame_payload, faults_));
  }
  return Status::OK();
}

Result<bool> ClusterWorker::HandleAssign(const Frame& frame) {
  ByteReader reader(frame.payload);
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t task_id, reader.GetVarint());
  FEDSHAP_ASSIGN_OR_RETURN(std::string key, reader.GetString());
  FEDSHAP_ASSIGN_OR_RETURN(Coalition coalition, GetCoalition(reader));
  auto it = workloads_.find(key);
  if (it == workloads_.end()) {
    FEDSHAP_RETURN_NOT_OK(SendControl(
        cluster_proto::kError,
        EncodeError(task_id, "workload '" + key + "' not announced")));
    return false;
  }
  bool fresh = false;
  Result<UtilityRecord> record = it->second.cache->Get(coalition, &fresh);
  if (!record.ok()) {
    FEDSHAP_RETURN_NOT_OK(
        SendControl(cluster_proto::kError,
                    EncodeError(task_id, record.status().ToString())));
    return false;
  }
  if (fresh) {
    ++fresh_trainings_;
    if (faults_ != nullptr && faults_->Fire(FaultSite::kKillWorker)) {
      // Simulated crash after the training but before the result frame:
      // the work is lost in flight, exactly the window reassignment must
      // cover. No store flush, no goodbye — just a dead socket.
      FEDSHAP_LOG(Warning) << "[cluster-worker " << options_.shard
                           << "] fault: dying after " << fresh_trainings_
                           << " trainings";
      channel_->Shutdown();
      return true;
    }
  }
  FEDSHAP_RETURN_NOT_OK(
      SendResultFrame(EncodeResult(task_id, coalition.Hash(), *record, fresh)));
  return false;
}

Status ClusterWorker::Run() {
  welcomed_ = false;
  shutdown_received_ = false;
  killed_by_fault_ = false;
  {
    // Open the session with the registration handshake: protocol
    // version, the shard we want back (or -1 for "assign one"), and the
    // fingerprints of every workload already built — on a reconnect the
    // coordinator validates these and skips re-announcing.
    WorkerRegistration registration;
    registration.shard = options_.shard;
    registration.pid = static_cast<uint64_t>(::getpid());
    for (const auto& [key, context] : workloads_) {
      registration.workloads.emplace_back(key, context.fingerprint);
    }
    Status sent = channel_->Send(cluster_proto::kRegister,
                                 EncodeWorkerRegistration(registration));
    if (!sent.ok()) {
      return IsConnectionLoss(sent)
                 ? sent
                 : Status::Unavailable("connection lost: " + sent.message());
    }
  }
  std::atomic<uint64_t> trainings{0};
  HeartbeatThread heartbeat(channel_, options_.heartbeat_interval_ms,
                            &trainings);
  for (;;) {
    Result<std::optional<Frame>> received =
        channel_->Recv(options_.heartbeat_interval_ms);
    if (!received.ok()) {
      // Coordinator gone (or our own injected death closed the socket).
      return Status::OK();
    }
    if (!received->has_value()) {
      // Idle beat: flush any reorder-held frames so a holdback can only
      // delay a result, never strand it.
      if (!held_results_.empty()) {
        std::vector<std::string> held;
        held.swap(held_results_);
        for (const std::string& payload : held) {
          FEDSHAP_RETURN_NOT_OK(
              channel_->SendFaulted(cluster_proto::kResult, payload, faults_));
        }
      }
      continue;
    }
    const Frame& frame = **received;
    switch (frame.type) {
      case cluster_proto::kWelcome: {
        ByteReader reader(frame.payload);
        Result<uint64_t> version = reader.GetVarint();
        Result<uint64_t> shard = reader.GetVarint();
        if (!version.ok() || !shard.ok()) {
          return Status::Internal("malformed Welcome frame");
        }
        if (*shard > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
          return Status::InvalidArgument("Welcome shard index out of range");
        }
        if (options_.shard < 0) options_.shard = static_cast<int>(*shard);
        welcomed_ = true;
        FEDSHAP_LOG(Info) << "[cluster-worker " << options_.shard
                          << "] registered with coordinator (protocol v"
                          << *version << ")";
        break;
      }
      case cluster_proto::kReject: {
        ByteReader reader(frame.payload);
        Result<std::string> message = reader.GetString();
        // Fatal by design: a version or fingerprint mismatch will not
        // heal by redialing the same coordinator.
        return Status::InvalidArgument(
            "registration rejected by coordinator: " +
            (message.ok() ? *message : std::string("(unreadable reason)")));
      }
      case cluster_proto::kWorkload: {
        Status handled = HandleWorkload(frame);
        if (!handled.ok()) {
          FEDSHAP_LOG(Error) << "[cluster-worker " << options_.shard << "] "
                             << handled.ToString();
          return handled;
        }
        break;
      }
      case cluster_proto::kAssign: {
        Result<bool> killed = HandleAssign(frame);
        if (!killed.ok()) {
          if (IsConnectionLoss(killed.status())) {
            FEDSHAP_LOG(Warning)
                << "[cluster-worker " << options_.shard
                << "] connection lost: " << killed.status().message();
            return Status::OK();  // session over; the worker survives
          }
          FEDSHAP_LOG(Error) << "[cluster-worker " << options_.shard << "] "
                             << killed.status().ToString();
          return killed.status();
        }
        trainings.store(fresh_trainings_);
        if (*killed) {
          killed_by_fault_ = true;
          return Status::OK();
        }
        break;
      }
      case cluster_proto::kShutdown:
        for (auto& [key, context] : workloads_) {
          if (context.store != nullptr) (void)context.store->Flush();
        }
        shutdown_received_ = true;
        return Status::OK();
      default:
        break;  // future message types are ignorable by old workers
    }
  }
}

TcpWorkerClient::TcpWorkerClient(const TcpWorkerClientOptions& options)
    : options_(options), worker_(nullptr, options.worker) {}

TcpWorkerClient::~TcpWorkerClient() { Stop(); }

bool TcpWorkerClient::BackoffWait(int attempt) {
  const int wait_ms =
      ReconnectBackoffMs(attempt, options_.backoff_base_ms,
                         options_.backoff_cap_ms, options_.backoff_seed);
  std::unique_lock<std::mutex> lock(mutex_);
  backoff_history_.push_back(wait_ms);
  wake_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                 [&] { return stopping_; });
  return !stopping_;
}

Status TcpWorkerClient::Run() {
  int attempt = 0;
  int consecutive_dial_failures = 0;
  bool ever_welcomed = false;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return Status::OK();
    }
    Result<std::unique_ptr<FrameChannel>> dialed = TcpConnect(
        options_.endpoint, options_.connect_timeout_ms, options_.worker.faults);
    if (!dialed.ok()) {
      ++consecutive_dial_failures;
      FEDSHAP_LOG(Warning) << "[cluster-worker] dial "
                           << options_.endpoint.ToString() << " failed ("
                           << consecutive_dial_failures
                           << "): " << dialed.status().message();
      if (options_.max_connect_failures > 0 &&
          consecutive_dial_failures >= options_.max_connect_failures) {
        return dialed.status();
      }
      if (!BackoffWait(attempt++)) return Status::OK();
      continue;
    }
    consecutive_dial_failures = 0;
    std::unique_ptr<FrameChannel> channel = std::move(*dialed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return Status::OK();
      active_channel_ = channel.get();
      if (ever_welcomed) ++reconnects_;
    }
    worker_.AttachChannel(channel.get());
    Status served = worker_.Run();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      active_channel_ = nullptr;
    }
    if (worker_.welcomed()) {
      // A registered session resets the backoff schedule: the next
      // outage starts from the base wait again.
      ever_welcomed = true;
      attempt = 0;
    }
    if (!served.ok() && !IsConnectionLoss(served)) {
      return served;  // Reject / build mismatch: retrying cannot help
    }
    if (worker_.shutdown_received()) return Status::OK();
    if (worker_.killed_by_fault()) return Status::OK();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return Status::OK();
    }
    if (!BackoffWait(attempt++)) return Status::OK();
  }
}

void TcpWorkerClient::Stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  stopping_ = true;
  if (active_channel_ != nullptr) active_channel_->Shutdown();
  wake_.notify_all();
}

size_t TcpWorkerClient::reconnects() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reconnects_;
}

std::vector<int> TcpWorkerClient::backoff_history() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return backoff_history_;
}

Result<std::unique_ptr<LocalCluster>> LocalCluster::Start(
    const LocalClusterOptions& options) {
  if (options.num_workers < 1) {
    return Status::InvalidArgument("cluster needs at least one worker");
  }
  // The FEDSHAP_FAULT_SPEC env script targets exactly one worker — the
  // shard FEDSHAP_FAULT_SHARD names (default 0) — so "kill-worker"
  // injects one deterministic death instead of wiping the cluster.
  const char* env_spec = std::getenv("FEDSHAP_FAULT_SPEC");
  const bool env_faults = env_spec != nullptr && env_spec[0] != '\0';
  int env_target = 0;
  if (const char* shard = std::getenv("FEDSHAP_FAULT_SHARD")) {
    env_target = std::atoi(shard);
  }
  std::unique_ptr<LocalCluster> cluster(new LocalCluster());
  // The dispatcher spins up no thread until a worker attaches (or the
  // accept loop starts), so in fork mode every child is created while
  // this process is still single-threaded with respect to the cluster.
  cluster->dispatcher_ =
      std::make_unique<ClusterDispatcher>(options.dispatcher);

  const bool tcp = options.transport == ClusterTransport::kTcp;
  std::unique_ptr<TcpListener> listener;
  TcpEndpoint endpoint{"127.0.0.1", 0};
  if (tcp) {
    // Bind before forking (a bound fd is fork-safe; the accept loop
    // thread starts only after every child exists). Children inherit a
    // copy of the listening fd; harmless, they never accept on it and it
    // dies with them.
    FEDSHAP_ASSIGN_OR_RETURN(listener, TcpListener::Listen(endpoint));
    endpoint.port = listener->port();
  }

  std::vector<std::unique_ptr<FrameChannel>> coordinator_ends;
  for (int i = 0; i < options.num_workers; ++i) {
    auto handle = std::make_unique<WorkerHandle>();
    const std::string fault_spec =
        static_cast<size_t>(i) < options.fault_specs.size()
            ? options.fault_specs[static_cast<size_t>(i)]
            : std::string();
    ClusterWorkerOptions worker_options;
    worker_options.shard = i;
    worker_options.store_dir = options.store_dir;
    worker_options.store_flush_bytes = options.store_flush_bytes;
    worker_options.heartbeat_interval_ms = options.heartbeat_interval_ms;

    TcpWorkerClientOptions client_options;
    client_options.endpoint = endpoint;
    client_options.connect_timeout_ms = options.connect_timeout_ms;
    client_options.backoff_base_ms = options.reconnect_base_ms;
    client_options.backoff_cap_ms = options.reconnect_cap_ms;
    client_options.backoff_seed = static_cast<uint64_t>(i);

    if (options.fork_workers) {
      std::pair<std::unique_ptr<FrameChannel>, std::unique_ptr<FrameChannel>>
          pair;
      if (!tcp) {
        FEDSHAP_ASSIGN_OR_RETURN(pair, CreateChannelPair());
      }
      pid_t pid = ::fork();
      if (pid < 0) {
        return Status::Internal("fork of cluster worker failed");
      }
      if (pid == 0) {
        // Child: drop every coordinator-side fd inherited from the
        // parent, or a dead coordinator would never read as EOF.
        coordinator_ends.clear();
        listener.reset();
        std::unique_ptr<FrameChannel> mine = std::move(pair.second);
        pair.first.reset();
        if (!fault_spec.empty()) {
          Result<std::unique_ptr<FaultInjector>> parsed =
              FaultInjector::Parse(fault_spec);
          if (parsed.ok()) {
            FaultInjector::SetGlobal(std::move(parsed).value());
          }
        } else if (env_faults && i != env_target) {
          FaultInjector::SetGlobal(nullptr);  // script targets another shard
        }
        if (tcp) {
          client_options.worker = worker_options;
          TcpWorkerClient client(client_options);
          Status served = client.Run();
          ::_exit(served.ok() ? 0 : 1);
        }
        ClusterWorker worker(mine.get(), worker_options);
        Status served = worker.Run();
        ::_exit(served.ok() ? 0 : 1);
      }
      handle->pid = pid;
      if (!tcp) {
        pair.second.reset();  // parent keeps only the coordinator end
        coordinator_ends.push_back(std::move(pair.first));
      }
    } else {
      if (!fault_spec.empty()) {
        FEDSHAP_ASSIGN_OR_RETURN(handle->faults,
                                 FaultInjector::Parse(fault_spec));
        worker_options.faults = handle->faults.get();
      } else if (env_faults && i != env_target) {
        // Non-targeted thread workers get a never-firing injector so the
        // process-global env script cannot reach them.
        FEDSHAP_ASSIGN_OR_RETURN(handle->faults, FaultInjector::Parse(""));
        worker_options.faults = handle->faults.get();
      }
      if (tcp) {
        client_options.worker = worker_options;
        handle->client = std::make_unique<TcpWorkerClient>(client_options);
        TcpWorkerClient* client = handle->client.get();
        handle->thread = std::thread([client] { (void)client->Run(); });
      } else {
        FEDSHAP_ASSIGN_OR_RETURN(auto pair, CreateChannelPair());
        handle->channel = std::move(pair.second);
        FrameChannel* channel = handle->channel.get();
        handle->thread = std::thread([channel, worker_options] {
          ClusterWorker worker(channel, worker_options);
          (void)worker.Run();
        });
        coordinator_ends.push_back(std::move(pair.first));
      }
    }
    cluster->workers_.push_back(std::move(handle));
  }
  for (auto& end : coordinator_ends) {
    cluster->dispatcher_->AttachWorker(std::move(end));
  }
  if (tcp) cluster->dispatcher_->ServeListener(std::move(listener));
  // TCP registration is asynchronous (and any handshake can be refused):
  // wait until every shard is live so callers see a stable shard map
  // from the first Evaluate.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options.start_timeout_ms);
  while (cluster->dispatcher_->live_workers() <
         static_cast<size_t>(options.num_workers)) {
    if (std::chrono::steady_clock::now() > deadline) {
      cluster->Shutdown();
      return Status::DeadlineExceeded(
          "cluster workers failed to register within " +
          std::to_string(options.start_timeout_ms) + "ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cluster;
}

void LocalCluster::KillWorker(int index) {
  if (index < 0 || static_cast<size_t>(index) >= workers_.size()) return;
  WorkerHandle& handle = *workers_[static_cast<size_t>(index)];
  if (handle.pid > 0) {
    ::kill(handle.pid, SIGKILL);
  } else if (handle.client != nullptr) {
    handle.client->Stop();  // stays down: no further reconnects
  } else if (handle.channel != nullptr) {
    handle.channel->Shutdown();
  }
}

void LocalCluster::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  if (dispatcher_ != nullptr) dispatcher_->Shutdown();
  for (auto& handle : workers_) {
    // A TCP client mid-backoff never saw the Shutdown frame; stop it
    // before joining or it would redial a closed listener forever.
    if (handle->client != nullptr) handle->client->Stop();
    if (handle->thread.joinable()) handle->thread.join();
    if (handle->pid > 0) {
      // Bounded reap: a subprocess TCP worker that was mid-backoff when
      // the listener closed would otherwise redial forever.
      int wstatus = 0;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      for (;;) {
        const pid_t reaped = ::waitpid(handle->pid, &wstatus, WNOHANG);
        if (reaped == handle->pid || reaped < 0) break;
        if (std::chrono::steady_clock::now() > deadline) {
          ::kill(handle->pid, SIGKILL);
          ::waitpid(handle->pid, &wstatus, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }
}

LocalCluster::~LocalCluster() { Shutdown(); }

}  // namespace fedshap
