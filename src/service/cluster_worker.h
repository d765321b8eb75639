#ifndef FEDSHAP_SERVICE_CLUSTER_WORKER_H_
#define FEDSHAP_SERVICE_CLUSTER_WORKER_H_

#include <sys/types.h>

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fl/utility.h"
#include "fl/utility_cache.h"
#include "fl/utility_store.h"
#include "service/cluster.h"
#include "util/fault_injector.h"
#include "util/framing.h"
#include "util/status.h"
#include "util/tcp_transport.h"

namespace fedshap {

/// Configuration of one cluster worker process/thread.
struct ClusterWorkerOptions {
  /// This worker's shard index; names its store directory and log lines.
  /// -1 lets the coordinator assign one in the Welcome reply (TCP workers
  /// joining a coordinator they have never met).
  int shard = 0;
  /// Root of the worker store tier; "" keeps trainings in memory only.
  /// Each worker persists under `<store_dir>/shard-<shard>` — sharding by
  /// coalition hash means a coalition always lands on the same shard, so
  /// the per-shard stores partition the cluster-wide training set without
  /// two writers ever sharing a segment file.
  std::string store_dir;
  /// Byte-counted store flush interval (see UtilityCache::AttachStore).
  size_t store_flush_bytes = 1;
  /// Interval of the liveness heartbeat the worker sends while (possibly
  /// long) trainings keep its main loop busy.
  int heartbeat_interval_ms = 200;
  /// Scripted faults for this worker; null falls back to
  /// FaultInjector::Global() (the FEDSHAP_FAULT_SPEC env hook).
  FaultInjector* faults = nullptr;
};

/// The worker half of the cluster: registers with the coordinator
/// (protocol version + shard identity + fingerprints of workloads it
/// already holds), builds workloads the coordinator announces, trains
/// assigned coalitions through its own UtilityCache (optionally
/// store-backed) and streams framed results back. Runs until the
/// coordinator sends Shutdown, the channel closes, or an injected
/// kill-worker fault fires.
///
/// A worker object outlives its channel: TcpWorkerClient keeps one
/// ClusterWorker across reconnects (AttachChannel + Run per session), so
/// built workloads, caches and stores stay warm while connections come
/// and go. Result frames are sent through the channel's fault hook, so a
/// scripted `partition` / `delay-frame` / `corrupt-frame` fires at a
/// deterministic result ordinal (heartbeats never consult the injector).
class ClusterWorker {
 public:
  ClusterWorker(FrameChannel* channel, const ClusterWorkerOptions& options);

  /// Points the worker at a (new) connection and clears per-connection
  /// state (reorder holdbacks, welcome/shutdown flags). Workload caches
  /// persist — the next Run() re-registers them by fingerprint.
  void AttachChannel(FrameChannel* channel);

  /// Registers, then blocks in the serve loop. Returns OK when the
  /// connection ended (EOF, clean Shutdown, injected death) and an error
  /// Status on fatal conditions: a coordinator Reject, a workload
  /// build/fingerprint failure.
  Status Run();

  /// True once the coordinator acknowledged this session's registration.
  bool welcomed() const { return welcomed_; }
  /// True when the last session ended with a coordinator Shutdown frame.
  bool shutdown_received() const { return shutdown_received_; }
  /// True when an injected kill-worker fault ended the last session.
  bool killed_by_fault() const { return killed_by_fault_; }
  /// The shard this worker serves (coordinator-assigned when started
  /// with shard = -1; meaningful once welcomed).
  int shard() const { return options_.shard; }

 private:
  struct WorkloadContext {
    std::unique_ptr<UtilityFunction> utility;
    std::unique_ptr<UtilityCache> cache;
    std::unique_ptr<UtilityStore> store;
    uint64_t fingerprint = 0;  // echoed in the next registration
  };

  Status HandleWorkload(const Frame& frame);
  // Returns true when an injected kill-worker fault ends the serve loop.
  Result<bool> HandleAssign(const Frame& frame);
  Status SendResultFrame(const std::string& payload);
  /// Sends a control frame, mapping send failures to Unavailable (the
  /// connection is lost; the session ends but the worker survives).
  Status SendControl(uint32_t type, const std::string& payload);

  FrameChannel* channel_;
  ClusterWorkerOptions options_;
  FaultInjector* faults_;
  std::map<std::string, WorkloadContext> workloads_;
  std::vector<std::string> held_results_;  // reorder-frame holdbacks
  uint64_t fresh_trainings_ = 0;
  bool welcomed_ = false;
  bool shutdown_received_ = false;
  bool killed_by_fault_ = false;
};

/// A TCP worker: dials the coordinator, registers, serves, and on any
/// non-fatal disconnect redials with capped exponential backoff and
/// deterministic seeded jitter (see ReconnectBackoffMs), resuming its
/// shard with warm caches. Fatal conditions — a coordinator Reject
/// (version or fingerprint mismatch), a workload build failure — stop
/// the client instead of retrying into the same wall.
struct TcpWorkerClientOptions {
  TcpEndpoint endpoint;
  ClusterWorkerOptions worker;  ///< worker.shard = -1: coordinator assigns.
  int connect_timeout_ms = 5000;
  int backoff_base_ms = 50;
  int backoff_cap_ms = 2000;
  uint64_t backoff_seed = 0;  ///< Jitter seed; replayable, per-worker.
  /// Consecutive failed dials before Run() gives up with the dial error.
  /// 0 retries until Stop().
  int max_connect_failures = 0;
};

class TcpWorkerClient {
 public:
  explicit TcpWorkerClient(const TcpWorkerClientOptions& options);
  ~TcpWorkerClient();

  TcpWorkerClient(const TcpWorkerClient&) = delete;
  TcpWorkerClient& operator=(const TcpWorkerClient&) = delete;

  /// Blocks in the connect/register/serve/reconnect loop until a clean
  /// coordinator Shutdown, an injected worker death, a fatal registration
  /// error, or Stop().
  Status Run();

  /// Stops the loop from another thread: wakes a backoff sleep and shuts
  /// the active connection down. Idempotent.
  void Stop();

  /// TCP sessions re-established after the first successful registration.
  size_t reconnects() const;
  /// Every backoff wait scheduled so far, in ms, in order — deterministic
  /// given the seed, so tests assert the exact schedule.
  std::vector<int> backoff_history() const;

 private:
  /// Sleeps the attempt's backoff; false when Stop() interrupted it.
  bool BackoffWait(int attempt);

  TcpWorkerClientOptions options_;
  ClusterWorker worker_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  FrameChannel* active_channel_ = nullptr;  // guarded by mutex_
  size_t reconnects_ = 0;
  std::vector<int> backoff_history_;
};

/// One-host cluster harness shared by tests, the bench and fedshapd:
/// spawns N workers — std::threads by default, fork()ed subprocesses on
/// request — and wires them into an owned ClusterDispatcher, over either
/// transport. Start() forks before any dispatcher thread exists, so
/// subprocess workers never inherit a mid-operation lock (in TCP mode the
/// listener is bound first — a bound fd, not a thread — and the accept
/// loop starts only after every fork).
enum class ClusterTransport {
  kSocketPair,  ///< In-process socketpairs (single host).
  kTcp,         ///< Loopback TCP through the real listener/connector and
                ///< the registration handshake — what multi-node runs use.
};

struct LocalClusterOptions {
  int num_workers = 2;
  /// false: workers are threads in this process (fast, shares the
  /// process's kernel backend). true: workers are fork()ed children —
  /// real process deaths, used by the fault harness and fedshapd.
  bool fork_workers = false;
  ClusterTransport transport = ClusterTransport::kSocketPair;
  std::string store_dir;  ///< Worker store tier root; "" = memory only.
  size_t store_flush_bytes = 1;
  int heartbeat_interval_ms = 200;
  /// Per-worker fault specs (FaultInjector::Parse syntax); shorter
  /// vectors leave the remaining workers fault-free. In fork mode the
  /// spec is installed as the child's global injector, so store-flush
  /// sites fire in the child too.
  std::vector<std::string> fault_specs;
  ClusterDispatcher::Options dispatcher;
  /// How long Start() waits for every worker to register before failing.
  int start_timeout_ms = 10000;
  // TCP-transport knobs (ignored for socketpairs).
  int connect_timeout_ms = 5000;
  int reconnect_base_ms = 50;
  int reconnect_cap_ms = 2000;
};

class LocalCluster {
 public:
  static Result<std::unique_ptr<LocalCluster>> Start(
      const LocalClusterOptions& options);
  ~LocalCluster();

  ClusterDispatcher* dispatcher() { return dispatcher_.get(); }

  /// Forcibly kills worker `index`: SIGKILL for a subprocess worker, a
  /// client stop / socket shutdown for a thread worker. The dispatcher
  /// notices via EOF/heartbeat and fails over. A TCP thread worker killed
  /// this way stays down (its client stops reconnecting).
  void KillWorker(int index);

  /// Stops the dispatcher and reaps every worker. Idempotent.
  void Shutdown();

 private:
  LocalCluster() = default;

  struct WorkerHandle {
    std::unique_ptr<FrameChannel> channel;  // worker end (socketpair threads)
    std::unique_ptr<TcpWorkerClient> client;  // TCP thread workers
    std::unique_ptr<FaultInjector> faults;    // thread mode only
    std::thread thread;
    pid_t pid = -1;
  };

  std::unique_ptr<ClusterDispatcher> dispatcher_;
  std::vector<std::unique_ptr<WorkerHandle>> workers_;
  bool shut_down_ = false;
};

}  // namespace fedshap

#endif  // FEDSHAP_SERVICE_CLUSTER_WORKER_H_
