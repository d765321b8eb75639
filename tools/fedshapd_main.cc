/// fedshapd — the multi-tenant valuation job service, as a CLI.
///
/// Reads valuation jobs (one per line of key=value tokens, see
/// docs/OPERATIONS.md), runs them concurrently over shared, deduplicated
/// utility evaluations, and persists everything — job specs, estimator
/// checkpoints, finished results, and the per-workload utility stores —
/// under a state directory, so a killed fedshapd relaunches and resumes
/// every in-flight job to a bit-identical result.
///
/// Usage:
///   fedshapd --state-dir=DIR [--jobs=FILE|-] [--workers=N]
///            [--cluster-workers=N] [--cluster-mode=thread|fork]
///            [--listen=HOST:PORT] [--connect=HOST:PORT]
///            [--status] [--cancel=NAME] [--purge=NAME]
///            [--kill-after=N] [--print-values] [--quiet]
///
/// Default action: recover persisted jobs, submit the jobs of --jobs
/// (if any), drain everything to a terminal state, print a summary.
///
///   --state-dir=DIR   durable service state ("" = memory-only session)
///   --jobs=FILE       job file to submit ("-" = read stdin)
///   --workers=N       concurrent job slices (default 2)
///   --cluster-workers=N  run as a sharded cluster on this host: every
///                     utility training is dispatched to one of N cluster
///                     workers by coalition shard (0 = off, the default).
///                     Values are bit-identical to a clusterless run.
///   --cluster-mode=thread|fork  cluster workers as threads (default) or
///                     fork()ed subprocesses (real process isolation; the
///                     FEDSHAP_FAULT_SPEC env fault script applies per
///                     child, see docs/OPERATIONS.md)
///   --listen=HOST:PORT  coordinator mode for multi-node runs: accept
///                     TCP worker registrations here (port 0 picks a free
///                     port; composes with --cluster-workers — local and
///                     remote workers share one shard map). While no
///                     worker is connected, coalitions train locally
///                     (degraded mode) and values stay bit-identical.
///   --connect=HOST:PORT  worker mode: dial the coordinator, register,
///                     serve trainings until it shuts the cluster down.
///                     Reconnects with capped exponential backoff across
///                     coordinator restarts and partitions.
///   --status          print the job table and exit (nothing runs)
///   --cancel=NAME     cancel one job and exit
///   --purge=NAME      remove one terminal job's state and exit
///   --kill-after=N    crash simulation: halt after N slices, exit 17
///   --print-values    print every finished job's values (%.17g)
///   --quiet           suppress per-slice progress lines
///
/// Resilience knobs (env, all optional): FEDSHAP_RPC_DEADLINE_MS,
/// FEDSHAP_BREAKER_THRESHOLD, FEDSHAP_BREAKER_COOLDOWN_MS,
/// FEDSHAP_DEGRADED_GRACE_MS (coordinator);
/// FEDSHAP_RECONNECT_BASE_MS, FEDSHAP_RECONNECT_CAP_MS,
/// FEDSHAP_RECONNECT_SEED (worker). See docs/OPERATIONS.md.
///
/// Exit codes: 0 all jobs done, 1 some job failed (or usage/IO error on
/// stderr), 17 halted by --kill-after with jobs still in flight.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ml/kernel_backend.h"
#include "service/cluster.h"
#include "service/cluster_worker.h"
#include "service/job_spec.h"
#include "service/valuation_service.h"
#include "util/serialization.h"

using namespace fedshap;

namespace {

struct CliOptions {
  std::string state_dir;
  std::string jobs_file;
  std::string cancel_name;
  std::string purge_name;
  std::string listen;   // coordinator: accept TCP workers on host:port
  std::string connect;  // worker: dial the coordinator at host:port
  int workers = 2;
  int cluster_workers = 0;
  bool cluster_fork = false;
  size_t kill_after = 0;
  bool status_only = false;
  bool print_values = false;
  bool quiet = false;
};

/// Reads an integer env knob; `fallback` when unset or unparsable.
int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  return std::atoi(value);
}

/// Coordinator resilience policy from the environment (defaults tuned
/// for a real multi-node deployment; see docs/OPERATIONS.md).
void ApplyResilienceEnv(ClusterDispatcher::Options* options) {
  options->rpc_deadline_ms =
      EnvInt("FEDSHAP_RPC_DEADLINE_MS", options->rpc_deadline_ms);
  options->breaker_trip_threshold =
      EnvInt("FEDSHAP_BREAKER_THRESHOLD", options->breaker_trip_threshold);
  options->breaker_cooldown_ms =
      EnvInt("FEDSHAP_BREAKER_COOLDOWN_MS", options->breaker_cooldown_ms);
  options->degraded_grace_ms =
      EnvInt("FEDSHAP_DEGRADED_GRACE_MS", options->degraded_grace_ms);
}

CliOptions ParseArgs(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--state-dir=", 0) == 0) {
      options.state_dir = arg.substr(12);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      options.jobs_file = arg.substr(7);
    } else if (arg.rfind("--workers=", 0) == 0) {
      options.workers = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--cluster-workers=", 0) == 0) {
      options.cluster_workers = std::atoi(arg.c_str() + 18);
    } else if (arg.rfind("--cluster-mode=", 0) == 0) {
      const std::string mode = arg.substr(15);
      if (mode == "fork") {
        options.cluster_fork = true;
      } else if (mode != "thread") {
        std::fprintf(stderr,
                     "fedshapd: --cluster-mode must be thread or fork\n");
        std::exit(1);
      }
    } else if (arg.rfind("--listen=", 0) == 0) {
      options.listen = arg.substr(9);
    } else if (arg.rfind("--connect=", 0) == 0) {
      options.connect = arg.substr(10);
    } else if (arg.rfind("--cancel=", 0) == 0) {
      options.cancel_name = arg.substr(9);
    } else if (arg.rfind("--purge=", 0) == 0) {
      options.purge_name = arg.substr(8);
    } else if (arg.rfind("--kill-after=", 0) == 0) {
      options.kill_after = std::strtoull(arg.c_str() + 13, nullptr, 10);
    } else if (arg == "--status") {
      options.status_only = true;
    } else if (arg == "--print-values") {
      options.print_values = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else {
      std::fprintf(stderr, "fedshapd: unknown flag %s\n", arg.c_str());
      std::exit(1);
    }
  }
  if (options.workers < 1) options.workers = 1;
  return options;
}

/// One status line per job: the table --status prints, and the shape the
/// progress monitor reuses.
void PrintJobLine(const JobStatus& status) {
  std::printf("[job %s] %s estimator=%s scenario=%s n=%d %zu/%zu units",
              status.name.c_str(), JobStateName(status.state),
              EstimatorKindName(status.spec.estimator),
              status.spec.scenario.kind.c_str(), status.spec.scenario.n,
              status.completed_units, status.total_units);
  if (status.state == JobState::kDone) {
    const ValuationResult& r = status.result;
    std::printf(" trainings=%zu fresh=%zu shared=%zu charged=%.3fs",
                r.num_trainings, r.num_fresh_trainings,
                r.num_trainings - r.num_fresh_trainings, r.charged_seconds);
  } else if (status.state == JobState::kFailed) {
    std::printf(" error=%s", status.error.c_str());
  }
  std::printf("\n");
}

/// Segment-store counters aggregated over every attached workload store
/// (zero when no workload of this process opened its store).
void PrintStoreLine(const ServiceStats& stats) {
  std::printf("[fedshapd] store entries=%zu segments=%zu bytes=%llu "
              "mapped=%llu evictions=%zu compactions=%zu\n",
              stats.store_entries, stats.store_segments,
              static_cast<unsigned long long>(stats.store_bytes),
              static_cast<unsigned long long>(stats.store_mapped_bytes),
              stats.store_evictions, stats.store_compactions);
}

void PrintValues(const JobStatus& status) {
  std::printf("values %s", status.name.c_str());
  for (double value : status.result.values) std::printf(" %.17g", value);
  std::printf("\n");
}

int RunService(const CliOptions& options,
               const std::vector<JobSpec>& new_jobs) {
  const bool acting = !options.status_only && options.cancel_name.empty() &&
                      options.purge_name.empty();
  // The cluster starts before the service: in fork mode the workers must
  // be forked while this process has no service threads yet.
  std::unique_ptr<LocalCluster> cluster;
  std::unique_ptr<ClusterDispatcher> listen_dispatcher;
  ClusterDispatcher* dispatcher = nullptr;
  if (options.cluster_workers > 0 && acting) {
    LocalClusterOptions cluster_options;
    cluster_options.num_workers = options.cluster_workers;
    cluster_options.fork_workers = options.cluster_fork;
    if (!options.state_dir.empty()) {
      cluster_options.store_dir = options.state_dir + "/cluster";
    }
    // The deadline also recovers a lost result frame: the re-dispatch
    // goes to the same shard, whose cache makes the re-run a hit.
    cluster_options.dispatcher.rpc_deadline_ms = 30000;
    ApplyResilienceEnv(&cluster_options.dispatcher);
    Result<std::unique_ptr<LocalCluster>> started =
        LocalCluster::Start(cluster_options);
    if (!started.ok()) {
      std::fprintf(stderr, "fedshapd: cluster start: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    cluster = std::move(started).value();
    dispatcher = cluster->dispatcher();
  } else if (!options.listen.empty() && acting) {
    // Pure multi-node coordinator: no local workers, only registered
    // TCP ones. Until the first registers, coalitions train locally
    // (degraded mode) after the grace window — jobs always make
    // progress, with bit-identical values either way.
    ClusterDispatcher::Options dispatcher_options;
    dispatcher_options.rpc_deadline_ms = 30000;
    dispatcher_options.degraded_grace_ms = 5000;
    ApplyResilienceEnv(&dispatcher_options);
    listen_dispatcher =
        std::make_unique<ClusterDispatcher>(dispatcher_options);
    dispatcher = listen_dispatcher.get();
  }
  if (!options.listen.empty() && dispatcher != nullptr && acting) {
    Result<TcpEndpoint> endpoint = TcpEndpoint::Parse(options.listen);
    if (!endpoint.ok()) {
      std::fprintf(stderr, "fedshapd: --listen: %s\n",
                   endpoint.status().ToString().c_str());
      return 1;
    }
    Result<int> port = dispatcher->ListenAndServe(*endpoint);
    if (!port.ok()) {
      std::fprintf(stderr, "fedshapd: listen %s: %s\n",
                   options.listen.c_str(),
                   port.status().ToString().c_str());
      return 1;
    }
    std::printf("[fedshapd] listening for workers on %s:%d\n",
                endpoint->host.c_str(), *port);
  }

  ServiceConfig config;
  config.workers = options.workers;
  config.state_dir = options.state_dir;
  config.max_slices = options.kill_after;
  config.paused = true;
  config.cluster = dispatcher;
  ValuationService service(config);

  Status recovered = service.Recover();
  if (!recovered.ok()) {
    std::fprintf(stderr, "fedshapd: recover: %s\n",
                 recovered.ToString().c_str());
    // Recovery errors are per-job; keep serving what did load.
  }
  const size_t recovered_jobs = service.ListJobs().size();
  for (const JobSpec& spec : new_jobs) {
    Status submitted = service.Submit(spec);
    if (!submitted.ok()) {
      // Rerunning the same command after a crash recovers the jobs and
      // then re-submits the same job file: a name collision with an
      // *identical* spec is that benign resume, not an error.
      if (submitted.code() == StatusCode::kAlreadyExists) {
        Result<JobStatus> existing = service.GetStatus(spec.name);
        if (existing.ok() && existing->spec.ToLine() == spec.ToLine()) {
          std::printf("[fedshapd] job %s already present (resuming)\n",
                      spec.name.c_str());
          continue;
        }
        std::fprintf(stderr,
                     "fedshapd: submit %s: name is taken by a different "
                     "job spec (purge it first)\n",
                     spec.name.c_str());
        return 1;
      }
      std::fprintf(stderr, "fedshapd: submit %s: %s\n", spec.name.c_str(),
                   submitted.ToString().c_str());
      return 1;
    }
  }
  std::printf("[fedshapd] state-dir=%s workers=%d recovered=%zu "
              "submitted=%zu\n",
              options.state_dir.empty() ? "(memory)"
                                        : options.state_dir.c_str(),
              options.workers, recovered_jobs, new_jobs.size());

  if (options.status_only) {
    // Provenance first: perf numbers in the job table are attributable
    // to this backend + worker budget (see ml/kernel_backend.h).
    std::printf("[fedshapd] %s\n", KernelProvenanceString().c_str());
    for (const JobStatus& status : service.ListJobs()) {
      PrintJobLine(status);
    }
    PrintStoreLine(service.stats());
    service.Stop();
    return 0;
  }

  if (!options.cancel_name.empty() || !options.purge_name.empty()) {
    Status acted = !options.cancel_name.empty()
                       ? service.Cancel(options.cancel_name)
                       : service.Purge(options.purge_name);
    if (!acted.ok()) {
      std::fprintf(stderr, "fedshapd: %s\n", acted.ToString().c_str());
      service.Stop();
      return 1;
    }
    std::printf("[fedshapd] %s %s\n",
                !options.cancel_name.empty() ? "cancelled" : "purged",
                (!options.cancel_name.empty() ? options.cancel_name
                                              : options.purge_name)
                    .c_str());
    service.Stop();
    return 0;
  }

  service.Resume();

  // Progress monitor: poll the job table, print a line whenever a job's
  // progress or terminal state changes, stop when nothing can change
  // anymore (all terminal, or the service halted via --kill-after).
  std::map<std::string, std::pair<bool, size_t>> printed;  // terminal, units
  bool all_terminal = false;
  for (;;) {
    all_terminal = true;
    for (const JobStatus& status : service.ListJobs()) {
      const bool terminal = status.state == JobState::kDone ||
                            status.state == JobState::kFailed ||
                            status.state == JobState::kCancelled;
      if (!terminal) all_terminal = false;
      auto mark = std::make_pair(terminal, status.completed_units);
      auto it = printed.find(status.name);
      if (it != printed.end() && it->second == mark) continue;
      printed[status.name] = mark;
      if (!options.quiet || terminal) PrintJobLine(status);
    }
    if (all_terminal || service.halted()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  service.Stop();

  // Final sweep: the halt may have landed between polls.
  size_t failed = 0;
  for (const JobStatus& status : service.ListJobs()) {
    if (status.state == JobState::kFailed) ++failed;
    if (status.state == JobState::kDone && options.print_values) {
      PrintValues(status);
    }
  }

  const ServiceStats stats = service.stats();
  std::printf("[fedshapd] done=%zu failed=%zu cancelled=%zu slices=%zu "
              "workloads=%zu trainings=%zu preloaded=%zu\n",
              stats.jobs_done, stats.jobs_failed, stats.jobs_cancelled,
              stats.slices_executed, stats.workloads,
              stats.trainings_computed, stats.trainings_preloaded);
  PrintStoreLine(stats);
  if (dispatcher != nullptr) {
    const ClusterStats cluster_stats = dispatcher->stats();
    std::printf("[fedshapd] cluster workers=%d live=%zu dispatched=%zu "
                "reassigned=%zu duplicates=%zu retried=%zu lost=%zu "
                "worker-trainings=%zu\n",
                options.cluster_workers, dispatcher->live_workers(),
                cluster_stats.tasks_dispatched,
                cluster_stats.reassigned_coalitions,
                cluster_stats.duplicate_results_ignored,
                cluster_stats.retried_tasks, cluster_stats.workers_lost,
                cluster_stats.worker_fresh_trainings);
    std::printf("[fedshapd] resilience reconnects=%zu recovery=%.3fs "
                "breaker-trips=%zu probes=%zu degraded=%zu\n",
                cluster_stats.worker_reconnects,
                cluster_stats.recovery_seconds_total,
                cluster_stats.breaker_trips, cluster_stats.breaker_probes,
                cluster_stats.degraded_evaluations);
    if (cluster != nullptr) {
      cluster->Shutdown();
    } else {
      dispatcher->Shutdown();
    }
  }

  if (!all_terminal) {
    std::printf("[fedshapd] halted with jobs in flight; rerun with the "
                "same --state-dir to resume\n");
    return 17;
  }
  return failed > 0 ? 1 : 0;
}

/// Worker mode (--connect): one reconnecting TCP worker, no service.
int RunWorker(const CliOptions& options) {
  Result<TcpEndpoint> endpoint = TcpEndpoint::Parse(options.connect);
  if (!endpoint.ok()) {
    std::fprintf(stderr, "fedshapd: --connect: %s\n",
                 endpoint.status().ToString().c_str());
    return 1;
  }
  TcpWorkerClientOptions client_options;
  client_options.endpoint = *endpoint;
  client_options.worker.shard = -1;  // the coordinator assigns our shard
  if (!options.state_dir.empty()) {
    client_options.worker.store_dir = options.state_dir + "/cluster";
  }
  client_options.backoff_base_ms =
      EnvInt("FEDSHAP_RECONNECT_BASE_MS", client_options.backoff_base_ms);
  client_options.backoff_cap_ms =
      EnvInt("FEDSHAP_RECONNECT_CAP_MS", client_options.backoff_cap_ms);
  client_options.backoff_seed = static_cast<uint64_t>(
      EnvInt("FEDSHAP_RECONNECT_SEED", static_cast<int>(::getpid())));
  std::printf("[fedshapd] worker dialing %s (backoff %d..%dms, seed %llu)\n",
              endpoint->ToString().c_str(), client_options.backoff_base_ms,
              client_options.backoff_cap_ms,
              static_cast<unsigned long long>(client_options.backoff_seed));
  TcpWorkerClient client(client_options);
  Status served = client.Run();
  if (!served.ok()) {
    std::fprintf(stderr, "fedshapd: worker: %s\n",
                 served.ToString().c_str());
    return 1;
  }
  std::printf("[fedshapd] worker done (reconnects=%zu)\n",
              client.reconnects());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions options = ParseArgs(argc, argv);
  if (!options.connect.empty()) {
    if (!options.listen.empty() || options.cluster_workers > 0) {
      std::fprintf(stderr,
                   "fedshapd: --connect is a pure worker mode; it cannot "
                   "combine with --listen or --cluster-workers\n");
      return 1;
    }
    return RunWorker(options);
  }

  std::vector<JobSpec> new_jobs;
  if (!options.jobs_file.empty()) {
    std::string contents;
    if (options.jobs_file == "-") {
      std::ostringstream buffer;
      buffer << std::cin.rdbuf();
      contents = buffer.str();
    } else {
      Result<std::string> read = ReadFileToString(options.jobs_file);
      if (!read.ok()) {
        std::fprintf(stderr, "fedshapd: %s: %s\n",
                     options.jobs_file.c_str(),
                     read.status().ToString().c_str());
        return 1;
      }
      contents = std::move(read).value();
    }
    Result<std::vector<JobSpec>> parsed = ParseJobFile(contents);
    if (!parsed.ok()) {
      std::fprintf(stderr, "fedshapd: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    new_jobs = std::move(parsed).value();
  }

  return RunService(options, new_jobs);
}
