/// Valuation-service throughput and cross-job dedup: N jobs over
/// overlapping scenarios, run (a) through one shared ValuationService and
/// (b) in isolation, demonstrating that the shared service trains far
/// fewer coalitions than N independent runs while producing identical
/// values.
///
///   ./bench_service_throughput                      # real FedAvg trainings
///   ./bench_service_throughput --scenario=linreg    # closed-form, instant
///   ./bench_service_throughput --workers=8 --n=7
///   ./bench_service_throughput --store-dir=/tmp/svc   # persistent stores
///
/// Output: one row per job (isolated trainings vs fresh trainings under
/// the shared service, reuse, value agreement) and aggregate dedup /
/// throughput numbers.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "ml/kernel_backend.h"
#include "service/cluster.h"
#include "service/cluster_worker.h"
#include "service/job_spec.h"
#include "service/valuation_service.h"
#include "util/stopwatch.h"

using namespace fedshap;

namespace {

struct Options {
  int workers = 4;
  int n = 6;
  std::string scenario = "digits";
  uint64_t seed = 2025;
  std::string json;  // --json=<path> / FEDSHAP_BENCH_JSON: BenchJson output
  // --store-dir=<dir> / FEDSHAP_BENCH_STORE_DIR: state directory for the
  // shared service run, so every workload opens its persistent segmented
  // utility store and the report carries its segment stats. Empty =
  // memory-only (the historical behavior).
  std::string store_dir;
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  if (const char* env = std::getenv("FEDSHAP_BENCH_JSON")) {
    options.json = env;
  }
  if (const char* env = std::getenv("FEDSHAP_BENCH_STORE_DIR")) {
    options.store_dir = env;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workers=", 0) == 0) {
      options.workers = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--n=", 0) == 0) {
      options.n = std::atoi(arg.c_str() + 4);
    } else if (arg.rfind("--scenario=", 0) == 0) {
      options.scenario = arg.substr(11);
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json = arg.substr(7);
    } else if (arg.rfind("--store-dir=", 0) == 0) {
      options.store_dir = arg.substr(12);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

/// The benchmark's job mix: two overlapping scenario tenants (same
/// workload family, different data seeds), each valued by four
/// estimators — the realistic "several analysts value the same
/// federation" service load.
std::vector<JobSpec> MakeJobs(const Options& options) {
  std::vector<JobSpec> jobs;
  const int gamma = 4 * options.n;
  for (int tenant = 0; tenant < 2; ++tenant) {
    ScenarioSpec scenario;
    scenario.kind = options.scenario;
    scenario.n = options.n;
    scenario.seed = options.seed + tenant;
    const std::string prefix =
        std::string("t") + std::to_string(tenant) + "-";
    const struct {
      const char* suffix;
      EstimatorKind estimator;
    } mix[] = {
        {"ipss", EstimatorKind::kIpss},
        {"stratified", EstimatorKind::kStratified},
        {"exact", EstimatorKind::kExactMc},
        {"perm", EstimatorKind::kPermMc},
    };
    for (const auto& entry : mix) {
      JobSpec spec;
      spec.name = prefix + entry.suffix;
      spec.estimator = entry.estimator;
      spec.gamma = gamma;
      spec.seed = options.seed + 7 * tenant;
      spec.checkpoint_every = 8;
      spec.scenario = scenario;
      jobs.push_back(spec);
    }
  }
  return jobs;
}

struct RunOutcome {
  ValuationResult result;
  double wall_seconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  const std::vector<JobSpec> jobs = MakeJobs(options);
  std::printf("service throughput: %zu jobs over 2 overlapping %s "
              "scenarios, n=%d, workers=%d\n",
              jobs.size(), options.scenario.c_str(), options.n,
              options.workers);
  std::printf("%s\n\n", KernelProvenanceString().c_str());

  // (a) Isolated baseline: every job in its own single-worker service
  // with its own cache — what N independent main()s would do.
  std::vector<RunOutcome> isolated(jobs.size());
  double isolated_wall = 0.0;
  size_t isolated_trainings = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    ServiceConfig config;
    config.workers = 1;
    ValuationService service(config);
    Stopwatch timer;
    if (Status submitted = service.Submit(jobs[i]); !submitted.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   submitted.ToString().c_str());
      return 1;
    }
    Result<ValuationResult> result = service.Wait(jobs[i].name);
    if (!result.ok()) {
      std::fprintf(stderr, "job %s failed: %s\n", jobs[i].name.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    isolated[i].result = std::move(result).value();
    isolated[i].wall_seconds = timer.ElapsedSeconds();
    isolated_wall += isolated[i].wall_seconds;
    isolated_trainings += isolated[i].result.num_trainings;
  }

  // (b) The shared service: all jobs concurrently over one workload
  // table — overlapping jobs dedup through the single-flight cache.
  ServiceConfig config;
  config.workers = options.workers;
  config.state_dir = options.store_dir;
  ValuationService service(config);
  Stopwatch shared_timer;
  for (const JobSpec& spec : jobs) {
    if (Status submitted = service.Submit(spec); !submitted.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   submitted.ToString().c_str());
      return 1;
    }
  }
  service.WaitAll();
  const double shared_wall = shared_timer.ElapsedSeconds();

  std::printf("%-14s %-11s %10s %10s %8s %9s %7s\n", "job", "estimator",
              "isolated", "fresh", "reused", "charged", "equal");
  size_t shared_fresh = 0;
  bool all_equal = true;
  for (size_t i = 0; i < jobs.size(); ++i) {
    Result<JobStatus> status = service.GetStatus(jobs[i].name);
    if (!status.ok() || status->state != JobState::kDone) {
      std::fprintf(stderr, "job %s did not finish\n", jobs[i].name.c_str());
      return 1;
    }
    const ValuationResult& shared = status->result;
    const bool equal = shared.values == isolated[i].result.values;
    all_equal = all_equal && equal;
    shared_fresh += shared.num_fresh_trainings;
    std::printf("%-14s %-11s %10zu %10zu %8zu %8.3fs %7s\n",
                jobs[i].name.c_str(),
                EstimatorKindName(jobs[i].estimator),
                isolated[i].result.num_trainings,
                shared.num_fresh_trainings,
                shared.num_trainings - shared.num_fresh_trainings,
                shared.charged_seconds, equal ? "yes" : "NO");
  }

  // (c) The sharded cluster: the same mix through a coordinator service
  // whose cache misses are trained by {1, 2, 4} local worker shards
  // (thread mode), plus one faulted run that SIGKILL-equivalently kills
  // a worker after its 3rd training — the reassignment path under
  // bench-scale load. Values must stay bit-identical at every topology.
  struct ClusterOutcome {
    int workers = 0;
    double wall_seconds = 0.0;
  };
  std::vector<ClusterOutcome> cluster_runs;
  size_t faulted_reassigned = 0;
  size_t faulted_lost = 0;
  auto run_cluster = [&](const LocalClusterOptions& cluster_options,
                         double* wall_out, ClusterStats* stats_out) -> bool {
    Result<std::unique_ptr<LocalCluster>> cluster =
        LocalCluster::Start(cluster_options);
    if (!cluster.ok()) {
      std::fprintf(stderr, "cluster start failed: %s\n",
                   cluster.status().ToString().c_str());
      return false;
    }
    ServiceConfig cluster_config;
    cluster_config.workers = options.workers;
    cluster_config.cluster = (*cluster)->dispatcher();
    bool ok = true;
    {
      ValuationService cluster_service(cluster_config);
      Stopwatch timer;
      for (const JobSpec& spec : jobs) {
        if (Status submitted = cluster_service.Submit(spec); !submitted.ok()) {
          std::fprintf(stderr, "cluster submit failed: %s\n",
                       submitted.ToString().c_str());
          return false;
        }
      }
      cluster_service.WaitAll();
      *wall_out = timer.ElapsedSeconds();
      for (size_t i = 0; i < jobs.size(); ++i) {
        Result<JobStatus> status = cluster_service.GetStatus(jobs[i].name);
        if (!status.ok() || status->state != JobState::kDone) {
          std::fprintf(stderr, "cluster job %s did not finish\n",
                       jobs[i].name.c_str());
          ok = false;
          continue;
        }
        if (status->result.values != isolated[i].result.values) {
          std::fprintf(stderr, "cluster job %s diverged from isolated\n",
                       jobs[i].name.c_str());
          ok = false;
        }
      }
      *stats_out = (*cluster)->dispatcher()->stats();
    }  // service joins its workers before the cluster goes away
    (*cluster)->Shutdown();
    return ok;
  };
  auto base_cluster_options = [](int cluster_workers) {
    LocalClusterOptions cluster_options;
    cluster_options.num_workers = cluster_workers;
    cluster_options.dispatcher.heartbeat_timeout_ms = 2000;
    return cluster_options;
  };
  for (int cluster_workers : {1, 2, 4}) {
    ClusterOutcome outcome;
    outcome.workers = cluster_workers;
    ClusterStats cluster_stats;
    if (!run_cluster(base_cluster_options(cluster_workers),
                     &outcome.wall_seconds, &cluster_stats)) {
      all_equal = false;
    }
    cluster_runs.push_back(outcome);
  }
  {
    double faulted_wall = 0.0;
    ClusterStats cluster_stats;
    LocalClusterOptions faulted_options = base_cluster_options(2);
    faulted_options.fault_specs = {"kill-worker:after=3"};
    if (!run_cluster(faulted_options, &faulted_wall, &cluster_stats)) {
      all_equal = false;
    }
    faulted_reassigned = cluster_stats.reassigned_coalitions;
    faulted_lost = cluster_stats.workers_lost;
  }
  const double cluster_speedup =
      cluster_runs.back().wall_seconds > 0
          ? cluster_runs.front().wall_seconds / cluster_runs.back().wall_seconds
          : 0.0;

  // (d) Loopback TCP: the same mix through the real listener/connector
  // and registration handshake — once clean (the transport's overhead
  // against the 2-shard socketpair run), once with an injected mid-run
  // partition (the reconnect/recovery path under bench-scale load), and
  // once with the lone worker killed mid-run and a short grace window
  // (degraded mode: the coordinator trains the remainder locally).
  // Values must stay bit-identical in all three.
  double tcp_wall = 0.0;
  ClusterStats tcp_stats;
  {
    LocalClusterOptions tcp_options = base_cluster_options(2);
    tcp_options.transport = ClusterTransport::kTcp;
    if (!run_cluster(tcp_options, &tcp_wall, &tcp_stats)) all_equal = false;
  }
  const double socketpair_wall = cluster_runs[1].wall_seconds;  // 2 workers
  const double tcp_overhead_ratio =
      socketpair_wall > 0 ? tcp_wall / socketpair_wall : 0.0;
  double tcp_partition_wall = 0.0;
  ClusterStats tcp_partition_stats;
  {
    LocalClusterOptions partition_options = base_cluster_options(1);
    partition_options.transport = ClusterTransport::kTcp;
    partition_options.fault_specs = {"partition:nth=3"};
    partition_options.reconnect_base_ms = 25;
    partition_options.reconnect_cap_ms = 400;
    partition_options.dispatcher.rpc_deadline_ms = 2000;
    partition_options.dispatcher.degraded_grace_ms = 10000;  // heal, not
                                                             // degrade
    if (!run_cluster(partition_options, &tcp_partition_wall,
                     &tcp_partition_stats)) {
      all_equal = false;
    }
  }
  double degraded_wall = 0.0;
  ClusterStats degraded_stats;
  {
    LocalClusterOptions degraded_options = base_cluster_options(1);
    degraded_options.fault_specs = {"kill-worker:after=2"};
    degraded_options.dispatcher.heartbeat_timeout_ms = 500;
    degraded_options.dispatcher.degraded_grace_ms = 100;
    if (!run_cluster(degraded_options, &degraded_wall, &degraded_stats)) {
      all_equal = false;
    }
  }
  // The outage pays its grace window once, so the degraded run should
  // cost about what the 1-shard socketpair run does plus one window.
  const double one_shard_wall = cluster_runs[0].wall_seconds;
  const double degraded_overhead_ratio =
      one_shard_wall > 0 ? degraded_wall / one_shard_wall : 0.0;

  const ServiceStats stats = service.stats();
  std::printf("\naggregate:\n");
  std::printf("  trainings, %zu isolated runs:   %zu\n", jobs.size(),
              isolated_trainings);
  std::printf("  trainings, shared service:     %zu (%.2fx dedup)\n",
              stats.trainings_computed,
              stats.trainings_computed > 0
                  ? static_cast<double>(isolated_trainings) /
                        static_cast<double>(stats.trainings_computed)
                  : 0.0);
  std::printf("  per-job fresh sum:             %zu\n", shared_fresh);
  std::printf("  wall, isolated (sequential):   %.3fs\n", isolated_wall);
  std::printf("  wall, shared (%d workers):      %.3fs (%.2fx)\n",
              options.workers, shared_wall,
              shared_wall > 0 ? isolated_wall / shared_wall : 0.0);
  std::printf("  throughput:                    %.1f jobs/s\n",
              shared_wall > 0 ? jobs.size() / shared_wall : 0.0);
  std::printf("  cluster wall by workers:       ");
  for (const ClusterOutcome& outcome : cluster_runs) {
    std::printf("%d->%.3fs  ", outcome.workers, outcome.wall_seconds);
  }
  std::printf("(%.2fx at %d shards)\n", cluster_speedup,
              cluster_runs.back().workers);
  std::printf("  cluster faulted run:           lost=%zu reassigned=%zu\n",
              faulted_lost, faulted_reassigned);
  std::printf("  wall, loopback TCP (2 shards): %.3fs (%.2fx vs socketpair)\n",
              tcp_wall, tcp_overhead_ratio);
  std::printf("  tcp partitioned run:           %.3fs, reconnects=%zu, "
              "recovery=%.3fs\n",
              tcp_partition_wall, tcp_partition_stats.worker_reconnects,
              tcp_partition_stats.recovery_seconds_total);
  std::printf("  degraded run:                  %.3fs (%.2fx vs 1 shard), "
              "%zu coalition(s) trained on the coordinator\n",
              degraded_wall, degraded_overhead_ratio,
              degraded_stats.degraded_evaluations);
  std::printf("  values identical to isolated:  %s\n",
              all_equal ? "yes" : "NO");
  if (!options.store_dir.empty()) {
    std::printf("  store entries/segments/bytes:  %zu / %zu / %llu\n",
                stats.store_entries, stats.store_segments,
                static_cast<unsigned long long>(stats.store_bytes));
  }

  bench::BenchJson json("service_throughput");
  json.Add("aggregate")
      .Label("scenario", options.scenario)
      .Metric("jobs", static_cast<double>(jobs.size()))
      .Metric("workers", options.workers)
      .Metric("trainings_isolated", static_cast<double>(isolated_trainings))
      .Metric("trainings_shared",
              static_cast<double>(stats.trainings_computed))
      .Metric("dedup_factor",
              stats.trainings_computed > 0
                  ? static_cast<double>(isolated_trainings) /
                        static_cast<double>(stats.trainings_computed)
                  : 0.0)
      .Metric("wall_isolated_seconds", isolated_wall)
      .Metric("wall_shared_seconds", shared_wall)
      .Metric("shared_speedup",
              shared_wall > 0 ? isolated_wall / shared_wall : 0.0)
      .Metric("jobs_per_second",
              shared_wall > 0 ? jobs.size() / shared_wall : 0.0)
      .Metric("values_identical", all_equal ? 1.0 : 0.0);
  bench::BenchJson::Record& cluster_entry = json.Add("cluster");
  cluster_entry.Label("scenario", options.scenario);
  for (const ClusterOutcome& outcome : cluster_runs) {
    cluster_entry.Metric(
        "wall_workers_" + std::to_string(outcome.workers) + "_seconds",
        outcome.wall_seconds);
  }
  cluster_entry
      .Metric("cluster_speedup", cluster_speedup)
      .Metric("reassigned_coalitions", static_cast<double>(faulted_reassigned))
      .Metric("workers_lost", static_cast<double>(faulted_lost));
  json.Add("tcp")
      .Label("scenario", options.scenario)
      .Metric("wall_tcp_seconds", tcp_wall)
      .Metric("tcp_overhead_ratio", tcp_overhead_ratio)
      .Metric("reconnects",
              static_cast<double>(tcp_partition_stats.worker_reconnects))
      .Metric("partition_recovery_seconds",
              tcp_partition_stats.recovery_seconds_total)
      .Metric("degraded_coalitions",
              static_cast<double>(degraded_stats.degraded_evaluations))
      .Metric("degraded_wall_seconds", degraded_wall)
      .Metric("degraded_overhead_ratio", degraded_overhead_ratio);
  json.Add("store")
      .Label("scenario", options.scenario)
      .Label("persistent", options.store_dir.empty() ? "no" : "yes")
      .Metric("entries", static_cast<double>(stats.store_entries))
      .Metric("segments", static_cast<double>(stats.store_segments))
      .Metric("bytes", static_cast<double>(stats.store_bytes))
      .Metric("current_rss_bytes",
              static_cast<double>(bench::CurrentRssBytes()));
  if (Status written = json.WriteTo(options.json); !written.ok()) {
    std::fprintf(stderr, "bench JSON write failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  if (!options.json.empty()) {
    std::printf("[json] wrote %s\n", options.json.c_str());
  }
  return all_equal ? 0 : 1;
}
