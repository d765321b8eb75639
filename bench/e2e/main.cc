/// fedshap_e2e: the fedshapd end-to-end benchmark driver.
///
///   fedshap_e2e --workload=<name> --seed=<u64> [--seconds=<s>]
///               [--json=<path>] [--trace=<spans.json>] [--scratch=<dir>]
///   fedshap_e2e --self-test
///   fedshap_e2e --metrics       (the end-to-end metric table, as JSON)
///
/// One workload per process, so peak RSS is the workload's own. A closed
/// loop of 2 client threads (Submit, Wait, next job) drives one
/// ValuationService with 2 workers for --seconds (and at least 100 jobs).
/// Every job must finish; every 10th is re-run afterwards in a fresh
/// single-worker in-memory service and must give bit-identical values.
/// With --trace the same jobs are replayed through the layers' public
/// functions with spans recorded, and the per-layer metrics are reported.
/// Exit code: 0 when every check passed, 1 when one failed, 2 on bad
/// usage. README.md in this directory defines every metric.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "e2e.h"
#include "ml/kernel_backend.h"
#include "util/logging.h"
#include "util/stopwatch.h"

using namespace fedshap;
using namespace fedshap::e2e;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kClients = 2;
constexpr int kServiceWorkers = 2;
/// Jobs every window runs at least, so p90 has ten samples beyond it.
constexpr size_t kMinJobs = 100;
/// Set-up is timed this many times per run and reported as the median.
constexpr int kSetupRepetitions = 9;
constexpr size_t kVerifyEvery = 10;
/// Finished jobs the clients leave in the service's table; older ones are
/// purged so memory tracks the caches, not how many jobs a run finished.
constexpr size_t kRetainedJobs = 256;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string json;
  std::string trace;
  std::string scratch = "fedshap_e2e_scratch";
  bool self_test = false;
  bool list_metrics = false;
};

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* flag) -> const char* {
      const size_t length = std::char_traits<char>::length(flag);
      return arg.compare(0, length, flag) == 0 ? argv[i] + length : nullptr;
    };
    if (const char* v = value_of("--workload=")) {
      options->workload = v;
    } else if (const char* v = value_of("--seed=")) {
      char* end = nullptr;
      options->seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
    } else if (const char* v = value_of("--seconds=")) {
      char* end = nullptr;
      options->seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(options->seconds > 0)) return false;
    } else if (const char* v = value_of("--json=")) {
      options->json = v;
    } else if (const char* v = value_of("--trace=")) {
      options->trace = v;
    } else if (const char* v = value_of("--scratch=")) {
      options->scratch = v;
    } else if (arg == "--self-test") {
      options->self_test = true;
    } else if (arg == "--metrics") {
      options->list_metrics = true;
    } else {
      return false;
    }
  }
  return options->self_test || options->list_metrics ||
         !options->workload.empty();
}

/// A running service and, on cluster workloads, the LocalCluster its
/// cache misses go to. The service goes first: its workers may be inside
/// a ClusterUtility call until they are joined.
struct Stack {
  std::unique_ptr<LocalCluster> cluster;
  std::unique_ptr<ValuationService> service;

  Stack() = default;
  ~Stack() {
    service.reset();
    if (cluster != nullptr) cluster->Shutdown();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
};

/// What a user pays before the first Submit: LocalCluster::Start with
/// worker registration, service construction, and Recover().
Status StartStack(const Workload& workload, const std::string& state_dir,
                  Stack* stack, double* cluster_ms, double* recover_ms) {
  Stopwatch timer;
  if (workload.cluster) {
    FEDSHAP_ASSIGN_OR_RETURN(stack->cluster,
                             LocalCluster::Start(workload.cluster_options));
  }
  *cluster_ms = timer.ElapsedSeconds() * 1e3;
  ServiceConfig config;
  config.workers = kServiceWorkers;
  config.state_dir = state_dir;
  if (stack->cluster != nullptr) config.cluster = stack->cluster->dispatcher();
  stack->service = std::make_unique<ValuationService>(config);
  timer.Restart();
  FEDSHAP_RETURN_NOT_OK(stack->service->Recover());
  *recover_ms = timer.ElapsedSeconds() * 1e3;
  return Status::OK();
}

/// Fills the durable workload's stores: runs the prepared pool to
/// completion in a service over `state_dir`, untimed.
Status Prepare(const Workload& workload, const std::string& state_dir) {
  ServiceConfig config;
  config.workers = kServiceWorkers;
  config.state_dir = state_dir;
  ValuationService service(config);
  for (const JobSpec& spec : workload.prepared) {
    FEDSHAP_RETURN_NOT_OK(service.Submit(spec));
  }
  for (const JobSpec& spec : workload.prepared) {
    FEDSHAP_RETURN_NOT_OK(service.Wait(spec.name).status());
  }
  return Status::OK();
}

/// The timed window: kClients threads, each submitting its next job only
/// after the previous one finished. Once the window has passed, no job
/// past a round boundary (and kMinJobs) is started, so the jobs run are
/// always a prefix [0, N) of the seeded list made of whole rounds. Peak
/// RSS is read once the first max(kMinJobs, round_jobs) jobs finished, a
/// fixed amount of work, so a faster commit that fits more rounds into
/// the window is not charged for the federations they add.
void RunClosedLoop(ValuationService& service, const Workload& workload,
                   uint64_t seed, double seconds, RunRecord* run,
                   double* peak_rss_mb, std::vector<std::string>* problems) {
  std::mutex mutex;
  std::vector<JobOutcome>& outcomes = run->jobs;  // Guarded by mutex.
  std::deque<std::string> retained;               // Guarded by mutex.
  Clock::time_point last_end;                     // Guarded by mutex.
  size_t next = 0;                                // Guarded by mutex.
  bool closed = false;                            // Guarded by mutex.
  const size_t rss_after = std::max(kMinJobs, workload.round_jobs);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto take = [&](size_t* index) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!closed && next >= kMinJobs &&
        next % workload.round_jobs == 0 && Clock::now() >= deadline) {
      closed = true;
    }
    if (closed) return false;
    *index = next++;
    return true;
  };

  auto client = [&] {
    size_t index = 0;
    while (take(&index)) {
      const JobSpec spec = MakeJob(workload, seed, index);
      JobOutcome outcome;
      outcome.index = index;
      std::string error;
      const Clock::time_point submitted_at = Clock::now();
      Status submitted = service.Submit(spec);
      if (submitted.ok()) {
        Result<ValuationResult> result = service.Wait(spec.name);
        if (result.ok()) {
          outcome.ok = true;
          outcome.fresh_trainings = result->num_fresh_trainings;
          outcome.evaluations = result->num_evaluations;
          outcome.values_hash = HashValues(result->values);
        } else {
          error = result.status().ToString();
        }
      } else {
        error = submitted.ToString();
      }
      const Clock::time_point finished_at = Clock::now();
      outcome.latency_s =
          std::chrono::duration<double>(finished_at - submitted_at).count();
      outcome.finished_s =
          std::chrono::duration<double>(finished_at - start).count();
      std::string purge;
      {
        std::lock_guard<std::mutex> lock(mutex);
        last_end = std::max(last_end, finished_at);
        if (!error.empty()) {
          problems->push_back("job " + spec.name + ": " + error);
        }
        if (submitted.ok()) retained.push_back(spec.name);
        outcomes.push_back(outcome);
        if (outcomes.size() == rss_after) *peak_rss_mb = PeakRssMiB();
        if (retained.size() > kRetainedJobs) {
          purge = retained.front();
          retained.pop_front();
        }
      }
      if (!purge.empty()) service.Purge(purge);
    }
  };
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) clients.emplace_back(client);
  for (std::thread& thread : clients) thread.join();

  run->window_s = std::chrono::duration<double>(last_end - start).count();
  std::sort(outcomes.begin(), outcomes.end(),
            [](const JobOutcome& a, const JobOutcome& b) {
              return a.index < b.index;
            });
}

/// Re-runs every kVerifyEvery-th job, one at a time, in a fresh
/// single-worker in-memory service; returns how many gave values that
/// differ from the timed run.
size_t VerifySample(const Workload& workload, uint64_t seed,
                    const std::vector<JobOutcome>& jobs,
                    std::vector<std::string>* problems) {
  ServiceConfig config;
  config.workers = 1;
  ValuationService service(config);
  size_t mismatched = 0;
  for (const JobOutcome& job : jobs) {
    if (job.index % kVerifyEvery != 0 || !job.ok) continue;
    const JobSpec spec = MakeJob(workload, seed, job.index);
    Status submitted = service.Submit(spec);
    Result<ValuationResult> rerun = submitted.ok()
                                        ? service.Wait(spec.name)
                                        : Result<ValuationResult>(submitted);
    service.Purge(spec.name);
    if (!rerun.ok() || HashValues(rerun->values) != job.values_hash) {
      ++mismatched;
      problems->push_back("job " + spec.name +
                          ": re-run values differ from the timed run");
    }
  }
  return mismatched;
}

double Median(std::vector<double> values) { return Percentile(values, 5000); }

/// Throughputs of a run, each the median over blocks of consecutive
/// completions of its per-block rate: a burst of host noise that slows one
/// block does not move the result. Blocks are whole rounds, about
/// kRateBlocks of them when rounds are short.
struct Rates {
  double jobs = 0;
  double trainings = 0;
  double evaluations = 0;
};
constexpr size_t kRateBlocks = 20;

Rates MedianBlockRates(std::vector<JobOutcome> jobs, size_t round) {
  std::sort(jobs.begin(), jobs.end(),
            [](const JobOutcome& a, const JobOutcome& b) {
              return a.finished_s < b.finished_s;
            });
  const size_t block =
      round * std::max<size_t>(1, jobs.size() / (kRateBlocks * round));
  std::vector<double> job_rates, training_rates, evaluation_rates;
  double block_start = 0;
  for (size_t first = 0; first + block <= jobs.size(); first += block) {
    double trainings = 0, evaluations = 0;
    for (size_t i = first; i < first + block; ++i) {
      trainings += jobs[i].fresh_trainings;
      evaluations += jobs[i].evaluations;
    }
    const double end = jobs[first + block - 1].finished_s;
    const double seconds = end - block_start;
    block_start = end;
    job_rates.push_back(block / seconds);
    training_rates.push_back(trainings / seconds);
    evaluation_rates.push_back(evaluations / seconds);
  }
  return {Median(job_rates), Median(training_rates), Median(evaluation_rates)};
}

const Metric* FindMetric(const MetricList& metrics, const std::string& name) {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

void AppendMetricsJson(std::string* out, const MetricList& metrics) {
  *out += "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    *out += (i == 0 ? "\n    \"" : ",\n    \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  *out += "\n  }";
}

Status WriteJson(const std::string& path, const Options& options,
                 size_t attempted, size_t failed,
                 const std::vector<std::string>& problems,
                 const MetricList& end_to_end,
                 const MetricList& per_layer) {
  std::string out = "{\n  \"workload\": \"" + options.workload +
                    "\",\n  \"seed\": " + std::to_string(options.seed) +
                    ",\n  \"attempted\": " + std::to_string(attempted) +
                    ",\n  \"failed\": " + std::to_string(failed) +
                    ",\n  \"correct\": " +
                    (problems.empty() ? "true" : "false") +
                    ",\n  \"problems\": [";
  for (size_t i = 0; i < problems.size(); ++i) {
    std::string escaped;
    for (char c : problems[i]) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    out += (i == 0 ? "\"" : ", \"") + escaped + "\"";
  }
  out += "],\n  \"end_to_end\": ";
  AppendMetricsJson(&out, end_to_end);
  out += ",\n  \"per_layer\": ";
  AppendMetricsJson(&out, per_layer);
  out += "\n}\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::Internal("cannot write " + path);
  const bool written = std::fwrite(out.data(), 1, out.size(), file) ==
                       out.size();
  return std::fclose(file) == 0 && written
             ? Status::OK()
             : Status::Internal("cannot write " + path);
}

void PrintMetricTable() {
  std::printf("[");
  const std::vector<MetricDef>& metrics = EndToEndMetrics();
  for (size_t i = 0; i < metrics.size(); ++i) {
    const MetricDef& def = metrics[i];
    std::printf("%s\n  {\"name\": \"%s\", \"unit\": \"%s\", "
                "\"better\": \"%s\", \"bound\": %g, \"floor\": %g}",
                i == 0 ? "" : ",", def.name, def.unit,
                def.lower_is_better ? "lower" : "higher", def.bound, def.floor);
  }
  std::printf("\n]\n");
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "fedshap_e2e: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: fedshap_e2e --workload=<name> --seed=<u64> "
                 "[--seconds=<s>] [--json=<path>] [--trace=<spans.json>] "
                 "[--scratch=<dir>]\n       fedshap_e2e --self-test | "
                 "--metrics\n");
    return 2;
  }
  if (options.self_test) return RunSelfTest();
  if (options.list_metrics) {
    PrintMetricTable();
    return 0;
  }
  SetLogLevel(LogLevel::kWarning);

  Result<Workload> made = MakeWorkload(options.workload, options.seed);
  if (!made.ok()) return Fail(made.status().ToString());
  const Workload& workload = *made;
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(options.scratch, ec);
  fs::create_directories(options.scratch, ec);
  if (ec) return Fail("cannot create scratch directory " + options.scratch);
  const std::string state_dir =
      workload.durable ? options.scratch + "/service" : "";
  const std::string prepared_store = options.scratch + "/prepared-store";
  std::printf("fedshap_e2e %s seed=%llu seconds=%.1f clients=%d workers=%d\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              kClients, kServiceWorkers);
  std::printf("%s\n", KernelProvenanceString().c_str());

  if (workload.durable) {
    Status prepared = Prepare(workload, state_dir);
    if (!prepared.ok()) return Fail("prepare: " + prepared.ToString());
    if (!options.trace.empty()) {
      fs::copy(state_dir + "/store", prepared_store,
               fs::copy_options::recursive, ec);
      if (ec) return Fail("cannot copy the prepared store: " + ec.message());
    }
  }

  // Set-up: timed kSetupRepetitions times, the last stack serves the run.
  RunRecord run;
  std::vector<double> setup_s, cluster_ms, recover_ms;
  auto stack = std::make_unique<Stack>();
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    if (rep > 0) stack = std::make_unique<Stack>();
    double cluster = 0, recover = 0;
    Stopwatch timer;
    Status started = StartStack(workload, state_dir, stack.get(), &cluster,
                                &recover);
    setup_s.push_back(timer.ElapsedSeconds());
    if (!started.ok()) return Fail("set-up: " + started.ToString());
    cluster_ms.push_back(cluster);
    recover_ms.push_back(recover);
  }
  run.setup_cluster_start_ms = Median(cluster_ms);
  run.setup_recover_ms = Median(recover_ms);

  std::vector<std::string> problems;
  double peak_rss_mb = 0;
  RunClosedLoop(*stack->service, workload, options.seed, options.seconds,
                &run, &peak_rss_mb, &problems);
  run.service = stack->service->stats();
  if (stack->cluster != nullptr) {
    run.cluster = stack->cluster->dispatcher()->stats();
  }
  stack.reset();

  // Correctness and validity gate.
  size_t failed = 0;
  std::vector<double> latencies;
  for (const JobOutcome& job : run.jobs) {
    latencies.push_back(job.latency_s);
    if (!job.ok) {
      ++failed;
      continue;
    }
    if (job.fresh_trainings != 0 && workload.durable &&
        IsStoredRerun(MakeJob(workload, options.seed, job.index))) {
      ++failed;
      problems.push_back("job " + std::to_string(job.index) +
                         " re-ran stored trainings but trained " +
                         std::to_string(job.fresh_trainings));
    }
  }
  failed += VerifySample(workload, options.seed, run.jobs, &problems);
  if (workload.name == "cluster-outage" &&
      !(run.cluster.workers_lost == 1 &&
        run.cluster.degraded_evaluations > 0)) {
    ++failed;
    problems.push_back("cluster-outage: expected 1 lost worker and degraded "
                       "evaluations, saw " +
                       std::to_string(run.cluster.workers_lost) + " and " +
                       std::to_string(run.cluster.degraded_evaluations));
  }
  if (workload.name == "cluster-tcp" && run.cluster.degraded_evaluations != 0) {
    ++failed;
    problems.push_back("cluster-tcp: " +
                       std::to_string(run.cluster.degraded_evaluations) +
                       " degraded evaluations on a healthy cluster");
  }

  const size_t jobs = run.jobs.size();
  const Rates rates = MedianBlockRates(run.jobs, workload.round_jobs);
  const std::map<std::string, double> measured = {
      {"setup_s", Median(setup_s)},
      {"jobs_per_s", rates.jobs},
      {"job_p50_s", Percentile(latencies, 5000)},
      {"job_p90_s", Percentile(latencies, 9000)},
      {"trainings_per_s", rates.trainings},
      {"evals_per_s", rates.evaluations},
      {"peak_rss_mb", peak_rss_mb},
  };
  MetricList end_to_end;
  for (const MetricDef& def : EndToEndMetrics()) {
    end_to_end.push_back({def.name, def.unit, measured.at(def.name)});
  }
  const double fail_ratio = jobs > 0 ? static_cast<double>(failed) / jobs : 1;

  MetricList per_layer;
  if (!options.trace.empty()) {
    Result<MetricList> replayed =
        ReplayTraced(workload, options.seed, run, options.scratch,
                     prepared_store, options.trace);
    if (!replayed.ok()) return Fail("replay: " + replayed.status().ToString());
    per_layer = std::move(replayed).value();
    auto value_of = [&](const char* name) {
      const Metric* metric = FindMetric(per_layer, name);
      return metric != nullptr ? metric->value : -1.0;
    };
    if (value_of("trace.values_match") != 1.0) {
      problems.push_back("trace: replayed values differ from the service's");
    }
    if (value_of("trace.unattributed_share") > 0.05) {
      problems.push_back("trace: more than 5% of job time unattributed");
    }
    const double evaluate_share = value_of("fl.evaluate.share");
    if (workload.name == "train-heavy" && evaluate_share < 0.90) {
      problems.push_back("trace: train-heavy fl.evaluate.share below 0.90");
    }
    if (workload.name == "shared-tenants" && evaluate_share > 0.35) {
      problems.push_back("trace: shared-tenants fl.evaluate.share above 0.35");
    }
  }
  fs::remove_all(options.scratch, ec);

  std::printf("\n%-18s %14s  %s\n", "metric", "value", "unit");
  for (const Metric& metric : end_to_end) {
    std::printf("%-18s %14.6g  %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const int highest = HighestResolvedPercentile(latencies.size());
  std::printf("job latency samples: %zu (p50 has %zu beyond, p90 %zu; "
              "highest resolved: %s = %.6g s)\n",
              latencies.size(), SamplesBeyond(latencies.size(), 5000),
              SamplesBeyond(latencies.size(), 9000),
              PercentileLabel(highest).c_str(),
              Percentile(latencies, highest));
  std::printf("job_fail_ratio     %14.6g  (%zu of %zu)\n", fail_ratio, failed,
              jobs);
  if (!per_layer.empty()) {
    std::printf("\n%-30s %14s  %s\n", "per-layer metric", "value", "unit");
    for (const Metric& metric : per_layer) {
      std::printf("%-30s %14.6g  %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  for (const std::string& problem : problems) {
    std::printf("FAIL %s\n", problem.c_str());
  }

  if (!options.json.empty()) {
    Status written = WriteJson(options.json, options, jobs, failed, problems,
                               end_to_end, per_layer);
    if (!written.ok()) return Fail(written.ToString());
  }
  return problems.empty() ? 0 : 1;
}
