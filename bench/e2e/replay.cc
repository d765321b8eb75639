#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "e2e.h"
#include "fl/fedavg.h"
#include "fl/utility_store.h"
#include "service/cluster.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace fedshap::e2e {

namespace {

/// Coalitions timed by the layer micro-measurements (fl.train/fl.score,
/// cluster overhead) and records replayed into the store measurement.
constexpr size_t kSampledCoalitions = 64;
constexpr size_t kSampledRecords = 256;
/// The replay covers the run's first whole rounds up to this many jobs
/// (at least one round): enough for stable per-layer shares without
/// holding millions of spans.
constexpr size_t kMaxReplayJobs = 20000;

/// One evaluation below a federation's cache, as the replay saw it.
struct SampledEvaluation {
  Coalition coalition;
  double ms = 0;
  double utility = 0;
};

/// The first kSampledCoalitions evaluations of one federation.
struct EvaluationSample {
  std::mutex mutex;
  std::vector<SampledEvaluation> taken;  // Guarded by mutex.
};

/// Forwards every call to the wrapped utility inside a span of `layer`:
/// fl.evaluate over a locally built utility, cluster.evaluate over a
/// ClusterUtility. Records the first evaluations into `sample` when it
/// is not null.
class TracedUtility final : public UtilityFunction {
 public:
  TracedUtility(const UtilityFunction* inner, Layer layer,
                EvaluationSample* sample)
      : inner_(inner), layer_(layer), sample_(sample) {}

  int num_clients() const override { return inner_->num_clients(); }
  uint64_t Fingerprint() const override { return inner_->Fingerprint(); }

  Result<double> Evaluate(const Coalition& coalition) const override {
    Stopwatch timer;
    Result<double> value = [&] {
      ScopedSpan span(layer_);
      return inner_->Evaluate(coalition);
    }();
    if (sample_ != nullptr && value.ok()) {
      std::lock_guard<std::mutex> lock(sample_->mutex);
      if (sample_->taken.size() < kSampledCoalitions) {
        sample_->taken.push_back(
            {coalition, timer.ElapsedSeconds() * 1e3, *value});
      }
    }
    return value;
  }

  Result<std::vector<double>> EvaluateBatchFused(
      const std::vector<Coalition>& coalitions) const override {
    ScopedSpan span(layer_);
    return inner_->EvaluateBatchFused(coalitions);
  }

 private:
  const UtilityFunction* inner_;
  Layer layer_;
  EvaluationSample* sample_;
};

/// One federation of the replay: what ValuationService keeps per
/// workload, with the traced decorator under the cache.
struct Federation {
  ScenarioSpec scenario;
  EvaluationSample sample;
  std::unique_ptr<UtilityFunction> utility;
  /// Cluster workloads: the local build traced as the degraded fallback,
  /// and the ClusterUtility over it.
  std::unique_ptr<TracedUtility> fallback;
  std::unique_ptr<UtilityFunction> remote;
  std::unique_ptr<TracedUtility> traced;
  std::unique_ptr<UtilityCache> cache;
  std::unique_ptr<UtilityStore> store;  ///< Durable workloads only.
};

/// Runs jobs the way ValuationService::RunSlice does, without the
/// service: per-federation cache (and store), per-job session, sweep
/// slices with a checkpoint after each when durable, or a one-shot run.
class Replayer {
 public:
  Replayer(ClusterDispatcher* dispatcher, std::string store_stem,
           std::string snapshot_dir)
      : dispatcher_(dispatcher),
        store_stem_(std::move(store_stem)),
        snapshot_dir_(std::move(snapshot_dir)) {}

  /// Every step of a job runs inside some layer's span, including the
  /// session's and the estimator's construction and destruction, so what
  /// the job span itself keeps is only the tracing's own bookkeeping.
  Result<ValuationResult> RunJob(const JobSpec& spec) {
    // RunSlice holds one compute slot per slice; so does the replay.
    WorkerBudget::Lease compute_slot(WorkerBudget::Global(), 1);
    Federation* federation = nullptr;
    {
      ScopedSpan span(Layer::kLookup);
      FEDSHAP_ASSIGN_OR_RETURN(federation, GetOrBuild(spec.scenario));
    }
    if (!IsResumable(spec.estimator)) {
      ScopedSpan span(Layer::kOneShot);
      UtilitySession session(federation->cache.get());
      session.set_fused(spec.fuse);
      return RunOneShot(spec, session);
    }
    std::unique_ptr<UtilitySession> session;
    std::unique_ptr<ResumableEstimator> sweep;
    {
      ScopedSpan span(Layer::kPlan);
      session = std::make_unique<UtilitySession>(federation->cache.get());
      session->set_fused(spec.fuse);
      FEDSHAP_ASSIGN_OR_RETURN(
          sweep, MakeSweep(spec, federation->utility->num_clients()));
    }
    const std::string snapshot =
        snapshot_dir_.empty() ? "" : snapshot_dir_ + "/" + spec.name + ".snap";
    do {
      {
        ScopedSpan span(Layer::kStep);
        FEDSHAP_RETURN_NOT_OK(sweep->Step(*session, spec.checkpoint_every));
      }
      if (!snapshot.empty()) {
        ScopedSpan span(Layer::kCheckpoint);
        FEDSHAP_RETURN_NOT_OK(SaveSnapshot(*sweep, snapshot));
      }
    } while (!sweep->done());
    ScopedSpan span(Layer::kFinish);
    Result<ValuationResult> result = sweep->Finish(*session);
    sweep.reset();
    session.reset();
    if (!snapshot.empty()) {
      std::error_code ec;
      std::filesystem::remove(snapshot, ec);
    }
    return result;
  }

  /// Federations in key order; call after every job has finished.
  std::vector<Federation*> federations() {
    std::vector<Federation*> all;
    for (auto& [key, federation] : federations_) {
      all.push_back(federation.get());
    }
    return all;
  }

  /// Like ValuationService::GetOrBuildWorkload: build unlocked, keep the
  /// first racer's context. The store is opened under the lock so two
  /// racers never open one store directory.
  Result<Federation*> GetOrBuild(const ScenarioSpec& scenario) {
    const std::string key = scenario.CanonicalKey();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = federations_.find(key);
      if (it != federations_.end()) return it->second.get();
    }
    auto federation = std::make_unique<Federation>();
    federation->scenario = scenario;
    {
      ScopedSpan span(Layer::kBuild);
      FEDSHAP_ASSIGN_OR_RETURN(federation->utility, scenario.Build());
    }
    const uint64_t fingerprint = federation->utility->Fingerprint();
    if (dispatcher_ != nullptr) {
      dispatcher_->RegisterWorkload(key, scenario, fingerprint);
      federation->fallback = std::make_unique<TracedUtility>(
          federation->utility.get(), Layer::kEvaluate, nullptr);
      federation->remote = std::make_unique<ClusterUtility>(
          dispatcher_, key, federation->fallback.get());
      federation->traced = std::make_unique<TracedUtility>(
          federation->remote.get(), Layer::kClusterEvaluate,
          &federation->sample);
    } else {
      federation->traced = std::make_unique<TracedUtility>(
          federation->utility.get(), Layer::kEvaluate, &federation->sample);
    }
    federation->cache =
        std::make_unique<UtilityCache>(federation->traced.get());

    std::lock_guard<std::mutex> lock(mutex_);
    auto it = federations_.find(key);
    if (it != federations_.end()) return it->second.get();
    if (!store_stem_.empty()) {
      ScopedSpan span(Layer::kStoreOpen);
      FEDSHAP_ASSIGN_OR_RETURN(
          federation->store,
          UtilityStore::Open(UtilityStore::StemPath(store_stem_, fingerprint),
                             fingerprint));
      federation->cache->AttachStore(federation->store.get(),
                                     /*flush_bytes=*/1);
    }
    Federation* raw = federation.get();
    federations_.emplace(key, std::move(federation));
    return raw;
  }

 private:
  ClusterDispatcher* dispatcher_;
  const std::string store_stem_;
  const std::string snapshot_dir_;
  std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Federation>> federations_;  // Guarded.
};


/// fl.train_ms / fl.score_ms: TrainFedAvg and EvaluateParameters timed on
/// kSampledCoalitions random non-empty coalitions of `utility`.
void TimeTrainAndScore(const FedAvgUtility& utility, uint64_t seed,
                       std::vector<double>* train_ms,
                       std::vector<double>* score_ms) {
  Rng rng(seed);
  const int n = utility.num_clients();
  for (size_t i = 0; i < kSampledCoalitions; ++i) {
    std::vector<const FlClient*> members;
    for (int client = 0; client < n; ++client) {
      if (rng.Bernoulli(0.5)) members.push_back(&utility.client(client));
    }
    if (members.empty()) members.push_back(&utility.client(i % n));
    Stopwatch timer;
    Result<std::unique_ptr<Model>> model =
        TrainFedAvg(utility.prototype(), members, utility.config());
    train_ms->push_back(timer.ElapsedSeconds() * 1e3);
    if (!model.ok()) continue;
    const std::vector<float> params = (*model)->GetParameters();
    timer.Restart();
    Result<double> score = utility.EvaluateParameters(params);
    (void)score;
    score_ms->push_back(timer.ElapsedSeconds() * 1e3);
  }
}

using Records = std::vector<std::pair<Coalition, UtilityRecord>>;

/// The fl.store.* metrics: up to kSampledRecords of `records` appended
/// one Put+Flush at a time to a fresh store at `path`, which is then
/// reopened and probed with Lookup.
Status TimeStore(Records records, const std::string& path,
                 MetricList* out) {
  if (records.size() > kSampledRecords) {
    Records spaced;
    for (size_t i = 0; i < kSampledRecords; ++i) {
      spaced.push_back(records[i * records.size() / kSampledRecords]);
    }
    records = std::move(spaced);
  }
  constexpr uint64_t kFingerprint = 0xe2e;
  std::vector<double> append_ms, lookup_us;
  double bytes = 0;
  {
    FEDSHAP_ASSIGN_OR_RETURN(std::unique_ptr<UtilityStore> store,
                             UtilityStore::Open(path, kFingerprint));
    for (const auto& [coalition, record] : records) {
      Stopwatch timer;
      store->Put(coalition, record);
      FEDSHAP_RETURN_NOT_OK(store->Flush());
      append_ms.push_back(timer.ElapsedSeconds() * 1e3);
    }
    const UtilityStoreStats stats = store->stats();
    bytes = static_cast<double>(stats.sealed_bytes + stats.active_bytes);
  }
  Stopwatch open_timer;
  FEDSHAP_ASSIGN_OR_RETURN(std::unique_ptr<UtilityStore> reopened,
                           UtilityStore::Open(path, kFingerprint));
  const double open_ms = open_timer.ElapsedSeconds() * 1e3;
  for (const auto& [coalition, record] : records) {
    UtilityRecord found;
    Stopwatch timer;
    const bool hit = reopened->Lookup(coalition, &found);
    lookup_us.push_back(timer.ElapsedSeconds() * 1e6);
    if (!hit) return Status::Internal("store lost a replayed record");
  }
  out->push_back({"fl.store.append_ms.p50", "ms", Percentile(append_ms, 5000)});
  out->push_back({"fl.store.append_ms.p90", "ms", Percentile(append_ms, 9000)});
  out->push_back({"fl.store.lookup_us.p50", "us", Percentile(lookup_us, 5000)});
  out->push_back({"fl.store.open_ms", "ms", open_ms});
  out->push_back({"fl.store.bytes", "bytes", bytes});
  return Status::OK();
}

/// service.checkpoint_ms on workloads that do not checkpoint: the sweeps
/// of the first kSampledCoalitions resumable jobs, after one slice (all
/// cache hits by now), saved with SaveSnapshot to `path`.
Result<std::vector<double>> TimeCheckpoints(Replayer& replayer,
                                            const Workload& workload,
                                            uint64_t seed, size_t jobs,
                                            const std::string& path) {
  std::vector<double> checkpoint_ms;
  for (size_t index = 0;
       index < jobs && checkpoint_ms.size() < kSampledCoalitions; ++index) {
    const JobSpec spec = MakeJob(workload, seed, index);
    if (!IsResumable(spec.estimator)) continue;
    FEDSHAP_ASSIGN_OR_RETURN(Federation * federation,
                             replayer.GetOrBuild(spec.scenario));
    UtilitySession session(federation->cache.get());
    FEDSHAP_ASSIGN_OR_RETURN(
        std::unique_ptr<ResumableEstimator> sweep,
        MakeSweep(spec, federation->utility->num_clients()));
    FEDSHAP_RETURN_NOT_OK(sweep->Step(session, spec.checkpoint_every));
    Stopwatch timer;
    FEDSHAP_RETURN_NOT_OK(SaveSnapshot(*sweep, path));
    checkpoint_ms.push_back(timer.ElapsedSeconds() * 1e3);
  }
  return checkpoint_ms;
}

/// cluster.evaluate_ms on workloads without a cluster: the sampled
/// coalitions of `federation` sent through a fresh one-worker cluster.
Result<std::vector<double>> TimeThroughCluster(const Federation& federation) {
  LocalClusterOptions options;
  options.num_workers = 1;
  FEDSHAP_ASSIGN_OR_RETURN(std::unique_ptr<LocalCluster> cluster,
                           LocalCluster::Start(options));
  const std::string key = federation.scenario.CanonicalKey();
  cluster->dispatcher()->RegisterWorkload(key, federation.scenario,
                                          federation.utility->Fingerprint());
  ClusterUtility remote(cluster->dispatcher(), key, federation.utility.get());
  std::vector<double> remote_ms;
  for (const SampledEvaluation& evaluation : federation.sample.taken) {
    Stopwatch timer;
    FEDSHAP_RETURN_NOT_OK(remote.Evaluate(evaluation.coalition).status());
    remote_ms.push_back(timer.ElapsedSeconds() * 1e3);
  }
  cluster->Shutdown();
  return remote_ms;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

}  // namespace

Result<MetricList> ReplayTraced(const Workload& workload, uint64_t seed,
                                const RunRecord& run,
                                const std::string& scratch,
                                const std::string& prepared_store,
                                const std::string& spans_path) {
  std::unique_ptr<LocalCluster> cluster;
  if (workload.cluster) {
    FEDSHAP_ASSIGN_OR_RETURN(cluster,
                             LocalCluster::Start(workload.cluster_options));
  }
  const std::string snapshot_dir = scratch + "/replay-jobs";
  std::error_code ec;
  std::filesystem::create_directories(snapshot_dir, ec);
  if (ec) return Status::Internal("cannot create " + snapshot_dir);
  Replayer replayer(cluster != nullptr ? cluster->dispatcher() : nullptr,
                    workload.durable ? prepared_store + "/utilities" : "",
                    workload.durable ? snapshot_dir : "");

  // The same jobs, in the same index order, through two client threads.
  const size_t round = workload.round_jobs;
  const size_t replayed = std::min(
      run.jobs.size(), std::max(round, kMaxReplayJobs / round * round));
  std::atomic<size_t> next{0};
  std::atomic<size_t> mismatched{0};
  Stopwatch wall;
  auto client = [&] {
    ScopedSpan client_span(Layer::kClient);
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= replayed) break;
      const JobOutcome& job = run.jobs[i];
      const JobSpec spec = MakeJob(workload, seed, job.index);
      SetCurrentJob(job.index + 1);
      Result<ValuationResult> result = [&] {
        ScopedSpan job_span(Layer::kJob);
        return replayer.RunJob(spec);
      }();
      if (!result.ok() || !job.ok ||
          HashValues(result->values) != job.values_hash) {
        mismatched.fetch_add(1);
      }
    }
    SetCurrentJob(0);
  };
  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i) clients.emplace_back(client);
  for (std::thread& thread : clients) thread.join();
  const double replay_wall = wall.ElapsedSeconds();

  const std::vector<Span> spans = CollectSpans();
  if (!spans_path.empty()) FEDSHAP_RETURN_NOT_OK(WriteSpans(spans, spans_path));
  const LayerTimes times = SummarizeSpans(spans);
  auto self = [&](Layer layer) {
    return times.self_s[static_cast<int>(layer)];
  };
  auto busy = [&](Layer layer) {
    return times.busy_s[static_cast<int>(layer)];
  };
  auto durations = [&](Layer layer) {
    return times.duration_ms[static_cast<int>(layer)];
  };
  // Shares are of the summed job time: what the load generator does
  // between jobs is outside every layer and outside the denominator.
  const double job_wall = busy(Layer::kJob);
  const double core_self = self(Layer::kPlan) + self(Layer::kStep) +
                           self(Layer::kFinish) + self(Layer::kOneShot);
  // Time below the cache: local trainings, or on cluster workloads the
  // remote calls (degraded local trainings are nested inside those).
  const double below_cache_s = cluster != nullptr
                                   ? busy(Layer::kClusterEvaluate)
                                   : busy(Layer::kEvaluate);

  const std::vector<Federation*> federations = replayer.federations();
  double hits = 0, misses = 0, preloaded = 0;
  Federation* sampled = nullptr;  // The federation with the most samples.
  Records records;
  for (Federation* federation : federations) {
    hits += federation->cache->hits();
    misses += federation->cache->misses();
    preloaded += federation->cache->preloaded();
    if (sampled == nullptr ||
        federation->sample.taken.size() > sampled->sample.taken.size()) {
      sampled = federation;
    }
    if (federation->store != nullptr) {
      federation->store->ForEach(
          [&](const Coalition& coalition, const UtilityRecord& record) {
            records.emplace_back(coalition, record);
          });
    } else {
      for (const SampledEvaluation& evaluation : federation->sample.taken) {
        records.push_back(
            {evaluation.coalition, {evaluation.utility, evaluation.ms / 1e3}});
      }
    }
  }
  if (sampled == nullptr) return Status::Internal("the replay built nothing");

  // Layers a workload's replay does not exercise are timed on its own
  // sampled coalitions, so every per-layer time is a measurement: local
  // training on cluster workloads, a one-worker cluster elsewhere.
  std::vector<double> local_ms, remote_ms;
  WorkerBudget::Lease compute_slot(WorkerBudget::Global(), 1);
  for (const SampledEvaluation& evaluation : sampled->sample.taken) {
    Stopwatch timer;
    FEDSHAP_RETURN_NOT_OK(
        sampled->utility->Evaluate(evaluation.coalition).status());
    local_ms.push_back(timer.ElapsedSeconds() * 1e3);
    if (cluster != nullptr) remote_ms.push_back(evaluation.ms);
  }
  if (cluster == nullptr) {
    FEDSHAP_ASSIGN_OR_RETURN(remote_ms, TimeThroughCluster(*sampled));
  }
  std::vector<double> evaluate_ms = durations(Layer::kEvaluate);
  if (evaluate_ms.empty()) evaluate_ms = local_ms;
  std::vector<double> cluster_ms = durations(Layer::kClusterEvaluate);
  if (cluster_ms.empty()) cluster_ms = remote_ms;
  // The probe's slices re-read what the replay cached, before the replay's
  // cluster goes away.
  std::vector<double> checkpoint_ms = durations(Layer::kCheckpoint);
  if (checkpoint_ms.empty()) {
    FEDSHAP_ASSIGN_OR_RETURN(
        checkpoint_ms, TimeCheckpoints(replayer, workload, seed, replayed,
                                       snapshot_dir + "/probe.snap"));
  }
  if (cluster != nullptr) cluster->Shutdown();
  std::vector<double> train_ms, score_ms;
  if (const auto* fedavg =
          dynamic_cast<const FedAvgUtility*>(sampled->utility.get())) {
    TimeTrainAndScore(*fedavg, seed, &train_ms, &score_ms);
  }

  MetricList metrics;
  auto add = [&](const char* name, const char* unit, double value) {
    metrics.push_back({name, unit, value});
  };
  add("setup.build_ms.p50", "ms", Percentile(durations(Layer::kBuild), 5000));
  add("setup.cluster_start_ms", "ms", run.setup_cluster_start_ms);
  add("setup.recover_ms", "ms", run.setup_recover_ms);
  add("service.slices", "count", run.service.slices_executed);
  add("service.prefetch_trainings", "count", run.service.prefetch_trainings);
  add("service.prefetch_hit_ratio", "ratio",
      Ratio(run.service.prefetch_consumed, run.service.prefetch_trainings));
  add("service.checkpoint_ms.p50", "ms", Percentile(checkpoint_ms, 5000));
  add("core.step_ms.p50", "ms", Percentile(durations(Layer::kStep), 5000));
  add("core.step_ms.p90", "ms", Percentile(durations(Layer::kStep), 9000));
  add("core.finish_ms.p50", "ms", Percentile(durations(Layer::kFinish), 5000));
  add("core.self_s", "s", core_self);
  add("core.self_share", "ratio", Ratio(core_self, job_wall));
  add("fl.cache.hits", "count", hits);
  add("fl.cache.misses", "count", misses);
  add("fl.cache.preloaded", "count", preloaded);
  add("fl.cache.hit_ratio", "ratio", Ratio(hits, hits + misses));
  add("fl.evaluate_ms.p50", "ms", Percentile(evaluate_ms, 5000));
  add("fl.evaluate_ms.p90", "ms", Percentile(evaluate_ms, 9000));
  add("fl.evaluate.busy_s", "s", below_cache_s);
  add("fl.evaluate.share", "ratio", Ratio(below_cache_s, job_wall));
  add("fl.train_ms.p50", "ms", Percentile(train_ms, 5000));
  add("fl.score_ms.p50", "ms", Percentile(score_ms, 5000));
  FEDSHAP_RETURN_NOT_OK(
      TimeStore(std::move(records), scratch + "/store-probe", &metrics));
  add("cluster.evaluate_ms.p50", "ms", Percentile(cluster_ms, 5000));
  add("cluster.evaluate_ms.p90", "ms", Percentile(cluster_ms, 9000));
  add("cluster.overhead_ms.p50", "ms",
      Percentile(remote_ms, 5000) - Percentile(local_ms, 5000));
  add("cluster.tasks_dispatched", "count", run.cluster.tasks_dispatched);
  add("cluster.useful_ratio", "ratio",
      Ratio(run.cluster.results_applied, run.cluster.tasks_dispatched));
  add("cluster.retried_tasks", "count", run.cluster.retried_tasks);
  add("cluster.degraded_evaluations", "count",
      run.cluster.degraded_evaluations);
  add("trace.unattributed_share", "ratio", Ratio(self(Layer::kJob), job_wall));
  add("trace.overhead_ratio", "ratio",
      Ratio(replay_wall, run.window_s * replayed / run.jobs.size()));
  add("trace.values_match", "bool", mismatched.load() == 0 ? 1.0 : 0.0);
  return metrics;
}

}  // namespace fedshap::e2e
