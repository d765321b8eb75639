// Tests of the src/service layer: job-spec parsing, the multi-tenant
// ValuationService's cross-job training dedup, cancellation, and the
// stop -> recover -> bit-identical-resume contract.

#include <chrono>
#include <filesystem>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/job_spec.h"
#include "service/valuation_service.h"

namespace fedshap {
namespace {

/// A fresh scratch state directory per test.
std::string StateDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "fedshap_service_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// The tests' standard workload: the closed-form linreg utility (instant
/// deterministic evaluations), n clients, fixed seed.
ScenarioSpec LinregScenario(int n, uint64_t seed = 11) {
  ScenarioSpec scenario;
  scenario.kind = "linreg";
  scenario.n = n;
  scenario.seed = seed;
  return scenario;
}

JobSpec MakeJob(const std::string& name, EstimatorKind estimator,
                const ScenarioSpec& scenario, int gamma = 24,
                int chunk = 4) {
  JobSpec spec;
  spec.name = name;
  spec.estimator = estimator;
  spec.gamma = gamma;
  spec.seed = 5;
  spec.checkpoint_every = chunk;
  spec.scenario = scenario;
  return spec;
}

/// Runs one job in a private single-worker in-memory service: the
/// isolated baseline the shared-service results must match.
ValuationResult RunIsolated(const JobSpec& spec) {
  ServiceConfig config;
  config.workers = 1;
  ValuationService service(config);
  EXPECT_TRUE(service.Submit(spec).ok());
  Result<ValuationResult> result = service.Wait(spec.name);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(result).value() : ValuationResult{};
}

// ---------------------------------------------------------------------------
// JobSpec parsing

TEST(JobSpecTest, LineRoundTrip) {
  JobSpec spec;
  spec.name = "round-trip_1.a";
  spec.estimator = EstimatorKind::kStratified;
  spec.gamma = 17;
  spec.k = 3;
  spec.seed = 99;
  spec.checkpoint_every = 2;
  spec.scenario.kind = "digits";
  spec.scenario.n = 7;
  spec.scenario.partition = "skew";
  spec.scenario.seed = 123;
  spec.scenario.fl_rounds = 4;
  spec.scenario.local_epochs = 2;
  spec.scenario.batch_size = 8;
  spec.scenario.learning_rate = 0.125;

  Result<JobSpec> parsed = JobSpec::FromLine(spec.ToLine());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->name, spec.name);
  EXPECT_EQ(parsed->estimator, spec.estimator);
  EXPECT_EQ(parsed->gamma, spec.gamma);
  EXPECT_EQ(parsed->k, spec.k);
  EXPECT_EQ(parsed->seed, spec.seed);
  EXPECT_EQ(parsed->checkpoint_every, spec.checkpoint_every);
  EXPECT_EQ(parsed->scenario.kind, spec.scenario.kind);
  EXPECT_EQ(parsed->scenario.n, spec.scenario.n);
  EXPECT_EQ(parsed->scenario.partition, spec.scenario.partition);
  EXPECT_EQ(parsed->scenario.seed, spec.scenario.seed);
  EXPECT_EQ(parsed->scenario.fl_rounds, spec.scenario.fl_rounds);
  EXPECT_EQ(parsed->scenario.local_epochs, spec.scenario.local_epochs);
  EXPECT_EQ(parsed->scenario.batch_size, spec.scenario.batch_size);
  EXPECT_EQ(parsed->scenario.learning_rate, spec.scenario.learning_rate);
  EXPECT_EQ(parsed->ToLine(), spec.ToLine());
}

TEST(JobSpecTest, LinregLineRoundTrip) {
  JobSpec spec = MakeJob("lin", EstimatorKind::kPermMc, LinregScenario(5));
  spec.scenario.samples_per_client = 31;
  spec.scenario.noise_scale = 0.25;
  Result<JobSpec> parsed = JobSpec::FromLine(spec.ToLine());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->scenario.samples_per_client, 31);
  EXPECT_EQ(parsed->scenario.noise_scale, 0.25);
  EXPECT_EQ(parsed->ToLine(), spec.ToLine());
}

TEST(JobSpecTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(JobSpec::FromLine("estimator=ipss").ok());  // no name
  EXPECT_FALSE(JobSpec::FromLine("name=a estimator=nope").ok());
  EXPECT_FALSE(JobSpec::FromLine("name=a gamma=abc").ok());
  EXPECT_FALSE(JobSpec::FromLine("name=a gamma=0").ok());
  EXPECT_FALSE(JobSpec::FromLine("name=a chunk=0").ok());
  EXPECT_FALSE(JobSpec::FromLine("name=bad/name").ok());
  EXPECT_FALSE(JobSpec::FromLine("name=a bogus-key=1").ok());
  EXPECT_FALSE(JobSpec::FromLine("name=a noequals").ok());
  EXPECT_FALSE(JobSpec::FromLine("name=a seed=-3").ok());
  // Out-of-int-range values must be rejected, not truncated: 2^32 + 1
  // silently becoming gamma=1 would run the job with a wrong budget.
  EXPECT_FALSE(JobSpec::FromLine("name=a gamma=4294967297").ok());
  EXPECT_FALSE(JobSpec::FromLine("name=a n=99999999999").ok());
}

TEST(JobSpecTest, ParseJobFileSkipsCommentsAndRejectsDuplicates) {
  Result<std::vector<JobSpec>> specs = ParseJobFile(
      "# a comment line\n"
      "\n"
      "name=a estimator=ipss gamma=8 scenario=linreg n=4\n"
      "   # indented comment\n"
      "name=b estimator=loo scenario=linreg n=4\n");
  ASSERT_TRUE(specs.ok()) << specs.status();
  ASSERT_EQ(specs->size(), 2u);
  EXPECT_EQ((*specs)[0].name, "a");
  EXPECT_EQ((*specs)[1].name, "b");

  EXPECT_FALSE(ParseJobFile("name=a estimator=ipss\nname=a estimator=loo\n")
                   .ok());
}

TEST(JobSpecTest, AllocationKeyRoundTripsAndValidates) {
  // allocation=neyman selects the adaptive stratified sweep; the key
  // must survive the persistence round trip like every other.
  JobSpec spec = MakeJob("ney", EstimatorKind::kStratified,
                         LinregScenario(6));
  spec.allocation = "neyman";
  Result<JobSpec> parsed = JobSpec::FromLine(spec.ToLine());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->allocation, "neyman");
  EXPECT_EQ(parsed->ToLine(), spec.ToLine());

  // Default stays "fixed" when the key is absent.
  Result<JobSpec> plain = JobSpec::FromLine(
      "name=a estimator=stratified gamma=8 scenario=linreg n=4");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->allocation, "fixed");

  // Unknown values and non-stratified estimators are rejected.
  EXPECT_FALSE(JobSpec::FromLine(
                   "name=a estimator=stratified allocation=bogus "
                   "scenario=linreg n=4")
                   .ok());
  EXPECT_FALSE(JobSpec::FromLine(
                   "name=a estimator=ipss allocation=neyman "
                   "scenario=linreg n=4")
                   .ok());
  EXPECT_FALSE(JobSpec::FromLine(
                   "name=a estimator=loo allocation=neyman "
                   "scenario=linreg n=4")
                   .ok());
}

TEST(JobSpecTest, AllocationSelectsTheSweep) {
  JobSpec spec = MakeJob("s", EstimatorKind::kStratified,
                         LinregScenario(5));
  Result<std::unique_ptr<ResumableEstimator>> fixed = MakeSweep(spec, 5);
  ASSERT_TRUE(fixed.ok());
  EXPECT_STREQ((*fixed)->AlgorithmName(), "stratified");

  spec.allocation = "neyman";
  Result<std::unique_ptr<ResumableEstimator>> adaptive = MakeSweep(spec, 5);
  ASSERT_TRUE(adaptive.ok());
  EXPECT_STREQ((*adaptive)->AlgorithmName(), "adaptive-stratified");
}

TEST(ValuationServiceTest, NeymanAllocationJobRunsAndResumesLikeAnyOther) {
  // The adaptive sweep through the whole service stack: same values as
  // an isolated run, any worker count.
  JobSpec job = MakeJob("ada", EstimatorKind::kStratified,
                        LinregScenario(8), /*gamma=*/24, /*chunk=*/4);
  job.allocation = "neyman";
  ValuationResult isolated = RunIsolated(job);
  ASSERT_EQ(isolated.values.size(), 8u);
  for (int workers : {2, 4}) {
    ServiceConfig config;
    config.workers = workers;
    ValuationService service(config);
    ASSERT_TRUE(service.Submit(job).ok());
    Result<ValuationResult> result = service.Wait(job.name);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->values, isolated.values) << "workers=" << workers;
  }
}

TEST(JobSpecTest, PrefetchAndFuseKeysRoundTripAndValidate) {
  JobSpec spec = MakeJob("spec", EstimatorKind::kIpss, LinregScenario(6));
  spec.prefetch = 12;
  spec.fuse = true;
  Result<JobSpec> parsed = JobSpec::FromLine(spec.ToLine());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->prefetch, 12);
  EXPECT_TRUE(parsed->fuse);
  EXPECT_EQ(parsed->ToLine(), spec.ToLine());

  // Defaults when the keys are absent: prefetch off, fusion off.
  Result<JobSpec> plain =
      JobSpec::FromLine("name=a estimator=ipss gamma=8 scenario=linreg n=4");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->prefetch, 0);
  EXPECT_FALSE(plain->fuse);

  // Bad values are rejected with InvalidArgument.
  EXPECT_FALSE(
      JobSpec::FromLine("name=a estimator=ipss prefetch=-2 "
                        "scenario=linreg n=4")
          .ok());
  EXPECT_FALSE(
      JobSpec::FromLine("name=a estimator=ipss prefetch=soon "
                        "scenario=linreg n=4")
          .ok());
  EXPECT_FALSE(
      JobSpec::FromLine("name=a estimator=ipss fuse=maybe "
                        "scenario=linreg n=4")
          .ok());
}

TEST(ValuationServiceTest, PrefetchedJobBitIdenticalWithExactAccounting) {
  // The speculative prefetcher only reorders who trains what: values must
  // stay bit-identical to an unprefetched run, and single-flight plus the
  // credit protocol must keep the training count exact — every distinct
  // coalition trained exactly once in the whole process, whoever won it.
  JobSpec job = MakeJob("pre", EstimatorKind::kIpss, LinregScenario(7),
                        /*gamma=*/28, /*chunk=*/4);
  ValuationResult reference = RunIsolated(job);
  ASSERT_EQ(reference.values.size(), 7u);

  ServiceConfig config;
  config.workers = 1;
  config.paused = true;  // queue the job; let the prefetcher run first
  ValuationService service(config);
  job.prefetch = 8;
  ASSERT_TRUE(service.Submit(job).ok());

  // With the workers paused the prefetch thread has the budget to
  // itself: wait for it to train ahead of the (not yet started) job.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.stats().prefetch_trainings == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(service.stats().prefetch_trainings, 0u);

  service.Resume();
  Result<ValuationResult> result = service.Wait(job.name);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->values, reference.values);
  EXPECT_EQ(result->num_trainings, reference.num_trainings);
  // The acceptance invariant: trainings the prefetcher ran on the job's
  // behalf still count as the job's own — fresh accounting is exact, not
  // deflated by the speculation.
  EXPECT_EQ(result->num_fresh_trainings, reference.num_fresh_trainings);

  const ServiceStats stats = service.stats();
  // Exactly-once: prefetched + demand-trained together cover the job's
  // distinct coalitions with zero duplicates.
  EXPECT_EQ(stats.trainings_computed, reference.num_trainings);
  EXPECT_EQ(stats.prefetch_credited, stats.prefetch_trainings);
  // Everything prefetched came from the job's own announced plan, so the
  // job went on to evaluate all of it.
  EXPECT_EQ(stats.prefetch_consumed, stats.prefetch_credited);
}

TEST(ValuationServiceTest, FusedJobMatchesUnfusedValues) {
  // fuse=on routes slice batches through EvaluateBatchFused. The linreg
  // utility has no affine scorer, so the fused dispatch degrades to the
  // per-coalition path and values stay bit-identical — this pins the
  // wiring (spec -> session -> cache) end to end.
  JobSpec job = MakeJob("fuse", EstimatorKind::kExactMc, LinregScenario(6),
                        /*gamma=*/0, /*chunk=*/8);
  ValuationResult reference = RunIsolated(job);
  ASSERT_EQ(reference.values.size(), 6u);

  ServiceConfig config;
  config.workers = 2;
  ValuationService service(config);
  job.fuse = true;
  ASSERT_TRUE(service.Submit(job).ok());
  Result<ValuationResult> result = service.Wait(job.name);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->values, reference.values);
  EXPECT_EQ(result->num_trainings, reference.num_trainings);
}

TEST(JobSpecTest, EstimatorKindsRoundTripAndClassify) {
  const EstimatorKind kinds[] = {
      EstimatorKind::kIpss,        EstimatorKind::kAdaptiveIpss,
      EstimatorKind::kStratified,  EstimatorKind::kExactMc,
      EstimatorKind::kExactCc,     EstimatorKind::kExactPerm,
      EstimatorKind::kPermMc,      EstimatorKind::kKGreedy,
      EstimatorKind::kExtTmc,      EstimatorKind::kExtGtb,
      EstimatorKind::kCcShapley,   EstimatorKind::kLeaveOneOut,
      EstimatorKind::kBanzhaf,
  };
  for (EstimatorKind kind : kinds) {
    Result<EstimatorKind> parsed = ParseEstimatorKind(EstimatorKindName(kind));
    ASSERT_TRUE(parsed.ok()) << EstimatorKindName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseEstimatorKind("shapley-9000").ok());
  EXPECT_TRUE(IsResumable(EstimatorKind::kIpss));
  EXPECT_TRUE(IsResumable(EstimatorKind::kExactMc));
  EXPECT_FALSE(IsResumable(EstimatorKind::kLeaveOneOut));
  EXPECT_FALSE(IsResumable(EstimatorKind::kAdaptiveIpss));
}

TEST(JobSpecTest, ScenarioValidation) {
  ScenarioSpec scenario;
  scenario.kind = "marsrover";
  EXPECT_FALSE(scenario.Build().ok());
  scenario = LinregScenario(1);  // n too small
  EXPECT_FALSE(scenario.Build().ok());
  scenario = LinregScenario(5);
  scenario.kind = "digits";
  scenario.partition = "quantum";
  EXPECT_FALSE(scenario.Build().ok());
}

// ---------------------------------------------------------------------------
// ValuationService

TEST(ValuationServiceTest, ConcurrentJobsShareTrainingsAndMatchIsolated) {
  const ScenarioSpec scenario = LinregScenario(6);
  const std::vector<JobSpec> jobs = {
      MakeJob("ipss", EstimatorKind::kIpss, scenario),
      MakeJob("exact", EstimatorKind::kExactMc, scenario),
      MakeJob("strat", EstimatorKind::kStratified, scenario),
  };

  std::vector<ValuationResult> isolated;
  size_t isolated_trainings = 0;
  for (const JobSpec& spec : jobs) {
    isolated.push_back(RunIsolated(spec));
    isolated_trainings += isolated.back().num_trainings;
  }

  ServiceConfig config;
  config.workers = 3;
  ValuationService service(config);
  for (const JobSpec& spec : jobs) {
    ASSERT_TRUE(service.Submit(spec).ok());
  }
  ASSERT_TRUE(service.WaitAll());

  size_t fresh_sum = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    Result<JobStatus> status = service.GetStatus(jobs[i].name);
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(status->state, JobState::kDone);
    // Bit-identical values, and identical per-job accounting: sharing
    // the cache changes who computes, never what a job is charged.
    EXPECT_EQ(status->result.values, isolated[i].values);
    EXPECT_EQ(status->result.num_trainings, isolated[i].num_trainings);
    EXPECT_EQ(status->result.num_evaluations, isolated[i].num_evaluations);
    fresh_sum += status->result.num_fresh_trainings;
  }

  // Cross-job dedup: the three jobs overlap heavily (exact-mc covers
  // every coalition), so together they must train strictly fewer models
  // than the three isolated runs combined — and every computed training
  // is attributed to exactly one job.
  const ServiceStats stats = service.stats();
  EXPECT_LT(stats.trainings_computed, isolated_trainings);
  EXPECT_EQ(stats.trainings_computed, fresh_sum);
  EXPECT_EQ(stats.workloads, 1u);
}

TEST(ValuationServiceTest, WorkerCountDoesNotChangeResults) {
  const ScenarioSpec scenario = LinregScenario(6, 31);
  const std::vector<JobSpec> jobs = {
      MakeJob("a", EstimatorKind::kIpss, scenario, 20, 2),
      MakeJob("b", EstimatorKind::kExactMc, scenario, 20, 8),
      MakeJob("c", EstimatorKind::kPermMc, scenario, 30, 1),
  };
  std::vector<std::vector<double>> values_by_workers;
  for (int workers : {1, 4}) {
    ServiceConfig config;
    config.workers = workers;
    ValuationService service(config);
    for (const JobSpec& spec : jobs) {
      ASSERT_TRUE(service.Submit(spec).ok());
    }
    ASSERT_TRUE(service.WaitAll());
    std::vector<double> all;
    for (const JobSpec& spec : jobs) {
      Result<ValuationResult> result = service.Wait(spec.name);
      ASSERT_TRUE(result.ok());
      all.insert(all.end(), result->values.begin(), result->values.end());
    }
    values_by_workers.push_back(std::move(all));
  }
  EXPECT_EQ(values_by_workers[0], values_by_workers[1]);
}

TEST(ValuationServiceTest, RejectsDuplicateNamesAndUnknownLookups) {
  ServiceConfig config;
  config.paused = true;
  ValuationService service(config);
  ASSERT_TRUE(
      service.Submit(MakeJob("dup", EstimatorKind::kLeaveOneOut,
                             LinregScenario(4)))
          .ok());
  Status again = service.Submit(
      MakeJob("dup", EstimatorKind::kIpss, LinregScenario(4)));
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(service.GetStatus("ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Cancel("ghost").code(), StatusCode::kNotFound);
}

TEST(ValuationServiceTest, CancelQueuedJobBeforeItRuns) {
  ServiceConfig config;
  config.paused = true;  // Nothing runs until Resume.
  ValuationService service(config);
  ASSERT_TRUE(service
                  .Submit(MakeJob("doomed", EstimatorKind::kExactMc,
                                  LinregScenario(8)))
                  .ok());
  ASSERT_TRUE(service.Cancel("doomed").ok());
  service.Resume();
  Result<ValuationResult> result = service.Wait("doomed");
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  Result<JobStatus> status = service.GetStatus("doomed");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kCancelled);
  // Cancelling twice is an error: the job is already terminal.
  EXPECT_EQ(service.Cancel("doomed").code(),
            StatusCode::kFailedPrecondition);
}

TEST(ValuationServiceTest, CancelRunningJobStopsAtSliceBoundary) {
  ServiceConfig config;
  config.workers = 1;
  ValuationService service(config);
  // 512 one-unit slices of real FedAvg trainings: cancellation lands
  // hundreds of slices before completion.
  ScenarioSpec scenario;
  scenario.kind = "digits";
  scenario.n = 9;
  scenario.seed = 3;
  JobSpec spec = MakeJob("long", EstimatorKind::kExactMc, scenario, 32, 1);
  ASSERT_TRUE(service.Submit(spec).ok());
  // Wait for observable progress, then cancel.
  for (;;) {
    Result<JobStatus> status = service.GetStatus("long");
    ASSERT_TRUE(status.ok());
    if (status->completed_units > 0) break;
    std::this_thread::yield();
  }
  ASSERT_TRUE(service.Cancel("long").ok());
  Result<ValuationResult> result = service.Wait("long");
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  Result<JobStatus> status = service.GetStatus("long");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kCancelled);
  EXPECT_LT(status->completed_units, status->total_units);
}

TEST(ValuationServiceTest, AdaptiveIpssAcceptsSmallBudgetCeiling) {
  // gamma below the adaptive estimator's default starting budget must
  // start at the ceiling, not fail config validation.
  ServiceConfig config;
  config.workers = 1;
  ValuationService service(config);
  ASSERT_TRUE(service
                  .Submit(MakeJob("tiny", EstimatorKind::kAdaptiveIpss,
                                  LinregScenario(5), /*gamma=*/4))
                  .ok());
  Result<ValuationResult> result = service.Wait("tiny");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->values.size(), 5u);
}

TEST(ValuationServiceTest, FailedJobReportsEstimatorError) {
  ServiceConfig config;
  config.workers = 1;
  ValuationService service(config);
  // exact-perm requires n <= 8; n = 10 fails inside the estimator.
  ASSERT_TRUE(service
                  .Submit(MakeJob("toolarge", EstimatorKind::kExactPerm,
                                  LinregScenario(10)))
                  .ok());
  Result<ValuationResult> result = service.Wait("toolarge");
  EXPECT_FALSE(result.ok());
  Result<JobStatus> status = service.GetStatus("toolarge");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_FALSE(status->error.empty());
}

TEST(ValuationServiceTest, StopRecoverResumesBitIdentical) {
  const std::string dir = StateDir("resume");
  const ScenarioSpec scenario = LinregScenario(7, 77);
  const std::vector<JobSpec> jobs = {
      MakeJob("sweep-ipss", EstimatorKind::kIpss, scenario, 28, 4),
      MakeJob("sweep-exact", EstimatorKind::kExactMc, scenario, 28, 8),
      MakeJob("oneshot", EstimatorKind::kLeaveOneOut, scenario),
  };

  // The uninterrupted reference.
  std::vector<ValuationResult> reference;
  for (const JobSpec& spec : jobs) reference.push_back(RunIsolated(spec));

  // Phase 1: run a few slices, then halt mid-flight (the deterministic
  // stand-in for kill -9: state survives only through the state dir).
  {
    ServiceConfig config;
    config.workers = 1;
    config.state_dir = dir;
    config.max_slices = 3;
    ValuationService service(config);
    for (const JobSpec& spec : jobs) {
      ASSERT_TRUE(service.Submit(spec).ok());
    }
    EXPECT_FALSE(service.WaitAll());  // Halted with jobs in flight.
    service.Stop();
  }

  // Phase 2: a new process recovers and drains everything.
  {
    ServiceConfig config;
    config.workers = 2;
    config.state_dir = dir;
    ValuationService service(config);
    ASSERT_TRUE(service.Recover().ok());
    EXPECT_EQ(service.ListJobs().size(), jobs.size());
    ASSERT_TRUE(service.WaitAll());
    for (size_t i = 0; i < jobs.size(); ++i) {
      Result<ValuationResult> result = service.Wait(jobs[i].name);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->values, reference[i].values)
          << "job " << jobs[i].name
          << " did not resume to the uninterrupted result";
    }
  }

  // Phase 3: another restart serves everything from persisted results
  // and stores — zero trainings recomputed.
  {
    ServiceConfig config;
    config.workers = 1;
    config.state_dir = dir;
    ValuationService service(config);
    ASSERT_TRUE(service.Recover().ok());
    ASSERT_TRUE(service.WaitAll());
    for (size_t i = 0; i < jobs.size(); ++i) {
      Result<ValuationResult> result = service.Wait(jobs[i].name);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->values, reference[i].values);
    }
    EXPECT_EQ(service.stats().trainings_computed, 0u);
  }
  std::filesystem::remove_all(dir);
}

// Regression: the first Submits of a new federation on a durable service
// race to build its workload, and both used to open and attach the same
// store directory unlocked — the loser could fail with "has no
// MANIFEST". Two threads behind a start barrier submit the opening jobs
// of a fresh federation, round after round; every job must finish. The
// federation is a small digits one: its build takes long enough that
// one thread's first training can flush the store while the other is
// still building (a linreg build is too quick to race).
TEST(ValuationServiceTest, ConcurrentFirstSubmitsOfNewFederationAllFinish) {
  const std::string dir = StateDir("first_submit_race");
  ServiceConfig config;
  config.workers = 2;
  config.state_dir = dir;
  ValuationService service(config);
  for (int round = 0; round < 50; ++round) {
    ScenarioSpec scenario;
    scenario.kind = "digits";
    scenario.n = 6;
    scenario.fl_rounds = 1;
    scenario.seed = 1000 + round;
    std::latch start(2);
    Status submitted[2];
    std::vector<std::thread> submitters;
    for (int t = 0; t < 2; ++t) {
      submitters.emplace_back([&, t] {
        start.arrive_and_wait();
        submitted[t] = service.Submit(MakeJob(
            "r" + std::to_string(round) + "-" + std::to_string(t),
            EstimatorKind::kIpss, scenario, /*gamma=*/4));
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
    for (int t = 0; t < 2; ++t) {
      const std::string name =
          "r" + std::to_string(round) + "-" + std::to_string(t);
      ASSERT_TRUE(submitted[t].ok()) << name << ": " << submitted[t];
      EXPECT_TRUE(service.Wait(name).ok()) << name;
      Result<JobStatus> status = service.GetStatus(name);
      ASSERT_TRUE(status.ok()) << status.status();
      EXPECT_EQ(status->state, JobState::kDone) << name;
    }
  }
  service.Stop();
  std::filesystem::remove_all(dir);
}

TEST(ValuationServiceTest, PurgeRemovesTerminalJobsOnly) {
  const std::string dir = StateDir("purge");
  ServiceConfig config;
  config.workers = 1;
  config.state_dir = dir;
  ValuationService service(config);
  const JobSpec spec =
      MakeJob("once", EstimatorKind::kLeaveOneOut, LinregScenario(4));
  ASSERT_TRUE(service.Submit(spec).ok());
  ASSERT_TRUE(service.Wait("once").ok());
  ASSERT_TRUE(service.Purge("once").ok());
  EXPECT_EQ(service.GetStatus("once").status().code(),
            StatusCode::kNotFound);
  // The name is free again, and no stale result file shadows the re-run.
  ASSERT_TRUE(service.Submit(spec).ok());
  ASSERT_TRUE(service.Wait("once").ok());
  std::filesystem::remove_all(dir);
}

TEST(ValuationServiceTest, ValuationResultEncodingRoundTrips) {
  ValuationResult result;
  result.values = {0.125, -3.5, 1e-17};
  result.num_evaluations = 42;
  result.num_trainings = 17;
  result.num_fresh_trainings = 5;
  result.charged_seconds = 1.25;
  result.wall_seconds = 0.5;
  Result<ValuationResult> decoded =
      DecodeValuationResult(EncodeValuationResult(result));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->values, result.values);
  EXPECT_EQ(decoded->num_evaluations, result.num_evaluations);
  EXPECT_EQ(decoded->num_trainings, result.num_trainings);
  EXPECT_EQ(decoded->num_fresh_trainings, result.num_fresh_trainings);
  EXPECT_EQ(decoded->charged_seconds, result.charged_seconds);
  EXPECT_EQ(decoded->wall_seconds, result.wall_seconds);
  EXPECT_FALSE(DecodeValuationResult("garbage").ok());
}

// ---------------------------------------------------------------------------
// Shutdown ordering
// ---------------------------------------------------------------------------

// Regression: Stop() must park the prefetcher thread *before* flushing
// (and, in the destructor, closing) the stores — a prefetch training
// in flight during shutdown must never write through a dying store —
// and concurrent Stop() calls (an explicit Stop racing the destructor's)
// must not double-join the worker threads. Repeatedly stops a service
// from two threads at staggered points of a prefetch-heavy job; the
// sanitizer jobs make this a use-after-free / double-join probe.
TEST(ValuationServiceTest, StopRacesInFlightPrefetchCleanly) {
  const std::string dir = StateDir("stop_race");
  for (int round = 0; round < 20; ++round) {
    std::filesystem::remove_all(dir);
    ServiceConfig config;
    config.workers = 2;
    config.state_dir = dir;  // stores attached => Stop flushes them
    ValuationService service(config);
    JobSpec job =
        MakeJob("pre", EstimatorKind::kIpss, LinregScenario(7), 28, 4);
    job.prefetch = 8;
    ASSERT_TRUE(service.Submit(job).ok());
    // Stagger the stop point across rounds so some rounds catch the
    // prefetcher mid-plan and some catch it idle.
    std::this_thread::sleep_for(std::chrono::microseconds(100 * round));
    std::thread stopper([&service] { service.Stop(); });
    service.Stop();
    stopper.join();
  }  // the destructor runs Stop() once more on an already-stopped service
}

}  // namespace
}  // namespace fedshap
