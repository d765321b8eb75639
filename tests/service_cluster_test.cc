// The cluster invariance suite: a coordinator ValuationService with N
// sharded workers must produce bit-identical values and exact training
// accounting versus a single-process run — at every topology, and under
// every scripted fault (worker death mid-training, dropped / duplicated
// / reordered result frames, a killed-and-recovered coordinator). This
// is the C++ home of the scenarios tests/fedshapd_restart_test.sh used
// to drive through the binary; the shell test remains as a smoke
// wrapper over fedshapd itself.

#include <chrono>
#include <csignal>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster_fixture.h"
#include "service/cluster.h"
#include "service/cluster_worker.h"
#include "service/job_spec.h"
#include "service/valuation_service.h"
#include "util/coalition.h"
#include "util/framing.h"
#include "util/tcp_transport.h"

namespace fedshap {
namespace {

std::string StateDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "fedshap_cluster_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

ScenarioSpec LinregScenario(int n, uint64_t seed = 11) {
  ScenarioSpec scenario;
  scenario.kind = "linreg";
  scenario.n = n;
  scenario.seed = seed;
  return scenario;
}

JobSpec MakeJob(const std::string& name, EstimatorKind estimator,
                const ScenarioSpec& scenario, int gamma = 24, int chunk = 4) {
  JobSpec spec;
  spec.name = name;
  spec.estimator = estimator;
  spec.gamma = gamma;
  spec.seed = 5;
  spec.checkpoint_every = chunk;
  spec.scenario = scenario;
  return spec;
}

/// The clusterless baseline: one job in a private single-worker
/// in-memory service.
Coalition FromMask(uint32_t mask) {
  Coalition coalition;
  for (int i = 0; i < 32; ++i) {
    if ((mask >> i) & 1u) coalition.Add(i);
  }
  return coalition;
}

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
// The invariance property: cluster == single process, bit for bit
// ---------------------------------------------------------------------------

// {1,2,4} workers x {ipss, adaptive-neyman stratified, perm-mc}: every
// combination must reproduce the isolated run's values bitwise, with
// identical evaluation/training/fresh counts (the coordinator cache is
// authoritative for accounting, so a cold cluster run trains exactly the
// isolated run's distinct coalitions — on the workers).
TEST(ClusterInvarianceTest, BitIdenticalAcrossTopologiesAndEstimators) {
  struct EstimatorCase {
    const char* tag;
    EstimatorKind kind;
    const char* allocation;  // nullptr = spec default
  };
  const EstimatorCase estimators[] = {
      {"ipss", EstimatorKind::kIpss, nullptr},
      {"neyman", EstimatorKind::kStratified, "neyman"},
      {"permmc", EstimatorKind::kPermMc, nullptr},
  };
  const ScenarioSpec scenario = LinregScenario(8);
  for (const EstimatorCase& est : estimators) {
    JobSpec job = MakeJob("job", est.kind, scenario);
    if (est.allocation != nullptr) job.allocation = est.allocation;
    const ValuationResult reference = RunIsolated(job);
    ASSERT_EQ(reference.values.size(), 8u);
    for (int workers : {1, 2, 4}) {
      ClusterFixture::Options options;
      options.num_workers = workers;
      auto fixture = ClusterFixture::Start(options);
      ASSERT_NE(fixture, nullptr);
      Result<ValuationResult> result = fixture->Run(job);
      ASSERT_TRUE(result.ok()) << result.status();
      const std::string topology =
          std::string(est.tag) + " workers=" + std::to_string(workers);
      ExpectBitIdentical(reference, *result, topology);
      const ClusterStats stats = fixture->cluster_stats();
      // Every fresh training ran remotely, none twice.
      EXPECT_EQ(stats.results_applied, reference.num_fresh_trainings)
          << topology;
      EXPECT_EQ(stats.worker_fresh_trainings, reference.num_fresh_trainings)
          << topology;
      EXPECT_EQ(stats.workers_lost, 0u) << topology;
    }
  }
}

// ---------------------------------------------------------------------------
// Fault scripts: the scenarios the harness exists for
// ---------------------------------------------------------------------------

// A worker dies mid-job after its 3rd fresh training (kill-worker fault
// = channel torn down with no store flush, the simulated crash). The
// dispatcher reassigns its in-flight coalition, subsequent shard-0
// coalitions fail over to the surviving worker, and the job finishes
// bit-identical with exact fresh accounting — the dead worker's lost
// partial work is invisible because the coordinator cache, not the
// workers, counts fresh trainings.
TEST(ClusterFaultTest, WorkerDeathReassignsAndStaysBitIdentical) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 2;
  options.fault_specs = {"kill-worker:after=3"};
  options.dispatcher.heartbeat_timeout_ms = 1000;
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "worker-death");

  const ClusterStats stats = fixture->cluster_stats();
  EXPECT_EQ(stats.workers_lost, 1u);
  EXPECT_GE(stats.reassigned_coalitions, 1u);
  EXPECT_EQ(fixture->cluster().dispatcher()->live_workers(), 1u);
  // Exactly-once application: one result per fresh training, even
  // though the dying worker's in-flight coalition was dispatched twice.
  EXPECT_EQ(stats.results_applied, reference.num_fresh_trainings);
  EXPECT_GT(stats.tasks_dispatched, stats.results_applied);
}

// Every worker death in sequence until one remains; the job must still
// finish bit-identical (the last shard serves every coalition).
TEST(ClusterFaultTest, CascadingWorkerDeathsConvergeOnLastShard) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 4;
  options.fault_specs = {"kill-worker:after=1", "kill-worker:after=2",
                         "kill-worker:after=3"};
  options.dispatcher.heartbeat_timeout_ms = 1000;
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "cascading-deaths");
  EXPECT_EQ(fixture->cluster_stats().workers_lost, 3u);
  EXPECT_EQ(fixture->cluster().dispatcher()->live_workers(), 1u);
}

// A result frame delivered twice (dup-frame fault): the second copy hits
// a completed task id and is dropped — results_applied stays exactly the
// fresh-training count and accounting does not double.
TEST(ClusterFaultTest, DuplicateDeliveryAppliesExactlyOnce) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 2;
  options.fault_specs = {"dup-frame:nth=2", "dup-frame:nth=4"};
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "dup-frame");

  const ClusterStats stats = fixture->cluster_stats();
  EXPECT_GE(stats.duplicate_results_ignored, 1u);
  EXPECT_EQ(stats.results_applied, reference.num_fresh_trainings);
}

// A dropped result frame (drop-frame fault): the RPC deadline expires,
// the task is re-dispatched to the same home shard, the worker's cache
// turns the re-run into a hit, and the job completes bit-identical — the
// lost frame costs one deadline, not correctness (and one expiry is far
// from tripping the breaker).
TEST(ClusterFaultTest, DroppedResultFrameRecoveredByRetry) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 2;
  options.fault_specs = {"drop-frame:nth=2"};
  options.dispatcher.rpc_deadline_ms = 200;
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "drop-frame");

  const ClusterStats stats = fixture->cluster_stats();
  EXPECT_GE(stats.retried_tasks, 1u);
  EXPECT_EQ(stats.breaker_trips, 0u);
  EXPECT_EQ(stats.results_applied, reference.num_fresh_trainings);
}

// Reordered result frames (reorder-frame fault holds frames back and
// flushes them behind later sends / idle beats): arrival order is not
// plan order, values must not care.
TEST(ClusterFaultTest, ReorderedResultFramesDoNotChangeValues) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 2;
  options.fault_specs = {"reorder-frame:p=0.3,seed=9",
                         "reorder-frame:p=0.3,seed=10"};
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "reorder-frame");
}

// ---------------------------------------------------------------------------
// Subprocess workers: real process deaths
// ---------------------------------------------------------------------------

// Fork-mode cluster at the dispatcher level: SIGKILL one child worker
// between evaluations, then keep evaluating. Coalitions homed on the
// dead shard probe over to the survivor; every evaluation still
// returns the exact utility (linreg is closed-form, so the expected
// value is recomputable locally).
TEST(ClusterSubprocessTest, SigkilledWorkerFailsOverToSurvivor) {
  const ScenarioSpec scenario = LinregScenario(6);
  Result<std::unique_ptr<UtilityFunction>> local = scenario.Build();
  ASSERT_TRUE(local.ok()) << local.status();

  LocalClusterOptions options;
  options.num_workers = 2;
  options.fork_workers = true;
  options.dispatcher.heartbeat_timeout_ms = 1000;
  Result<std::unique_ptr<LocalCluster>> cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  (*cluster)->dispatcher()->RegisterWorkload("w", scenario,
                                             (*local)->Fingerprint());

  auto evaluate_all = [&](int count) {
    for (uint32_t mask = 1; mask <= static_cast<uint32_t>(count); ++mask) {
      const Coalition coalition = FromMask(mask);
      Result<UtilityRecord> remote =
          (*cluster)->dispatcher()->Evaluate("w", coalition);
      ASSERT_TRUE(remote.ok()) << remote.status();
      Result<double> expected = (*local)->Evaluate(coalition);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(remote->utility, *expected) << "mask " << mask;
    }
  };
  evaluate_all(10);
  EXPECT_EQ((*cluster)->dispatcher()->live_workers(), 2u);

  (*cluster)->KillWorker(0);  // real SIGKILL on the child process
  evaluate_all(20);           // includes shard-0 coalitions -> failover
  EXPECT_EQ((*cluster)->dispatcher()->live_workers(), 1u);
  EXPECT_EQ((*cluster)->dispatcher()->stats().workers_lost, 1u);
  (*cluster)->Shutdown();
}

// The full acceptance scenario through subprocess workers: 2 fork()ed
// workers, one scripted to die mid-job, versus the isolated run.
TEST(ClusterSubprocessTest, ForkedWorkerDeathStaysBitIdentical) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 2;
  options.fork_workers = true;
  options.fault_specs = {"kill-worker:after=3"};
  options.dispatcher.heartbeat_timeout_ms = 1000;
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "forked-worker-death");
  EXPECT_EQ(fixture->cluster_stats().workers_lost, 1u);
  EXPECT_GE(fixture->cluster_stats().reassigned_coalitions, 1u);
}

// ---------------------------------------------------------------------------
// Coordinator kill + recover (the restart_test.sh resume scenario)
// ---------------------------------------------------------------------------

// The coordinator halts mid-job (max_slices hook = the deterministic
// stand-in for kill -9 on fedshapd), its cluster dies with it; a new
// coordinator over a fresh cluster recovers the checkpoint and resumes
// to the bit-identical result. Worker stores are per-incarnation here —
// recovery correctness must come from the coordinator's own checkpoint
// + store tier, never from worker-side state.
TEST(ClusterRecoveryTest, CoordinatorKillRecoverResumesBitIdentical) {
  const std::string dir = StateDir("recover");
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8), 32);
  const ValuationResult reference = RunIsolated(job);

  {
    ClusterFixture::Options options;
    options.num_workers = 2;
    options.state_dir = dir;
    options.max_slices = 2;  // halt with the job mid-sweep
    auto fixture = ClusterFixture::Start(options);
    ASSERT_NE(fixture, nullptr);
    ASSERT_TRUE(fixture->service().Submit(job).ok());
    EXPECT_FALSE(fixture->service().WaitAll());  // halted, job unfinished
  }

  {
    ClusterFixture::Options options;
    options.num_workers = 2;
    options.state_dir = dir;
    auto fixture = ClusterFixture::Start(options);
    ASSERT_NE(fixture, nullptr);
    ASSERT_TRUE(fixture->service().Recover().ok());
    ASSERT_TRUE(fixture->service().WaitAll());
    Result<ValuationResult> result = fixture->service().Wait(job.name);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->values.size(), reference.values.size());
    for (size_t i = 0; i < reference.values.size(); ++i) {
      EXPECT_EQ(result->values[i], reference.values[i]) << "client " << i;
    }
    // Trainings done before the kill were persisted by the coordinator
    // store tier, so the resumed run recomputes strictly fewer fresh.
    // (A resumed session accounts only the post-checkpoint portion, so
    // its counters are bounded by the uninterrupted run's, not equal.)
    EXPECT_LT(result->num_fresh_trainings, reference.num_fresh_trainings);
    EXPECT_LE(result->num_trainings, reference.num_trainings);
  }
}

// Worker stores shared across cluster incarnations: a second cluster
// over the same store_dir serves every coalition read-through, zero
// worker-side retraining.
TEST(ClusterRecoveryTest, WorkerStoreTierSurvivesClusterRestart) {
  const std::string dir = StateDir("stores");
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  ValuationResult first;
  {
    ClusterFixture::Options options;
    options.num_workers = 2;
    options.store_dir = dir + "/workers";
    auto fixture = ClusterFixture::Start(options);
    ASSERT_NE(fixture, nullptr);
    Result<ValuationResult> result = fixture->Run(job);
    ASSERT_TRUE(result.ok()) << result.status();
    first = std::move(result).value();
    EXPECT_EQ(fixture->cluster_stats().worker_fresh_trainings,
              first.num_fresh_trainings);
  }
  {
    ClusterFixture::Options options;
    options.num_workers = 2;
    options.store_dir = dir + "/workers";
    auto fixture = ClusterFixture::Start(options);
    ASSERT_NE(fixture, nullptr);
    Result<ValuationResult> result = fixture->Run(job);
    ASSERT_TRUE(result.ok()) << result.status();
    ExpectBitIdentical(first, *result, "restarted-store-tier");
    // The coordinator cache was cold (fresh == first run's), but every
    // worker training was a store hit: zero worker-side fresh work.
    EXPECT_EQ(fixture->cluster_stats().worker_fresh_trainings, 0u);
  }
}

// ---------------------------------------------------------------------------
// Dispatcher edge semantics
// ---------------------------------------------------------------------------

TEST(ClusterDispatcherTest, EvaluateFailsCleanlyWithNoLiveWorkers) {
  const ScenarioSpec scenario = LinregScenario(4);
  Result<std::unique_ptr<UtilityFunction>> local = scenario.Build();
  ASSERT_TRUE(local.ok());

  LocalClusterOptions options;
  options.num_workers = 1;
  options.dispatcher.heartbeat_timeout_ms = 1000;
  Result<std::unique_ptr<LocalCluster>> cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  (*cluster)->dispatcher()->RegisterWorkload("w", scenario,
                                             (*local)->Fingerprint());
  (*cluster)->KillWorker(0);
  // The lone worker is gone: evaluation must fail with a clear error,
  // not hang. (The dispatcher may need a beat to observe the EOF.)
  Result<UtilityRecord> record =
      (*cluster)->dispatcher()->Evaluate("w", Coalition::Of({0, 1}));
  EXPECT_FALSE(record.ok());
  (*cluster)->Shutdown();
}

TEST(ClusterDispatcherTest, UnknownWorkloadIsAnError) {
  LocalClusterOptions options;
  options.num_workers = 1;
  Result<std::unique_ptr<LocalCluster>> cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  Result<UtilityRecord> record =
      (*cluster)->dispatcher()->Evaluate("nope", Coalition::Of({0}));
  EXPECT_FALSE(record.ok());
  (*cluster)->Shutdown();
}

// ---------------------------------------------------------------------------
// TCP transport: the same invariance, over real sockets
// ---------------------------------------------------------------------------

// The core invariance over loopback TCP at {1,2,4} workers: the framed
// protocol is transport-agnostic, so swapping socketpairs for the real
// listener/connector + registration handshake must change nothing about
// the values.
TEST(ClusterTcpTest, BitIdenticalOverTcpAcrossTopologies) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);
  for (int workers : {1, 2, 4}) {
    ClusterFixture::Options options;
    options.num_workers = workers;
    options.transport = ClusterTransport::kTcp;
    auto fixture = ClusterFixture::Start(options);
    ASSERT_NE(fixture, nullptr);
    Result<ValuationResult> result = fixture->Run(job);
    ASSERT_TRUE(result.ok()) << result.status();
    ExpectBitIdentical(reference, *result,
                       "tcp workers=" + std::to_string(workers));
    const ClusterStats stats = fixture->cluster_stats();
    EXPECT_EQ(stats.results_applied, reference.num_fresh_trainings);
    EXPECT_EQ(stats.worker_reconnects, 0u);
  }
}

// Fork-mode workers over TCP: separate processes dialing the
// coordinator's real listener — the closest the single-host harness gets
// to an actual multi-node deployment.
TEST(ClusterTcpTest, ForkedWorkersOverTcpStayBitIdentical) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 2;
  options.fork_workers = true;
  options.transport = ClusterTransport::kTcp;
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "tcp-forked");
  EXPECT_EQ(fixture->cluster_stats().results_applied,
            reference.num_fresh_trainings);
}

// An injected partition mid-job tears the lone worker's connection
// down; the worker redials with backoff, re-registers its shard (warm
// caches), the orphaned in-flight coalition is re-dispatched, and the
// job finishes bit-identical. A single worker plus a long degraded
// grace makes the reconnect load-bearing: the job cannot complete any
// other way, so the partition costs a reconnect, never correctness.
TEST(ClusterTcpFaultTest, PartitionAndHealStaysBitIdentical) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 1;
  options.transport = ClusterTransport::kTcp;
  options.fault_specs = {"partition:nth=3"};
  options.dispatcher.heartbeat_timeout_ms = 2000;
  // Wait for the heal, don't degrade.
  options.dispatcher.degraded_grace_ms = 10000;
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "tcp-partition-heal");

  const ClusterStats stats = fixture->cluster_stats();
  EXPECT_GE(stats.worker_reconnects, 1u);
  EXPECT_GE(stats.recovery_seconds_total, 0.0);
  EXPECT_EQ(stats.degraded_evaluations, 0u);
  EXPECT_EQ(stats.results_applied, reference.num_fresh_trainings);
}

// A corrupted result frame is rejected by the coordinator's CRC check,
// which reads as a dead peer: the connection is torn down, the worker
// reconnects, the task is re-dispatched. Corruption can cost a round
// trip, never a wrong value.
TEST(ClusterTcpFaultTest, CorruptFrameRejectedAndRecovered) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 1;
  options.transport = ClusterTransport::kTcp;
  options.fault_specs = {"corrupt-frame:nth=2"};
  options.dispatcher.heartbeat_timeout_ms = 2000;
  options.dispatcher.degraded_grace_ms = 10000;  // wait for the reconnect
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "tcp-corrupt-frame");
  EXPECT_GE(fixture->cluster_stats().worker_reconnects, 1u);
  EXPECT_EQ(fixture->cluster_stats().results_applied,
            reference.num_fresh_trainings);
}

// The reconnect schedule is a pure function of (attempt, seed): a client
// that cannot reach its coordinator walks exactly the backoff sequence
// ReconnectBackoffMs prescribes, in order.
TEST(ClusterTcpFaultTest, ReconnectBackoffFollowsSeededSchedule) {
  // Bind a port, then free it: every dial is refused.
  int dead_port = 0;
  {
    Result<std::unique_ptr<TcpListener>> listener =
        TcpListener::Listen({"127.0.0.1", 0});
    ASSERT_TRUE(listener.ok()) << listener.status();
    dead_port = (*listener)->port();
  }
  TcpWorkerClientOptions options;
  options.endpoint = {"127.0.0.1", dead_port};
  options.worker.shard = -1;
  options.connect_timeout_ms = 500;
  options.backoff_base_ms = 20;
  options.backoff_cap_ms = 100;
  options.backoff_seed = 77;
  options.max_connect_failures = 4;
  TcpWorkerClient client(options);
  Status status = client.Run();
  ASSERT_FALSE(status.ok());  // gave up with the dial error
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status;
  EXPECT_EQ(client.reconnects(), 0u);  // never registered, so no resumes
  // Three backoffs separate the four dials; each is the scheduled wait.
  const std::vector<int> expected = {ReconnectBackoffMs(0, 20, 100, 77),
                                     ReconnectBackoffMs(1, 20, 100, 77),
                                     ReconnectBackoffMs(2, 20, 100, 77)};
  EXPECT_EQ(client.backoff_history(), expected);
}

// ---------------------------------------------------------------------------
// Circuit breaker and degraded mode
// ---------------------------------------------------------------------------

// Three consecutive dropped results exhaust their RPC deadlines and trip
// the lone worker's breaker; the cooldown elapses into a half-open
// probe, the (now healed) worker answers it, the breaker closes, and the
// job completes bit-identical with no degraded work.
TEST(ClusterBreakerTest, TripProbeCloseUnderConsecutiveDeadlineExpiry) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 1;
  options.fault_specs = {"drop-frame:until=3"};
  options.dispatcher.rpc_deadline_ms = 150;
  options.dispatcher.max_task_attempts = 8;
  options.dispatcher.breaker_trip_threshold = 3;
  options.dispatcher.breaker_cooldown_ms = 250;
  // Wait for the probe, don't degrade.
  options.dispatcher.degraded_grace_ms = 10000;
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "breaker-trip-probe-close");

  const ClusterStats stats = fixture->cluster_stats();
  EXPECT_GE(stats.retried_tasks, 3u);
  EXPECT_GE(stats.breaker_trips, 1u);
  EXPECT_GE(stats.breaker_probes, 1u);
  EXPECT_EQ(stats.degraded_evaluations, 0u);
  EXPECT_EQ(stats.results_applied, reference.num_fresh_trainings);
}

// Total outage from the start: the lone worker is killed before the job
// runs. The first evaluation waits out the outage's grace window; it and
// every later one fail Unavailable, and ClusterUtility trains them on the
// coordinator instead — bit-identical values, zero remote results.
TEST(ClusterDegradedTest, TotalOutageServesBitIdenticalValuesLocally) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 1;
  options.dispatcher.heartbeat_timeout_ms = 500;
  options.dispatcher.degraded_grace_ms = 100;
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  fixture->KillWorker(0);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "degraded-total-outage");

  const ClusterStats stats = fixture->cluster_stats();
  EXPECT_EQ(stats.results_applied, 0u);  // nothing came from a worker
  EXPECT_GE(stats.degraded_evaluations, reference.num_fresh_trainings);
}

// Mid-job outage: the worker dies partway through. Work done before the
// death arrived remotely; everything after degrades to coordinator-local
// training. The seam between the two regimes is invisible in the values.
TEST(ClusterDegradedTest, MidJobOutageDegradesAndStaysBitIdentical) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 1;
  options.fault_specs = {"kill-worker:after=2"};
  options.dispatcher.heartbeat_timeout_ms = 500;
  options.dispatcher.degraded_grace_ms = 100;
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "degraded-mid-job");

  const ClusterStats stats = fixture->cluster_stats();
  EXPECT_EQ(stats.workers_lost, 1u);
  EXPECT_GE(stats.results_applied, 1u);       // some work ran remotely
  EXPECT_GE(stats.degraded_evaluations, 1u);  // the rest degraded
}

using Clock = std::chrono::steady_clock;

/// A dispatcher with workload "w" registered and no worker attached yet.
std::unique_ptr<ClusterDispatcher> OutageDispatcher(int grace_ms) {
  const ScenarioSpec scenario = LinregScenario(4);
  Result<std::unique_ptr<UtilityFunction>> local = scenario.Build();
  EXPECT_TRUE(local.ok()) << local.status();
  ClusterDispatcher::Options options;
  options.degraded_grace_ms = grace_ms;
  auto dispatcher = std::make_unique<ClusterDispatcher>(options);
  dispatcher->RegisterWorkload("w", scenario,
                               local.ok() ? (*local)->Fingerprint() : 0);
  return dispatcher;
}

/// Runs one evaluation and returns how long it took; `status` gets its
/// outcome.
Clock::duration TimedEvaluate(ClusterDispatcher& dispatcher, Status* status) {
  const Clock::time_point start = Clock::now();
  *status = dispatcher.Evaluate("w", Coalition::Of({0, 1})).status();
  return Clock::now() - start;
}

// The grace window belongs to the outage: the first evaluation pays it,
// the other nine fail Unavailable at once. (Paid per evaluation, ten
// calls would take ten windows.)
TEST(ClusterDegradedTest, OutagePaysTheGraceWindowOnce) {
  constexpr int kGraceMs = 200;
  auto dispatcher = OutageDispatcher(kGraceMs);
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < 10; ++i) {
    Status status;
    (void)TimedEvaluate(*dispatcher, &status);
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << "call " << i;
  }
  EXPECT_LT(Clock::now() - start, std::chrono::milliseconds(2 * kGraceMs));
  dispatcher->Shutdown();
}

// Two evaluations in flight during one outage share its window: the one
// that arrives halfway through waits only for what is left of it.
TEST(ClusterDegradedTest, ConcurrentEvaluationsShareOneWindow) {
  constexpr int kGraceMs = 400;
  auto dispatcher = OutageDispatcher(kGraceMs);
  Status first_status;
  Clock::duration first_wait{};
  std::thread first(
      [&] { first_wait = TimedEvaluate(*dispatcher, &first_status); });
  std::this_thread::sleep_for(std::chrono::milliseconds(kGraceMs / 2));
  Status second_status;
  const Clock::duration second_wait =
      TimedEvaluate(*dispatcher, &second_status);
  first.join();
  EXPECT_EQ(first_status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(second_status.code(), StatusCode::kUnavailable);
  EXPECT_GE(first_wait, std::chrono::milliseconds(kGraceMs));
  EXPECT_LT(second_wait, std::chrono::milliseconds(kGraceMs));
  dispatcher->Shutdown();
}

// A worker becoming schedulable ends the outage: after it attaches and
// dies again, the next evaluation waits a full window before degrading.
TEST(ClusterDegradedTest, WorkerReturnRearmsTheGraceWindow) {
  constexpr int kGraceMs = 200;
  const auto grace = std::chrono::milliseconds(kGraceMs);
  auto dispatcher = OutageDispatcher(kGraceMs);
  Status status;
  EXPECT_GE(TimedEvaluate(*dispatcher, &status), grace);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_LT(TimedEvaluate(*dispatcher, &status), grace);  // latched
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);

  auto pair = CreateChannelPair();
  ASSERT_TRUE(pair.ok()) << pair.status();
  FrameChannel* worker_end = pair->second.get();
  std::thread worker_thread([worker_end] {
    ClusterWorker worker(worker_end, ClusterWorkerOptions());
    (void)worker.Run();
  });
  dispatcher->AttachWorker(std::move(pair->first));
  ASSERT_EQ(dispatcher->live_workers(), 1u);
  (void)TimedEvaluate(*dispatcher, &status);
  EXPECT_TRUE(status.ok()) << status;

  worker_end->Shutdown();  // the worker dies
  worker_thread.join();
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(5);
  while (dispatcher->live_workers() > 0 && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(dispatcher->live_workers(), 0u);
  EXPECT_GE(TimedEvaluate(*dispatcher, &status), grace);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  dispatcher->Shutdown();
}

// ---------------------------------------------------------------------------
// Monitor deadline unification (the tick-clamp helper)
// ---------------------------------------------------------------------------

TEST(ClusterMonitorTest, NextDeadlineMsPicksTheEarliestPendingDeadline) {
  using Deadlines = ClusterDispatcher::MonitorDeadlines;
  // Nothing pending: the max tick.
  EXPECT_EQ(ClusterDispatcher::NextDeadlineMs(Deadlines{-1, -1}), 250);
  // The earliest class wins regardless of which one it is.
  EXPECT_EQ(ClusterDispatcher::NextDeadlineMs(Deadlines{100, 50}), 50);
  EXPECT_EQ(ClusterDispatcher::NextDeadlineMs(Deadlines{40, 120}), 40);
  EXPECT_EQ(ClusterDispatcher::NextDeadlineMs(Deadlines{-1, 30}), 30);
}

TEST(ClusterMonitorTest, NextDeadlineMsClampsToTickBounds) {
  using Deadlines = ClusterDispatcher::MonitorDeadlines;
  // An overdue (or absurdly small) deadline cannot spin the monitor.
  EXPECT_EQ(ClusterDispatcher::NextDeadlineMs(Deadlines{0, -1}), 10);
  EXPECT_EQ(ClusterDispatcher::NextDeadlineMs(Deadlines{-1, 3}), 10);
  // A far-future deadline cannot stall it past the heartbeat scan.
  EXPECT_EQ(ClusterDispatcher::NextDeadlineMs(Deadlines{60000, -1}), 250);
}

// ---------------------------------------------------------------------------
// Registration handshake protocol
// ---------------------------------------------------------------------------

TEST(ClusterProtocolTest, WorkerRegistrationCodecRoundTrips) {
  WorkerRegistration registration;
  registration.shard = 3;
  registration.pid = 4242;
  registration.workloads = {{"linreg/8/11", 0xDEADBEEFCAFEF00DULL},
                            {"digits/4/7", 17}};
  const std::string payload = EncodeWorkerRegistration(registration);
  Result<WorkerRegistration> decoded = DecodeWorkerRegistration(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->protocol_version, kClusterProtocolVersion);
  EXPECT_EQ(decoded->shard, 3);
  EXPECT_EQ(decoded->pid, 4242u);
  EXPECT_EQ(decoded->workloads, registration.workloads);

  // The unassigned-shard sentinel survives the wire.
  registration.shard = -1;
  decoded = DecodeWorkerRegistration(EncodeWorkerRegistration(registration));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->shard, -1);

  EXPECT_FALSE(DecodeWorkerRegistration("").ok());
  EXPECT_FALSE(DecodeWorkerRegistration("\xff\xff\xff").ok());
}

// Varint fields decode into 64 bits; a value that does not fit the field
// it lands in is rejected, not truncated into a plausible one.
TEST(ClusterProtocolTest, RegistrationRejectsOutOfRangeProtocolVersion) {
  ByteWriter writer;
  writer.PutVarint((uint64_t{1} << 32) + kClusterProtocolVersion);
  writer.PutVarint(0);  // shard + 1: "assign me one"
  writer.PutVarint(1);  // pid
  writer.PutVarint(0);  // no workloads
  Result<WorkerRegistration> decoded =
      DecodeWorkerRegistration(writer.bytes());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClusterProtocolTest, WorkerRejectsOutOfRangeWelcomeShard) {
  auto pair = CreateChannelPair();
  ASSERT_TRUE(pair.ok()) << pair.status();
  ByteWriter welcome;
  welcome.PutVarint(kClusterProtocolVersion);
  welcome.PutVarint((uint64_t{1} << 32) + 3);
  // Both frames wait in the socket buffer until the worker reads them; a
  // worker that accepted the Welcome would run on to the Shutdown.
  ASSERT_TRUE(pair->first
                  ->Send(cluster_proto::kWelcome, welcome.bytes())
                  .ok());
  ASSERT_TRUE(pair->first->Send(cluster_proto::kShutdown, "").ok());
  ClusterWorkerOptions options;
  options.shard = -1;
  ClusterWorker worker(pair->second.get(), options);
  EXPECT_EQ(worker.Run().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(worker.welcomed());
  EXPECT_EQ(worker.shard(), -1);
}

// A worker speaking a different protocol version is vetoed at the
// handshake — a Reject frame naming the mismatch, before any workload
// state is exchanged — over either transport: a TCP connection through
// the real listener, and a socketpair end handed to AttachWorker.
TEST(ClusterProtocolTest, VersionMismatchIsRejectedAtRegistration) {
  WorkerRegistration stale;
  stale.protocol_version = kClusterProtocolVersion - 1;
  const std::string register_payload = EncodeWorkerRegistration(stale);
  const auto expect_reject = [](FrameChannel& worker_end) {
    Result<std::optional<Frame>> reply = worker_end.Recv(5000);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_TRUE(reply->has_value());
    EXPECT_EQ((*reply)->type, cluster_proto::kReject);
  };
  {
    ClusterDispatcher dispatcher;
    Result<int> port = dispatcher.ListenAndServe({"127.0.0.1", 0});
    ASSERT_TRUE(port.ok()) << port.status();
    EXPECT_EQ(dispatcher.listen_port(), *port);

    Result<std::unique_ptr<FrameChannel>> channel =
        TcpConnect({"127.0.0.1", *port}, 2000);
    ASSERT_TRUE(channel.ok()) << channel.status();
    ASSERT_TRUE(
        (*channel)->Send(cluster_proto::kRegister, register_payload).ok());
    expect_reject(**channel);
    EXPECT_EQ(dispatcher.live_workers(), 0u);
    dispatcher.Shutdown();
  }
  {
    ClusterDispatcher dispatcher;
    auto pair = CreateChannelPair();
    ASSERT_TRUE(pair.ok()) << pair.status();
    // The Register frame waits in the socket buffer until the handshake
    // reads it.
    ASSERT_TRUE(
        pair->second->Send(cluster_proto::kRegister, register_payload).ok());
    dispatcher.AttachWorker(std::move(pair->first));
    expect_reject(*pair->second);
    EXPECT_EQ(dispatcher.live_workers(), 0u);
    dispatcher.Shutdown();
  }
}

// ScenarioSpec wire codec: round-trip identity and version rejection —
// the handshake the workload announce rides on.
TEST(ClusterProtocolTest, ScenarioSpecCodecRoundTrips) {
  ScenarioSpec spec;
  spec.kind = "digits";
  spec.n = 7;
  spec.partition = "skew";
  spec.seed = 99;
  spec.fl_rounds = 5;
  spec.local_epochs = 2;
  spec.batch_size = 8;
  spec.learning_rate = 0.125;
  spec.samples_per_client = 33;
  spec.noise_scale = 0.5;

  ByteWriter writer;
  EncodeScenarioSpec(spec, writer);
  ByteReader reader(writer.bytes());
  Result<ScenarioSpec> decoded = DecodeScenarioSpec(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->CanonicalKey(), spec.CanonicalKey());
  EXPECT_EQ(decoded->learning_rate, spec.learning_rate);
  EXPECT_EQ(decoded->noise_scale, spec.noise_scale);

  ByteWriter bad;
  bad.PutU8(99);  // unknown future version
  ByteReader bad_reader(bad.bytes());
  EXPECT_FALSE(DecodeScenarioSpec(bad_reader).ok());

  // Each int field travels as a 64-bit varint: a value above INT_MAX is
  // rejected, not truncated (n = 2^32 + 5 would decode as n = 5).
  for (int field = 0; field < 5; ++field) {
    uint64_t ints[5] = {7, 5, 2, 8, 33};  // n, rounds, epochs, batch, samples
    ints[field] = (uint64_t{1} << 32) + 5;
    ByteWriter hostile;
    hostile.PutU8(1);
    hostile.PutString("digits");
    hostile.PutVarint(ints[0]);
    hostile.PutString("skew");
    hostile.PutVarint(99);
    hostile.PutVarint(ints[1]);
    hostile.PutVarint(ints[2]);
    hostile.PutVarint(ints[3]);
    hostile.PutDouble(0.125);
    hostile.PutVarint(ints[4]);
    hostile.PutDouble(0.5);
    ByteReader hostile_reader(hostile.bytes());
    Result<ScenarioSpec> rejected = DecodeScenarioSpec(hostile_reader);
    ASSERT_FALSE(rejected.ok()) << "field " << field;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace fedshap
