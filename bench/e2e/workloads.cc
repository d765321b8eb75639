#include <string>

#include "e2e.h"

namespace fedshap::e2e {

namespace {

/// SplitMix64 finalizer over (a, b): every job parameter is drawn from
/// the workload seed and the job's index through this, so the job list
/// is a pure function of the seed.
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct EstimatorChoice {
  EstimatorKind kind;
  const char* allocation;
};

/// The resumable estimators the paper compares (IPSS against stratified
/// sampling, fixed and Neyman-allocated, and permutation sampling).
constexpr EstimatorChoice kSamplerMix[] = {
    {EstimatorKind::kIpss, "fixed"},
    {EstimatorKind::kStratified, "fixed"},
    {EstimatorKind::kStratified, "neyman"},
    {EstimatorKind::kPermMc, "fixed"},
};

/// The tenant mix: the samplers plus four one-shot estimators, so both
/// service paths (checkpointed slices and single-unit jobs) carry load.
constexpr EstimatorChoice kTenantMix[] = {
    {EstimatorKind::kIpss, "fixed"},
    {EstimatorKind::kStratified, "fixed"},
    {EstimatorKind::kStratified, "neyman"},
    {EstimatorKind::kPermMc, "fixed"},
    {EstimatorKind::kAdaptiveIpss, "fixed"},
    {EstimatorKind::kCcShapley, "fixed"},
    {EstimatorKind::kBanzhaf, "fixed"},
    {EstimatorKind::kLeaveOneOut, "fixed"},
};

JobSpec Job(const std::string& name, const EstimatorChoice& estimator,
            int gamma, uint64_t job_seed, const ScenarioSpec& scenario) {
  JobSpec spec;
  spec.name = name;
  spec.estimator = estimator.kind;
  spec.allocation = estimator.allocation;
  spec.gamma = gamma;
  spec.seed = job_seed;
  spec.scenario = scenario;
  return spec;
}

ScenarioSpec Digits(int n, uint64_t seed) {
  ScenarioSpec scenario;
  scenario.kind = "digits";
  scenario.n = n;
  scenario.seed = seed;
  return scenario;
}

/// Tenant workloads: each round of kTenantRound jobs values 4 fresh
/// federations, shared by all of the round's jobs. The first few hundred
/// jobs of a round fill the 4 caches (4 x 2^7 trainings); the rest are
/// cache hits, so the estimator/session/cache/service path dominates.
constexpr int kTenantFederations = 4;
constexpr int kTenantClients = 7;
constexpr int kTenantGamma = 40;
constexpr size_t kTenantRound = 20000;

JobSpec TenantJob(uint64_t seed, size_t index) {
  const ScenarioSpec scenario = Digits(
      kTenantClients, Mix(seed, kTenantFederations * (index / kTenantRound) +
                                    index % kTenantFederations));
  return Job(std::to_string(index),
             kTenantMix[(index / kTenantFederations) % 8], kTenantGamma,
             Mix(seed, 1000000 + index), scenario);
}

/// A train-heavy job: a federation of its own, so nothing is shared and
/// every utility query is a full FedAvg training (10 rounds x 5 local
/// epochs), the paper's trainings x tau regime.
JobSpec TrainHeavyJob(uint64_t seed, size_t index) {
  ScenarioSpec scenario = Digits(8, Mix(seed, index));
  scenario.fl_rounds = 10;
  scenario.local_epochs = 5;
  return Job(std::to_string(index), kSamplerMix[index % 4], 48,
             Mix(seed, 1000000 + index), scenario);
}

/// durable-mixed and cluster-outage run rounds of 10 jobs, 3 of them heavy
/// and spread out so the two clients pair jobs the same way every round:
/// 7 of 10 jobs are light, so p50 is set by light jobs and p90 by heavy.
constexpr size_t kMixedRound = 10;

bool IsHeavyPosition(size_t position) {
  return position == 2 || position == 5 || position == 8;
}

/// durable-mixed: light jobs re-run a stored permutation-sampling
/// valuation (reads); heavy jobs are writes, train-heavy federations
/// valued at gamma = 16, so a run holds about 700 jobs. A re-run draws the
/// stored job's 20000 permutations of n = 10 clients again, so every
/// training it reads is in the store. A re-run is one slice: the
/// estimator's few milliseconds of work beside its three fsyncs keep its
/// latency from being set by the disk alone, and every extra slice adds a
/// hand-off and a snapshot (README.md, "Noise").
constexpr int kStoredFederations = 3;
constexpr int kStoredClients = 10;
constexpr int kStoredPermutations = 20000;
constexpr int kWriteGamma = 16;

/// cluster-outage: every job values a fresh federation with IPSS, so each
/// of its gamma coalitions meets the outage and waits out the grace
/// window once. Light jobs have 3 coalitions, heavy ones 6.
constexpr int kOutageLightGamma = 3;
constexpr int kOutageHeavyGamma = 6;

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"train-heavy", "shared-tenants", "durable-mixed", "cluster-tcp",
          "cluster-outage"};
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload workload;
  workload.name = name;
  if (name == "train-heavy") return workload;
  if (name == "shared-tenants") {
    workload.round_jobs = kTenantRound;
    return workload;
  }
  if (name == "durable-mixed") {
    workload.durable = true;
    workload.round_jobs = kMixedRound;
    for (int f = 0; f < kStoredFederations; ++f) {
      JobSpec spec = Job("prep-" + std::to_string(f),
                         {EstimatorKind::kPermMc, "fixed"},
                         kStoredPermutations, Mix(seed, 3000000 + f),
                         Digits(kStoredClients, Mix(seed, 2000000 + f)));
      spec.checkpoint_every = kStoredPermutations;
      workload.prepared.push_back(spec);
    }
    return workload;
  }
  if (name == "cluster-tcp") {
    workload.round_jobs = kTenantRound;
    workload.cluster = true;
    workload.cluster_options.num_workers = 2;
    workload.cluster_options.transport = ClusterTransport::kTcp;
    return workload;
  }
  if (name == "cluster-outage") {
    workload.round_jobs = kMixedRound;
    workload.cluster = true;
    workload.cluster_options.num_workers = 1;
    workload.cluster_options.transport = ClusterTransport::kTcp;
    workload.cluster_options.fault_specs = {"kill-worker:after=20"};
    workload.cluster_options.dispatcher.degraded_grace_ms = 50;
    return workload;
  }
  return Status::NotFound("unknown workload '" + name + "'");
}

JobSpec MakeJob(const Workload& workload, uint64_t seed, size_t index) {
  const std::string& name = workload.name;
  if (name == "train-heavy") {
    JobSpec spec = TrainHeavyJob(seed, index);
    spec.prefetch = (index / 4) % 2 == 1 ? 16 : 0;
    return spec;
  }
  if (name == "durable-mixed") {
    if (IsHeavyPosition(index % kMixedRound)) {
      JobSpec spec = TrainHeavyJob(Mix(seed, 4000000), index);
      spec.gamma = kWriteGamma;
      return spec;
    }
    JobSpec spec = workload.prepared[index % kStoredFederations];
    spec.name = std::to_string(index) + "-rerun";
    return spec;
  }
  if (name == "cluster-outage") {
    // Jobs that share federations meet a varying number of grace waits,
    // and their median job sat at the boundary between two 50 ms levels,
    // flipping p50 from run to run (README.md, "Noise").
    const int gamma = IsHeavyPosition(index % kMixedRound)
                          ? kOutageHeavyGamma
                          : kOutageLightGamma;
    return Job(std::to_string(index), {EstimatorKind::kIpss, "fixed"}, gamma,
               Mix(seed, 1000000 + index), Digits(6, Mix(seed, index)));
  }
  return TenantJob(seed, index);  // shared-tenants, cluster-tcp
}

bool IsStoredRerun(const JobSpec& spec) {
  const std::string suffix = "-rerun";
  return spec.name.size() > suffix.size() &&
         spec.name.compare(spec.name.size() - suffix.size(), suffix.size(),
                           suffix) == 0;
}

}  // namespace fedshap::e2e
