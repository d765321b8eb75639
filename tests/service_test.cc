// Tests of the src/service layer: job-spec parsing, the multi-tenant
// ValuationService's cross-job training dedup, cancellation, and the
// stop -> recover -> bit-identical-resume contract.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <latch>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "fl/fedavg.h"
#include "fl/utility.h"
#include "ml/kernel_backend.h"
#include "ml/logistic_regression.h"
#include "ml/matrix.h"
#include "ml/mlp.h"
#include "service/job_spec.h"
#include "service/valuation_service.h"
#include "test_util.h"
#include "util/serialization.h"

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

// Cluster workers compare workload keys, and state directories hold
// spec lines, so both texts are pinned byte for byte.
TEST(JobSpecTest, CanonicalKeysAndLinesArePinned) {
  ScenarioSpec digits;
  EXPECT_EQ(digits.CanonicalKey(),
            "kind=digits n=6 seed=2025 partition=bygroup rounds=3 epochs=1 "
            "batch=16 lr=0.29999999999999999");
  ScenarioSpec linreg = LinregScenario(7, UINT64_MAX);
  linreg.noise_scale = 0.1;
  EXPECT_EQ(linreg.CanonicalKey(),
            "kind=linreg n=7 seed=18446744073709551615 samples=50 "
            "noise=0.10000000000000001");
  JobSpec spec = MakeJob("pin", EstimatorKind::kPermMc, linreg, 30, 0);
  spec.k = -2;
  spec.scenario.noise_scale = 1e-300;
  EXPECT_EQ(spec.ToLine(),
            "name=pin estimator=perm-mc gamma=30 k=-2 seed=5 chunk=0 "
            "allocation=fixed scenario=linreg n=7 "
            "scenario-seed=18446744073709551615 samples=50 "
            "noise=1e-300");
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
  // prefetch= and fuse= are ignored but still accepted, so job files
  // written by older versions (which carried the keys) recover; ToLine
  // writes neither.
  Result<JobSpec> legacy = JobSpec::FromLine(
      "name=a estimator=ipss gamma=8 prefetch=8 fuse=on scenario=linreg n=4");
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  EXPECT_EQ(legacy->ToLine().find("prefetch"), std::string::npos);
  EXPECT_EQ(legacy->ToLine().find("fuse"), std::string::npos);
  Result<JobSpec> plain =
      JobSpec::FromLine("name=a estimator=ipss gamma=8 scenario=linreg n=4");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(legacy->ToLine(), plain->ToLine());

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

// Persisted utility stores are addressed by the workload fingerprint, so
// a change to what FedAvgUtility::Fingerprint hashes orphans every store
// on disk. The literal pins one digits workload; a deliberate change must
// update it and say why the old stores may be dropped.
TEST(JobSpecTest, DigitsFingerprintIsPinned) {
  ScenarioSpec scenario;
  scenario.kind = "digits";
  scenario.n = 4;
  scenario.seed = 2025;
  Result<std::unique_ptr<UtilityFunction>> utility = scenario.Build();
  ASSERT_TRUE(utility.ok()) << utility.status();
  EXPECT_EQ((*utility)->Fingerprint(), 0x0579bdf4b115b1c6ULL);
}

// The digits scenarios of the end-to-end benchmark, from data generation
// through the model's initial weights: n = 6, 7 and 10 with the default
// training, and train-heavy's n = 8 with 10 rounds of 5 local epochs.
TEST(JobSpecTest, E2eDigitsFingerprintsArePinned) {
  const struct {
    int n;
    int fl_rounds;
    int local_epochs;
    uint64_t fingerprint;
  } pins[] = {{6, 3, 1, 0xcbb684d9135853aeULL},
              {7, 3, 1, 0x6f46d70a0fbd52c9ULL},
              {10, 3, 1, 0xac3fa714aeac4b83ULL},
              {8, 10, 5, 0x3c76f0af50bb5969ULL}};
  for (const auto& pin : pins) {
    SCOPED_TRACE(::testing::Message() << "n=" << pin.n);
    ScenarioSpec scenario;
    scenario.kind = "digits";
    scenario.n = pin.n;
    scenario.fl_rounds = pin.fl_rounds;
    scenario.local_epochs = pin.local_epochs;
    Result<std::unique_ptr<UtilityFunction>> utility = scenario.Build();
    ASSERT_TRUE(utility.ok()) << utility.status();
    EXPECT_EQ((*utility)->Fingerprint(), pin.fingerprint);
  }
}

/// Hash of the IEEE-754 bits of U(S) over every non-empty coalition of
/// `utility`, in coalition-mask order.
uint64_t AllCoalitionsHash(const UtilityFunction& utility) {
  const int n = utility.num_clients();
  Hasher64 hasher;
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    Coalition coalition;
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1) coalition.Add(i);
    }
    Result<double> value = utility.Evaluate(coalition);
    EXPECT_TRUE(value.ok()) << value.status();
    hasher.MixDouble(value.ok() ? *value : -1.0);
  }
  return hasher.digest();
}

// The scored values themselves, not only the workload identity: test
// accuracy over every coalition of two seed-2025 e2e digits federations,
// n = 6 with the default training and train-heavy's n = 8 with 10 rounds
// of 5 local epochs. A change to how a trained model is scored must keep
// each accuracy bit for bit.
TEST(JobSpecTest, E2eDigitsUtilitiesArePinned) {
  const struct {
    int n;
    int fl_rounds;
    int local_epochs;
    uint64_t hash;
  } pins[] = {{6, 3, 1, 0xab82d63addaf8fa1ULL},
              {8, 10, 5, 0x9cc8bf5b92830c19ULL}};
  for (const auto& pin : pins) {
    SCOPED_TRACE(::testing::Message() << "n=" << pin.n);
    ScenarioSpec scenario;
    scenario.kind = "digits";
    scenario.n = pin.n;
    scenario.fl_rounds = pin.fl_rounds;
    scenario.local_epochs = pin.local_epochs;
    Result<std::unique_ptr<UtilityFunction>> utility = scenario.Build();
    ASSERT_TRUE(utility.ok()) << utility.status();
    EXPECT_EQ(AllCoalitionsHash(**utility), pin.hash);
  }
}

// The negative-loss metric on a hidden-layer model: the n = 6 digits
// federation trained as a 36-16-5 Mlp, U(S) = minus the mean test
// cross-entropy, over every coalition. Scored bits that move here need
// a numerics-version bump in FedAvgUtility's fingerprint.
TEST(JobSpecTest, MlpNegativeLossUtilitiesArePinned) {
  ScenarioSpec scenario;
  scenario.kind = "digits";
  scenario.n = 6;
  Result<std::unique_ptr<UtilityFunction>> built = scenario.Build();
  ASSERT_TRUE(built.ok()) << built.status();
  const auto* digits = dynamic_cast<const FedAvgUtility*>(built->get());
  ASSERT_NE(digits, nullptr);
  std::vector<Dataset> clients;
  for (int i = 0; i < digits->num_clients(); ++i) {
    clients.push_back(digits->client(i).data());
  }
  const Dataset& test = digits->test_data();
  Mlp prototype(test.num_features(), 16, test.num_classes());
  Rng init(2025);
  prototype.InitializeParameters(init);
  Result<std::unique_ptr<FedAvgUtility>> utility = FedAvgUtility::Create(
      std::move(clients), test, prototype, digits->config(),
      UtilityMetric::kNegativeLoss);
  ASSERT_TRUE(utility.ok()) << utility.status();
  EXPECT_EQ(AllCoalitionsHash(**utility), 0x89a354100c95a715ULL);
}

// FedAvgUtility hashes its workload once, in Create: every call returns
// that value, and a utility created again from the same parts has it too.
TEST(JobSpecTest, FedAvgFingerprintIsHashedOnceAtCreate) {
  ScenarioSpec scenario;
  scenario.kind = "digits";
  scenario.n = 6;
  Result<std::unique_ptr<UtilityFunction>> built = scenario.Build();
  ASSERT_TRUE(built.ok()) << built.status();
  const auto* utility = dynamic_cast<const FedAvgUtility*>(built->get());
  ASSERT_NE(utility, nullptr);
  const uint64_t fingerprint = utility->Fingerprint();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(utility->Fingerprint(), fingerprint);
  EXPECT_EQ(fingerprint, 0xcbb684d9135853aeULL);  // the n = 6 pin above
  std::vector<Dataset> clients;
  for (int i = 0; i < utility->num_clients(); ++i) {
    clients.push_back(utility->client(i).data());
  }
  Result<std::unique_ptr<FedAvgUtility>> again = FedAvgUtility::Create(
      std::move(clients), utility->test_data(), utility->prototype(),
      utility->config(), utility->metric());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ((*again)->Fingerprint(), fingerprint);
}

// ---------------------------------------------------------------------------
// Logistic-regression training pin
//
// Stored utilities are only reusable while the trained parameters stay
// bit-identical, so the FedAvg logistic-regression step is pinned against
// a reference composed from the public batched kernels, and its trained
// bits against literals that hold under every backend.

/// LogisticRegression whose minibatch step is the kernel composition
/// GatherRows + Transpose + MatMul + AddBiasRows + SoftmaxRows +
/// AddOuterBatch + ColumnSums.
class ReferenceLogReg : public LogisticRegression {
 public:
  ReferenceLogReg(int dim, int num_classes)
      : LogisticRegression(dim, num_classes),
        dim_(static_cast<size_t>(dim)),
        classes_(static_cast<size_t>(num_classes)) {}

  std::unique_ptr<Model> Clone() const override {
    return std::make_unique<ReferenceLogReg>(*this);
  }

  void ComputeGradientBatched(const Dataset& data,
                              const std::vector<size_t>& batch,
                              std::vector<float>& grad) const override {
    grad.assign(params_.size(), 0.0f);
    if (batch.empty()) return;
    const size_t bsz = batch.size();
    const size_t weight_count = classes_ * dim_;
    const float inv = 1.0f / static_cast<float>(bsz);
    AlignedFloats xb, wt(dim_ * classes_), probs(bsz * classes_);
    GatherRows(data, batch, xb);
    Transpose(params_.data(), classes_, dim_, wt.data());
    MatMul(xb.data(), bsz, dim_, wt.data(), classes_, probs.data());
    AddBiasRows(probs.data(), bsz, classes_, params_.data() + weight_count);
    SoftmaxRows(probs.data(), bsz, classes_);
    for (size_t i = 0; i < bsz; ++i) {
      probs[i * classes_ + data.ClassLabel(batch[i])] -= 1.0f;
    }
    AddOuterBatch(grad.data(), classes_, dim_, inv, probs.data(), xb.data(),
                  bsz);
    ColumnSums(probs.data(), bsz, classes_, grad.data() + weight_count);
    for (size_t c = 0; c < classes_; ++c) grad[weight_count + c] *= inv;
  }

 private:
  size_t dim_;
  size_t classes_;
};

using testing_util::ExecutableBackends;

/// Restores the entry kernel backend after each test, which pins its own.
class LogRegStepPinTest : public ::testing::Test {
 protected:
  void SetUp() override { original_ = SelectedKernelBackend(); }
  void TearDown() override {
    ASSERT_TRUE(SetKernelBackend(original_).ok());
  }

 private:
  KernelBackend original_ = KernelBackend::kScalar;
};

/// The n=4 digits workload at `batch_size`, as the service builds it.
std::unique_ptr<UtilityFunction> DigitsUtility(int batch_size) {
  ScenarioSpec scenario;
  scenario.kind = "digits";
  scenario.n = 4;
  scenario.seed = 2025;
  scenario.batch_size = batch_size;
  Result<std::unique_ptr<UtilityFunction>> utility = scenario.Build();
  EXPECT_TRUE(utility.ok()) << utility.status();
  return utility.ok() ? std::move(utility).value() : nullptr;
}

/// FedAvg over every client of `utility`, starting from `prototype`.
std::vector<float> TrainAll(const FedAvgUtility& utility,
                            const Model& prototype) {
  std::vector<const FlClient*> clients;
  for (int i = 0; i < utility.num_clients(); ++i) {
    clients.push_back(&utility.client(i));
  }
  Result<std::unique_ptr<Model>> trained =
      TrainFedAvg(prototype, clients, utility.config());
  EXPECT_TRUE(trained.ok()) << trained.status();
  return trained.ok() ? (*trained)->GetParameters() : std::vector<float>{};
}

/// The digits workload's grand-coalition parameters trained by the shipped
/// LogisticRegression and by ReferenceLogReg from the same initialization.
std::pair<std::vector<float>, std::vector<float>> TrainDigitsBothWays(
    int batch_size) {
  std::unique_ptr<UtilityFunction> built = DigitsUtility(batch_size);
  const auto* utility = dynamic_cast<const FedAvgUtility*>(built.get());
  EXPECT_NE(utility, nullptr);
  if (utility == nullptr) return {};
  const Dataset& test = utility->test_data();
  ReferenceLogReg reference(test.num_features(), test.num_classes());
  EXPECT_TRUE(
      reference.SetParameters(utility->prototype().GetParameters()).ok());
  return {TrainAll(*utility, utility->prototype()),
          TrainAll(*utility, reference)};
}

uint64_t ParameterHash(const std::vector<float>& params) {
  return Hasher64()
      .MixBytes(params.data(), params.size() * sizeof(float))
      .digest();
}

TEST_F(LogRegStepPinTest, DigitsTrainingMatchesKernelComposition) {
  for (KernelBackend backend : ExecutableBackends()) {
    ASSERT_TRUE(SetKernelBackend(backend).ok());
    for (int batch_size : {16, 13, 1}) {
      SCOPED_TRACE(std::string(KernelBackendName(backend)) + " batch " +
                   std::to_string(batch_size));
      const auto [shipped, reference] = TrainDigitsBothWays(batch_size);
      ASSERT_FALSE(reference.empty());
      ASSERT_EQ(shipped.size(), reference.size());
      for (size_t i = 0; i < shipped.size(); ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(shipped[i]),
                  std::bit_cast<uint32_t>(reference[i]))
            << "parameter " << i;
      }
    }
  }
}

/// A 64 -> 10 digits federation: four 100-row clients, a 203-row test
/// set and a 2-round FedAvg at batch 32. Eight classes fill two of
/// AVX2's four-class logit passes and two take its single-class tail;
/// Loss scores the 203 test rows.
class WideDigitsRun {
 public:
  WideDigitsRun() {
    DigitsConfig digits;
    digits.num_writers = 4;
    Rng rng(7);
    Result<FederatedSource> source = GenerateDigits(digits, 603, rng);
    EXPECT_TRUE(source.ok()) << source.status();
    if (!source.ok()) return;
    for (int c = 0; c < 4; ++c) {
      std::vector<size_t> rows;
      for (size_t i = c; i < 400; i += 4) rows.push_back(i);
      owned_.emplace_back(c, source->data.Subset(rows));
    }
    std::vector<size_t> test_rows(203);
    std::iota(test_rows.begin(), test_rows.end(), 400);
    test_ = source->data.Subset(test_rows);
    config_.rounds = 2;
    config_.local.batch_size = 32;
    config_.local.learning_rate = 0.2;
    Rng init(3);
    initial_.InitializeParameters(init);
  }

  const Dataset& test() const { return test_; }
  const LogisticRegression& initial() const { return initial_; }

  /// FedAvg over the four clients, starting from `prototype`.
  Result<std::unique_ptr<Model>> Train(const Model& prototype) const {
    std::vector<const FlClient*> clients;
    for (const FlClient& client : owned_) clients.push_back(&client);
    return TrainFedAvg(prototype, clients, config_);
  }

 private:
  std::vector<FlClient> owned_;
  Dataset test_;
  FedAvgConfig config_;
  LogisticRegression initial_{64, 10};
};

TEST_F(LogRegStepPinTest, WideLogRegMatchesKernelComposition) {
  const WideDigitsRun run;
  ReferenceLogReg reference(64, 10);
  ASSERT_TRUE(reference.SetParameters(run.initial().GetParameters()).ok());

  for (KernelBackend backend : ExecutableBackends()) {
    SCOPED_TRACE(KernelBackendName(backend));
    ASSERT_TRUE(SetKernelBackend(backend).ok());
    Result<std::unique_ptr<Model>> a = run.Train(run.initial());
    Result<std::unique_ptr<Model>> b = run.Train(reference);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(ParameterHash((*a)->GetParameters()),
              ParameterHash((*b)->GetParameters()));
    EXPECT_EQ((*a)->Loss(run.test()), (*b)->Loss(run.test()));
  }
}

// One literal set for every backend: each trains the scalar bits.
TEST_F(LogRegStepPinTest, DigitsParameterHashIsPinned) {
  const struct {
    int batch_size;
    uint64_t hash;
  } digits[] = {{16, 0xa936e0f791ac6728ULL},
                {13, 0x8fd6bdccd7c336e2ULL},
                {1, 0xdaf2a218b5fd74e3ULL}};
  for (KernelBackend backend : ExecutableBackends()) {
    SCOPED_TRACE(KernelBackendName(backend));
    ASSERT_TRUE(SetKernelBackend(backend).ok());
    for (const auto& pin : digits) {
      SCOPED_TRACE("batch " + std::to_string(pin.batch_size));
      std::unique_ptr<UtilityFunction> built = DigitsUtility(pin.batch_size);
      const auto* utility = dynamic_cast<const FedAvgUtility*>(built.get());
      ASSERT_NE(utility, nullptr);
      EXPECT_EQ(ParameterHash(TrainAll(*utility, utility->prototype())),
                pin.hash);
    }
    const WideDigitsRun run;
    Result<std::unique_ptr<Model>> wide = run.Train(run.initial());
    ASSERT_TRUE(wide.ok()) << wide.status();
    EXPECT_EQ(ParameterHash((*wide)->GetParameters()),
              0x4819a76a52d23e17ULL);
  }
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

// ---------------------------------------------------------------------------
// Scheduling: a job keeps its thread between slices only while no other
// job is queued, Wait runs its own queued job, and otherwise wakes on its
// own job's end or a halt.
// ---------------------------------------------------------------------------

// With a budget of two slices on one worker, the long job's first slice
// must hand the worker to the queued one-slice job: it finishes, the
// long job does not.
TEST(ValuationServiceTest, RunningJobYieldsToQueuedJobAtSliceBoundary) {
  ServiceConfig config;
  config.workers = 1;
  config.paused = true;
  config.max_slices = 2;
  ValuationService service(config);
  const ScenarioSpec scenario = LinregScenario(6);
  ASSERT_TRUE(service
                  .Submit(MakeJob("long", EstimatorKind::kExactMc, scenario,
                                  24, /*chunk=*/1))
                  .ok());
  ASSERT_TRUE(
      service.Submit(MakeJob("short", EstimatorKind::kLeaveOneOut, scenario))
          .ok());
  service.Resume();
  EXPECT_FALSE(service.WaitAll());  // Halted with "long" unfinished.
  Result<JobStatus> short_job = service.GetStatus("short");
  Result<JobStatus> long_job = service.GetStatus("long");
  ASSERT_TRUE(short_job.ok());
  ASSERT_TRUE(long_job.ok());
  EXPECT_EQ(short_job->state, JobState::kDone);
  EXPECT_NE(long_job->state, JobState::kDone);
  EXPECT_EQ(long_job->completed_units, 1u);
  EXPECT_EQ(service.stats().slices_executed, 2u);
}

TEST(ValuationServiceTest, WaitOnQueuedJobReturnsWhenServiceStops) {
  ServiceConfig config;
  config.workers = 1;
  config.paused = true;  // The job stays queued.
  ValuationService service(config);
  ASSERT_TRUE(
      service.Submit(MakeJob("queued", EstimatorKind::kIpss,
                             LinregScenario(5)))
          .ok());
  Status waited;
  std::thread waiter([&] { waited = service.Wait("queued").status(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // Let it block.
  service.Stop();
  waiter.join();
  EXPECT_EQ(waited.code(), StatusCode::kFailedPrecondition);
}

TEST(ValuationServiceTest, WaitOnQueuedJobReturnsAtMaxSlicesHalt) {
  ServiceConfig config;
  config.workers = 1;
  config.paused = true;
  config.max_slices = 1;
  ValuationService service(config);
  const ScenarioSpec scenario = LinregScenario(6);
  ASSERT_TRUE(service
                  .Submit(MakeJob("first", EstimatorKind::kExactMc, scenario,
                                  24, /*chunk=*/1))
                  .ok());
  ASSERT_TRUE(service
                  .Submit(MakeJob("second", EstimatorKind::kExactMc, scenario,
                                  24, /*chunk=*/1))
                  .ok());
  Status waited;
  std::thread waiter([&] { waited = service.Wait("second").status(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // Let it block.
  service.Resume();
  waiter.join();
  EXPECT_EQ(waited.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(service.halted());
  Result<JobStatus> second = service.GetStatus("second");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->state, JobState::kQueued);
}

// The only worker is inside one long slice: every coalition of a digits
// n = 10 federation, 1024 units in one chunk. A client that submits a
// short job and waits on it runs that job on its own thread, so it
// finishes while the long slice is still running instead of queueing
// behind it.
TEST(ValuationServiceTest, WaitRunsItsQueuedJobWhileTheWorkerIsBusy) {
  ServiceConfig config;
  config.workers = 1;
  ValuationService service(config);
  ScenarioSpec digits;
  digits.kind = "digits";
  digits.n = 10;
  digits.seed = 3;
  ASSERT_TRUE(service
                  .Submit(MakeJob("long", EstimatorKind::kExactMc, digits, 24,
                                  /*chunk=*/1024))
                  .ok());
  for (;;) {
    Result<JobStatus> status = service.GetStatus("long");
    ASSERT_TRUE(status.ok());
    if (status->state == JobState::kRunning) break;
    std::this_thread::yield();
  }
  const JobSpec short_job =
      MakeJob("short", EstimatorKind::kLeaveOneOut, LinregScenario(6));
  ASSERT_TRUE(service.Submit(short_job).ok());
  Result<ValuationResult> result = service.Wait("short");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->values, RunIsolated(short_job).values);
  Result<JobStatus> long_job = service.GetStatus("long");
  ASSERT_TRUE(long_job.ok());
  EXPECT_EQ(long_job->state, JobState::kRunning);
  EXPECT_EQ(long_job->completed_units, 0u);
  // Lands after the long slice; the destructor waits for it.
  ASSERT_TRUE(service.Cancel("long").ok());
}

// Stop returns only once a client running its own job in Wait has ended
// its slice: the worker's short slice ends first, and Stop must then wait
// for the client's longer one to checkpoint and requeue the job.
TEST(ValuationServiceTest, StopWaitsForTheSliceAClientIsRunning) {
  ServiceConfig config;
  config.workers = 1;
  ValuationService service(config);
  ScenarioSpec small;
  small.kind = "digits";
  small.n = 8;
  small.seed = 3;
  ScenarioSpec large = small;
  large.n = 10;
  // Build both workloads up front, so the Submits below are quick.
  for (const ScenarioSpec& scenario : {small, large}) {
    const std::string name = "warm-" + std::to_string(scenario.n);
    ASSERT_TRUE(
        service.Submit(MakeJob(name, EstimatorKind::kLeaveOneOut, scenario))
            .ok());
    ASSERT_TRUE(service.Wait(name).ok());
  }
  const auto await_running = [&](const std::string& name) {
    for (;;) {
      Result<JobStatus> status = service.GetStatus(name);
      if (!status.ok() || status->state != JobState::kQueued) return;
      std::this_thread::yield();
    }
  };
  // The worker's slice: 256 trainings of n = 8. The client's: 512 of
  // n = 10, the first half of its job.
  ASSERT_TRUE(service
                  .Submit(MakeJob("worker", EstimatorKind::kExactMc, small,
                                  24, /*chunk=*/256))
                  .ok());
  await_running("worker");
  ASSERT_TRUE(service
                  .Submit(MakeJob("client", EstimatorKind::kExactMc, large,
                                  24, /*chunk=*/512))
                  .ok());
  Status waited;
  std::thread client([&] { waited = service.Wait("client").status(); });
  await_running("client");
  service.Stop();
  Result<JobStatus> status = service.GetStatus("client");
  client.join();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kQueued);
  EXPECT_EQ(status->completed_units, 512u);
  EXPECT_EQ(waited.code(), StatusCode::kFailedPrecondition);
}

// A cancelled queued job leaves no run-queue entry behind. With one slice
// allowed, the worker runs "only" and then finds nothing queued, so it
// idles and the max_slices halt never trips. A stale "doomed" entry would
// make the worker look at the queue once more, tripping the halt.
TEST(ValuationServiceTest, CancelledQueuedJobLeavesNoEntryBehind) {
  ServiceConfig config;
  config.workers = 1;
  config.paused = true;
  config.max_slices = 1;
  ValuationService service(config);
  const ScenarioSpec scenario = LinregScenario(6);
  ASSERT_TRUE(
      service.Submit(MakeJob("only", EstimatorKind::kLeaveOneOut, scenario))
          .ok());
  ASSERT_TRUE(service
                  .Submit(MakeJob("doomed", EstimatorKind::kExactMc, scenario,
                                  24, /*chunk=*/1))
                  .ok());
  ASSERT_TRUE(service.Cancel("doomed").ok());
  service.Resume();
  EXPECT_TRUE(service.WaitAll());
  EXPECT_FALSE(service.halted());
  EXPECT_EQ(service.stats().slices_executed, 1u);
  Result<JobStatus> only = service.GetStatus("only");
  ASSERT_TRUE(only.ok());
  EXPECT_EQ(only->state, JobState::kDone);
}

// A terminal job frees its estimator and session, but keeps reporting the
// units it reached: done, cancelled while queued, and failed.
TEST(ValuationServiceTest, TerminalJobsStillReportTheirUnits) {
  ServiceConfig config;
  config.workers = 1;
  config.paused = true;
  ValuationService service(config);
  const ScenarioSpec scenario = LinregScenario(6);
  ASSERT_TRUE(service
                  .Submit(MakeJob("sweep", EstimatorKind::kExactMc, scenario,
                                  24, /*chunk=*/4))
                  .ok());
  ASSERT_TRUE(
      service.Submit(MakeJob("oneshot", EstimatorKind::kLeaveOneOut, scenario))
          .ok());
  ASSERT_TRUE(service
                  .Submit(MakeJob("doomed", EstimatorKind::kExactMc, scenario,
                                  24, /*chunk=*/4))
                  .ok());
  // exact-perm requires n <= 8; n = 10 fails inside the estimator.
  ASSERT_TRUE(service
                  .Submit(MakeJob("toolarge", EstimatorKind::kExactPerm,
                                  LinregScenario(10)))
                  .ok());
  ASSERT_TRUE(service.Cancel("doomed").ok());
  service.Resume();
  ASSERT_TRUE(service.WaitAll());

  struct Expected {
    const char* name;
    JobState state;
    size_t completed_units;
    size_t total_units;
  };
  const size_t sweep_units = size_t{1} << 6;  // One per coalition.
  for (const Expected& expected :
       {Expected{"sweep", JobState::kDone, sweep_units, sweep_units},
        Expected{"oneshot", JobState::kDone, 1, 1},
        Expected{"doomed", JobState::kCancelled, 0, sweep_units},
        Expected{"toolarge", JobState::kFailed, 0, 1}}) {
    SCOPED_TRACE(expected.name);
    Result<JobStatus> status = service.GetStatus(expected.name);
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(status->state, expected.state);
    EXPECT_EQ(status->completed_units, expected.completed_units);
    EXPECT_EQ(status->total_units, expected.total_units);
  }
}

// Client threads each submit, wait for and purge their own jobs. Every
// Wait must wake for its own job's completion (a missed per-job wakeup
// hangs here), and every job must match an isolated run. Waiters run
// their own jobs, so at one worker and at two they race the workers to
// claim each job.
TEST(ValuationServiceTest, ClientChurnEveryWaitSeesItsJobDone) {
  const ScenarioSpec scenario = LinregScenario(6, 41);
  const std::vector<EstimatorKind> kinds = {
      EstimatorKind::kIpss, EstimatorKind::kPermMc,
      EstimatorKind::kStratified, EstimatorKind::kLeaveOneOut};
  std::vector<ValuationResult> isolated;
  for (EstimatorKind kind : kinds) {
    isolated.push_back(RunIsolated(MakeJob("isolated", kind, scenario)));
  }

  for (int workers : {1, 2}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ServiceConfig config;
    config.workers = workers;
    ValuationService service(config);
    constexpr int kClients = 4;
    constexpr int kJobsPerClient = 50;
    std::vector<std::string> first_failure(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int j = 0; j < kJobsPerClient && first_failure[c].empty();
             ++j) {
          const size_t kind = (c + j) % kinds.size();
          const std::string name =
              std::string("c") + std::to_string(c) + "-" + std::to_string(j);
          Status submitted =
              service.Submit(MakeJob(name, kinds[kind], scenario));
          Result<ValuationResult> result = service.Wait(name);
          if (!submitted.ok() || !result.ok()) {
            first_failure[c] =
                name + ": " + (submitted.ok() ? result.status().ToString()
                                              : submitted.ToString());
          } else if (result->values != isolated[kind].values) {
            first_failure[c] = name + ": values differ from the isolated run";
          } else if (Status purged = service.Purge(name); !purged.ok()) {
            first_failure[c] = name + ": " + purged.ToString();
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(first_failure[c], "") << "client " << c;
    }
    EXPECT_TRUE(service.ListJobs().empty());
  }
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

// A finished job's result is on disk, and its snapshot gone, by the time
// Wait returns; a new process then serves it as done without training.
TEST(ValuationServiceTest, ResultIsPersistedBeforeWaitReturns) {
  const std::string dir = StateDir("persisted_result");
  const JobSpec spec =
      MakeJob("durable", EstimatorKind::kIpss, LinregScenario(6), 24, 4);
  std::vector<double> values;
  {
    ServiceConfig config;
    config.workers = 1;
    config.state_dir = dir;
    ValuationService service(config);
    ASSERT_TRUE(service.Submit(spec).ok());
    Result<ValuationResult> result = service.Wait(spec.name);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(std::filesystem::exists(dir + "/jobs/durable.result"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/jobs/durable.snap"));
    values = result->values;
  }
  {
    ServiceConfig config;
    config.workers = 1;
    config.state_dir = dir;
    ValuationService service(config);
    ASSERT_TRUE(service.Recover().ok());
    Result<JobStatus> status = service.GetStatus(spec.name);
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(status->state, JobState::kDone);
    Result<ValuationResult> result = service.Wait(spec.name);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->values, values);
    EXPECT_EQ(service.stats().trainings_computed, 0u);
    EXPECT_EQ(service.stats().slices_executed, 0u);
  }
  std::filesystem::remove_all(dir);
}

// A finishing slice writes the job's result and no checkpoint. A crash
// before that result lands (here: the result deleted after a clean Stop)
// re-runs the job on Recover, which trains nothing and matches bit for
// bit, since every training was flushed to the store as it was made.
TEST(ValuationServiceTest, LostResultRerunsWithoutTraining) {
  const std::string dir = StateDir("lost_result");
  const JobSpec spec =
      MakeJob("durable", EstimatorKind::kPermMc, LinregScenario(6), 12, 5);
  std::vector<double> values;
  {
    ServiceConfig config;
    config.workers = 1;
    config.state_dir = dir;
    ValuationService service(config);
    ASSERT_TRUE(service.Submit(spec).ok());
    Result<ValuationResult> result = service.Wait(spec.name);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_GT(result->num_fresh_trainings, 0u);
    values = result->values;
    service.Stop();
  }
  ASSERT_TRUE(std::filesystem::remove(dir + "/jobs/durable.result"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/jobs/durable.snap"));
  {
    ServiceConfig config;
    config.workers = 1;
    config.state_dir = dir;
    ValuationService service(config);
    ASSERT_TRUE(service.Recover().ok());
    Result<ValuationResult> result = service.Wait(spec.name);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->values, values);
    EXPECT_EQ(result->num_fresh_trainings, 0u);
    EXPECT_EQ(service.stats().trainings_computed, 0u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/jobs/durable.result"));
  }
  std::filesystem::remove_all(dir);
}

// Recover deletes the job-file temps a crash orphaned mid-write, which
// used to pile up: no loader reads them and nothing else removed them.
TEST(ValuationServiceTest, RecoverRemovesOrphanedJobFileTemps) {
  const std::string dir = StateDir("orphan_temps");
  const JobSpec spec =
      MakeJob("kept", EstimatorKind::kIpss, LinregScenario(5), 16, 4);
  {
    ServiceConfig config;
    config.workers = 1;
    config.state_dir = dir;
    ValuationService service(config);
    ASSERT_TRUE(service.Submit(spec).ok());
    ASSERT_TRUE(service.Wait(spec.name).ok());
  }
  const std::string other_pid = std::to_string(::getpid() + 1);
  std::vector<std::string> orphans;
  for (const char* suffix : {".job", ".snap", ".result"}) {
    orphans.push_back(dir + "/jobs/kept" + suffix + ".tmp." + other_pid +
                      ".3");
    ASSERT_TRUE(WriteFileAtomic(orphans.back(), "partial").ok());
  }
  ServiceConfig config;
  config.workers = 1;
  config.state_dir = dir;
  ValuationService service(config);
  ASSERT_TRUE(service.Recover().ok());
  for (const std::string& orphan : orphans) {
    EXPECT_FALSE(std::filesystem::exists(orphan)) << orphan;
  }
  Result<JobStatus> status = service.GetStatus(spec.name);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_EQ(service.ListJobs().size(), 1u);
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

  // A CRC-valid frame claiming 2^40 values is rejected before anything
  // is reserved.
  ByteWriter hostile;
  hostile.PutVarint(uint64_t{1} << 40);
  const std::string frame =
      EncodeFramed(/*"FSVR"=*/0x52565346u, /*version=*/1, hostile.bytes());
  ASSERT_EQ(frame.size(), 18u);
  EXPECT_EQ(DecodeValuationResult(frame).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Shutdown ordering
// ---------------------------------------------------------------------------

// Regression: concurrent Stop() calls (an explicit Stop racing the
// destructor's) must not double-join the worker threads, and the stores
// are flushed only after every worker is parked. Repeatedly stops a
// service from two threads at staggered points of a running job; the
// sanitizer jobs make this a use-after-free / double-join probe.
TEST(ValuationServiceTest, ConcurrentStopsAreSafe) {
  const std::string dir = StateDir("stop_race");
  for (int round = 0; round < 20; ++round) {
    std::filesystem::remove_all(dir);
    ServiceConfig config;
    config.workers = 2;
    config.state_dir = dir;  // stores attached => Stop flushes them
    ValuationService service(config);
    JobSpec job =
        MakeJob("pre", EstimatorKind::kIpss, LinregScenario(7), 28, 4);
    ASSERT_TRUE(service.Submit(job).ok());
    // Stagger the stop point across rounds so some rounds catch a worker
    // mid-slice and some catch it idle.
    std::this_thread::sleep_for(std::chrono::microseconds(100 * round));
    std::thread stopper([&service] { service.Stop(); });
    service.Stop();
    stopper.join();
  }  // the destructor runs Stop() once more on an already-stopped service
}

}  // namespace
}  // namespace fedshap
