/// Property-based suites over the valuation algorithms: the Shapley axioms
/// and cross-algorithm identities are checked on grids of (n, seed, utility
/// family) via parameterized gtest, rather than single hand-picked cases.
/// A second grid runs the axioms against real batched-training FedAvg
/// utilities (not just table utilities) on randomized 4-6 client games.

#include <cmath>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/ipss.h"
#include "core/kgreedy.h"
#include "core/stratified.h"
#include "core/valuation_metrics.h"
#include "data/synthetic.h"
#include "ml/mlp.h"
#include "test_util.h"
#include "util/combinatorics.h"

namespace fedshap {
namespace {

enum class UtilityFamily { kRandom, kMonotone, kAdditive, kSubmodular };

const char* FamilyName(UtilityFamily family) {
  switch (family) {
    case UtilityFamily::kRandom:
      return "random";
    case UtilityFamily::kMonotone:
      return "monotone";
    case UtilityFamily::kAdditive:
      return "additive";
    case UtilityFamily::kSubmodular:
      return "submodular";
  }
  return "?";
}

/// Builds a utility of the given family over n clients.
TableUtility MakeUtility(UtilityFamily family, int n, uint64_t seed) {
  switch (family) {
    case UtilityFamily::kRandom:
      return testing_util::RandomTable(n, seed);
    case UtilityFamily::kMonotone:
      return testing_util::MonotoneTable(n);
    case UtilityFamily::kAdditive: {
      // U(S) = sum of fixed per-client weights: SV must equal the weights.
      Rng rng(seed);
      std::vector<double> weights(n);
      for (double& w : weights) w = rng.Uniform(0.0, 1.0);
      Result<TableUtility> table =
          TableUtility::FromFunction(n, [&weights](const Coalition& s) {
            double total = 0.0;
            s.ForEach([&](int i) { total += weights[i]; });
            return total;
          });
      FEDSHAP_CHECK(table.ok());
      return std::move(table).value();
    }
    case UtilityFamily::kSubmodular: {
      // Coverage-style utility: sqrt of summed weights (diminishing
      // returns, monotone).
      Rng rng(seed);
      std::vector<double> weights(n);
      for (double& w : weights) w = rng.Uniform(0.2, 1.0);
      Result<TableUtility> table =
          TableUtility::FromFunction(n, [&weights](const Coalition& s) {
            double total = 0.0;
            s.ForEach([&](int i) { total += weights[i]; });
            return std::sqrt(total);
          });
      FEDSHAP_CHECK(table.ok());
      return std::move(table).value();
    }
  }
  FEDSHAP_CHECK(false);
  return testing_util::RandomTable(2, 1);
}

using PropertyParam = std::tuple<int, uint64_t, UtilityFamily>;

class ShapleyProperties : public ::testing::TestWithParam<PropertyParam> {
 protected:
  int n() const { return std::get<0>(GetParam()); }
  uint64_t seed() const { return std::get<1>(GetParam()); }
  UtilityFamily family() const { return std::get<2>(GetParam()); }
};

TEST_P(ShapleyProperties, SchemesAgree) {
  TableUtility table = MakeUtility(family(), n(), seed());
  UtilityCache cache(&table);
  UtilitySession mc_session(&cache), cc_session(&cache);
  Result<ValuationResult> mc = ExactShapleyMc(mc_session);
  Result<ValuationResult> cc = ExactShapleyCc(cc_session);
  ASSERT_TRUE(mc.ok());
  ASSERT_TRUE(cc.ok());
  EXPECT_LT(testing_util::MaxAbsDiff(mc->values, cc->values), 1e-9);
}

TEST_P(ShapleyProperties, EfficiencyAxiom) {
  TableUtility table = MakeUtility(family(), n(), seed());
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(session);
  ASSERT_TRUE(exact.ok());
  const double u_full = table.Evaluate(Coalition::Full(n())).value();
  const double u_empty = table.Evaluate(Coalition()).value();
  EXPECT_NEAR(EfficiencyResidual(exact->values, u_full, u_empty), 0.0,
              1e-9);
}

TEST_P(ShapleyProperties, AdditiveUtilityGivesWeightsBack) {
  if (family() != UtilityFamily::kAdditive) GTEST_SKIP();
  TableUtility table = MakeUtility(family(), n(), seed());
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(session);
  ASSERT_TRUE(exact.ok());
  // For additive games phi_i = U({i}) exactly.
  for (int i = 0; i < n(); ++i) {
    const double weight = table.Evaluate(Coalition::Of({i})).value();
    EXPECT_NEAR(exact->values[i], weight, 1e-10);
  }
}

TEST_P(ShapleyProperties, MonotoneUtilityGivesNonNegativeValues) {
  if (family() == UtilityFamily::kRandom) GTEST_SKIP();
  TableUtility table = MakeUtility(family(), n(), seed());
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(session);
  ASSERT_TRUE(exact.ok());
  for (double v : exact->values) EXPECT_GE(v, -1e-12);
}

TEST_P(ShapleyProperties, IpssExactAtFullBudget) {
  TableUtility table = MakeUtility(family(), n(), seed());
  UtilityCache cache(&table);
  UtilitySession ipss_session(&cache), exact_session(&cache);
  IpssConfig config;
  config.total_rounds = 1 << n();
  config.seed = seed();
  Result<ValuationResult> ipss = IpssShapley(ipss_session, config);
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  ASSERT_TRUE(ipss.ok());
  ASSERT_TRUE(exact.ok());
  EXPECT_LT(testing_util::MaxAbsDiff(ipss->values, exact->values), 1e-9);
}

TEST_P(ShapleyProperties, IpssNeverExceedsBudget) {
  TableUtility table = MakeUtility(family(), n(), seed());
  UtilityCache cache(&table);
  for (int gamma : {1, 3, 7, 15}) {
    UtilitySession session(&cache);
    IpssConfig config;
    config.total_rounds = gamma;
    config.seed = seed();
    Result<ValuationResult> ipss = IpssShapley(session, config);
    ASSERT_TRUE(ipss.ok());
    EXPECT_LE(ipss->num_trainings, static_cast<size_t>(gamma))
        << "gamma=" << gamma;
  }
}

TEST_P(ShapleyProperties, KGreedyAtKnIsExact) {
  TableUtility table = MakeUtility(family(), n(), seed());
  UtilityCache cache(&table);
  UtilitySession kg_session(&cache), exact_session(&cache);
  Result<ValuationResult> kg = KGreedyShapley(kg_session, n());
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  ASSERT_TRUE(kg.ok());
  ASSERT_TRUE(exact.ok());
  EXPECT_LT(testing_util::MaxAbsDiff(kg->values, exact->values), 1e-9);
}

TEST_P(ShapleyProperties, StratifiedFullSamplingIsExact) {
  TableUtility table = MakeUtility(family(), n(), seed());
  UtilityCache cache(&table);
  StratifiedConfig config;
  for (int k = 1; k <= n(); ++k) {
    config.rounds_per_stratum.push_back(
        static_cast<int>(BinomialU64(n(), k)) * 40);
  }
  config.seed = seed() + 7;
  UtilitySession session(&cache), exact_session(&cache);
  Result<ValuationResult> stratified =
      StratifiedSamplingShapley(session, config);
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  ASSERT_TRUE(stratified.ok());
  ASSERT_TRUE(exact.ok());
  EXPECT_LT(testing_util::MaxAbsDiff(stratified->values, exact->values),
            1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShapleyProperties,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6, 7),
                       ::testing::Values<uint64_t>(1, 17, 4242),
                       ::testing::Values(UtilityFamily::kRandom,
                                         UtilityFamily::kMonotone,
                                         UtilityFamily::kAdditive,
                                         UtilityFamily::kSubmodular)),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      return std::string("n") + std::to_string(std::get<0>(info.param)) +
             "_s" + std::to_string(std::get<1>(info.param)) + "_" +
             FamilyName(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Shapley axioms against the *batched-training* utility: randomized 4-6
// client games where every U(S) is a real FedAvg training through the
// batched kernel path (the default), not a table lookup. These pin the
// axioms where they can actually break: seed mixing, null-client
// exclusion, batching, aggregation.

/// Builds a FedAvg utility over n tiny clients. `null_client` (when >= 0)
/// gets an empty dataset; `twin_of` (when >= 0) makes client 1 share
/// client 0's exact dataset.
std::unique_ptr<FedAvgUtility> MakeFedAvgGame(int n, uint64_t seed,
                                              int null_client = -1,
                                              bool twin_clients = false) {
  Rng rng(seed);
  Result<Dataset> pool = GenerateBlobs(3, 5, 3.0, 16 * n + 32, rng);
  FEDSHAP_CHECK(pool.ok());
  std::vector<Dataset> clients;
  for (int c = 0; c < n; ++c) {
    std::vector<size_t> idx;
    for (size_t i = c * 16; i < static_cast<size_t>(c + 1) * 16; ++i) {
      idx.push_back(i);
    }
    clients.push_back(pool->Subset(idx));
  }
  if (twin_clients && n >= 2) clients[1] = clients[0];
  if (null_client >= 0 && null_client < n) {
    Result<Dataset> empty =
        Dataset::Create(pool->num_features(), pool->num_classes());
    FEDSHAP_CHECK(empty.ok());
    clients[null_client] = std::move(empty).value();
  }
  std::vector<size_t> test_idx;
  for (size_t i = 16 * n; i < pool->size(); ++i) test_idx.push_back(i);
  Dataset test = pool->Subset(test_idx);

  Mlp prototype(5, 4, 3);
  Rng init(seed + 1);
  prototype.InitializeParameters(init);
  FedAvgConfig config;
  config.rounds = 2;
  config.local.epochs = 1;
  config.local.batch_size = 8;
  config.local.learning_rate = 0.2;
  config.seed = seed + 2;
  Result<std::unique_ptr<FedAvgUtility>> fn = FedAvgUtility::Create(
      std::move(clients), std::move(test), prototype, config,
      UtilityMetric::kNegativeLoss);
  FEDSHAP_CHECK(fn.ok());
  return std::move(fn).value();
}

using FedAvgAxiomParam = std::tuple<int, uint64_t>;

class FedAvgAxioms : public ::testing::TestWithParam<FedAvgAxiomParam> {
 protected:
  int n() const { return std::get<0>(GetParam()); }
  uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(FedAvgAxioms, Efficiency) {
  std::unique_ptr<FedAvgUtility> fn = MakeFedAvgGame(n(), seed());
  UtilityCache cache(fn.get());
  UtilitySession session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(session);
  ASSERT_TRUE(exact.ok());
  const double u_full = fn->Evaluate(Coalition::Full(n())).value();
  const double u_empty = fn->Evaluate(Coalition()).value();
  EXPECT_NEAR(EfficiencyResidual(exact->values, u_full, u_empty), 0.0,
              1e-9);
}

TEST_P(FedAvgAxioms, DummyPlayerGetsExactlyZero) {
  // A client with no data is excluded from both training and seed mixing,
  // so U(S u {d}) == U(S) bit for bit and its exact SV is exactly zero.
  const int dummy = n() - 1;
  std::unique_ptr<FedAvgUtility> fn = MakeFedAvgGame(n(), seed(), dummy);
  UtilityCache cache(fn.get());
  UtilitySession session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(session);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(exact->values[dummy], 0.0, 1e-15);
  // And some non-dummy client must matter.
  double max_abs = 0.0;
  for (double v : exact->values) max_abs = std::max(max_abs, std::fabs(v));
  EXPECT_GT(max_abs, 0.0);
}

TEST_P(FedAvgAxioms, SymmetryForTwinClients) {
  // Clients 0 and 1 hold the exact same dataset. FedAvg's per-coalition
  // seed mixing is id-dependent by design (each coalition is an
  // independent seeded training run), so their utilities — and hence
  // their exact SVs — agree only up to local-SGD shuffle noise, not
  // bitwise. The bound here is far below the value spread between
  // genuinely different clients on these games (~1e-1).
  std::unique_ptr<FedAvgUtility> fn =
      MakeFedAvgGame(n(), seed(), /*null_client=*/-1, /*twin_clients=*/true);
  UtilityCache cache(fn.get());
  UtilitySession session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(session);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(exact->values[0], exact->values[1], 0.05);
}

/// U1 + U2 as one utility: the additivity axiom says SV(U1 + U2) =
/// SV(U1) + SV(U2). Exercised with two independently seeded FedAvg games
/// over the same client set.
class SumUtility : public UtilityFunction {
 public:
  SumUtility(const UtilityFunction* u1, const UtilityFunction* u2)
      : u1_(u1), u2_(u2) {}
  int num_clients() const override { return u1_->num_clients(); }
  Result<double> Evaluate(const Coalition& coalition) const override {
    FEDSHAP_ASSIGN_OR_RETURN(double a, u1_->Evaluate(coalition));
    FEDSHAP_ASSIGN_OR_RETURN(double b, u2_->Evaluate(coalition));
    return a + b;
  }

 private:
  const UtilityFunction* u1_;
  const UtilityFunction* u2_;
};

TEST_P(FedAvgAxioms, Additivity) {
  std::unique_ptr<FedAvgUtility> u1 = MakeFedAvgGame(n(), seed());
  std::unique_ptr<FedAvgUtility> u2 = MakeFedAvgGame(n(), seed() + 1000);
  SumUtility sum(u1.get(), u2.get());

  UtilityCache cache1(u1.get()), cache2(u2.get()), cache_sum(&sum);
  UtilitySession s1(&cache1), s2(&cache2), s_sum(&cache_sum);
  Result<ValuationResult> sv1 = ExactShapleyMc(s1);
  Result<ValuationResult> sv2 = ExactShapleyMc(s2);
  Result<ValuationResult> sv_sum = ExactShapleyMc(s_sum);
  ASSERT_TRUE(sv1.ok());
  ASSERT_TRUE(sv2.ok());
  ASSERT_TRUE(sv_sum.ok());
  for (int i = 0; i < n(); ++i) {
    EXPECT_NEAR(sv_sum->values[i], sv1->values[i] + sv2->values[i], 1e-9)
        << "client " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FedAvgAxioms,
    ::testing::Combine(::testing::Values(4, 5, 6),
                       ::testing::Values<uint64_t>(3, 71)),
    [](const ::testing::TestParamInfo<FedAvgAxiomParam>& info) {
      return std::string("n") + std::to_string(std::get<0>(info.param)) +
             "_s" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace fedshap
