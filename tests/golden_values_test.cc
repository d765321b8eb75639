/// Seeded golden-value regression suite: small synthetic workloads whose
/// expected Shapley vectors (exact and IPSS at fixed seeds) are committed
/// under tests/golden/. A refactor that silently shifts estimates —
/// a changed evaluation order, a perturbed sampler, a different seed
/// derivation — fails here even when every property-based test still
/// holds, because the golden files pin the concrete numbers.
///
/// Regenerating after an *intentional* change:
///
///   ./build/tests/golden_values_test --update-golden
///
/// rewrites every golden file in the source tree; review the diff before
/// committing it. Tolerances (see kTableTol / kTrainedTol): workloads on
/// double-precision table utilities must reproduce to 1e-12; workloads
/// that train float models get 5e-4, absorbing libm/compiler drift across
/// toolchains while still catching any structural change (those move
/// estimates by orders of magnitude more).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/ipss.h"
#include "core/stratified.h"
#include "data/synthetic.h"
#include "fl/utility.h"
#include "fl/utility_cache.h"
#include "ml/kernel_backend.h"
#include "ml/mlp.h"
#include "test_util.h"
#include "util/logging.h"

namespace fedshap {

/// Set by main() when --update-golden is passed; visible outside the
/// anonymous namespace so main can reach it.
bool g_update_golden = false;

namespace {

constexpr double kTableTol = 1e-12;
constexpr double kTrainedTol = 5e-4;

std::string GoldenPath(const std::string& name) {
  return std::string(FEDSHAP_TEST_SOURCE_DIR) + "/golden/" + name +
         ".golden";
}

/// Golden file format: one "<key> <v0> <v1> ..." line per recorded
/// vector, values printed with %.17g (lossless double round-trip).
using GoldenMap = std::vector<std::pair<std::string, std::vector<double>>>;

void WriteGolden(const std::string& name, const GoldenMap& values) {
  std::ofstream out(GoldenPath(name));
  ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath(name);
  out << "# golden values for " << name << "; regenerate with "
      << "golden_values_test --update-golden\n";
  for (const auto& [key, vec] : values) {
    out << key;
    for (double v : vec) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %.17g", v);
      out << buf;
    }
    out << "\n";
  }
}

GoldenMap ReadGolden(const std::string& name) {
  std::ifstream in(GoldenPath(name));
  EXPECT_TRUE(in.good()) << "missing golden file " << GoldenPath(name)
                         << " — run golden_values_test --update-golden";
  GoldenMap values;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream parts(line);
    std::string key;
    parts >> key;
    std::vector<double> vec;
    double v;
    while (parts >> v) vec.push_back(v);
    values.emplace_back(key, std::move(vec));
  }
  return values;
}

/// Checks `actual` against the committed goldens (or rewrites them with
/// --update-golden).
void CheckGolden(const std::string& name, const GoldenMap& actual,
                 double tolerance) {
  if (g_update_golden) {
    WriteGolden(name, actual);
    GTEST_SKIP() << "golden file " << name << " regenerated";
  }
  GoldenMap expected = ReadGolden(name);
  ASSERT_EQ(expected.size(), actual.size()) << name;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(expected[i].first, actual[i].first) << name;
    ASSERT_EQ(expected[i].second.size(), actual[i].second.size())
        << name << " key " << actual[i].first;
    for (size_t j = 0; j < actual[i].second.size(); ++j) {
      EXPECT_NEAR(actual[i].second[j], expected[i].second[j], tolerance)
          << name << " key " << actual[i].first << " element " << j;
    }
  }
}

std::vector<double> ExactValues(const UtilityFunction& fn) {
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(session);
  FEDSHAP_CHECK_OK(exact.status());
  return exact->values;
}

std::vector<double> IpssValues(const UtilityFunction& fn, int gamma,
                               uint64_t seed) {
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  IpssConfig config;
  config.total_rounds = gamma;
  config.seed = seed;
  Result<ValuationResult> ipss = IpssShapley(session, config);
  FEDSHAP_CHECK_OK(ipss.status());
  return ipss->values;
}

std::vector<double> AdaptiveValues(const UtilityFunction& fn, int gamma,
                                   uint64_t seed, PairPolicy policy) {
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  AdaptiveAllocationConfig config;
  config.total_rounds = gamma;
  config.seed = seed;
  config.reallocate_every = 8;
  config.pair_policy = policy;
  Result<ValuationResult> adaptive = AdaptiveStratifiedShapley(session,
                                                               config);
  FEDSHAP_CHECK_OK(adaptive.status());
  return adaptive->values;
}

std::vector<double> StratifiedValues(const UtilityFunction& fn, int gamma,
                                     uint64_t seed, SvScheme scheme,
                                     PairPolicy policy) {
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  StratifiedConfig config;
  config.total_rounds = gamma;
  config.seed = seed;
  config.scheme = scheme;
  config.pair_policy = policy;
  Result<ValuationResult> stratified =
      StratifiedSamplingShapley(session, config);
  FEDSHAP_CHECK_OK(stratified.status());
  return stratified->values;
}

/// Fixed-allocation stratified sampling (Alg. 1 with the round-robin
/// default split) at fixed seeds, under both SV schemes and both pair
/// policies: pins the draw stream, duplicate collapsing and the pairing
/// pass.
TEST(GoldenValues, FixedStratified) {
  struct Case {
    const char* tag;
    SvScheme scheme;
    PairPolicy policy;
  };
  const Case cases[] = {
      {"mc_sampled", SvScheme::kMarginal, PairPolicy::kRequireSampled},
      {"mc_ondemand", SvScheme::kMarginal, PairPolicy::kEvaluateOnDemand},
      {"cc_sampled", SvScheme::kComplementary, PairPolicy::kRequireSampled},
      {"cc_ondemand", SvScheme::kComplementary,
       PairPolicy::kEvaluateOnDemand},
  };
  GoldenMap actual;
  {
    TableUtility fn = testing_util::MonotoneTable(6);
    for (const Case& c : cases) {
      actual.emplace_back(std::string("monotone6_g30_s11_") + c.tag,
                          StratifiedValues(fn, 30, 11, c.scheme, c.policy));
    }
  }
  {
    TableUtility fn = testing_util::RandomTable(7, 99);
    for (const Case& c : cases) {
      actual.emplace_back(std::string("random7_g44_s3_") + c.tag,
                          StratifiedValues(fn, 44, 3, c.scheme, c.policy));
    }
  }
  CheckGolden("fixed_stratified", actual, kTableTol);
}

/// The adaptive (Neyman) stratified estimator at fixed seeds: pins the
/// draw stream, the moment folding and every reallocation decision. Any
/// change to the allocator — a reordered epoch, a different coverage
/// floor, a perturbed sigma estimate — moves these numbers.
TEST(GoldenValues, AdaptiveStratified) {
  GoldenMap actual;
  {
    TableUtility fn = testing_util::MonotoneTable(6);
    actual.emplace_back(
        "monotone6_g30_s11_sampled",
        AdaptiveValues(fn, 30, 11, PairPolicy::kRequireSampled));
    actual.emplace_back(
        "monotone6_g30_s11_ondemand",
        AdaptiveValues(fn, 30, 11, PairPolicy::kEvaluateOnDemand));
  }
  {
    TableUtility fn = testing_util::RandomTable(7, 99);
    actual.emplace_back(
        "random7_g44_s3_sampled",
        AdaptiveValues(fn, 44, 3, PairPolicy::kRequireSampled));
  }
  CheckGolden("adaptive_stratified", actual, kTableTol);
}

TEST(GoldenValues, PaperTableOne) {
  TableUtility fn = testing_util::PaperTableOne();
  GoldenMap actual;
  actual.emplace_back("exact", ExactValues(fn));
  actual.emplace_back("ipss_g5_s2025", IpssValues(fn, 5, 2025));
  CheckGolden("table1", actual, kTableTol);
}

TEST(GoldenValues, MonotoneSixClients) {
  TableUtility fn = testing_util::MonotoneTable(6);
  GoldenMap actual;
  actual.emplace_back("exact", ExactValues(fn));
  actual.emplace_back("ipss_g16_s2025", IpssValues(fn, 16, 2025));
  actual.emplace_back("ipss_g40_s7", IpssValues(fn, 40, 7));
  CheckGolden("monotone6", actual, kTableTol);
}

TEST(GoldenValues, RandomSevenClients) {
  TableUtility fn = testing_util::RandomTable(7, 99);
  GoldenMap actual;
  actual.emplace_back("exact", ExactValues(fn));
  actual.emplace_back("ipss_g24_s7", IpssValues(fn, 24, 7));
  CheckGolden("random7", actual, kTableTol);
}

/// The trained-model workload: a 4-client FedAvg MLP on blob data, run
/// through the default (batched-kernel) training path. This pins the ML
/// substrate's numerics end to end: a change to kernels, batch order,
/// seed mixing or aggregation shifts these values.
TEST(GoldenValues, FedAvgMlpFourClients) {
  Rng rng(321);
  Result<Dataset> pool = GenerateBlobs(3, 6, 3.0, 96, rng);
  ASSERT_TRUE(pool.ok());
  std::vector<Dataset> clients;
  for (int c = 0; c < 4; ++c) {
    std::vector<size_t> idx;
    for (size_t i = c * 16; i < static_cast<size_t>(c + 1) * 16; ++i) {
      idx.push_back(i);
    }
    clients.push_back(pool->Subset(idx));
  }
  std::vector<size_t> test_idx;
  for (size_t i = 64; i < pool->size(); ++i) test_idx.push_back(i);
  Dataset test = pool->Subset(test_idx);

  Mlp prototype(6, 5, 3);
  Rng init(654);
  prototype.InitializeParameters(init);
  FedAvgConfig config;
  config.rounds = 3;
  config.local.epochs = 1;
  config.local.batch_size = 8;
  config.local.learning_rate = 0.2;
  config.seed = 987;
  Result<std::unique_ptr<FedAvgUtility>> fn =
      FedAvgUtility::Create(std::move(clients), std::move(test), prototype,
                            config, UtilityMetric::kNegativeLoss);
  ASSERT_TRUE(fn.ok());

  GoldenMap actual;
  actual.emplace_back("exact", ExactValues(**fn));
  actual.emplace_back("ipss_g8_s2025", IpssValues(**fn, 8, 2025));
  CheckGolden("fedavg_mlp4", actual, kTrainedTol);
}

}  // namespace
}  // namespace fedshap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  // Golden numbers are pinned to the scalar kernel backend: SIMD
  // backends round GEMM reductions differently, and goldens must stay
  // portable across machines with different vector units.
  FEDSHAP_CHECK(
      fedshap::SetKernelBackend(fedshap::KernelBackend::kScalar).ok());
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      fedshap::g_update_golden = true;
    }
  }
  return RUN_ALL_TESTS();
}
