/// Tests for the bench harness (bench/common.h): scenario manufacturing,
/// budget table, option parsing and the algorithm runner — the machinery
/// every paper-figure binary depends on.

#include "bench/common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/valuation_metrics.h"

namespace fedshap {
namespace bench {
namespace {

BenchOptions TinyOptions() {
  BenchOptions options;
  options.scale = 0.15;  // shrink datasets: these are unit tests
  options.seed = 77;
  return options;
}

TEST(BenchOptionsTest, ParsesFlags) {
  const char* argv[] = {"bench", "--scale=2.5", "--seed=99"};
  BenchOptions options = BenchOptions::Parse(3, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(options.scale, 2.5);
  EXPECT_EQ(options.seed, 99u);
}

TEST(BenchOptionsTest, QuickFlagAndInvalidScale) {
  const char* quick[] = {"bench", "--quick"};
  EXPECT_DOUBLE_EQ(BenchOptions::Parse(2, const_cast<char**>(quick)).scale,
                   0.4);
  const char* bad[] = {"bench", "--scale=-3"};
  EXPECT_DOUBLE_EQ(BenchOptions::Parse(2, const_cast<char**>(bad)).scale,
                   1.0);
}

TEST(BenchOptionsTest, ParsesJsonFlag) {
  const char* argv[] = {"bench", "--json=/tmp/out.json"};
  BenchOptions options = BenchOptions::Parse(2, const_cast<char**>(argv));
  EXPECT_EQ(options.json, "/tmp/out.json");
  EXPECT_TRUE(BenchOptions().json.empty());
}

TEST(BenchJsonTest, WritesRecordsWithProvenance) {
  BenchJson json("unit_test");
  json.Add("case_a").Label("backend", "scalar").Metric("seconds", 0.5);
  json.Add("case_b").Metric("speedup", 2.0);
  EXPECT_FALSE(json.empty());
  const std::string path = ::testing::TempDir() + "bench_json_test.json";
  ASSERT_TRUE(json.WriteTo(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  EXPECT_NE(content.find("\"bench\": \"unit_test\""), std::string::npos);
  EXPECT_NE(content.find("\"kernel_backend\""), std::string::npos);
  EXPECT_NE(content.find("\"worker_budget\""), std::string::npos);
  EXPECT_NE(content.find("\"case_a\""), std::string::npos);
  EXPECT_NE(content.find("\"speedup\": 2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BenchJsonTest, EmptyPathIsNoop) {
  BenchJson json("unit_test");
  json.Add("x").Metric("v", 1.0);
  EXPECT_TRUE(json.WriteTo("").ok());
}

TEST(BenchOptionsTest, ScaledRowsHasFloor) {
  BenchOptions options;
  options.scale = 0.0001;
  EXPECT_EQ(options.ScaledRows(100000), 64u);
}

TEST(PaperGammaTest, TableThreeValues) {
  EXPECT_EQ(PaperGamma(3), 5);
  EXPECT_EQ(PaperGamma(6), 8);
  EXPECT_EQ(PaperGamma(10), 32);
  // Fig. 9 rule: n log2 n.
  EXPECT_EQ(PaperGamma(20), static_cast<int>(std::lround(20 * std::log2(20.0))));
}

TEST(AlgoEnumTest, NamesAndGroups) {
  EXPECT_EQ(AllAlgos().size(), 10u);
  EXPECT_EQ(SamplingAlgos().size(), 4u);
  for (Algo algo : AllAlgos()) {
    EXPECT_STRNE(AlgoName(algo), "?");
  }
}

TEST(ScenarioTest, FemnistScenarioShape) {
  Scenario scenario = MakeFemnistScenario(3, ModelKind::kLogReg,
                                          TinyOptions());
  EXPECT_EQ(scenario.n, 3);
  ASSERT_NE(scenario.utility, nullptr);
  EXPECT_NE(scenario.fedavg, nullptr);  // gradient baselines applicable
  EXPECT_EQ(scenario.utility->num_clients(), 3);
}

TEST(ScenarioTest, AdultXgbScenarioHasNoFedAvg) {
  Scenario scenario = MakeAdultScenario(3, ModelKind::kXgb, TinyOptions());
  EXPECT_EQ(scenario.fedavg, nullptr);  // gradient baselines N/A
  ASSERT_NE(scenario.utility, nullptr);
  UtilityCache cache(scenario.utility.get());
  UtilitySession session(&cache);
  Result<double> u = session.Evaluate(Coalition::Full(3));
  ASSERT_TRUE(u.ok());
  EXPECT_GE(*u, 0.0);
  EXPECT_LE(*u, 1.0);
}

TEST(ScenarioTest, SyntheticScenariosCoverAllSchemes) {
  for (PartitionScheme scheme :
       {PartitionScheme::kSameSizeSameDist,
        PartitionScheme::kSameSizeDiffDist,
        PartitionScheme::kDiffSizeSameDist,
        PartitionScheme::kSameSizeNoisyLabel,
        PartitionScheme::kSameSizeNoisyFeature}) {
    Scenario scenario = MakeSyntheticScenario(scheme, 4,
                                              ModelKind::kLogReg,
                                              TinyOptions());
    EXPECT_EQ(scenario.n, 4) << PartitionSchemeName(scheme);
    EXPECT_FALSE(scenario.description.empty());
  }
}

TEST(ScenarioTest, ScalabilityPlantsStructure) {
  ScalabilityScenario scenario = MakeScalabilityScenario(20, TinyOptions());
  EXPECT_EQ(scenario.scenario.n, 20);
  EXPECT_EQ(scenario.null_players.size(), 1u);
  EXPECT_EQ(scenario.duplicate_pairs.size(), 1u);
  // Planted null player really has no data: U(S u null) == U(S).
  UtilityCache cache(scenario.scenario.utility.get());
  UtilitySession session(&cache);
  Coalition base = Coalition::Of({0, 1, 2});
  Result<double> u_base = session.Evaluate(base);
  Result<double> u_with_null =
      session.Evaluate(base.With(scenario.null_players[0]));
  ASSERT_TRUE(u_base.ok());
  ASSERT_TRUE(u_with_null.ok());
  EXPECT_DOUBLE_EQ(*u_base, *u_with_null);
}

TEST(ScenarioRunnerTest, GroundTruthAndRunnersAgree) {
  ScenarioRunner runner(
      MakeFemnistScenario(3, ModelKind::kLogReg, TinyOptions()));
  const std::vector<double>& exact = runner.GroundTruth();
  ASSERT_EQ(exact.size(), 3u);

  // MC-Shapley run must reproduce the ground truth exactly.
  Result<AlgoRun> mc = runner.Run(Algo::kMcShapley, 5, 1);
  ASSERT_TRUE(mc.ok());
  EXPECT_TRUE(mc->exact);
  EXPECT_EQ(mc->result.values, exact);

  // Every algorithm runs without error on a FedAvg scenario.
  for (Algo algo : AllAlgos()) {
    Result<AlgoRun> run = runner.Run(algo, 5, 2);
    ASSERT_TRUE(run.ok()) << AlgoName(algo);
    EXPECT_EQ(run->result.values.size(), 3u) << AlgoName(algo);
  }
}

TEST(ScenarioRunnerTest, PermShapleyIsExtrapolated) {
  ScenarioRunner runner(
      MakeFemnistScenario(3, ModelKind::kLogReg, TinyOptions()));
  runner.GroundTruth();
  Result<AlgoRun> perm = runner.Run(Algo::kPermShapley, 5, 1);
  ASSERT_TRUE(perm.ok());
  EXPECT_TRUE(perm->estimated_time);
  EXPECT_GT(perm->result.charged_seconds, 0.0);
  EXPECT_EQ(TimeCell(*perm)[0], '~');
}

TEST(ScenarioRunnerTest, CellRenderers) {
  AlgoRun not_applicable;
  not_applicable.applicable = false;
  EXPECT_EQ(TimeCell(not_applicable), "\\");
  EXPECT_EQ(ErrorCell(not_applicable, {1.0}), "\\");

  AlgoRun exact_run;
  exact_run.exact = true;
  exact_run.result.charged_seconds = 1.0;
  EXPECT_EQ(ErrorCell(exact_run, {1.0}), "-");
}

TEST(ScenarioRunnerTest, MeanTrainingCostPositiveAfterWork) {
  ScenarioRunner runner(
      MakeFemnistScenario(3, ModelKind::kLogReg, TinyOptions()));
  runner.GroundTruth();
  EXPECT_GT(runner.MeanTrainingCost(), 0.0);
}

}  // namespace
}  // namespace bench
}  // namespace fedshap
