#include "fl/fedavg.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "fl/server.h"
#include "fl/training_log.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"

namespace fedshap {
namespace {

Dataset MakeBlobData(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Result<Dataset> data = GenerateBlobs(2, 4, 5.0, rows, rng);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

LogisticRegression MakePrototype(uint64_t seed = 42) {
  LogisticRegression model(4, 2);
  Rng rng(seed);
  model.InitializeParameters(rng);
  return model;
}

TEST(FedAvgAggregateTest, WeightedAverage) {
  Result<std::vector<float>> agg = FedAvgAggregate(
      {{1.0f, 2.0f}, {3.0f, 6.0f}}, {1.0, 3.0});
  ASSERT_TRUE(agg.ok());
  EXPECT_FLOAT_EQ((*agg)[0], 2.5f);  // (1*1 + 3*3)/4
  EXPECT_FLOAT_EQ((*agg)[1], 5.0f);  // (2*1 + 6*3)/4
}

TEST(FedAvgAggregateTest, SingleClientIsIdentity) {
  Result<std::vector<float>> agg = FedAvgAggregate({{7.0f, -1.0f}}, {5.0});
  ASSERT_TRUE(agg.ok());
  EXPECT_FLOAT_EQ((*agg)[0], 7.0f);
  EXPECT_FLOAT_EQ((*agg)[1], -1.0f);
}

TEST(FedAvgAggregateTest, ZeroWeightClientIgnored) {
  Result<std::vector<float>> agg =
      FedAvgAggregate({{1.0f}, {100.0f}}, {1.0, 0.0});
  ASSERT_TRUE(agg.ok());
  EXPECT_FLOAT_EQ((*agg)[0], 1.0f);
}

TEST(FedAvgAggregateTest, Validation) {
  EXPECT_FALSE(FedAvgAggregate({}, {}).ok());
  EXPECT_FALSE(FedAvgAggregate({{1.0f}}, {1.0, 2.0}).ok());
  EXPECT_FALSE(FedAvgAggregate({{1.0f}, {1.0f, 2.0f}}, {1.0, 1.0}).ok());
  EXPECT_FALSE(FedAvgAggregate({{1.0f}}, {-1.0}).ok());
  EXPECT_FALSE(FedAvgAggregate({{1.0f}, {2.0f}}, {0.0, 0.0}).ok());
}

TEST(TrainFedAvgTest, EmptyClientListReturnsPrototype) {
  LogisticRegression prototype = MakePrototype();
  FedAvgConfig config;
  Result<std::unique_ptr<Model>> model = TrainFedAvg(prototype, {}, config);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->GetParameters(), prototype.GetParameters());
}

TEST(TrainFedAvgTest, ClientsWithNoDataActAsAbsent) {
  LogisticRegression prototype = MakePrototype();
  FedAvgConfig config;
  Result<Dataset> empty_data = Dataset::Create(4, 2);
  ASSERT_TRUE(empty_data.ok());
  FlClient empty_client(0, std::move(empty_data).value());
  Result<std::unique_ptr<Model>> model =
      TrainFedAvg(prototype, {&empty_client}, config);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->GetParameters(), prototype.GetParameters());
}

TEST(TrainFedAvgTest, TrainingImprovesUtility) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(200, 1));
  FlClient b(1, MakeBlobData(200, 2));
  Dataset test = MakeBlobData(300, 3);
  FedAvgConfig config;
  config.rounds = 6;
  config.local.epochs = 2;
  config.local.learning_rate = 0.3;
  Result<std::unique_ptr<Model>> model =
      TrainFedAvg(prototype, {&a, &b}, config);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(EvaluateAccuracy(**model, test),
            EvaluateAccuracy(prototype, test));
  EXPECT_GT(EvaluateAccuracy(**model, test), 0.85);
}

TEST(TrainFedAvgTest, DeterministicForSameCoalition) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(100, 4));
  FlClient b(1, MakeBlobData(100, 5));
  FedAvgConfig config;
  Result<std::unique_ptr<Model>> m1 = TrainFedAvg(prototype, {&a, &b}, config);
  Result<std::unique_ptr<Model>> m2 = TrainFedAvg(prototype, {&a, &b}, config);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ((*m1)->GetParameters(), (*m2)->GetParameters());
}

TEST(TrainFedAvgTest, DifferentCoalitionsDrawDifferentNoise) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(100, 6));
  FlClient b(1, MakeBlobData(100, 7));
  FedAvgConfig config;
  Result<std::unique_ptr<Model>> ma = TrainFedAvg(prototype, {&a}, config);
  Result<std::unique_ptr<Model>> mab =
      TrainFedAvg(prototype, {&a, &b}, config);
  ASSERT_TRUE(ma.ok());
  ASSERT_TRUE(mab.ok());
  EXPECT_NE((*ma)->GetParameters(), (*mab)->GetParameters());
}

TEST(TrainFedAvgTest, FailingClientFailsTheTraining) {
  // The second client's rows have 3 features against the model's 4: its
  // local update fails, and TrainFedAvg returns that error, not a model.
  LogisticRegression prototype = MakePrototype();
  FlClient good(0, MakeBlobData(60, 31));
  Rng rng(32);
  Result<Dataset> narrow = GenerateBlobs(2, 3, 5.0, 60, rng);
  ASSERT_TRUE(narrow.ok());
  FlClient bad(1, std::move(narrow).value());
  FedAvgConfig config;

  std::unique_ptr<Model> scratch = prototype.Clone();
  Rng local_rng(0);
  Result<std::vector<float>> local = bad.LocalUpdate(
      prototype.GetParameters(), *scratch, config.local, local_rng);
  ASSERT_FALSE(local.ok());
  EXPECT_EQ(local.status().code(), StatusCode::kInvalidArgument);

  Result<std::unique_ptr<Model>> model =
      TrainFedAvg(prototype, {&good, &bad}, config);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().ToString(), local.status().ToString());
}

TEST(TrainFedAvgTest, ZeroRoundsReturnsInitialModel) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(50, 8));
  FedAvgConfig config;
  config.rounds = 0;
  Result<std::unique_ptr<Model>> model = TrainFedAvg(prototype, {&a}, config);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->GetParameters(), prototype.GetParameters());
}

TEST(TrainFedAvgTest, LogRecordsRoundsAndDeltas) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(80, 9));
  FlClient b(1, MakeBlobData(120, 10));
  FedAvgConfig config;
  config.rounds = 3;
  TrainingLog log;
  Result<std::unique_ptr<Model>> model =
      TrainFedAvg(prototype, {&a, &b}, config, &log);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(log.num_rounds(), 3);
  EXPECT_EQ(log.initial_params, prototype.GetParameters());
  EXPECT_EQ(log.final_params, (*model)->GetParameters());
  for (const RoundRecord& round : log.rounds) {
    ASSERT_EQ(round.client_ids.size(), 2u);
    EXPECT_EQ(round.client_weights[0], 80.0);
    EXPECT_EQ(round.client_weights[1], 120.0);
    EXPECT_EQ(round.client_deltas[0].size(), prototype.NumParameters());
  }
}

TEST(TrainingLogTest, FullCoalitionReconstructionMatchesTraining) {
  // Replaying *all* clients' deltas must reproduce the actual final model:
  // the reconstruction operator is exact for the grand coalition.
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(100, 11));
  FlClient b(1, MakeBlobData(150, 12));
  FlClient c(2, MakeBlobData(80, 13));
  FedAvgConfig config;
  config.rounds = 4;
  TrainingLog log;
  Result<std::unique_ptr<Model>> model =
      TrainFedAvg(prototype, {&a, &b, &c}, config, &log);
  ASSERT_TRUE(model.ok());
  Result<std::vector<float>> reconstructed =
      ReconstructParameters(log, {0, 1, 2});
  ASSERT_TRUE(reconstructed.ok());
  const std::vector<float>& actual = (*model)->GetParameters();
  ASSERT_EQ(reconstructed->size(), actual.size());
  for (size_t p = 0; p < actual.size(); ++p) {
    EXPECT_NEAR((*reconstructed)[p], actual[p], 1e-4f);
  }
}

TEST(TrainingLogTest, EmptySubsetReconstructsInitialParams) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(60, 14));
  FedAvgConfig config;
  TrainingLog log;
  ASSERT_TRUE(TrainFedAvg(prototype, {&a}, config, &log).ok());
  Result<std::vector<float>> reconstructed = ReconstructParameters(log, {});
  ASSERT_TRUE(reconstructed.ok());
  EXPECT_EQ(*reconstructed, log.initial_params);
}

TEST(TrainingLogTest, SubsetReconstructionDiffersFromFull) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(100, 15));
  FlClient b(1, MakeBlobData(100, 16));
  FedAvgConfig config;
  TrainingLog log;
  ASSERT_TRUE(TrainFedAvg(prototype, {&a, &b}, config, &log).ok());
  Result<std::vector<float>> just_a = ReconstructParameters(log, {0});
  Result<std::vector<float>> both = ReconstructParameters(log, {0, 1});
  ASSERT_TRUE(just_a.ok());
  ASSERT_TRUE(both.ok());
  EXPECT_NE(*just_a, *both);
}

TEST(TrainingLogTest, RoundReconstructionBounds) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(60, 17));
  FedAvgConfig config;
  config.rounds = 2;
  TrainingLog log;
  ASSERT_TRUE(TrainFedAvg(prototype, {&a}, config, &log).ok());
  EXPECT_TRUE(ReconstructRoundParameters(log, 0, {0}).ok());
  EXPECT_TRUE(ReconstructRoundParameters(log, 1, {0}).ok());
  EXPECT_FALSE(ReconstructRoundParameters(log, 2, {0}).ok());
  EXPECT_FALSE(ReconstructRoundParameters(log, -1, {0}).ok());
}

TEST(TrainingLogTest, RoundReconstructionWithAbsentSubset) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(60, 18));
  FedAvgConfig config;
  config.rounds = 1;
  TrainingLog log;
  ASSERT_TRUE(TrainFedAvg(prototype, {&a}, config, &log).ok());
  // Client 5 never participated: round reconstruction falls back to the
  // round's starting parameters.
  Result<std::vector<float>> params = ReconstructRoundParameters(log, 0, {5});
  ASSERT_TRUE(params.ok());
  EXPECT_EQ(*params, log.rounds[0].global_before);
}

TEST(FlClientTest, LocalUpdateTrainsOnLocalData) {
  LogisticRegression prototype = MakePrototype();
  FlClient client(0, MakeBlobData(200, 19));
  LogisticRegression scratch(4, 2);
  SgdConfig config;
  config.epochs = 3;
  config.learning_rate = 0.3;
  Rng rng(20);
  Result<std::vector<float>> updated = client.LocalUpdate(
      prototype.GetParameters(), scratch, config, rng);
  ASSERT_TRUE(updated.ok());
  EXPECT_NE(*updated, prototype.GetParameters());
  // The updated model should fit the local data better.
  LogisticRegression updated_model(4, 2);
  ASSERT_TRUE(updated_model.SetParameters(*updated).ok());
  EXPECT_LT(updated_model.Loss(client.data()), prototype.Loss(client.data()));
}

}  // namespace
}  // namespace fedshap
