/// Tests for the ML-side extensions: the FedProx proximal term in SGD.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/fedavg.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/sgd.h"

namespace fedshap {
namespace {

double ParamDistance(const std::vector<float>& a,
                     const std::vector<float>& b) {
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    total += d * d;
  }
  return std::sqrt(total);
}

TEST(FedProxTest, ProximalTermLimitsDrift) {
  // Larger mu keeps the locally trained parameters closer to the starting
  // (global) parameters — FedProx's defining behaviour.
  Rng rng(1);
  Result<Dataset> data = GenerateBlobs(2, 4, 5.0, 300, rng);
  ASSERT_TRUE(data.ok());

  auto drift_for = [&](double mu) {
    LogisticRegression model(4, 2);
    Rng init(2);
    model.InitializeParameters(init);
    const std::vector<float> start = model.GetParameters();
    SgdConfig config;
    config.epochs = 10;
    config.learning_rate = 0.3;
    config.proximal_mu = mu;
    Rng train_rng(3);
    EXPECT_TRUE(TrainSgd(model, *data, config, train_rng).ok());
    return ParamDistance(start, model.GetParameters());
  };

  // The equilibrium drift |grad(w*)|/mu is not monotone in mu (it depends
  // on where the proximal equilibrium lands on the loss surface), but any
  // stable proximal term must drift less than unconstrained SGD.
  const double drift_plain = drift_for(0.0);
  EXPECT_GT(drift_plain, drift_for(0.5));
  EXPECT_GT(drift_plain, drift_for(2.0));
}

TEST(FedProxTest, StillLearns) {
  Rng rng(4);
  Result<Dataset> data = GenerateBlobs(2, 4, 5.0, 400, rng);
  ASSERT_TRUE(data.ok());
  LogisticRegression model(4, 2);
  Rng init(5);
  model.InitializeParameters(init);
  const double initial_loss = model.Loss(*data);
  SgdConfig config;
  config.epochs = 10;
  config.learning_rate = 0.3;
  config.proximal_mu = 0.1;
  Rng train_rng(6);
  ASSERT_TRUE(TrainSgd(model, *data, config, train_rng).ok());
  EXPECT_LT(model.Loss(*data), initial_loss * 0.7);
}

TEST(FedProxTest, RejectsNegativeMu) {
  Rng rng(7);
  Result<Dataset> data = GenerateBlobs(2, 3, 4.0, 50, rng);
  ASSERT_TRUE(data.ok());
  LogisticRegression model(3, 2);
  SgdConfig config;
  config.proximal_mu = -0.1;
  Rng train_rng(8);
  EXPECT_FALSE(TrainSgd(model, *data, config, train_rng).ok());
}

TEST(FedProxTest, ReducesClientDriftInFederatedTraining) {
  // Heterogeneous (label-skewed) federation: FedProx local updates stay
  // closer to the global model than plain FedAvg updates.
  Rng rng(9);
  Result<Dataset> pool = GenerateBlobs(4, 6, 4.0, 1200, rng);
  ASSERT_TRUE(pool.ok());
  PartitionConfig part;
  part.scheme = PartitionScheme::kSameSizeDiffDist;
  part.num_clients = 4;
  part.label_skew = 0.8;
  Result<std::vector<Dataset>> clients = PartitionDataset(*pool, part, rng);
  ASSERT_TRUE(clients.ok());

  LogisticRegression prototype(6, 4);
  Rng init(10);
  prototype.InitializeParameters(init);
  const std::vector<float> global = prototype.GetParameters();

  auto mean_local_drift = [&](double mu) {
    double total = 0.0;
    for (int i = 0; i < 4; ++i) {
      FlClient client(i, (*clients)[i]);
      LogisticRegression scratch(6, 4);
      SgdConfig local;
      local.epochs = 3;
      local.learning_rate = 0.3;
      local.proximal_mu = mu;
      Rng update_rng(20 + i);
      Result<std::vector<float>> updated =
          client.LocalUpdate(global, scratch, local, update_rng);
      EXPECT_TRUE(updated.ok());
      total += ParamDistance(global, *updated);
    }
    return total / 4;
  };
  EXPECT_GT(mean_local_drift(0.0), mean_local_drift(1.0));
}

TEST(FedAvgWithProxTest, EndToEndTrainingWorks) {
  Rng rng(21);
  Result<Dataset> pool = GenerateBlobs(3, 5, 5.0, 900, rng);
  ASSERT_TRUE(pool.ok());
  auto [train, test] = pool->Split(0.7, rng);
  PartitionConfig part;
  part.scheme = PartitionScheme::kSameSizeDiffDist;
  part.num_clients = 3;
  Result<std::vector<Dataset>> shards = PartitionDataset(train, part, rng);
  ASSERT_TRUE(shards.ok());
  std::vector<FlClient> clients;
  for (int i = 0; i < 3; ++i) clients.emplace_back(i, (*shards)[i]);

  LogisticRegression prototype(5, 3);
  Rng init(22);
  prototype.InitializeParameters(init);
  FedAvgConfig config;
  config.rounds = 5;
  config.local.epochs = 2;
  config.local.learning_rate = 0.3;
  config.local.proximal_mu = 0.5;  // FedProx
  Result<std::unique_ptr<Model>> model = TrainFedAvg(
      prototype, {&clients[0], &clients[1], &clients[2]}, config);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(EvaluateAccuracy(**model, test), 0.8);
}

}  // namespace
}  // namespace fedshap
