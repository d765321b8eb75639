#include "fl/utility.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "ml/metrics.h"
#include "util/logging.h"
#include "util/serialization.h"

namespace fedshap {

uint64_t UtilityFunction::Fingerprint() const {
  // Deliberately weak default: enough for unit-test utilities that are
  // never persisted. Real workloads override with a full content hash.
  return Hasher64()
      .MixString("utility-function")
      .MixU64(static_cast<uint64_t>(num_clients()))
      .digest();
}

Result<std::vector<double>> UtilityFunction::EvaluateBatchFused(
    const std::vector<Coalition>& coalitions) const {
  std::vector<double> values;
  values.reserve(coalitions.size());
  for (const Coalition& coalition : coalitions) {
    FEDSHAP_ASSIGN_OR_RETURN(double utility, Evaluate(coalition));
    values.push_back(utility);
  }
  return values;
}

// ---------------------------------------------------------------------------
// FedAvgUtility

Result<std::unique_ptr<FedAvgUtility>> FedAvgUtility::Create(
    std::vector<Dataset> client_data, Dataset test_data,
    const Model& prototype, const FedAvgConfig& config,
    UtilityMetric metric) {
  if (client_data.empty()) {
    return Status::InvalidArgument("need at least one client");
  }
  if (client_data.size() > static_cast<size_t>(Coalition::kMaxClients)) {
    return Status::InvalidArgument("too many clients");
  }
  if (test_data.empty()) {
    return Status::InvalidArgument("test dataset must not be empty");
  }
  if (metric == UtilityMetric::kAccuracy && test_data.num_classes() == 0) {
    return Status::InvalidArgument("accuracy needs class labels");
  }
  // Scoring indexes the model by the test set's shape and training by
  // each client's; an empty client never reaches the model.
  Status fits = CheckDatasetFitsModel(test_data, prototype);
  if (!fits.ok()) {
    return Status::InvalidArgument("test set: " + fits.message());
  }
  for (size_t i = 0; i < client_data.size(); ++i) {
    if (client_data[i].empty()) continue;
    fits = CheckDatasetFitsModel(client_data[i], prototype);
    if (!fits.ok()) {
      return Status::InvalidArgument("client " + std::to_string(i) + ": " +
                                     fits.message());
    }
  }
  std::vector<FlClient> clients;
  clients.reserve(client_data.size());
  for (size_t i = 0; i < client_data.size(); ++i) {
    clients.emplace_back(static_cast<int>(i), std::move(client_data[i]));
  }
  return std::unique_ptr<FedAvgUtility>(
      new FedAvgUtility(std::move(clients), std::move(test_data),
                        prototype.Clone(), config, metric));
}

Result<double> FedAvgUtility::Evaluate(const Coalition& coalition) const {
  std::vector<const FlClient*> members;
  for (const FlClient& client : clients_) {
    if (coalition.Contains(client.id())) members.push_back(&client);
  }
  if (members.size() != static_cast<size_t>(coalition.Count())) {
    return Status::InvalidArgument("coalition references unknown clients");
  }
  FEDSHAP_ASSIGN_OR_RETURN(std::unique_ptr<Model> model,
                           TrainFedAvg(*prototype_, members, config_));
  switch (metric_) {
    case UtilityMetric::kAccuracy:
      return EvaluateAccuracy(*model, test_data_);
    case UtilityMetric::kNegativeLoss:
      return -model->Loss(test_data_);
  }
  return Status::Internal("unknown utility metric");
}

Result<double> FedAvgUtility::EvaluateParameters(
    const std::vector<float>& params) const {
  std::unique_ptr<Model> model = prototype_->Clone();
  FEDSHAP_RETURN_NOT_OK(model->SetParameters(params));
  switch (metric_) {
    case UtilityMetric::kAccuracy:
      return EvaluateAccuracy(*model, test_data_);
    case UtilityMetric::kNegativeLoss:
      return -model->Loss(test_data_);
  }
  return Status::Internal("unknown utility metric");
}

uint64_t FedAvgUtility::ComputeFingerprint() const {
  // Everything Evaluate's result depends on: the client datasets, the
  // test set and metric, the architecture and its shared initialization,
  // and the FedAvg/SGD hyperparameters (including the seed that derives
  // per-coalition training randomness).
  Hasher64 hasher;
  hasher.MixString("fedavg-utility");
  hasher.MixString(prototype_->Name());
  const std::vector<float> params = prototype_->GetParameters();
  hasher.MixU64(params.size());
  hasher.MixBytes(params.data(), params.size() * sizeof(float));
  hasher.MixU64(static_cast<uint64_t>(config_.rounds));
  hasher.MixU64(config_.seed);
  hasher.MixU64(static_cast<uint64_t>(config_.local.epochs));
  // The batch size is part of the workload identity: it changes the
  // gradient averaging, so a different size must address a different
  // store.
  hasher.MixU64(static_cast<uint64_t>(config_.local.batch_size));
  // The numerics version (the slot once held the gradient mode, 0). It
  // was 1 once the AVX2 kernels stopped fusing multiply-adds and trained
  // the scalar backend's bits, 2 once every model was scored by one
  // batched forward pass (Model::ForwardBatch), and is 3 since the
  // softmax exponentiates with the in-repo Exp (ml/exp.h) instead of
  // libm's expf: trained parameters moved, so stored values of any older
  // version must be misses. Bump it whenever a change moves trained or
  // scored bits.
  hasher.MixU64(3);
  hasher.MixDouble(config_.local.learning_rate);
  hasher.MixDouble(config_.local.momentum);
  hasher.MixDouble(config_.local.weight_decay);
  hasher.MixDouble(config_.local.proximal_mu);
  hasher.MixU64(static_cast<uint64_t>(metric_));
  hasher.MixU64(test_data_.Fingerprint());
  hasher.MixU64(clients_.size());
  for (const FlClient& client : clients_) {
    hasher.MixU64(client.data().Fingerprint());
  }
  return hasher.digest();
}

// ---------------------------------------------------------------------------
// GbdtUtility

Result<std::unique_ptr<GbdtUtility>> GbdtUtility::Create(
    std::vector<Dataset> client_data, Dataset test_data,
    const GbdtConfig& config) {
  if (client_data.empty()) {
    return Status::InvalidArgument("need at least one client");
  }
  if (test_data.empty()) {
    return Status::InvalidArgument("test dataset must not be empty");
  }
  return std::unique_ptr<GbdtUtility>(new GbdtUtility(
      std::move(client_data), std::move(test_data), config));
}

Result<double> GbdtUtility::Evaluate(const Coalition& coalition) const {
  std::vector<const Dataset*> parts;
  for (int i = 0; i < num_clients(); ++i) {
    if (coalition.Contains(i)) parts.push_back(&client_data_[i]);
  }
  // Index/view gather, not a merge: D_S is one row pointer + target per
  // member row, never a copy of the rows themselves. Row order matches
  // what Dataset::Merge produced, so the fitted ensemble — and therefore
  // every persisted utility — is unchanged.
  FEDSHAP_ASSIGN_OR_RETURN(DatasetView gathered, DatasetView::Gather(parts));
  Gbdt booster(config_);
  if (!gathered.empty()) {
    FEDSHAP_RETURN_NOT_OK(booster.Fit(gathered));
  }
  return booster.EvaluateAccuracy(test_data_);
}

uint64_t GbdtUtility::Fingerprint() const {
  Hasher64 hasher;
  hasher.MixString("gbdt-utility");
  hasher.MixU64(static_cast<uint64_t>(config_.num_trees));
  hasher.MixU64(static_cast<uint64_t>(config_.max_depth));
  hasher.MixDouble(config_.learning_rate);
  hasher.MixDouble(config_.reg_lambda);
  hasher.MixDouble(config_.min_child_weight);
  hasher.MixU64(static_cast<uint64_t>(config_.min_samples_leaf));
  hasher.MixU64(test_data_.Fingerprint());
  hasher.MixU64(client_data_.size());
  for (const Dataset& data : client_data_) {
    hasher.MixU64(data.Fingerprint());
  }
  return hasher.digest();
}

// ---------------------------------------------------------------------------
// TableUtility

uint64_t TableUtility::MaskOf(const Coalition& coalition) {
  uint64_t mask = 0;
  for (int member : coalition.Members()) {
    FEDSHAP_CHECK(member < 63);
    mask |= 1ULL << member;
  }
  return mask;
}

Result<TableUtility> TableUtility::FromValues(int n,
                                              std::vector<double> values) {
  if (n < 1 || n > 20) return Status::InvalidArgument("n must be in [1,20]");
  if (values.size() != (size_t{1} << n)) {
    return Status::InvalidArgument("values must have 2^n entries");
  }
  return TableUtility(n, std::move(values));
}

Result<TableUtility> TableUtility::FromFunction(
    int n, const std::function<double(const Coalition&)>& fn) {
  if (n < 1 || n > 20) return Status::InvalidArgument("n must be in [1,20]");
  std::vector<double> values(size_t{1} << n, 0.0);
  for (uint64_t mask = 0; mask < values.size(); ++mask) {
    Coalition c;
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1ULL) c.Add(i);
    }
    values[mask] = fn(c);
  }
  return TableUtility(n, std::move(values));
}

Result<double> TableUtility::Evaluate(const Coalition& coalition) const {
  const uint64_t mask = MaskOf(coalition);
  if (mask >= values_.size()) {
    return Status::InvalidArgument("coalition outside the table");
  }
  return values_[mask];
}

uint64_t TableUtility::Fingerprint() const {
  Hasher64 hasher;
  hasher.MixString("table-utility");
  hasher.MixU64(static_cast<uint64_t>(n_));
  for (double value : values_) hasher.MixDouble(value);
  return hasher.digest();
}

// ---------------------------------------------------------------------------
// LinearRegressionUtility

double LinearRegressionUtility::MeanUtility(int k) const {
  const double d = static_cast<double>(params_.feature_dim);
  const double denom =
      static_cast<double>(params_.samples_per_client) * k - d - 1.0;
  if (denom <= 0.0) return -params_.initial_mse;
  const double mse = params_.noise_mean * d / denom;
  return -std::min(mse, params_.initial_mse);
}

Result<double> LinearRegressionUtility::Evaluate(
    const Coalition& coalition) const {
  const int k = coalition.Count();
  double utility = MeanUtility(k);
  if (params_.noise_scale > 0.0 && k > 0) {
    // Per-client noise shared across coalitions (see header): eta_i is a
    // pure function of (seed, i), so U(S u {i}) and U(S) carry identical
    // noise except for client i's own term.
    const double sigma = params_.noise_scale *
                         static_cast<double>(params_.samples_per_client);
    double noise = 0.0;
    coalition.ForEach([&](int i) {
      Rng client_rng(noise_seed_ * 0x9E3779B97F4A7C15ULL +
                     static_cast<uint64_t>(i) + 1);
      noise += client_rng.Gaussian(0.0, sigma);
    });
    utility += noise;
  }
  return utility;
}

uint64_t LinearRegressionUtility::Fingerprint() const {
  Hasher64 hasher;
  hasher.MixString("linreg-utility");
  hasher.MixU64(static_cast<uint64_t>(params_.num_clients));
  hasher.MixU64(static_cast<uint64_t>(params_.samples_per_client));
  hasher.MixU64(static_cast<uint64_t>(params_.feature_dim));
  hasher.MixDouble(params_.noise_mean);
  hasher.MixDouble(params_.initial_mse);
  hasher.MixDouble(params_.noise_scale);
  hasher.MixU64(noise_seed_);
  return hasher.digest();
}

}  // namespace fedshap
