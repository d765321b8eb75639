#ifndef FEDSHAP_FL_UTILITY_H_
#define FEDSHAP_FL_UTILITY_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "fl/client.h"
#include "fl/fedavg.h"
#include "ml/gbdt.h"
#include "ml/model.h"
#include "util/coalition.h"
#include "util/status.h"

namespace fedshap {

/// The utility function U(.) of SV-based data valuation: maps a coalition of
/// FL clients to the performance of the FL model trained on their joint
/// data (Def. 2 of the paper).
///
/// Implementations must be deterministic per coalition (same coalition ->
/// same utility) and safe to call concurrently; the caching layer relies on
/// both.
class UtilityFunction {
 public:
  virtual ~UtilityFunction() = default;

  /// Number of FL clients n in the grand coalition.
  virtual int num_clients() const = 0;

  /// U(M_S): utility of the model trained on coalition `coalition`.
  virtual Result<double> Evaluate(const Coalition& coalition) const = 0;

  /// An Evaluate loop that nothing calls; kept only because bench/e2e does.
  virtual Result<std::vector<double>> EvaluateBatchFused(
      const std::vector<Coalition>& coalitions) const;

  /// 64-bit content fingerprint of the *workload*: everything that
  /// determines the value of U(S) for every S — client datasets, test
  /// data, model architecture and initialization, training configuration.
  /// Two utility functions with equal fingerprints must agree on every
  /// coalition; persisted utilities (UtilityStore) are addressed by this
  /// value. The base implementation hashes only num_clients() and is
  /// meant for throwaway test utilities; every persistable implementation
  /// overrides it with a full content hash.
  virtual uint64_t Fingerprint() const;
};

/// Which model-quality metric U(.) reports.
enum class UtilityMetric {
  kAccuracy,      ///< Test accuracy (the paper's default).
  kNegativeLoss,  ///< Minus average test loss.
};

/// The real thing: U(S) trains a FedAvg model on the members of S from a
/// fixed initialization and evaluates it on the test set.
class FedAvgUtility : public UtilityFunction {
 public:
  /// `prototype` supplies the architecture and the (already initialized)
  /// shared starting parameters.
  static Result<std::unique_ptr<FedAvgUtility>> Create(
      std::vector<Dataset> client_data, Dataset test_data,
      const Model& prototype, const FedAvgConfig& config,
      UtilityMetric metric = UtilityMetric::kAccuracy);

  int num_clients() const override {
    return static_cast<int>(clients_.size());
  }
  Result<double> Evaluate(const Coalition& coalition) const override;
  /// The content hash, computed once in Create: the utility is immutable.
  uint64_t Fingerprint() const override { return fingerprint_; }

  /// The i-th FL client (its dataset included).
  const FlClient& client(int i) const { return clients_[i]; }
  /// The shared test set every coalition's model is scored on.
  const Dataset& test_data() const { return test_data_; }
  /// The architecture + shared initialization every training starts from.
  const Model& prototype() const { return *prototype_; }
  /// The FedAvg training configuration.
  const FedAvgConfig& config() const { return config_; }
  /// Which model-quality metric U(.) reports.
  UtilityMetric metric() const { return metric_; }

  /// Evaluates an arbitrary parameter vector of the prototype architecture
  /// on the test set with this utility's metric. Used by gradient-based
  /// baselines to score reconstructed models.
  Result<double> EvaluateParameters(const std::vector<float>& params) const;

 private:
  FedAvgUtility(std::vector<FlClient> clients, Dataset test_data,
                std::unique_ptr<Model> prototype, const FedAvgConfig& config,
                UtilityMetric metric)
      : clients_(std::move(clients)),
        test_data_(std::move(test_data)),
        prototype_(std::move(prototype)),
        config_(config),
        metric_(metric),
        fingerprint_(ComputeFingerprint()) {}

  /// Hashes everything Evaluate's result depends on.
  uint64_t ComputeFingerprint() const;

  std::vector<FlClient> clients_;
  Dataset test_data_;
  std::unique_ptr<Model> prototype_;
  FedAvgConfig config_;
  UtilityMetric metric_;
  uint64_t fingerprint_;  ///< Declared last: hashes the members above.
};

/// XGBoost-style utility for tabular FL (Table V): U(S) fits a GBDT on the
/// merged coalition dataset and reports test accuracy. Gradient-based
/// baselines are not applicable to this utility, as in the paper.
class GbdtUtility : public UtilityFunction {
 public:
  /// Builds the utility over the given client shards and test set.
  static Result<std::unique_ptr<GbdtUtility>> Create(
      std::vector<Dataset> client_data, Dataset test_data,
      const GbdtConfig& config);

  int num_clients() const override {
    return static_cast<int>(client_data_.size());
  }
  Result<double> Evaluate(const Coalition& coalition) const override;
  uint64_t Fingerprint() const override;

 private:
  GbdtUtility(std::vector<Dataset> client_data, Dataset test_data,
              const GbdtConfig& config)
      : client_data_(std::move(client_data)),
        test_data_(std::move(test_data)),
        config_(config) {}

  std::vector<Dataset> client_data_;
  Dataset test_data_;
  GbdtConfig config_;
};

/// Explicit utility table, as in the paper's worked examples (Table I,
/// Fig. 2). Also the workhorse of unit tests.
class TableUtility : public UtilityFunction {
 public:
  /// `values[mask]` is U(S) for the coalition whose members are the set
  /// bits of `mask`; must have exactly 2^n entries. n <= 20.
  static Result<TableUtility> FromValues(int n,
                                         std::vector<double> values);

  /// Builds the table by evaluating `fn` on every subset. n <= 20.
  static Result<TableUtility> FromFunction(
      int n, const std::function<double(const Coalition&)>& fn);

  int num_clients() const override { return n_; }
  Result<double> Evaluate(const Coalition& coalition) const override;
  uint64_t Fingerprint() const override;

 private:
  TableUtility(int n, std::vector<double> values)
      : n_(n), values_(std::move(values)) {}

  /// Index of a coalition in the table (its low 64 bits; n <= 20 so safe).
  static uint64_t MaskOf(const Coalition& coalition);

  int n_;
  std::vector<double> values_;
};

/// Closed-form linear-regression utility from the Donahue & Kleinberg
/// model the paper's theory uses (Lemma 1): with per-client sample count t,
/// feature dimension d and noise mean mu_e,
///
///   E[U(S)] = -mse(|D_S|) = -mu_e * d / (t*|S| - d - 1)
///
/// clamped to -m0 (the initial model's MSE) when the denominator is not
/// positive.
///
/// Noise model (Eq. 8-10 of the paper): the utility is a sum of per-sample
/// errors e_j, and crucially the *same* e_j appear in every coalition
/// containing that sample. We therefore add one per-client noise term
/// eta_i ~ N(0, (noise_scale * t)^2), shared across coalitions:
/// U(S) = mean(S) + sum_{i in S} eta_i. This correlation is what makes
/// Var[U(S u i) - U(S)] = t^2 sigma^2 for MC (only client i's noise
/// survives) versus n * t^2 sigma^2 for CC — the substance of Theorem 2.
/// Noise is drawn deterministically from (seed, client id) so the function
/// stays reproducible; call `Reseed` for a fresh realization in
/// repeated-run variance studies.
class LinearRegressionUtility : public UtilityFunction {
 public:
  /// The closed-form model's parameters (symbols per Lemma 1 / Eq. 8-10).
  struct Params {
    int num_clients = 10;          ///< n.
    int samples_per_client = 50;   ///< t.
    int feature_dim = 5;           ///< d = |x|.
    double noise_mean = 1.0;       ///< mu_e.
    double initial_mse = 10.0;     ///< m0.
    double noise_scale = 0.0;      ///< sigma (per-sample); 0 = deterministic.
  };

  /// Creates the utility with a fixed default noise seed; see Reseed.
  explicit LinearRegressionUtility(const Params& params)
      : params_(params), noise_seed_(0x5eedf00dULL) {}

  int num_clients() const override { return params_.num_clients; }
  Result<double> Evaluate(const Coalition& coalition) const override;
  uint64_t Fingerprint() const override;

  /// Expected (noise-free) utility of a coalition of size k.
  double MeanUtility(int k) const;

  /// Switches to a different noise realization.
  void Reseed(uint64_t seed) { noise_seed_ = seed; }

 private:
  Params params_;
  uint64_t noise_seed_;
};

}  // namespace fedshap

#endif  // FEDSHAP_FL_UTILITY_H_
