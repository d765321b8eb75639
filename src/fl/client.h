#ifndef FEDSHAP_FL_CLIENT_H_
#define FEDSHAP_FL_CLIENT_H_

#include <vector>

#include "data/dataset.h"
#include "ml/model.h"
#include "ml/sgd.h"
#include "util/random.h"
#include "util/status.h"

namespace fedshap {

/// A simulated FL data provider (hospital, bank, ...): owns a local dataset
/// and performs local training when the server hands it the global model.
///
/// The paper simulates providers with multiprocessing + gRPC on one machine;
/// this in-process equivalent exposes the same contract: receive global
/// parameters, run local epochs, return updated parameters.
class FlClient {
 public:
  /// Creates client `id` owning `data`.
  FlClient(int id, Dataset data) : id_(id), data_(std::move(data)) {}

  /// The client's index in the federation (0-based).
  int id() const { return id_; }
  /// Number of local training rows |D_i|.
  size_t num_samples() const { return data_.size(); }
  /// The client's local dataset D_i.
  const Dataset& data() const { return data_; }

  /// Runs `config` epochs of SGD starting from `global_params` and returns
  /// the updated local parameters. `model` is a scratch model of the right
  /// architecture (its parameters are overwritten). A client with no data
  /// returns the global parameters unchanged.
  ///
  /// The local-epoch loop executes each shuffled minibatch through the
  /// model's batched kernel path; batch order is drawn from `rng`, so a
  /// seeded run is deterministic.
  Result<std::vector<float>> LocalUpdate(
      const std::vector<float>& global_params, Model& model,
      const SgdConfig& config, Rng& rng) const;

 private:
  int id_;
  Dataset data_;
};

}  // namespace fedshap

#endif  // FEDSHAP_FL_CLIENT_H_
