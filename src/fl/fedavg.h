#ifndef FEDSHAP_FL_FEDAVG_H_
#define FEDSHAP_FL_FEDAVG_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "fl/client.h"
#include "fl/training_log.h"
#include "ml/model.h"
#include "ml/sgd.h"
#include "util/status.h"

namespace fedshap {

/// FedAvg hyper-parameters (McMahan et al., 2017).
struct FedAvgConfig {
  /// Communication rounds.
  int rounds = 5;
  /// Local SGD configuration used by each client per round.
  SgdConfig local;
  /// Base seed for local-training randomness. The effective seed is mixed
  /// with the participating coalition so each coalition's training is an
  /// independent yet reproducible run.
  uint64_t seed = 42;
};

/// Trains `prototype`'s architecture with FedAvg over the given clients.
///
/// The returned model starts from the prototype's *current* parameters, so
/// every coalition trains from the same initialization — a prerequisite for
/// both fair utility comparison and gradient-based reconstruction.
///
/// If `log` is non-null, records the per-round global parameters and client
/// deltas for gradient-based valuation baselines.
///
/// Passing an empty client list returns a clone of the prototype (the
/// "model trained on no data" M_empty used by U(M_empty)).
///
/// Each round trains the participating clients one after another on the
/// calling thread; callers parallelize across coalitions, not clients.
Result<std::unique_ptr<Model>> TrainFedAvg(
    const Model& prototype, const std::vector<const FlClient*>& clients,
    const FedAvgConfig& config, TrainingLog* log = nullptr);

}  // namespace fedshap

#endif  // FEDSHAP_FL_FEDAVG_H_
