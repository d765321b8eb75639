#ifndef FEDSHAP_ML_SGD_H_
#define FEDSHAP_ML_SGD_H_

#include "data/dataset.h"
#include "ml/model.h"
#include "util/random.h"
#include "util/status.h"

namespace fedshap {

/// Minibatch SGD hyper-parameters shared by local FL training and
/// centralized baselines.
struct SgdConfig {
  /// Passes over the data.
  int epochs = 1;
  /// Examples per minibatch.
  int batch_size = 32;
  /// Step size.
  double learning_rate = 0.1;
  /// Classical momentum coefficient (0 = plain SGD).
  double momentum = 0.0;
  /// L2 regularization coefficient.
  double weight_decay = 0.0;
  /// FedProx proximal coefficient mu (Li et al., MLSys 2020): adds
  /// mu * (w - w_ref) to every gradient step, where w_ref is the model's
  /// parameters when TrainSgd starts (the global model, in FL terms).
  /// Zero disables the proximal term and recovers plain FedAvg local SGD.
  double proximal_mu = 0.0;
};

/// Runs `config.epochs` epochs of shuffled minibatch SGD on `data`,
/// stepping `model`'s parameters in place. A no-op on an empty dataset —
/// an FL client with no data contributes nothing, which is what the
/// null-player axiom expects. A non-empty dataset that does not fit the
/// model (CheckDatasetFitsModel) fails with InvalidArgument before any
/// step. Computes no loss: evaluate Model::Loss for one.
///
/// Batch order is drawn from `rng`; each minibatch's forward/backward runs
/// through Model::ComputeGradientBatched (for logistic regression, the
/// single LogRegGradient kernel of ml/matrix.h) and the weight update
/// through the fused SGD kernels of ml/matrix.h, directly on
/// Model::MutableParameters. The only parameter-sized copies are the
/// gradient, the momentum velocity and the FedProx anchor.
Status TrainSgd(Model& model, const Dataset& data, const SgdConfig& config,
                Rng& rng);

}  // namespace fedshap

#endif  // FEDSHAP_ML_SGD_H_
