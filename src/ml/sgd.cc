#include "ml/sgd.h"

#include <numeric>
#include <string>

#include "ml/matrix.h"
#include "util/logging.h"

namespace fedshap {

Result<double> TrainSgd(Model& model, const Dataset& data,
                        const SgdConfig& config, Rng& rng) {
  if (config.epochs < 0) {
    return Status::InvalidArgument("epochs must be >= 0");
  }
  if (config.batch_size <= 0) {
    return Status::InvalidArgument("batch_size must be > 0");
  }
  if (config.learning_rate <= 0.0) {
    return Status::InvalidArgument("learning_rate must be > 0");
  }
  if (config.proximal_mu < 0.0) {
    return Status::InvalidArgument("proximal_mu must be >= 0");
  }
  if (data.empty() || config.epochs == 0) return 0.0;
  if (data.num_features() != model.NumFeatures()) {
    return Status::InvalidArgument(
        "dataset has " + std::to_string(data.num_features()) +
        " features, model expects " + std::to_string(model.NumFeatures()));
  }

  std::vector<float> params = model.GetParameters();
  std::vector<float> velocity;
  if (config.momentum > 0.0) velocity.assign(params.size(), 0.0f);
  // FedProx anchor: the parameters this local run started from.
  std::vector<float> reference;
  if (config.proximal_mu > 0.0) reference = params;

  std::vector<size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<size_t> batch;
  std::vector<float> grad;

  double last_epoch_loss = 0.0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(order);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < order.size();
         start += config.batch_size) {
      size_t end = std::min(order.size(),
                            start + static_cast<size_t>(config.batch_size));
      batch.assign(order.begin() + start, order.begin() + end);
      epoch_loss += model.ComputeGradientBatched(data, batch, grad);
      ++batches;
      if (config.proximal_mu > 0.0) {
        AddProximal(grad.data(), params.data(), reference.data(),
                    params.size(), static_cast<float>(config.proximal_mu));
      }
      const float lr = static_cast<float>(config.learning_rate);
      const float wd = static_cast<float>(config.weight_decay);
      if (config.momentum > 0.0) {
        SgdMomentumStep(params.data(), velocity.data(), grad.data(),
                        params.size(), lr,
                        static_cast<float>(config.momentum), wd);
      } else {
        SgdStep(params.data(), grad.data(), params.size(), lr, wd);
      }
      FEDSHAP_RETURN_NOT_OK(model.SetParameters(params));
    }
    last_epoch_loss = batches > 0 ? epoch_loss / batches : 0.0;
  }
  return last_epoch_loss;
}

}  // namespace fedshap
