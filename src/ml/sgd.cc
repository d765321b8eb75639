#include "ml/sgd.h"

#include <algorithm>
#include <numeric>

#include "ml/matrix.h"

namespace fedshap {

Status TrainSgd(Model& model, const Dataset& data, const SgdConfig& config,
                Rng& rng) {
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
  if (data.empty() || config.epochs == 0) return Status::OK();
  FEDSHAP_RETURN_NOT_OK(CheckDatasetFitsModel(data, model));

  const std::span<float> params = model.MutableParameters();
  std::vector<float> velocity;
  if (config.momentum > 0.0) velocity.assign(params.size(), 0.0f);
  // FedProx anchor: the parameters this local run started from.
  std::vector<float> reference;
  if (config.proximal_mu > 0.0) {
    reference.assign(params.begin(), params.end());
  }

  std::vector<size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<size_t> batch;
  std::vector<float> grad;
  const float lr = static_cast<float>(config.learning_rate);
  const float wd = static_cast<float>(config.weight_decay);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < order.size();
         start += config.batch_size) {
      size_t end = std::min(order.size(),
                            start + static_cast<size_t>(config.batch_size));
      batch.assign(order.begin() + start, order.begin() + end);
      model.ComputeGradientBatched(data, batch, grad);
      if (config.proximal_mu > 0.0) {
        AddProximal(grad.data(), params.data(), reference.data(),
                    params.size(), static_cast<float>(config.proximal_mu));
      }
      if (config.momentum > 0.0) {
        SgdMomentumStep(params.data(), velocity.data(), grad.data(),
                        params.size(), lr,
                        static_cast<float>(config.momentum), wd);
      } else {
        SgdStep(params.data(), grad.data(), params.size(), lr, wd);
      }
    }
  }
  return Status::OK();
}

}  // namespace fedshap
