#include "fl/client.h"

namespace fedshap {

Result<std::vector<float>> FlClient::LocalUpdate(
    const std::vector<float>& global_params, Model& model,
    const SgdConfig& config, Rng& rng) const {
  FEDSHAP_RETURN_NOT_OK(model.SetParameters(global_params));
  if (data_.empty()) return global_params;
  FEDSHAP_RETURN_NOT_OK(TrainSgd(model, data_, config, rng));
  return model.GetParameters();
}

}  // namespace fedshap
