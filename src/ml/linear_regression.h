#ifndef FEDSHAP_ML_LINEAR_REGRESSION_H_
#define FEDSHAP_ML_LINEAR_REGRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/model.h"

namespace fedshap {

/// Ordinary least-squares linear model y = w.x + b with 0.5*(pred-y)^2 loss.
///
/// Used by the theory-side experiments (the paper's variance analysis in
/// Thm. 2 and the error bound in Thm. 3 assume FL linear regression) and as
/// the simplest gradient-trainable model for tests.
class LinearRegression : public Model {
 public:
  /// Builds an uninitialized model over `dim` features.
  explicit LinearRegression(int dim);

  std::unique_ptr<Model> Clone() const override;
  std::string Name() const override;
  size_t NumParameters() const override;
  std::vector<float> GetParameters() const override;
  Status SetParameters(const std::vector<float>& params) override;
  void InitializeParameters(Rng& rng) override;
  double ComputeGradient(const Dataset& data,
                         const std::vector<size_t>& batch,
                         std::vector<float>& grad) const override;
  double ComputeGradientBatched(const Dataset& data,
                                const std::vector<size_t>& batch,
                                std::vector<float>& grad) const override;
  void Predict(const float* features,
               std::vector<float>& output) const override;
  int NumOutputs() const override { return 1; }
  int NumFeatures() const override { return dim_; }
  const float* AffineScorer(const float** bias) const override {
    *bias = weights_.data() + dim_;
    return weights_.data();
  }

  /// Exact least-squares fit via the normal equations (ridge-regularized by
  /// `l2` for numerical stability). Replaces the current parameters.
  Status FitClosedForm(const Dataset& data, double l2 = 1e-8);

  /// Feature dimension.
  int dim() const { return dim_; }

 private:
  int dim_;
  std::vector<float> weights_;  // dim_ weights followed by a bias.
};

}  // namespace fedshap

#endif  // FEDSHAP_ML_LINEAR_REGRESSION_H_
