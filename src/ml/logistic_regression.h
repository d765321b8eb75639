#ifndef FEDSHAP_ML_LOGISTIC_REGRESSION_H_
#define FEDSHAP_ML_LOGISTIC_REGRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/model.h"

namespace fedshap {

/// Multinomial (softmax) logistic regression with cross-entropy loss.
/// Parameters: a classes x dim weight matrix followed by per-class biases.
class LogisticRegression : public Model {
 public:
  /// Builds an uninitialized dim -> num_classes classifier.
  LogisticRegression(int dim, int num_classes);

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
  int NumOutputs() const override { return num_classes_; }
  int NumFeatures() const override { return dim_; }
  // Softmax is monotone per row, so argmax over the affine logits equals
  // argmax over Predict()'s probabilities.
  const float* AffineScorer(const float** bias) const override {
    *bias = params_.data() + static_cast<size_t>(num_classes_) * dim_;
    return params_.data();
  }

 private:
  /// Writes softmax probabilities for one row into `probs`.
  void Forward(const float* x, std::vector<float>& probs) const;

  int dim_;
  int num_classes_;
  std::vector<float> params_;  // [W (classes*dim), b (classes)]
};

/// Numerically stable in-place softmax over `logits`.
void SoftmaxInPlace(std::vector<float>& logits);

}  // namespace fedshap

#endif  // FEDSHAP_ML_LOGISTIC_REGRESSION_H_
