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
  void InitializeParameters(Rng& rng) override;
  void ComputeGradient(const Dataset& data, const std::vector<size_t>& batch,
                       std::vector<float>& grad) const override;
  void ComputeGradientBatched(const Dataset& data,
                              const std::vector<size_t>& batch,
                              std::vector<float>& grad) const override;
  void ForwardBatch(const float* rows, size_t n, float* out) const override;
  int NumOutputs() const override { return num_classes_; }
  int NumFeatures() const override { return dim_; }

  /// Reference forward pass for one row: writes the softmax
  /// probabilities into `probs`. ComputeGradient runs it; tests hold
  /// ForwardBatch against it.
  void Forward(const float* x, std::vector<float>& probs) const;

 private:

  int dim_;
  int num_classes_;
};

/// Numerically stable in-place softmax over `logits`, exponentiating
/// with Exp (ml/exp.h).
void SoftmaxInPlace(std::vector<float>& logits);

}  // namespace fedshap

#endif  // FEDSHAP_ML_LOGISTIC_REGRESSION_H_
