#ifndef FEDSHAP_ML_MLP_H_
#define FEDSHAP_ML_MLP_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/model.h"

namespace fedshap {

/// One-hidden-layer multilayer perceptron: dim -> hidden (ReLU) -> classes
/// (softmax), trained with cross-entropy. The "MLP" FL model of the paper's
/// evaluation, sized for fast CPU training.
class Mlp : public Model {
 public:
  /// Builds an uninitialized dim -> hidden -> num_classes network.
  Mlp(int dim, int hidden, int num_classes);

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

  /// Hidden-layer width.
  int hidden() const { return hidden_; }

  /// Reference forward pass for one row; fills the hidden activations
  /// (post-ReLU) and the softmax probabilities. ComputeGradient runs it;
  /// tests hold ForwardBatch against it.
  void Forward(const float* x, std::vector<float>& hidden_act,
               std::vector<float>& probs) const;

 private:
  // Parameter layout inside the flat vector:
  //   W1: hidden x dim      offset 0
  //   b1: hidden            offset w1_count
  //   W2: classes x hidden  offset w1_count + hidden
  //   b2: classes           tail
  size_t W1() const { return 0; }
  size_t B1() const { return static_cast<size_t>(hidden_) * dim_; }
  size_t W2() const { return B1() + hidden_; }
  size_t B2() const { return W2() + static_cast<size_t>(num_classes_) * hidden_; }

  /// The batched forward pass of training and scoring over `n` gathered
  /// rows `xb`: the hidden activations relu(X * W1^T + b1) into `h`,
  /// then the logits H * W2^T + b2 into `logits` (n x classes).
  void ForwardRows(const float* xb, size_t n, AlignedFloats& h,
                   float* logits) const;

  int dim_;
  int hidden_;
  int num_classes_;
};

}  // namespace fedshap

#endif  // FEDSHAP_ML_MLP_H_
