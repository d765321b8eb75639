#ifndef FEDSHAP_ML_CNN_H_
#define FEDSHAP_ML_CNN_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/model.h"

namespace fedshap {

/// Small convolutional network for the square single-channel images
/// produced by the digit generator:
///
///   input (side x side) -> conv 3x3 (valid, `filters` channels) -> ReLU
///   -> maxpool 2x2 (stride 2) -> dense -> softmax
///
/// The "CNN" FL model of the paper's evaluation; implemented with manual
/// forward/backward passes (no autograd), sized for CPU-scale FL rounds.
class Cnn : public Model {
 public:
  /// `side` is the image width/height; features are side*side floats.
  Cnn(int side, int filters, int num_classes);

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
  int NumFeatures() const override { return side_ * side_; }

 private:
  // Derived sizes.
  int conv_side() const { return side_ - 2; }        // valid 3x3 conv
  int pool_side() const { return conv_side() / 2; }  // 2x2/2 maxpool
  size_t conv_area() const {
    return static_cast<size_t>(conv_side()) * conv_side();
  }
  size_t pool_area() const {
    return static_cast<size_t>(pool_side()) * pool_side();
  }
  size_t flat_size() const { return pool_area() * filters_; }

  // Flat parameter layout: conv weights (filters*9), conv bias (filters),
  // dense weights (classes*flat), dense bias (classes).
  size_t ConvW() const { return 0; }
  size_t ConvB() const { return static_cast<size_t>(filters_) * 9; }
  size_t DenseW() const { return ConvB() + filters_; }
  size_t DenseB() const {
    return DenseW() + static_cast<size_t>(num_classes_) * flat_size();
  }

  /// Forward pass for one image. Fills the post-ReLU conv maps, the pooled
  /// activations with their argmax positions (for backprop routing) and the
  /// softmax probabilities.
  void Forward(const float* x, std::vector<float>& conv_act,
               std::vector<float>& pooled, std::vector<int>& pool_argmax,
               std::vector<float>& probs) const;

  int side_;
  int filters_;
  int num_classes_;
  std::vector<float> params_;
};

}  // namespace fedshap

#endif  // FEDSHAP_ML_CNN_H_
