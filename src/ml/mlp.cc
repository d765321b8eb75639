#include "ml/mlp.h"

#include <algorithm>
#include <cmath>

#include "ml/logistic_regression.h"  // SoftmaxInPlace
#include "ml/matrix.h"
#include "util/logging.h"

namespace fedshap {

Mlp::Mlp(int dim, int hidden, int num_classes)
    : dim_(dim), hidden_(hidden), num_classes_(num_classes) {
  FEDSHAP_CHECK(dim >= 1);
  FEDSHAP_CHECK(hidden >= 1);
  FEDSHAP_CHECK(num_classes >= 2);
  params_.assign(B2() + num_classes_, 0.0f);
}

std::unique_ptr<Model> Mlp::Clone() const {
  return std::make_unique<Mlp>(*this);
}

std::string Mlp::Name() const {
  return "mlp(" + std::to_string(dim_) + "-" + std::to_string(hidden_) +
         "-" + std::to_string(num_classes_) + ")";
}

void Mlp::InitializeParameters(Rng& rng) {
  // He initialization for the ReLU layer, Xavier-ish for the head.
  const double scale1 = std::sqrt(2.0 / dim_);
  const double scale2 = std::sqrt(1.0 / hidden_);
  const size_t w1_count = B1();
  for (size_t i = 0; i < w1_count; ++i) {
    params_[i] = static_cast<float>(rng.Gaussian(0.0, scale1));
  }
  std::fill(params_.begin() + B1(), params_.begin() + W2(), 0.0f);
  for (size_t i = W2(); i < B2(); ++i) {
    params_[i] = static_cast<float>(rng.Gaussian(0.0, scale2));
  }
  std::fill(params_.begin() + B2(), params_.end(), 0.0f);
}

void Mlp::Forward(const float* x, std::vector<float>& hidden_act,
                  std::vector<float>& probs) const {
  hidden_act.assign(hidden_, 0.0f);
  const float* w1 = params_.data() + W1();
  const float* b1 = params_.data() + B1();
  for (int h = 0; h < hidden_; ++h) {
    const float* row = w1 + static_cast<size_t>(h) * dim_;
    float acc = b1[h];
    for (int d = 0; d < dim_; ++d) acc += row[d] * x[d];
    hidden_act[h] = acc > 0.0f ? acc : 0.0f;  // ReLU
  }
  probs.assign(num_classes_, 0.0f);
  const float* w2 = params_.data() + W2();
  const float* b2 = params_.data() + B2();
  for (int c = 0; c < num_classes_; ++c) {
    const float* row = w2 + static_cast<size_t>(c) * hidden_;
    float acc = b2[c];
    for (int h = 0; h < hidden_; ++h) acc += row[h] * hidden_act[h];
    probs[c] = acc;
  }
  SoftmaxInPlace(probs);
}

void Mlp::ComputeGradient(const Dataset& data,
                          const std::vector<size_t>& batch,
                          std::vector<float>& grad) const {
  grad.assign(params_.size(), 0.0f);
  if (batch.empty()) return;
  std::vector<float> hidden_act, probs, dhidden(hidden_);
  std::vector<float> row(static_cast<size_t>(data.num_features()));
  const float* w2 = params_.data() + W2();
  for (size_t idx : batch) {
    data.CopyRow(idx, row.data());
    const float* x = row.data();
    const int label = data.ClassLabel(idx);
    Forward(x, hidden_act, probs);

    // Output layer: dlogit_c = p_c - 1[c==label].
    std::fill(dhidden.begin(), dhidden.end(), 0.0f);
    float* gw2 = grad.data() + W2();
    float* gb2 = grad.data() + B2();
    for (int c = 0; c < num_classes_; ++c) {
      const float delta = probs[c] - (c == label ? 1.0f : 0.0f);
      const float* w2_row = w2 + static_cast<size_t>(c) * hidden_;
      float* gw2_row = gw2 + static_cast<size_t>(c) * hidden_;
      for (int h = 0; h < hidden_; ++h) {
        gw2_row[h] += delta * hidden_act[h];
        dhidden[h] += delta * w2_row[h];
      }
      gb2[c] += delta;
    }
    // Hidden layer through ReLU.
    float* gw1 = grad.data() + W1();
    float* gb1 = grad.data() + B1();
    for (int h = 0; h < hidden_; ++h) {
      if (hidden_act[h] <= 0.0f) continue;  // ReLU gate
      const float dh = dhidden[h];
      float* gw1_row = gw1 + static_cast<size_t>(h) * dim_;
      for (int d = 0; d < dim_; ++d) gw1_row[d] += dh * x[d];
      gb1[h] += dh;
    }
  }
  const float inv = 1.0f / static_cast<float>(batch.size());
  for (float& g : grad) g *= inv;
}

void Mlp::ForwardRows(const float* xb, size_t n, AlignedFloats& h,
                      float* logits) const {
  const size_t dim = static_cast<size_t>(dim_);
  const size_t hidden = static_cast<size_t>(hidden_);
  const size_t classes = static_cast<size_t>(num_classes_);
  static thread_local AlignedFloats w1t, w2t;

  // Hidden layer: H = relu(X * W1^T + b1). W1 is transposed once per
  // call so the product runs in saxpy form; the cost amortizes over the
  // rows.
  w1t.resize(dim * hidden);
  Transpose(params_.data() + W1(), hidden, dim, w1t.data());
  h.resize(n * hidden);
  MatMul(xb, n, dim, w1t.data(), hidden, h.data());
  AddBiasReluRows(h.data(), n, hidden, params_.data() + B1());

  // Output layer: logits = H * W2^T + b2.
  w2t.resize(hidden * classes);
  Transpose(params_.data() + W2(), classes, hidden, w2t.data());
  MatMul(h.data(), n, hidden, w2t.data(), classes, logits);
  AddBiasRows(logits, n, classes, params_.data() + B2());
}

void Mlp::ComputeGradientBatched(const Dataset& data,
                                 const std::vector<size_t>& batch,
                                 std::vector<float>& grad) const {
  grad.assign(params_.size(), 0.0f);
  if (batch.empty()) return;
  const size_t bsz = batch.size();
  const size_t dim = static_cast<size_t>(dim_);
  const size_t hidden = static_cast<size_t>(hidden_);
  const size_t classes = static_cast<size_t>(num_classes_);
  const float inv = 1.0f / static_cast<float>(bsz);

  // Per-thread scratch: gradient steps run once per minibatch, so these
  // amortize to zero allocations per epoch.
  static thread_local AlignedFloats xb, h, probs, dh;
  GatherRows(data, batch, xb);
  probs.resize(bsz * classes);
  ForwardRows(xb.data(), bsz, h, probs.data());
  SoftmaxRows(probs.data(), bsz, classes);

  // probs becomes the logit deltas (p_c - 1[c == label]) in place,
  // pre-scaled by 1/bsz so every downstream gradient product comes out
  // averaged with no separate scaling pass.
  for (size_t i = 0; i < bsz; ++i) {
    probs[i * classes + data.ClassLabel(batch[i])] -= 1.0f;
  }
  for (size_t i = 0; i < bsz * classes; ++i) probs[i] *= inv;

  // Output-layer gradients: gW2 = delta^T * H, gb2 = column sums.
  AddOuterBatch(grad.data() + W2(), classes, hidden, 1.0f, probs.data(),
                h.data(), bsz);
  ColumnSums(probs.data(), bsz, classes, grad.data() + B2());

  // Backprop into the hidden layer: dH = delta * W2, gated by the ReLU.
  dh.resize(bsz * hidden);
  MatMul(probs.data(), bsz, classes, params_.data() + W2(), hidden,
         dh.data());
  ReluMaskBackward(dh.data(), h.data(), bsz * hidden);
  // gW1 = dH^T * X (dH is already 1/bsz-scaled through the deltas).
  MatTMat(dh.data(), bsz, hidden, xb.data(), dim, grad.data() + W1());
  ColumnSums(dh.data(), bsz, hidden, grad.data() + B1());
}

void Mlp::ForwardBatch(const float* rows, size_t n, float* out) const {
  static thread_local AlignedFloats h;
  ForwardRows(rows, n, h, out);
}

}  // namespace fedshap
