#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>

#include "ml/exp.h"
#include "ml/matrix.h"
#include "util/logging.h"

namespace fedshap {

void SoftmaxInPlace(std::vector<float>& logits) {
  const float max_logit = *std::max_element(logits.begin(), logits.end());
  for (float& v : logits) v = Exp(v - max_logit);
  float total = 0.0f;
  for (float v : logits) total += v;
  for (float& v : logits) v /= total;
}

LogisticRegression::LogisticRegression(int dim, int num_classes)
    : dim_(dim), num_classes_(num_classes) {
  FEDSHAP_CHECK(dim >= 1);
  FEDSHAP_CHECK(num_classes >= 2);
  // [W (classes*dim), b (classes)]
  params_.assign(static_cast<size_t>(num_classes) * dim + num_classes, 0.0f);
}

std::unique_ptr<Model> LogisticRegression::Clone() const {
  return std::make_unique<LogisticRegression>(*this);
}

std::string LogisticRegression::Name() const {
  return "logreg(" + std::to_string(dim_) + "->" +
         std::to_string(num_classes_) + ")";
}

void LogisticRegression::InitializeParameters(Rng& rng) {
  const double scale = 1.0 / std::sqrt(static_cast<double>(dim_));
  const size_t weight_count = static_cast<size_t>(num_classes_) * dim_;
  for (size_t i = 0; i < weight_count; ++i) {
    params_[i] = static_cast<float>(rng.Gaussian(0.0, scale));
  }
  std::fill(params_.begin() + weight_count, params_.end(), 0.0f);
}

void LogisticRegression::Forward(const float* x,
                                 std::vector<float>& probs) const {
  probs.assign(num_classes_, 0.0f);
  const size_t weight_count = static_cast<size_t>(num_classes_) * dim_;
  for (int c = 0; c < num_classes_; ++c) {
    const float* w = params_.data() + static_cast<size_t>(c) * dim_;
    float acc = params_[weight_count + c];
    for (int d = 0; d < dim_; ++d) acc += w[d] * x[d];
    probs[c] = acc;
  }
  SoftmaxInPlace(probs);
}

void LogisticRegression::ComputeGradient(const Dataset& data,
                                         const std::vector<size_t>& batch,
                                         std::vector<float>& grad) const {
  grad.assign(params_.size(), 0.0f);
  if (batch.empty()) return;
  const size_t weight_count = static_cast<size_t>(num_classes_) * dim_;
  std::vector<float> probs;
  std::vector<float> row(static_cast<size_t>(data.num_features()));
  for (size_t idx : batch) {
    data.CopyRow(idx, row.data());
    const float* x = row.data();
    const int label = data.ClassLabel(idx);
    Forward(x, probs);
    for (int c = 0; c < num_classes_; ++c) {
      // d(CE)/d(logit_c) = p_c - 1[c == label]
      const float delta = probs[c] - (c == label ? 1.0f : 0.0f);
      float* gw = grad.data() + static_cast<size_t>(c) * dim_;
      for (int d = 0; d < dim_; ++d) gw[d] += delta * x[d];
      grad[weight_count + c] += delta;
    }
  }
  const float inv = 1.0f / static_cast<float>(batch.size());
  for (float& g : grad) g *= inv;
}

void LogisticRegression::ComputeGradientBatched(
    const Dataset& data, const std::vector<size_t>& batch,
    std::vector<float>& grad) const {
  if (batch.empty()) {
    grad.assign(params_.size(), 0.0f);
    return;
  }
  // X (batch x dim) feeds the weight gradient, X^T (dim x batch) the
  // logits; LogRegGradient writes every element of grad.
  static thread_local AlignedFloats xb, xt;
  static thread_local std::vector<int> labels;
  GatherRowsAndColumns(data, batch, xb, xt);
  labels.resize(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    labels[i] = data.ClassLabel(batch[i]);
    FEDSHAP_CHECK(labels[i] < num_classes_);
  }
  grad.resize(params_.size());
  LogRegGradient(xb.data(), xt.data(), batch.size(),
                 static_cast<size_t>(dim_), params_.data(),
                 static_cast<size_t>(num_classes_), labels.data(),
                 grad.data());
}

void LogisticRegression::ForwardBatch(const float* rows, size_t n,
                                      float* out) const {
  const size_t dim = static_cast<size_t>(dim_);
  const size_t classes = static_cast<size_t>(num_classes_);
  static thread_local AlignedFloats wt;
  wt.resize(dim * classes);
  Transpose(params_.data(), classes, dim, wt.data());
  MatMul(rows, n, dim, wt.data(), classes, out);
  AddBiasRows(out, n, classes, params_.data() + classes * dim);
}

}  // namespace fedshap
