#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>

#include "ml/matrix.h"
#include "util/logging.h"

namespace fedshap {

void SoftmaxInPlace(std::vector<float>& logits) {
  const float max_logit = *std::max_element(logits.begin(), logits.end());
  float total = 0.0f;
  for (float& v : logits) {
    v = std::exp(v - max_logit);
    total += v;
  }
  for (float& v : logits) v /= total;
}

LogisticRegression::LogisticRegression(int dim, int num_classes)
    : dim_(dim),
      num_classes_(num_classes),
      params_(static_cast<size_t>(num_classes) * dim + num_classes, 0.0f) {
  FEDSHAP_CHECK(dim >= 1);
  FEDSHAP_CHECK(num_classes >= 2);
}

std::unique_ptr<Model> LogisticRegression::Clone() const {
  return std::make_unique<LogisticRegression>(*this);
}

std::string LogisticRegression::Name() const {
  return "logreg(" + std::to_string(dim_) + "->" +
         std::to_string(num_classes_) + ")";
}

size_t LogisticRegression::NumParameters() const { return params_.size(); }

std::vector<float> LogisticRegression::GetParameters() const {
  return params_;
}

Status LogisticRegression::SetParameters(const std::vector<float>& params) {
  if (params.size() != params_.size()) {
    return Status::InvalidArgument("parameter size mismatch");
  }
  params_ = params;
  return Status::OK();
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

double LogisticRegression::ComputeGradient(const Dataset& data,
                                           const std::vector<size_t>& batch,
                                           std::vector<float>& grad) const {
  grad.assign(params_.size(), 0.0f);
  if (batch.empty()) return 0.0;
  const size_t weight_count = static_cast<size_t>(num_classes_) * dim_;
  std::vector<float> probs;
  std::vector<float> row(static_cast<size_t>(data.num_features()));
  double total_loss = 0.0;
  for (size_t idx : batch) {
    data.CopyRow(idx, row.data());
    const float* x = row.data();
    const int label = data.ClassLabel(idx);
    Forward(x, probs);
    total_loss += -std::log(std::max(probs[label], 1e-12f));
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
  return total_loss / static_cast<double>(batch.size());
}

double LogisticRegression::ComputeGradientBatched(
    const Dataset& data, const std::vector<size_t>& batch,
    std::vector<float>& grad) const {
  grad.assign(params_.size(), 0.0f);
  if (batch.empty()) return 0.0;
  const size_t bsz = batch.size();
  const size_t dim = static_cast<size_t>(dim_);
  const size_t classes = static_cast<size_t>(num_classes_);
  const size_t weight_count = classes * dim;
  const float inv = 1.0f / static_cast<float>(bsz);

  // X (batch x dim) feeds the weight gradient, X^T (dim x batch) the
  // logits.
  static thread_local AlignedFloats xb, xt, probs;
  GatherRowsAndColumns(data, batch, xb, xt);

  // Logits = X * W^T + b, then softmax over each row. The product runs
  // from X^T and W as stored, with the batch rows in the vector lanes:
  // there are too few classes to fill them.
  probs.resize(bsz * classes);
  MatMulFromTransposes(xt.data(), bsz, dim, params_.data(), classes,
                       probs.data());
  AddBiasRows(probs.data(), bsz, classes, params_.data() + weight_count);
  SoftmaxRows(probs.data(), bsz, classes);

  // Loss, then turn probs into the logit deltas in place.
  double total_loss = 0.0;
  for (size_t i = 0; i < bsz; ++i) {
    const int label = data.ClassLabel(batch[i]);
    float* row = probs.data() + i * classes;
    total_loss += -std::log(std::max(row[label], 1e-12f));
    row[label] -= 1.0f;
  }

  // grad_W = delta^T * X / bsz (the averaging rides along as alpha),
  // grad_b = column sums of delta, averaged after.
  AddOuterBatch(grad.data(), classes, dim, inv, probs.data(), xb.data(),
                bsz);
  ColumnSums(probs.data(), bsz, classes, grad.data() + weight_count);
  for (size_t c = 0; c < classes; ++c) grad[weight_count + c] *= inv;
  return total_loss / static_cast<double>(bsz);
}

void LogisticRegression::Predict(const float* features,
                                 std::vector<float>& output) const {
  Forward(features, output);
}

}  // namespace fedshap
