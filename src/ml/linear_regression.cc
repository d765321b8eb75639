#include "ml/linear_regression.h"

#include <cmath>

#include "ml/matrix.h"
#include "util/logging.h"

namespace fedshap {

LinearRegression::LinearRegression(int dim) : dim_(dim) {
  FEDSHAP_CHECK(dim >= 1);
  params_.assign(static_cast<size_t>(dim) + 1, 0.0f);
}

std::unique_ptr<Model> LinearRegression::Clone() const {
  return std::make_unique<LinearRegression>(*this);
}

std::string LinearRegression::Name() const {
  return "linreg(" + std::to_string(dim_) + ")";
}

void LinearRegression::InitializeParameters(Rng& rng) {
  const double scale = 1.0 / std::sqrt(static_cast<double>(dim_));
  for (int d = 0; d < dim_; ++d) {
    params_[d] = static_cast<float>(rng.Gaussian(0.0, scale));
  }
  params_[dim_] = 0.0f;
}

void LinearRegression::ComputeGradient(const Dataset& data,
                                       const std::vector<size_t>& batch,
                                       std::vector<float>& grad) const {
  grad.assign(params_.size(), 0.0f);
  if (batch.empty()) return;
  std::vector<float> row(static_cast<size_t>(data.num_features()));
  for (size_t idx : batch) {
    data.CopyRow(idx, row.data());
    const float* x = row.data();
    double pred = params_[dim_];
    for (int d = 0; d < dim_; ++d) pred += params_[d] * x[d];
    const double err = pred - data.Target(idx);
    for (int d = 0; d < dim_; ++d) {
      grad[d] += static_cast<float>(err * x[d]);
    }
    grad[dim_] += static_cast<float>(err);
  }
  const float inv = 1.0f / static_cast<float>(batch.size());
  for (float& g : grad) g *= inv;
}

void LinearRegression::ComputeGradientBatched(
    const Dataset& data, const std::vector<size_t>& batch,
    std::vector<float>& grad) const {
  grad.assign(params_.size(), 0.0f);
  if (batch.empty()) return;
  const size_t bsz = batch.size();
  const size_t dim = static_cast<size_t>(dim_);
  const float inv = 1.0f / static_cast<float>(bsz);

  static thread_local AlignedFloats xb, err;
  GatherRows(data, batch, xb);

  // Per-row predictions over the gathered batch, then the averaged error
  // vector (scaling before the reduction keeps the gradient GEMM below
  // alpha-free).
  err.resize(bsz);
  const float bias = params_[dim_];
  float bias_grad = 0.0f;
  for (size_t i = 0; i < bsz; ++i) {
    const float* row = xb.data() + i * dim;
    float acc = 0.0f;
    for (size_t d = 0; d < dim; ++d) acc += params_[d] * row[d];
    const double e =
        static_cast<double>(acc) + bias - data.Target(batch[i]);
    err[i] = static_cast<float>(e) * inv;
    bias_grad += err[i];
  }

  // grad_w = (err/bsz)^T as a 1 x bsz row times X (bsz x dim): a single
  // saxpy-form GEMM row, so the inner loop runs over the full feature
  // width.
  MatMul(err.data(), 1, bsz, xb.data(), dim, grad.data());
  grad[dim_] = bias_grad;
}

void LinearRegression::ForwardBatch(const float* rows, size_t n,
                                    float* out) const {
  // The per-row dot product of ComputeGradientBatched, then the bias.
  const size_t dim = static_cast<size_t>(dim_);
  for (size_t i = 0; i < n; ++i) {
    const float* row = rows + i * dim;
    float acc = 0.0f;
    for (size_t d = 0; d < dim; ++d) acc += params_[d] * row[d];
    out[i] = acc + params_[dim_];
  }
}

Status LinearRegression::FitClosedForm(const Dataset& data, double l2) {
  if (data.num_features() != dim_) {
    return Status::InvalidArgument("dataset dimension mismatch");
  }
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  // Augmented design: [x, 1]. Normal equations (X^T X + l2 I) w = X^T y.
  const int n = dim_ + 1;
  std::vector<double> xtx(static_cast<size_t>(n) * n, 0.0);
  std::vector<double> xty(n, 0.0);
  std::vector<float> row(static_cast<size_t>(dim_));
  for (size_t i = 0; i < data.size(); ++i) {
    data.CopyRow(i, row.data());
    for (int a = 0; a < n; ++a) {
      const double xa = (a < dim_) ? row[a] : 1.0;
      xty[a] += xa * data.Target(i);
      for (int b = a; b < n; ++b) {
        const double xb = (b < dim_) ? row[b] : 1.0;
        xtx[a * n + b] += xa * xb;
      }
    }
  }
  for (int a = 0; a < n; ++a) {
    xtx[a * n + a] += l2;
    for (int b = 0; b < a; ++b) xtx[a * n + b] = xtx[b * n + a];
  }
  FEDSHAP_ASSIGN_OR_RETURN(std::vector<double> solution,
                           SolveLinearSystem(std::move(xtx), std::move(xty),
                                             n));
  for (int a = 0; a < n; ++a) params_[a] = static_cast<float>(solution[a]);
  return Status::OK();
}

}  // namespace fedshap
