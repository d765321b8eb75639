#include "ml/model.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "ml/kernel_dispatch.h"
#include "util/logging.h"

namespace fedshap {

void GatherRows(const Dataset& data, const std::vector<size_t>& batch,
                AlignedFloats& out) {
  const size_t dim = static_cast<size_t>(data.num_features());
  out.resize(batch.size() * dim);
  // Column-iterator gather: each source column is read contiguously and
  // scattered to its strided slot in the row-major batch. Pure copies,
  // so the batch is bit-identical to the former row-memcpy gather.
  for (size_t f = 0; f < dim; ++f) {
    const float* column = data.Column(static_cast<int>(f));
    float* dst = out.data() + f;
    for (size_t b = 0; b < batch.size(); ++b) {
      dst[b * dim] = column[batch[b]];
    }
  }
}

void GatherRowsAndColumns(const Dataset& data,
                          const std::vector<size_t>& batch,
                          AlignedFloats& rows, AlignedFloats& cols) {
  const size_t dim = static_cast<size_t>(data.num_features());
  rows.resize(batch.size() * dim);
  cols.resize(dim * batch.size());
  static thread_local std::vector<const float*> columns;
  columns.resize(dim);
  for (size_t f = 0; f < dim; ++f) {
    columns[f] = data.Column(static_cast<int>(f));
  }
  internal::ActiveKernelTable().gather_rows_and_columns(
      columns.data(), dim, batch.data(), batch.size(), rows.data(),
      cols.data());
}

Status Model::SetParameters(const std::vector<float>& params) {
  if (params.size() != params_.size()) {
    return Status::InvalidArgument("parameter size mismatch");
  }
  params_ = params;
  return Status::OK();
}

double Model::Loss(const Dataset& data) const {
  if (data.empty()) return 0.0;
  FEDSHAP_CHECK_OK(CheckDatasetFitsModel(data, *this));
  const bool regressor = NumOutputs() == 1;
  std::vector<float> row(static_cast<size_t>(data.num_features()));
  std::vector<float> output;
  double total = 0.0;
  for (size_t i = 0; i < data.size(); ++i) {
    data.CopyRow(i, row.data());
    Predict(row.data(), output);
    if (regressor) {
      const double err = static_cast<double>(output[0]) - data.Target(i);
      total += 0.5 * err * err;
    } else {
      total += -std::log(std::max(output[data.ClassLabel(i)], 1e-12f));
    }
  }
  return total / static_cast<double>(data.size());
}

Status CheckDatasetFitsModel(const Dataset& data, const Model& model) {
  if (data.num_features() != model.NumFeatures()) {
    return Status::InvalidArgument(
        "dataset has " + std::to_string(data.num_features()) +
        " features, model expects " + std::to_string(model.NumFeatures()));
  }
  if (data.num_classes() > model.NumOutputs()) {
    return Status::InvalidArgument(
        "dataset has " + std::to_string(data.num_classes()) +
        " classes, model outputs " + std::to_string(model.NumOutputs()));
  }
  if (data.num_classes() == 0 && model.NumOutputs() > 1) {
    return Status::InvalidArgument(
        "dataset has regression targets, model is a " +
        std::to_string(model.NumOutputs()) + "-class classifier");
  }
  return Status::OK();
}

std::vector<float> NumericalGradient(Model& model, const Dataset& data,
                                     const std::vector<size_t>& batch,
                                     float epsilon) {
  const Dataset rows = data.Subset(batch);
  const std::span<float> params = model.MutableParameters();
  std::vector<float> grad(params.size(), 0.0f);
  for (size_t p = 0; p < params.size(); ++p) {
    const float saved = params[p];
    params[p] = saved + epsilon;
    const double plus = model.Loss(rows);
    params[p] = saved - epsilon;
    const double minus = model.Loss(rows);
    params[p] = saved;
    grad[p] = static_cast<float>((plus - minus) / (2.0 * epsilon));
  }
  return grad;
}

}  // namespace fedshap
