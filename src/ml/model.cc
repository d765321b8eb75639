#include "ml/model.h"

#include <algorithm>
#include <cmath>
#include <numeric>
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
  return ScoreRows(*this, data, RowScore::kLoss);
}

double ScoreRows(const Model& model, const Dataset& data, RowScore score) {
  if (data.empty()) return 0.0;
  FEDSHAP_CHECK_OK(CheckDatasetFitsModel(data, model));
  constexpr size_t kChunkRows = 256;
  const size_t outputs = static_cast<size_t>(model.NumOutputs());
  const bool regressor = outputs == 1;
  static thread_local AlignedFloats rows, out;
  static thread_local std::vector<size_t> chunk;
  double total = 0.0;
  for (size_t begin = 0; begin < data.size(); begin += kChunkRows) {
    chunk.resize(std::min(kChunkRows, data.size() - begin));
    std::iota(chunk.begin(), chunk.end(), begin);
    GatherRows(data, chunk, rows);
    out.resize(chunk.size() * outputs);
    model.ForwardBatch(rows.data(), chunk.size(), out.data());
    for (size_t i = 0; i < chunk.size(); ++i) {
      const float* o = out.data() + i * outputs;
      const size_t row = chunk[i];
      if (score == RowScore::kCorrect) {
        const size_t best =
            static_cast<size_t>(std::max_element(o, o + outputs) - o);
        if (static_cast<int>(best) == data.ClassLabel(row)) total += 1.0;
      } else if (regressor) {
        const double err = static_cast<double>(o[0]) - data.Target(row);
        total += 0.5 * err * err;
      } else {
        const double top = *std::max_element(o, o + outputs);
        double sum = 0.0;
        for (size_t c = 0; c < outputs; ++c) sum += std::exp(o[c] - top);
        total += std::log(sum) - (o[data.ClassLabel(row)] - top);
      }
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
