#include "ml/model.h"

#include <cstring>
#include <numeric>

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

double Model::Loss(const Dataset& data) const {
  if (data.empty()) return 0.0;
  // Loss evaluation sits on the utility hot path (the kNegativeLoss
  // metric runs it once per trained coalition), so it runs the batched
  // gradient path in chunks: big enough to amortize the batched
  // kernels, small enough that per-thread scratch never scales with the
  // test-set size.
  constexpr size_t kChunk = 256;
  std::vector<size_t> rows;
  std::vector<float> unused_grad;
  double total = 0.0;
  for (size_t start = 0; start < data.size(); start += kChunk) {
    const size_t end = std::min(data.size(), start + kChunk);
    rows.resize(end - start);
    std::iota(rows.begin(), rows.end(), start);
    const double avg = ComputeGradientBatched(data, rows, unused_grad);
    total += avg * static_cast<double>(rows.size());
  }
  return total / static_cast<double>(data.size());
}

std::vector<float> NumericalGradient(Model& model, const Dataset& data,
                                     const std::vector<size_t>& batch,
                                     float epsilon) {
  std::vector<float> params = model.GetParameters();
  std::vector<float> grad(params.size(), 0.0f);
  std::vector<float> scratch;
  for (size_t p = 0; p < params.size(); ++p) {
    const float saved = params[p];
    params[p] = saved + epsilon;
    FEDSHAP_CHECK_OK(model.SetParameters(params));
    double plus = model.ComputeGradient(data, batch, scratch);
    params[p] = saved - epsilon;
    FEDSHAP_CHECK_OK(model.SetParameters(params));
    double minus = model.ComputeGradient(data, batch, scratch);
    params[p] = saved;
    grad[p] = static_cast<float>((plus - minus) / (2.0 * epsilon));
  }
  FEDSHAP_CHECK_OK(model.SetParameters(params));
  return grad;
}

}  // namespace fedshap
