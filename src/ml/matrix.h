#ifndef FEDSHAP_ML_MATRIX_H_
#define FEDSHAP_ML_MATRIX_H_

#include <cstddef>
#include <new>
#include <vector>

#include "util/aligned.h"
#include "util/status.h"

namespace fedshap {

/// \file
/// The ML substrate's compute kernels.
///
/// Two tiers live here:
///
///  - a minimal dense row-major `Matrix` plus the historical per-example
///    kernels (`MatVec`, `MatTVec`, `Rank1Update`, `SolveLinearSystem`);
///  - the *batched* kernels (`MatMul`, `MatTMat`, `AddOuterBatch`, the
///    fused bias/activation/softmax helpers, the one-pass
///    logistic-regression step `LogRegGradient` and the fused SGD update
///    steps) that the models' `ComputeGradientBatched` paths and
///    `TrainSgd` are built on. They operate on raw row-major float
///    buffers so models can address slices of their flat parameter
///    vectors directly.
///
/// The batched kernels are written as blocked saxpy-style loops (the
/// inner loop walks contiguous output/right-operand rows with no
/// reduction dependence). Their hot bodies dispatch at runtime through
/// the SIMD backend table of ml/kernel_backend.h: the portable scalar
/// loops (compiler autovectorized at the build's baseline ISA) are the
/// always-available reference, and explicit AVX2 implementations, which
/// compute the same bits, are bound when CPUID says the machine supports
/// them. No kernel calls libm: the softmax exponentiates with Exp
/// (ml/exp.h), whose scalar and AVX2 bodies return the same bits.
/// This is where the per-training speedup of the valuation hot path
/// comes from: every utility query is a full FL training, and these
/// loops are its inner core. Buffers need no particular alignment (the
/// vector backends use unaligned loads), but `AlignedFloats` storage is
/// 64-byte aligned so hot loads never split cache lines.
///
/// **Tolerance contract.** Batched kernels reassociate floating-point
/// sums relative to the per-example reference path (e.g. a bias is added
/// after the product sum instead of seeding the accumulator), so results
/// are equal to that path only within tolerance, not bitwise. (Between
/// kernel backends they are bitwise equal; see ml/kernel_backend.h.) The
/// contract, enforced by tests/ml_kernel_equivalence_test.cc on
/// randomized shapes for every available kernel backend, is
///
///   |batched - reference| <= kKernelAbsTol + kKernelRelTol * |reference|
///
/// per element, for every kernel and for every model's per-step gradient
/// (reduction dimensions up to a few thousand). Purely element-wise
/// kernels (bias/ReLU/softmax rows, the fused SGD steps) perform the
/// reference arithmetic per element in the same order and must match it
/// to float rounding (4 ulp).
inline constexpr float kKernelAbsTol = 1e-4f;
/// Relative term of the kernel tolerance contract (see kKernelAbsTol).
inline constexpr float kKernelRelTol = 1e-3f;

// AlignedAllocator / AlignedFloats moved to util/aligned.h so the
// columnar Dataset can share the 64-byte-aligned buffer type without
// depending on the ML layer; included here so kernel code keeps finding
// them in their historical home.

/// Minimal dense row-major float matrix used by the hand-rolled models.
/// Not a general linear-algebra library: only the kernels the ML substrate
/// needs (mat-vec, rank-1 update, small dense solve).
class Matrix {
 public:
  /// An empty 0 x 0 matrix.
  Matrix() = default;
  /// A zero-initialized rows x cols matrix.
  Matrix(size_t rows, size_t cols) : rows_(rows), cols_(cols),
                                     data_(rows * cols, 0.0f) {}

  /// Number of rows.
  size_t rows() const { return rows_; }
  /// Number of columns.
  size_t cols() const { return cols_; }

  /// Mutable element access (row r, column c).
  float& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  /// Element access (row r, column c).
  float At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Mutable pointer to the start of row r.
  float* RowPtr(size_t r) { return data_.data() + r * cols_; }
  /// Pointer to the start of row r.
  const float* RowPtr(size_t r) const { return data_.data() + r * cols_; }

  /// Mutable flat row-major storage (64-byte aligned).
  AlignedFloats& data() { return data_; }
  /// Flat row-major storage (64-byte aligned).
  const AlignedFloats& data() const { return data_; }

  /// Sets every element to `value`.
  void Fill(float value);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  AlignedFloats data_;
};

/// out = M * x. `x` must have M.cols() entries; `out` is resized to M.rows().
void MatVec(const Matrix& m, const float* x, std::vector<float>& out);

/// out = M^T * x. `x` must have M.rows() entries; `out` resized to M.cols().
void MatTVec(const Matrix& m, const float* x, std::vector<float>& out);

/// M += alpha * a * b^T (rank-1 update; a has M.rows(), b has M.cols()).
void Rank1Update(Matrix& m, float alpha, const float* a, const float* b);

// ---------------------------------------------------------------------------
// Batched kernels (raw row-major buffers). Shapes are caller-guaranteed:
// a buffer documented as r x c must hold r*c floats.

/// c = a * b with a: m x k, b: k x n, c: m x n (overwritten). Blocked over
/// k with a 4-row micro-tile; the inner loop is a saxpy over a contiguous
/// row of b, so it vectorizes without reassociation flags.
void MatMul(const float* __restrict a, size_t m, size_t k,
            const float* __restrict b, size_t n, float* __restrict c);

/// c += a * b, same shapes as MatMul. The accumulate variant (used when a
/// bias or prior partial product already seeds `c`).
void MatMulAcc(const float* __restrict a, size_t m, size_t k,
               const float* __restrict b, size_t n, float* __restrict c);

/// c = a^T * b with a: m x k, b: m x n, c: k x n (overwritten). The
/// transpose-side product of the gradient paths (weight gradient =
/// deltas^T * activations), implemented as an internal transpose of `a`
/// followed by the blocked GEMM so the micro-tile's b-row reuse applies.
/// Use AddOuterBatch instead when accumulating onto existing content or
/// scaling by an alpha.
void MatTMat(const float* __restrict a, size_t m, size_t k,
             const float* __restrict b, size_t n, float* __restrict c);

/// acc += alpha * a^T * b with a: batch x rows, b: batch x cols,
/// acc: rows x cols — a rank-`batch` update accumulating one outer
/// product per batch row. Rows of `a` that are exactly zero are skipped,
/// which makes sparse backward deltas (CNN pool routing) cheap.
void AddOuterBatch(float* __restrict acc, size_t rows, size_t cols,
                   float alpha, const float* __restrict a,
                   const float* __restrict b, size_t batch);

/// The logistic-regression minibatch step in one pass: the gradient of
/// the softmax cross-entropy of the logits X * W^T + b against `labels`.
/// `xb` is X (bsz x dim) and `xt` its transpose X^T (dim x bsz), as
/// GatherRowsAndColumns fills them; `params` holds W (classes x dim,
/// row-major) then the classes biases b; `labels` holds bsz class ids in
/// [0, classes). Writes every element of `grad` (the layout of `params`:
/// grad_W = deltas^T * X / bsz, then grad_b = column sums of deltas /
/// bsz). Computes no loss (Model::Loss is its one definition). Requires
/// bsz >= 1.
///
/// Bit-identical to the Transpose + MatMul + AddBiasRows + SoftmaxRows +
/// label delta (p_label - 1) + AddOuterBatch (alpha 1/bsz) + ColumnSums
/// composition: every element takes the same operations in the same
/// order. The batch rows fill the
/// vector lanes eight at a time, each class's logits stay a vector of
/// those rows, and the probabilities never leave the block they were
/// computed in.
void LogRegGradient(const float* __restrict xb, const float* __restrict xt,
                    size_t bsz, size_t dim, const float* __restrict params,
                    size_t classes, const int* __restrict labels,
                    float* __restrict grad);

/// out = a^T with a: rows x cols, out: cols x rows (overwritten). Used to
/// feed row-major weight matrices to MatMul's saxpy layout.
void Transpose(const float* __restrict a, size_t rows, size_t cols,
               float* __restrict out);

/// m[r][c] += bias[c] for every row r of m: rows x cols.
void AddBiasRows(float* __restrict m, size_t rows, size_t cols,
                 const float* __restrict bias);

/// Fused bias + ReLU: m[r][c] = max(m[r][c] + bias[c], 0).
void AddBiasReluRows(float* __restrict m, size_t rows, size_t cols,
                     const float* __restrict bias);

/// delta[i] = 0 wherever act[i] <= 0 (the ReLU gate of the backward
/// pass; `act` holds post-ReLU activations).
void ReluMaskBackward(float* __restrict delta, const float* __restrict act,
                      size_t n);

/// Numerically stable in-place softmax over each row of m: rows x cols.
/// Performs exactly the per-row arithmetic of SoftmaxInPlace: the row's
/// max, Exp (ml/exp.h) of each logit minus it, their sum in column
/// order, and one divide per element.
void SoftmaxRows(float* m, size_t rows, size_t cols);

/// out[i] = Exp(x[i]) for i < n, the softmax's exponential of ml/exp.h
/// (domain x <= 0) over a buffer; the AVX2 backend takes eight elements
/// at a time. Bit-identical on every backend. `out` may alias `x`.
void ExpArray(const float* x, size_t n, float* out);

/// out[c] = sum over rows of m[r][c]; m: rows x cols, out: cols
/// (overwritten). Accumulates in row order, matching the per-example
/// reference's accumulation order bit for bit.
void ColumnSums(const float* __restrict m, size_t rows, size_t cols,
                float* __restrict out);

// ---------------------------------------------------------------------------
// Fused SGD weight-update steps (element-wise; bit-compatible with the
// historical scalar loops in TrainSgd).

/// p[i] -= lr * (g[i] + wd * p[i]).
void SgdStep(float* __restrict p, const float* __restrict g, size_t n,
             float lr, float wd);

/// v[i] = momentum * v[i] + g[i] + wd * p[i]; p[i] -= lr * v[i].
void SgdMomentumStep(float* __restrict p, float* __restrict v,
                     const float* __restrict g, size_t n, float lr,
                     float momentum, float wd);

/// g[i] += mu * (p[i] - ref[i]) — the FedProx proximal term.
void AddProximal(float* __restrict g, const float* __restrict p,
                 const float* __restrict ref, size_t n, float mu);

/// Solves the square system A * x = b in double precision by Gaussian
/// elimination with partial pivoting. A is given row-major with dimension
/// n x n. Requires n > 0, a.size() == n*n and b.size() == n (anything
/// else returns InvalidArgument). Fails when A is (numerically) singular.
Result<std::vector<double>> SolveLinearSystem(std::vector<double> a,
                                              std::vector<double> b, int n);

}  // namespace fedshap

#endif  // FEDSHAP_ML_MATRIX_H_
