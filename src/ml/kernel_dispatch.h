#ifndef FEDSHAP_ML_KERNEL_DISPATCH_H_
#define FEDSHAP_ML_KERNEL_DISPATCH_H_

#include <cstddef>

namespace fedshap {
namespace internal {

/// \file
/// Library-internal plumbing of the SIMD kernel dispatch (see
/// ml/kernel_backend.h for the public contract). Each backend is one
/// translation unit compiled with its own ISA flags and exports exactly
/// one KernelTable of function pointers; matrix.cc's public kernels call
/// through the active table, which kernel_backend.cc binds at startup.

/// Function-pointer table of the kernel bodies that have per-ISA
/// implementations. Entries mirror the public kernels of ml/matrix.h;
/// `mat_mul_body` is the shared accumulate-GEMM micro-kernel under
/// MatMul/MatMulAcc/MatTMat (c += a * b, a: m x k, b: k x n).
struct KernelTable {
  /// The accumulate-GEMM micro-kernel (c += a * b) under
  /// MatMul/MatMulAcc/MatTMat.
  void (*mat_mul_body)(const float* a, size_t m, size_t k, const float* b,
                       size_t n, float* c);
  /// Body of MatMulFromTransposes: c += a * b from at = a^T (k x m) and
  /// bt = b^T (n x k), bit-identical to `mat_mul_body` of the same table.
  void (*mat_mul_from_transposes_body)(const float* at, size_t m, size_t k,
                                       const float* bt, size_t n, float* c);
  /// Backend body of AddOuterBatch.
  void (*add_outer_batch)(float* acc, size_t rows, size_t cols, float alpha,
                          const float* a, const float* b, size_t batch);
  /// Backend body of AddBiasRows.
  void (*add_bias_rows)(float* m, size_t rows, size_t cols,
                        const float* bias);
  /// Backend body of AddBiasReluRows.
  void (*add_bias_relu_rows)(float* m, size_t rows, size_t cols,
                             const float* bias);
  /// Backend body of ReluMaskBackward.
  void (*relu_mask_backward)(float* delta, const float* act, size_t n);
  /// Backend body of SoftmaxRows.
  void (*softmax_rows)(float* m, size_t rows, size_t cols);
  /// Backend body of ColumnSums.
  void (*column_sums)(const float* m, size_t rows, size_t cols, float* out);
  /// Backend body of SgdStep.
  void (*sgd_step)(float* p, const float* g, size_t n, float lr, float wd);
  /// Backend body of SgdMomentumStep.
  void (*sgd_momentum_step)(float* p, float* v, const float* g, size_t n,
                            float lr, float momentum, float wd);
  /// Backend body of AddProximal.
  void (*add_proximal)(float* g, const float* p, const float* ref, size_t n,
                       float mu);
};

/// The portable scalar table (matrix.cc). Always present; also the
/// reference the vector backends are tested against.
const KernelTable& ScalarKernelTable();

/// The AVX2+FMA table (matrix_avx2.cc), or nullptr when the build did
/// not compile it. Callers must additionally check CPUID before binding.
const KernelTable* Avx2KernelTable();

/// The table the public kernels currently dispatch through. The first
/// call triggers backend auto-selection (kernel_backend.cc).
const KernelTable& ActiveKernelTable();

}  // namespace internal
}  // namespace fedshap

#endif  // FEDSHAP_ML_KERNEL_DISPATCH_H_
