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
  /// Backend body of LogRegGradient: the whole logistic-regression
  /// minibatch step, writing every element of `grad`. Bit-identical to
  /// the same table's mat_mul_body, add_bias_rows, softmax_rows,
  /// add_outer_batch and column_sums composed (see LogRegGradient).
  void (*logreg_gradient)(const float* xb, const float* xt, size_t bsz,
                          size_t dim, const float* params, size_t classes,
                          const int* labels, float* grad);
  /// Body of GatherRowsAndColumns: copies rows batch[0 .. bsz) of the
  /// `dim` feature columns into `rows` (bsz x dim, row-major) and `cols`
  /// (dim x bsz, its transpose). A pure copy on every backend.
  void (*gather_rows_and_columns)(const float* const* columns, size_t dim,
                                  const size_t* batch, size_t bsz,
                                  float* rows, float* cols);
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
  /// Backend body of ExpArray: ml/exp.h's Exp over a buffer.
  void (*exp_array)(const float* x, size_t n, float* out);
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

/// The per-class lanes of one 8-row block of the logistic-regression
/// step: classes x 8 floats, on the stack for up to 64 classes and on the
/// heap beyond, so any class count works. Not zeroed: the step writes
/// every lane before it reads one. The constructor and destructor are
/// defined in matrix.cc, so no allocator code is compiled with a vector
/// backend's ISA flags (and linked into the scalar path).
class ClassLanes {
 public:
  explicit ClassLanes(size_t classes);
  ~ClassLanes();
  ClassLanes(const ClassLanes&) = delete;
  ClassLanes& operator=(const ClassLanes&) = delete;

  float* data() { return heap_ != nullptr ? heap_ : stack_; }

 private:
  static constexpr size_t kStackClasses = 64;
  alignas(32) float stack_[kStackClasses * 8];
  float* heap_ = nullptr;
};

/// The portable scalar table (matrix.cc). Always present; also the
/// reference the vector backends are tested against.
const KernelTable& ScalarKernelTable();

/// The AVX2 table (matrix_avx2.cc), or nullptr when the build did not
/// compile it. Callers must additionally check CPUID before binding. It
/// needs AVX2 only: its bodies round like the scalar table's, with no
/// FMA, and its softmax exponentiates with the 8-lane body of ml/exp.h's
/// Exp, which returns the scalar body's bits.
const KernelTable* Avx2KernelTable();

/// The table the public kernels currently dispatch through. The first
/// call triggers backend auto-selection (kernel_backend.cc).
const KernelTable& ActiveKernelTable();

}  // namespace internal
}  // namespace fedshap

#endif  // FEDSHAP_ML_KERNEL_DISPATCH_H_
