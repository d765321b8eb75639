// AVX2+FMA kernel backend (see ml/kernel_backend.h for the dispatch and
// determinism contract). This translation unit is compiled with
// -mavx2 -mfma -ffp-contract=off and must only be *executed* after a
// CPUID check (kernel_backend.cc guards binding); -ffp-contract=off
// keeps the element-wise kernels' separate mul/add intrinsics from being
// re-fused, so they stay bit-identical to the scalar backend, while the
// GEMM-shaped kernels use explicit _mm256_fmadd_ps under the tolerance
// contract of ml/matrix.h.

#include "ml/kernel_dispatch.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace fedshap {
namespace internal {
namespace {

/// Same k-panel height as the scalar backend: bounds the b-slice the
/// micro-tile walks so it stays hot in L1/L2.
constexpr size_t kKc = 256;

/// c += a * b (a: m x k, b: k x n, all row-major). The scalar backend's
/// 4-row x 2-k micro-tile with the saxpy j-loop widened to 8 lanes: one
/// load of b's row feeds four FMA output rows.
void MatMulBodyAvx2(const float* __restrict a, size_t m, size_t k,
                    const float* __restrict b, size_t n,
                    float* __restrict c) {
  for (size_t k0 = 0; k0 < k; k0 += kKc) {
    const size_t k1 = std::min(k, k0 + kKc);
    size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* a0 = a + i * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      float* c0 = c + i * n;
      float* c1 = c0 + n;
      float* c2 = c1 + n;
      float* c3 = c2 + n;
      size_t kk = k0;
      for (; kk + 2 <= k1; kk += 2) {
        const float* b0 = b + kk * n;
        const float* b1 = b0 + n;
        const __m256 f00 = _mm256_broadcast_ss(a0 + kk);
        const __m256 f01 = _mm256_broadcast_ss(a0 + kk + 1);
        const __m256 f10 = _mm256_broadcast_ss(a1 + kk);
        const __m256 f11 = _mm256_broadcast_ss(a1 + kk + 1);
        const __m256 f20 = _mm256_broadcast_ss(a2 + kk);
        const __m256 f21 = _mm256_broadcast_ss(a2 + kk + 1);
        const __m256 f30 = _mm256_broadcast_ss(a3 + kk);
        const __m256 f31 = _mm256_broadcast_ss(a3 + kk + 1);
        size_t j = 0;
        for (; j + 8 <= n; j += 8) {
          const __m256 v0 = _mm256_loadu_ps(b0 + j);
          const __m256 v1 = _mm256_loadu_ps(b1 + j);
          __m256 r0 = _mm256_loadu_ps(c0 + j);
          __m256 r1 = _mm256_loadu_ps(c1 + j);
          __m256 r2 = _mm256_loadu_ps(c2 + j);
          __m256 r3 = _mm256_loadu_ps(c3 + j);
          r0 = _mm256_fmadd_ps(f00, v0, _mm256_fmadd_ps(f01, v1, r0));
          r1 = _mm256_fmadd_ps(f10, v0, _mm256_fmadd_ps(f11, v1, r1));
          r2 = _mm256_fmadd_ps(f20, v0, _mm256_fmadd_ps(f21, v1, r2));
          r3 = _mm256_fmadd_ps(f30, v0, _mm256_fmadd_ps(f31, v1, r3));
          _mm256_storeu_ps(c0 + j, r0);
          _mm256_storeu_ps(c1 + j, r1);
          _mm256_storeu_ps(c2 + j, r2);
          _mm256_storeu_ps(c3 + j, r3);
        }
        const float s00 = a0[kk], s01 = a0[kk + 1];
        const float s10 = a1[kk], s11 = a1[kk + 1];
        const float s20 = a2[kk], s21 = a2[kk + 1];
        const float s30 = a3[kk], s31 = a3[kk + 1];
        for (; j < n; ++j) {
          const float v0 = b0[j];
          const float v1 = b1[j];
          c0[j] += s00 * v0 + s01 * v1;
          c1[j] += s10 * v0 + s11 * v1;
          c2[j] += s20 * v0 + s21 * v1;
          c3[j] += s30 * v0 + s31 * v1;
        }
      }
      for (; kk < k1; ++kk) {
        const float* brow = b + kk * n;
        const __m256 f0 = _mm256_broadcast_ss(a0 + kk);
        const __m256 f1 = _mm256_broadcast_ss(a1 + kk);
        const __m256 f2 = _mm256_broadcast_ss(a2 + kk);
        const __m256 f3 = _mm256_broadcast_ss(a3 + kk);
        size_t j = 0;
        for (; j + 8 <= n; j += 8) {
          const __m256 bv = _mm256_loadu_ps(brow + j);
          _mm256_storeu_ps(
              c0 + j, _mm256_fmadd_ps(f0, bv, _mm256_loadu_ps(c0 + j)));
          _mm256_storeu_ps(
              c1 + j, _mm256_fmadd_ps(f1, bv, _mm256_loadu_ps(c1 + j)));
          _mm256_storeu_ps(
              c2 + j, _mm256_fmadd_ps(f2, bv, _mm256_loadu_ps(c2 + j)));
          _mm256_storeu_ps(
              c3 + j, _mm256_fmadd_ps(f3, bv, _mm256_loadu_ps(c3 + j)));
        }
        for (; j < n; ++j) {
          const float bv = brow[j];
          c0[j] += a0[kk] * bv;
          c1[j] += a1[kk] * bv;
          c2[j] += a2[kk] * bv;
          c3[j] += a3[kk] * bv;
        }
      }
    }
    for (; i < m; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (size_t kk = k0; kk < k1; ++kk) {
        const float* brow = b + kk * n;
        const __m256 f = _mm256_broadcast_ss(arow + kk);
        size_t j = 0;
        for (; j + 8 <= n; j += 8) {
          _mm256_storeu_ps(
              crow + j,
              _mm256_fmadd_ps(f, _mm256_loadu_ps(brow + j),
                              _mm256_loadu_ps(crow + j)));
        }
        for (; j < n; ++j) crow[j] += arow[kk] * brow[j];
      }
    }
  }
}

/// Adds a . b to kCols consecutive columns of up to 8 output rows, one
/// lane per row: `x` is the rows' slice of a^T (row stride `ld`, lanes
/// past `rows` unread), `w` the columns' first row of b^T (row stride
/// `k`), `c` the rows' first element of those columns (row stride `n`).
/// The columns share each load of x and give the core kCols independent
/// add chains. kPairs selects the rounding MatMulBodyAvx2 gives rows
/// inside its 4-row tiles (k in pairs, then an odd k alone) over the
/// one-product-at-a-time rounding of the remaining rows; kFused selects
/// its FMA lanes over its unfused scalar tail columns.
template <bool kPairs, bool kFused, int kCols>
void RowBlockColumns(const float* x, size_t ld, size_t k, const float* w,
                     size_t n, float* c, int rows) {
  const __m256i load = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(rows), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  alignas(32) float cols[kCols][8] = {};
  for (int r = 0; r < rows; ++r) {
    for (int j = 0; j < kCols; ++j) cols[j][r] = c[r * n + j];
  }
  __m256 acc[kCols];
  for (int j = 0; j < kCols; ++j) acc[j] = _mm256_load_ps(cols[j]);
  size_t kk = 0;
  if constexpr (kPairs) {
    for (; kk + 2 <= k; kk += 2) {
      const __m256 x0 = _mm256_maskload_ps(x + kk * ld, load);
      const __m256 x1 = _mm256_maskload_ps(x + (kk + 1) * ld, load);
#pragma GCC unroll 4
      for (int j = 0; j < kCols; ++j) {
        const __m256 w0 = _mm256_broadcast_ss(w + j * k + kk);
        const __m256 w1 = _mm256_broadcast_ss(w + j * k + kk + 1);
        if constexpr (kFused) {
          acc[j] = _mm256_fmadd_ps(x0, w0, _mm256_fmadd_ps(x1, w1, acc[j]));
        } else {
          acc[j] = _mm256_add_ps(
              acc[j],
              _mm256_add_ps(_mm256_mul_ps(x0, w0), _mm256_mul_ps(x1, w1)));
        }
      }
    }
  }
  for (; kk < k; ++kk) {
    const __m256 x0 = _mm256_maskload_ps(x + kk * ld, load);
#pragma GCC unroll 4
    for (int j = 0; j < kCols; ++j) {
      const __m256 w0 = _mm256_broadcast_ss(w + j * k + kk);
      if constexpr (kFused) {
        acc[j] = _mm256_fmadd_ps(x0, w0, acc[j]);
      } else {
        acc[j] = _mm256_add_ps(acc[j], _mm256_mul_ps(x0, w0));
      }
    }
  }
  for (int j = 0; j < kCols; ++j) _mm256_store_ps(cols[j], acc[j]);
  for (int r = 0; r < rows; ++r) {
    for (int j = 0; j < kCols; ++j) c[r * n + j] = cols[j][r];
  }
}

/// All n columns of up to 8 output rows with one rounding, four columns
/// at a time: MatMulBodyAvx2's FMA columns (a multiple of 8), then its
/// scalar tail.
template <bool kPairs>
void RowBlock(const float* x, size_t ld, size_t k, const float* bt,
              size_t n, float* c, int rows) {
  const size_t fused = n & ~size_t{7};
  size_t j = 0;
  for (; j < fused; j += 4) {
    RowBlockColumns<kPairs, true, 4>(x, ld, k, bt + j * k, n, c + j, rows);
  }
  for (; j + 4 <= n; j += 4) {
    RowBlockColumns<kPairs, false, 4>(x, ld, k, bt + j * k, n, c + j, rows);
  }
  for (; j < n; ++j) {
    RowBlockColumns<kPairs, false, 1>(x, ld, k, bt + j * k, n, c + j, rows);
  }
}

/// c += a * b from at = a^T (k x m) and bt = b^T (n x k), with eight
/// output rows in the lanes instead of MatMulBodyAvx2's eight columns.
/// Per output element it reproduces MatMulBodyAvx2's rounding sequence,
/// fused columns included, so the two are bit-identical.
void MatMulFromTransposesBodyAvx2(const float* __restrict at, size_t m,
                                  size_t k, const float* __restrict bt,
                                  size_t n, float* __restrict c) {
  const size_t tiled = m & ~size_t{3};
  for (size_t i0 = 0; i0 < m; i0 += 8) {
    const size_t rows = std::min<size_t>(8, m - i0);
    const size_t pair_rows = i0 < tiled ? std::min(rows, tiled - i0) : 0;
    if (pair_rows > 0) {
      RowBlock<true>(at + i0, m, k, bt, n, c + i0 * n,
                     static_cast<int>(pair_rows));
    }
    if (rows > pair_rows) {
      const size_t i1 = i0 + pair_rows;
      RowBlock<false>(at + i1, m, k, bt, n, c + i1 * n,
                      static_cast<int>(rows - pair_rows));
    }
  }
}

void AddOuterBatchAvx2(float* __restrict acc, size_t rows, size_t cols,
                       float alpha, const float* __restrict a,
                       const float* __restrict b, size_t batch) {
  // Same shape (2-step batch unroll, zero-coefficient row skipping) as
  // the scalar backend, with the column loop widened to 8 FMA lanes.
  size_t s = 0;
  for (; s + 2 <= batch; s += 2) {
    const float* a0 = a + s * rows;
    const float* a1 = a0 + rows;
    const float* b0 = b + s * cols;
    const float* b1 = b0 + cols;
    for (size_t r = 0; r < rows; ++r) {
      const float f0 = alpha * a0[r];
      const float f1 = alpha * a1[r];
      if (f0 == 0.0f && f1 == 0.0f) continue;
      float* crow = acc + r * cols;
      const __m256 vf0 = _mm256_set1_ps(f0);
      const __m256 vf1 = _mm256_set1_ps(f1);
      size_t c = 0;
      for (; c + 8 <= cols; c += 8) {
        __m256 v = _mm256_loadu_ps(crow + c);
        v = _mm256_fmadd_ps(vf0, _mm256_loadu_ps(b0 + c), v);
        v = _mm256_fmadd_ps(vf1, _mm256_loadu_ps(b1 + c), v);
        _mm256_storeu_ps(crow + c, v);
      }
      for (; c < cols; ++c) crow[c] += f0 * b0[c] + f1 * b1[c];
    }
  }
  for (; s < batch; ++s) {
    const float* arow = a + s * rows;
    const float* brow = b + s * cols;
    for (size_t r = 0; r < rows; ++r) {
      const float f = alpha * arow[r];
      if (f == 0.0f) continue;
      float* crow = acc + r * cols;
      const __m256 vf = _mm256_set1_ps(f);
      size_t c = 0;
      for (; c + 8 <= cols; c += 8) {
        _mm256_storeu_ps(
            crow + c, _mm256_fmadd_ps(vf, _mm256_loadu_ps(brow + c),
                                      _mm256_loadu_ps(crow + c)));
      }
      for (; c < cols; ++c) crow[c] += f * brow[c];
    }
  }
}

// ---------------------------------------------------------------------------
// Element-wise kernels: separate mul/add intrinsics (no FMA), same
// per-element arithmetic order as the scalar backend — bit-identical.

void AddBiasRowsAvx2(float* __restrict m, size_t rows, size_t cols,
                     const float* __restrict bias) {
  for (size_t r = 0; r < rows; ++r) {
    float* row = m + r * cols;
    size_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      _mm256_storeu_ps(row + c, _mm256_add_ps(_mm256_loadu_ps(row + c),
                                              _mm256_loadu_ps(bias + c)));
    }
    for (; c < cols; ++c) row[c] += bias[c];
  }
}

void AddBiasReluRowsAvx2(float* __restrict m, size_t rows, size_t cols,
                         const float* __restrict bias) {
  const __m256 zero = _mm256_setzero_ps();
  for (size_t r = 0; r < rows; ++r) {
    float* row = m + r * cols;
    size_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      const __m256 v = _mm256_add_ps(_mm256_loadu_ps(row + c),
                                     _mm256_loadu_ps(bias + c));
      // max(v, +0) returns +0 for v <= 0 (incl. -0), matching the scalar
      // `v > 0 ? v : 0`.
      _mm256_storeu_ps(row + c, _mm256_max_ps(v, zero));
    }
    for (; c < cols; ++c) {
      const float v = row[c] + bias[c];
      row[c] = v > 0.0f ? v : 0.0f;
    }
  }
}

void ReluMaskBackwardAvx2(float* __restrict delta,
                          const float* __restrict act, size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Zero delta where act <= 0 (ordered compare: an unordered act keeps
    // its delta, exactly like the scalar `if (act <= 0)`).
    const __m256 le = _mm256_cmp_ps(_mm256_loadu_ps(act + i), zero,
                                    _CMP_LE_OQ);
    _mm256_storeu_ps(delta + i,
                     _mm256_andnot_ps(le, _mm256_loadu_ps(delta + i)));
  }
  for (; i < n; ++i) {
    if (act[i] <= 0.0f) delta[i] = 0.0f;
  }
}

void SoftmaxRowsAvx2(float* m, size_t rows, size_t cols) {
  for (size_t r = 0; r < rows; ++r) {
    float* row = m + r * cols;
    // Vectorized max reduction: float max is order-independent, so this
    // reproduces the scalar backend's max_logit bit for bit.
    float max_logit = row[0];
    size_t c = 1;
    if (cols >= 9) {
      __m256 vmax = _mm256_loadu_ps(row);
      c = 8;
      for (; c + 8 <= cols; c += 8) {
        vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row + c));
      }
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, vmax);
      max_logit = lanes[0];
      for (int lane = 1; lane < 8; ++lane) {
        max_logit = std::max(max_logit, lanes[lane]);
      }
    }
    for (; c < cols; ++c) max_logit = std::max(max_logit, row[c]);
    // exp + sum stay scalar in row order: the accumulation order of
    // `total` is part of the bitwise contract with SoftmaxInPlace.
    float total = 0.0f;
    for (size_t cc = 0; cc < cols; ++cc) {
      row[cc] = std::exp(row[cc] - max_logit);
      total += row[cc];
    }
    const __m256 vtotal = _mm256_set1_ps(total);
    size_t cc = 0;
    for (; cc + 8 <= cols; cc += 8) {
      _mm256_storeu_ps(row + cc,
                       _mm256_div_ps(_mm256_loadu_ps(row + cc), vtotal));
    }
    for (; cc < cols; ++cc) row[cc] /= total;
  }
}

void ColumnSumsAvx2(const float* __restrict m, size_t rows, size_t cols,
                    float* __restrict out) {
  for (size_t c = 0; c < cols; ++c) out[c] = 0.0f;
  for (size_t r = 0; r < rows; ++r) {
    const float* row = m + r * cols;
    size_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      // Each column still accumulates strictly in row order, so the sums
      // match the scalar backend bit for bit.
      _mm256_storeu_ps(out + c, _mm256_add_ps(_mm256_loadu_ps(out + c),
                                              _mm256_loadu_ps(row + c)));
    }
    for (; c < cols; ++c) out[c] += row[c];
  }
}

void SgdStepAvx2(float* __restrict p, const float* __restrict g, size_t n,
                 float lr, float wd) {
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 vwd = _mm256_set1_ps(wd);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vp = _mm256_loadu_ps(p + i);
    const __m256 step = _mm256_add_ps(_mm256_loadu_ps(g + i),
                                      _mm256_mul_ps(vwd, vp));
    _mm256_storeu_ps(p + i, _mm256_sub_ps(vp, _mm256_mul_ps(vlr, step)));
  }
  for (; i < n; ++i) p[i] -= lr * (g[i] + wd * p[i]);
}

void SgdMomentumStepAvx2(float* __restrict p, float* __restrict v,
                         const float* __restrict g, size_t n, float lr,
                         float momentum, float wd) {
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 vmom = _mm256_set1_ps(momentum);
  const __m256 vwd = _mm256_set1_ps(wd);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vp = _mm256_loadu_ps(p + i);
    // ((momentum * v) + g) + (wd * p): the scalar expression's rounding
    // order, term by term.
    const __m256 vv = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(vmom, _mm256_loadu_ps(v + i)),
                      _mm256_loadu_ps(g + i)),
        _mm256_mul_ps(vwd, vp));
    _mm256_storeu_ps(v + i, vv);
    _mm256_storeu_ps(p + i, _mm256_sub_ps(vp, _mm256_mul_ps(vlr, vv)));
  }
  for (; i < n; ++i) {
    v[i] = momentum * v[i] + g[i] + wd * p[i];
    p[i] -= lr * v[i];
  }
}

void AddProximalAvx2(float* __restrict g, const float* __restrict p,
                     const float* __restrict ref, size_t n, float mu) {
  const __m256 vmu = _mm256_set1_ps(mu);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(p + i),
                                      _mm256_loadu_ps(ref + i));
    _mm256_storeu_ps(g + i, _mm256_add_ps(_mm256_loadu_ps(g + i),
                                          _mm256_mul_ps(vmu, diff)));
  }
  for (; i < n; ++i) g[i] += mu * (p[i] - ref[i]);
}

const KernelTable kAvx2Table = {
    MatMulBodyAvx2,       MatMulFromTransposesBodyAvx2, AddOuterBatchAvx2,
    AddBiasRowsAvx2,      AddBiasReluRowsAvx2,          ReluMaskBackwardAvx2,
    SoftmaxRowsAvx2,      ColumnSumsAvx2,               SgdStepAvx2,
    SgdMomentumStepAvx2,  AddProximalAvx2,
};

}  // namespace

const KernelTable* Avx2KernelTable() { return &kAvx2Table; }

}  // namespace internal
}  // namespace fedshap

#else  // !(__AVX2__ && __FMA__)

namespace fedshap {
namespace internal {

const KernelTable* Avx2KernelTable() { return nullptr; }

}  // namespace internal
}  // namespace fedshap

#endif
