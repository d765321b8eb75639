// AVX2 kernel backend (see ml/kernel_backend.h for the dispatch and
// determinism contract). This translation unit is compiled with -mavx2
// and must only be *executed* after a CPUID check (kernel_backend.cc
// guards binding). Every body computes each output element with exactly
// the scalar body's operations in the scalar body's order: the vector
// lanes run over independent output elements, products and sums are
// separate _mm256_mul_ps/_mm256_add_ps (no FMA), so this backend trains
// the scalar backend's bits.

#include "ml/kernel_dispatch.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "ml/exp.h"

namespace fedshap {
namespace internal {
namespace {

/// The scalar gather for batch rows [b_begin, b_end): rows outside whole
/// groups of 8, or whose indices do not fit a 32-bit gather.
void GatherBatchRange(const float* const* columns, size_t dim,
                      const size_t* batch, size_t bsz, size_t b_begin,
                      size_t b_end, float* rows, float* cols) {
  for (size_t f = 0; f < dim; ++f) {
    const float* column = columns[f];
    for (size_t b = b_begin; b < b_end; ++b) {
      const float v = column[batch[b]];
      cols[f * bsz + b] = v;
      rows[b * dim + f] = v;
    }
  }
}

/// Transposes the 8x8 block held in v[0..8) in place: lane i of v[j]
/// becomes lane j of v[i].
inline void Transpose8x8(__m256 v[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]);
  const __m256 t1 = _mm256_unpackhi_ps(v[0], v[1]);
  const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]);
  const __m256 t3 = _mm256_unpackhi_ps(v[2], v[3]);
  const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]);
  const __m256 t5 = _mm256_unpackhi_ps(v[4], v[5]);
  const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]);
  const __m256 t7 = _mm256_unpackhi_ps(v[6], v[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  v[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  v[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  v[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  v[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  v[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  v[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  v[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  v[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

/// Gathers 8 batch rows at a time: one 32-bit-index gather per feature
/// column fills a row of X^T, stored as is, and 8x8 (then 4x4)
/// in-register transposes of those registers fill the rows of X. Feature
/// and batch remainders run scalar. A pure copy, so bit-identical to the
/// scalar body.
void GatherRowsAndColumnsAvx2(const float* const* columns, size_t dim,
                              const size_t* batch, size_t bsz,
                              float* __restrict rows,
                              float* __restrict cols) {
  size_t b0 = 0;
  for (; b0 + 8 <= bsz; b0 += 8) {
    const size_t* idx = batch + b0;
    size_t max_index = idx[0];
    for (int i = 1; i < 8; ++i) max_index = std::max(max_index, idx[i]);
    if (max_index > INT32_MAX) {
      GatherBatchRange(columns, dim, batch, bsz, b0, b0 + 8, rows, cols);
      continue;
    }
    const __m256i vidx = _mm256_setr_epi32(
        static_cast<int>(idx[0]), static_cast<int>(idx[1]),
        static_cast<int>(idx[2]), static_cast<int>(idx[3]),
        static_cast<int>(idx[4]), static_cast<int>(idx[5]),
        static_cast<int>(idx[6]), static_cast<int>(idx[7]));
    float* row0 = rows + b0 * dim;
    size_t f = 0;
    for (; f + 8 <= dim; f += 8) {
      __m256 v[8];
      for (int j = 0; j < 8; ++j) {
        v[j] = _mm256_i32gather_ps(columns[f + j], vidx, 4);
        _mm256_storeu_ps(cols + (f + j) * bsz + b0, v[j]);
      }
      Transpose8x8(v);
      for (int i = 0; i < 8; ++i) _mm256_storeu_ps(row0 + i * dim + f, v[i]);
    }
    if (f + 4 <= dim) {
      __m256 v[4];
      for (int j = 0; j < 4; ++j) {
        v[j] = _mm256_i32gather_ps(columns[f + j], vidx, 4);
        _mm256_storeu_ps(cols + (f + j) * bsz + b0, v[j]);
      }
      // Two 4x4 transposes: batch rows 0-3 from the low halves, 4-7
      // from the high ones.
      for (int half = 0; half < 2; ++half) {
        __m128 q[4];
        for (int j = 0; j < 4; ++j) {
          q[j] = half ? _mm256_extractf128_ps(v[j], 1)
                      : _mm256_castps256_ps128(v[j]);
        }
        _MM_TRANSPOSE4_PS(q[0], q[1], q[2], q[3]);
        for (int i = 0; i < 4; ++i) {
          _mm_storeu_ps(row0 + (4 * half + i) * dim + f, q[i]);
        }
      }
      f += 4;
    }
    for (; f < dim; ++f) {
      const __m256 v = _mm256_i32gather_ps(columns[f], vidx, 4);
      _mm256_storeu_ps(cols + f * bsz + b0, v);
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, v);
      for (int i = 0; i < 8; ++i) row0[i * dim + f] = lanes[i];
    }
  }
  GatherBatchRange(columns, dim, batch, bsz, b0, bsz, rows, cols);
}

/// c + (f0 * v0 + f1 * v1), rounded after each operation: the scalar
/// bodies' `c += f0 * v0 + f1 * v1`.
inline __m256 AddPair(__m256 c, __m256 f0, __m256 v0, __m256 f1, __m256 v1) {
  return _mm256_add_ps(
      c, _mm256_add_ps(_mm256_mul_ps(f0, v0), _mm256_mul_ps(f1, v1)));
}

/// c + f * v, rounded after each operation: the scalar `c += f * v`.
inline __m256 AddProduct(__m256 c, __m256 f, __m256 v) {
  return _mm256_add_ps(c, _mm256_mul_ps(f, v));
}

/// Loads and stores all 8 lanes.
struct AllLanes {
  __m256 Load(const float* p) const { return _mm256_loadu_ps(p); }
  void Store(float* p, __m256 v) const { _mm256_storeu_ps(p, v); }
};

/// Loads and stores lane 0 alone (the others load +0): one column, with
/// the rounding of the scalar body's float operations.
struct OneLane {
  __m256 Load(const float* p) const {
    return _mm256_zextps128_ps256(_mm_load_ss(p));
  }
  void Store(float* p, __m256 v) const {
    _mm_store_ss(p, _mm256_castps256_ps128(v));
  }
};

/// Same k-panel height as the scalar backend: bounds the b-slice the
/// micro-tile walks so it stays hot in L1/L2.
constexpr size_t kKc = 256;

/// The scalar body's k steps [k0, k1) on one tile of c: kRows rows by
/// kVecs vectors of `lanes` from column j, held in registers for the
/// whole panel. With 4 rows, k goes in pairs (`c + (a0*b0 + a1*b1)`),
/// then an odd k alone; with 1 row, one product at a time.
template <int kRows, int kVecs, typename Lanes>
inline void MatMulTile(Lanes lanes, const float* arow, size_t k,
                       const float* b, size_t n, float* crow, size_t j,
                       size_t k0, size_t k1) {
  __m256 acc[kRows][kVecs];
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      acc[r][v] = lanes.Load(crow + r * n + j + 8 * v);
    }
  }
  size_t kk = k0;
  if constexpr (kRows == 4) {
    for (; kk + 2 <= k1; kk += 2) {
      for (int v = 0; v < kVecs; ++v) {
        const __m256 v0 = lanes.Load(b + kk * n + j + 8 * v);
        const __m256 v1 = lanes.Load(b + (kk + 1) * n + j + 8 * v);
        for (int r = 0; r < kRows; ++r) {
          const float* ar = arow + r * k + kk;
          acc[r][v] = AddPair(acc[r][v], _mm256_broadcast_ss(ar), v0,
                              _mm256_broadcast_ss(ar + 1), v1);
        }
      }
    }
  }
  for (; kk < k1; ++kk) {
    for (int v = 0; v < kVecs; ++v) {
      const __m256 bv = lanes.Load(b + kk * n + j + 8 * v);
      for (int r = 0; r < kRows; ++r) {
        acc[r][v] = AddProduct(acc[r][v],
                               _mm256_broadcast_ss(arow + r * k + kk), bv);
      }
    }
  }
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      lanes.Store(crow + r * n + j + 8 * v, acc[r][v]);
    }
  }
}

/// MatMulTile over every column of kRows rows: 16 columns at a time,
/// then 8, then one (lane 0 of a vector).
template <int kRows>
void MatMulRows(const float* arow, size_t k, const float* b, size_t n,
                float* crow, size_t k0, size_t k1) {
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    MatMulTile<kRows, 2>(AllLanes{}, arow, k, b, n, crow, j, k0, k1);
  }
  if (j + 8 <= n) {
    MatMulTile<kRows, 1>(AllLanes{}, arow, k, b, n, crow, j, k0, k1);
    j += 8;
  }
  for (; j < n; ++j) {
    MatMulTile<kRows, 1>(OneLane{}, arow, k, b, n, crow, j, k0, k1);
  }
}

/// c += a * b (a: m x k, b: k x n, all row-major), in the scalar body's
/// per-element order: per k panel, 4-row tiles take k in pairs, the
/// remaining rows one product at a time. Each tile keeps its block of c
/// in registers for the whole panel.
void MatMulBodyAvx2(const float* __restrict a, size_t m, size_t k,
                    const float* __restrict b, size_t n,
                    float* __restrict c) {
  for (size_t k0 = 0; k0 < k; k0 += kKc) {
    const size_t k1 = std::min(k, k0 + kKc);
    size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      MatMulRows<4>(a + i * k, k, b, n, c + i * n, k0, k1);
    }
    for (; i < m; ++i) MatMulRows<1>(a + i * k, k, b, n, c + i * n, k0, k1);
  }
}

/// f0 == 0 && f1 == 0, zeros of either sign, as one integer test: the
/// float compares cost a flag-juggling sequence each.
inline bool BothZero(float f0, float f1) {
  return ((std::bit_cast<uint32_t>(f0) | std::bit_cast<uint32_t>(f1)) << 1) ==
         0;
}

/// AddOuterBatch's scalar tail on `singles` columns of one output row
/// (`crow`, `b` at the first of them): batch pairs, the zero-pair skip,
/// then `c + (f0*b0 + f1*b1)`; an odd last row adds `f*b`. With
/// `overwrite` the columns start from +0 instead of their content.
void AddOuterSingles(float* crow, const float* a, size_t a_stride,
                     float alpha, const float* b, size_t cols, size_t batch,
                     size_t singles, bool overwrite) {
  if (overwrite) {
    for (size_t c = 0; c < singles; ++c) crow[c] = 0.0f;
  }
  size_t s = 0;
  for (; s + 2 <= batch; s += 2) {
    const float f0 = alpha * a[s * a_stride];
    const float f1 = alpha * a[(s + 1) * a_stride];
    if (BothZero(f0, f1)) continue;
    const float* b0 = b + s * cols;
    const float* b1 = b0 + cols;
    for (size_t c = 0; c < singles; ++c) crow[c] += f0 * b0[c] + f1 * b1[c];
  }
  if (s < batch) {
    const float f = alpha * a[s * a_stride];
    if (f == 0.0f) return;
    const float* brow = b + s * cols;
    for (size_t c = 0; c < singles; ++c) crow[c] += f * brow[c];
  }
}

/// AddOuterBatch on one output row's block of kVecs 8-lane columns,
/// then, with kQuad, 4 more columns, then `singles` more, the vectors
/// held in registers across the whole batch. `crow` is the block's first
/// element of the row, `a` the row's first coefficient (stride
/// `a_stride` between batch rows), `b` the block's first column of b
/// (stride `cols`). Batch rows go in pairs, then an odd last one; a pair
/// whose two coefficients are zero is skipped. Every column takes the
/// scalar body's `c + (f0*b0 + f1*b1)`. With `overwrite` the block starts
/// from +0 instead of reading `crow`, as if it had been zeroed. Columns
/// are independent, so the singles run in their own pass.
template <int kVecs, bool kQuad>
void AddOuterRowBlock(float* crow, const float* a, size_t a_stride,
                      float alpha, const float* b, size_t cols, size_t batch,
                      size_t singles, bool overwrite) {
  constexpr size_t kSingles = 8 * kVecs + (kQuad ? 4 : 0);
  __m256 acc[kVecs > 0 ? kVecs : 1];
  __m128 quad = _mm_setzero_ps();
  if (overwrite) {
    for (int j = 0; j < kVecs; ++j) acc[j] = _mm256_setzero_ps();
  } else {
    for (int j = 0; j < kVecs; ++j) acc[j] = _mm256_loadu_ps(crow + 8 * j);
    if constexpr (kQuad) quad = _mm_loadu_ps(crow + 8 * kVecs);
  }
  size_t s = 0;
  for (; s + 2 <= batch; s += 2) {
    const float f0 = alpha * a[s * a_stride];
    const float f1 = alpha * a[(s + 1) * a_stride];
    if (BothZero(f0, f1)) continue;
    const float* b0 = b + s * cols;
    const float* b1 = b0 + cols;
    const __m256 vf0 = _mm256_set1_ps(f0);
    const __m256 vf1 = _mm256_set1_ps(f1);
    for (int j = 0; j < kVecs; ++j) {
      acc[j] = AddPair(acc[j], vf0, _mm256_loadu_ps(b0 + 8 * j), vf1,
                       _mm256_loadu_ps(b1 + 8 * j));
    }
    if constexpr (kQuad) {
      const __m128 p0 = _mm_mul_ps(_mm256_castps256_ps128(vf0),
                                   _mm_loadu_ps(b0 + 8 * kVecs));
      const __m128 p1 = _mm_mul_ps(_mm256_castps256_ps128(vf1),
                                   _mm_loadu_ps(b1 + 8 * kVecs));
      quad = _mm_add_ps(quad, _mm_add_ps(p0, p1));
    }
  }
  if (s < batch) {
    const float f = alpha * a[s * a_stride];
    if (f != 0.0f) {
      const float* brow = b + s * cols;
      const __m256 vf = _mm256_set1_ps(f);
      for (int j = 0; j < kVecs; ++j) {
        acc[j] = AddProduct(acc[j], vf, _mm256_loadu_ps(brow + 8 * j));
      }
      if constexpr (kQuad) {
        quad = _mm_add_ps(quad, _mm_mul_ps(_mm256_castps256_ps128(vf),
                                           _mm_loadu_ps(brow + 8 * kVecs)));
      }
    }
  }
  for (int j = 0; j < kVecs; ++j) _mm256_storeu_ps(crow + 8 * j, acc[j]);
  if constexpr (kQuad) _mm_storeu_ps(crow + 8 * kVecs, quad);
  if (singles > 0) {
    AddOuterSingles(crow + kSingles, a, a_stride, alpha, b + kSingles, cols,
                    batch, singles, overwrite);
  }
}

/// One column block of every output row; coefficient (batch row s,
/// output row r) is a[s * batch_stride + r * row_stride].
template <int kVecs, bool kQuad>
void AddOuterBlockAllRows(float* acc, size_t rows, size_t cols, float alpha,
                          const float* a, size_t row_stride,
                          size_t batch_stride, const float* b, size_t batch,
                          size_t singles, bool overwrite) {
  for (size_t r = 0; r < rows; ++r) {
    AddOuterRowBlock<kVecs, kQuad>(acc + r * cols, a + r * row_stride,
                                   batch_stride, alpha, b, cols, batch,
                                   singles, overwrite);
  }
}

/// Widest register block: 4 accumulators plus the quad, the pair's
/// coefficients and the b loads fit the 16 ymm registers.
constexpr size_t kOuterVecs = 4;

/// The scalar backend's loop shape (batch pairs, zero-coefficient skip)
/// with its column loop widened to 8 lanes, so the same rounding per
/// element; but with column blocks outermost and the batch innermost, so
/// each block of an output row is loaded and stored once per call. The
/// last block takes the columns past the last multiple of 8 along.
/// AddOuterBatch passes row_stride 1 and batch_stride rows.
void AddOuterBatchStrided(float* __restrict acc, size_t rows, size_t cols,
                          float alpha, const float* __restrict a,
                          size_t row_stride, size_t batch_stride,
                          const float* __restrict b, size_t batch,
                          bool overwrite) {
  const size_t whole = cols & ~size_t{7};
  size_t c = 0;
  for (; c + 8 * kOuterVecs < whole; c += 8 * kOuterVecs) {
    AddOuterBlockAllRows<kOuterVecs, false>(acc + c, rows, cols, alpha, a,
                                            row_stride, batch_stride, b + c,
                                            batch, 0, overwrite);
  }
  if (c == cols) return;
  const bool quad = cols - whole >= 4;
  using Block = void (*)(float*, size_t, size_t, float, const float*, size_t,
                         size_t, const float*, size_t, size_t, bool);
  static constexpr Block kBlocks[kOuterVecs + 1][2] = {
      {AddOuterBlockAllRows<0, false>, AddOuterBlockAllRows<0, true>},
      {AddOuterBlockAllRows<1, false>, AddOuterBlockAllRows<1, true>},
      {AddOuterBlockAllRows<2, false>, AddOuterBlockAllRows<2, true>},
      {AddOuterBlockAllRows<3, false>, AddOuterBlockAllRows<3, true>},
      {AddOuterBlockAllRows<4, false>, AddOuterBlockAllRows<4, true>},
  };
  kBlocks[(whole - c) / 8][quad](acc + c, rows, cols, alpha, a, row_stride,
                                 batch_stride, b + c, batch,
                                 cols - whole - (quad ? 4 : 0), overwrite);
}

void AddOuterBatchAvx2(float* __restrict acc, size_t rows, size_t cols,
                       float alpha, const float* __restrict a,
                       const float* __restrict b, size_t batch) {
  AddOuterBatchStrided(acc, rows, cols, alpha, a, 1, rows, b, batch,
                       /*overwrite=*/false);
}

// ---------------------------------------------------------------------------
// The logistic-regression step (LogRegGradient).

/// The lanes l of an 8-row block with lo <= l < hi.
inline __m256i LaneMask(int lo, int hi) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_and_si256(_mm256_cmpgt_epi32(_mm256_set1_epi32(hi), lane),
                          _mm256_cmpgt_epi32(lane, _mm256_set1_epi32(lo - 1)));
}

/// The logits x . w of kCols consecutive classes for the block rows in
/// `lanes`, stored as one vector per class at z + 8 * j: `x` is the
/// block's slice of X^T (row stride `ld`), `w` the first class's weight
/// row (stride `k`). The classes share each load of x and give the core
/// kCols independent add chains. kPairs selects the rounding
/// MatMulBodyAvx2 gives rows inside its 4-row tiles (k in pairs, then an
/// odd k alone) over the one-product-at-a-time rounding of the remaining
/// rows. Lanes outside `lanes` compute +0 from zero loads; with `merge`
/// they keep what z held instead.
template <bool kPairs, int kCols>
void LogitColumns(const float* x, size_t ld, size_t k, const float* w,
                  __m256i lanes, bool merge, float* z) {
  __m256 acc[kCols];
  for (int j = 0; j < kCols; ++j) acc[j] = _mm256_setzero_ps();
  size_t kk = 0;
  if constexpr (kPairs) {
    for (; kk + 2 <= k; kk += 2) {
      const __m256 x0 = _mm256_maskload_ps(x + kk * ld, lanes);
      const __m256 x1 = _mm256_maskload_ps(x + (kk + 1) * ld, lanes);
#pragma GCC unroll 4
      for (int j = 0; j < kCols; ++j) {
        acc[j] = AddPair(acc[j], x0, _mm256_broadcast_ss(w + j * k + kk), x1,
                         _mm256_broadcast_ss(w + j * k + kk + 1));
      }
    }
  }
  for (; kk < k; ++kk) {
    const __m256 x0 = _mm256_maskload_ps(x + kk * ld, lanes);
#pragma GCC unroll 4
    for (int j = 0; j < kCols; ++j) {
      acc[j] = AddProduct(acc[j], x0, _mm256_broadcast_ss(w + j * k + kk));
    }
  }
  for (int j = 0; j < kCols; ++j) {
    if (merge) {
      _mm256_maskstore_ps(z + 8 * j, lanes, acc[j]);
    } else {
      _mm256_storeu_ps(z + 8 * j, acc[j]);
    }
  }
}

/// All classes' logits for the block rows in `lanes`, four classes at a
/// time, then one at a time.
template <bool kPairs>
void Logits(const float* x, size_t ld, size_t k, const float* weights,
            size_t classes, __m256i lanes, bool merge, float* z) {
  size_t j = 0;
  for (; j + 4 <= classes; j += 4) {
    LogitColumns<kPairs, 4>(x, ld, k, weights + j * k, lanes, merge,
                            z + 8 * j);
  }
  for (; j < classes; ++j) {
    LogitColumns<kPairs, 1>(x, ld, k, weights + j * k, lanes, merge,
                            z + 8 * j);
  }
}

/// The step eight batch rows at a time, one vector per class with the
/// rows in the lanes. Per element it performs the operations of the
/// scalar LogRegGradient: MatMulBodyAvx2's logits (see LogitColumns),
/// the bias add, SoftmaxRows' max, one vector Exp per class with each
/// row's total summed in class order, the divide, the delta of the
/// label, then AddOuterBatchAvx2's sequence on the block's deltas
/// (blocks start at even rows, so no batch pair straddles two) and
/// ColumnSums' row order. The first block writes the
/// gradient instead of accumulating.
void LogRegGradientAvx2(const float* __restrict xb,
                        const float* __restrict xt, size_t bsz, size_t dim,
                        const float* __restrict params, size_t classes,
                        const int* __restrict labels,
                        float* __restrict grad) {
  const size_t weight_count = classes * dim;
  const float* bias = params + weight_count;
  float* grad_b = grad + weight_count;
  const float inv = 1.0f / static_cast<float>(bsz);
  const size_t tiled = bsz & ~size_t{3};
  ClassLanes class_lanes(classes);
  float* z = class_lanes.data();
  for (size_t i0 = 0; i0 < bsz; i0 += 8) {
    const int rows = static_cast<int>(std::min<size_t>(8, bsz - i0));
    const int pair_rows =
        i0 < tiled ? static_cast<int>(std::min<size_t>(rows, tiled - i0))
                   : 0;
    if (pair_rows > 0) {
      Logits<true>(xt + i0, bsz, dim, params, classes,
                   LaneMask(0, pair_rows), /*merge=*/false, z);
    }
    if (rows > pair_rows) {
      Logits<false>(xt + i0, bsz, dim, params, classes,
                    LaneMask(pair_rows, rows), /*merge=*/pair_rows > 0, z);
    }

    // Bias, then the softmax lane by lane. _mm256_max_ps(v, max) is
    // std::max(max, v), NaN and signed zeros included.
    __m256 max_logit = _mm256_setzero_ps();
    for (size_t c = 0; c < classes; ++c) {
      const __m256 v = _mm256_add_ps(_mm256_loadu_ps(z + 8 * c),
                                     _mm256_set1_ps(bias[c]));
      _mm256_storeu_ps(z + 8 * c, v);
      max_logit = c == 0 ? v : _mm256_max_ps(v, max_logit);
    }
    __m256 vtotal = _mm256_setzero_ps();
    for (size_t c = 0; c < classes; ++c) {
      float* zc = z + 8 * c;
      const __m256 e = Exp(_mm256_sub_ps(_mm256_loadu_ps(zc), max_logit));
      _mm256_storeu_ps(zc, e);
      vtotal = _mm256_add_ps(vtotal, e);
    }
    for (size_t c = 0; c < classes; ++c) {
      _mm256_storeu_ps(z + 8 * c,
                       _mm256_div_ps(_mm256_loadu_ps(z + 8 * c), vtotal));
    }

    // Deltas, then the block's share of both gradients.
    for (int r = 0; r < rows; ++r) {
      z[8 * static_cast<size_t>(labels[i0 + r]) + r] -= 1.0f;
    }
    const bool first = i0 == 0;
    for (size_t c = 0; c < classes; ++c) {
      float sum = first ? 0.0f : grad_b[c];
      for (int r = 0; r < rows; ++r) sum += z[8 * c + r];
      grad_b[c] = sum;
    }
    AddOuterBatchStrided(grad, classes, dim, inv, z, 8, 1, xb + i0 * dim,
                         static_cast<size_t>(rows), first);
  }
  for (size_t c = 0; c < classes; ++c) grad_b[c] *= inv;
}

// ---------------------------------------------------------------------------
// Element-wise kernels.

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

/// out[i] = Exp(x[i] - shift) for i < n, eight at a time. The last
/// vector is a masked load, stored 4, 2 and 1 lanes at a time: the loads
/// that follow a masked store stall on store forwarding.
void ExpShiftedAvx2(const float* x, size_t n, float shift, float* out) {
  const __m256 vshift = _mm256_set1_ps(shift);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i,
                     Exp(_mm256_sub_ps(_mm256_loadu_ps(x + i), vshift)));
  }
  size_t left = n - i;
  if (left == 0) return;
  const __m256 e = Exp(_mm256_sub_ps(
      _mm256_maskload_ps(x + i, LaneMask(0, static_cast<int>(left))),
      vshift));
  float* dst = out + i;
  __m128 part = _mm256_castps256_ps128(e);
  if (left >= 4) {
    _mm_storeu_ps(dst, part);
    part = _mm256_extractf128_ps(e, 1);
    dst += 4;
    left -= 4;
  }
  if (left >= 2) {
    _mm_storel_pi(reinterpret_cast<__m64*>(dst), part);
    part = _mm_movehl_ps(part, part);
    dst += 2;
    left -= 2;
  }
  if (left == 1) _mm_store_ss(dst, part);
}

/// x - 0 is x, bit for bit, so this is the scalar body's Exp(x[i]).
void ExpArrayAvx2(const float* x, size_t n, float* out) {
  ExpShiftedAvx2(x, n, 0.0f, out);
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
    ExpShiftedAvx2(row, cols, max_logit, row);
    // The sum stays scalar in row order: the accumulation order of
    // `total` is part of the bitwise contract with SoftmaxInPlace.
    float total = 0.0f;
    for (size_t cc = 0; cc < cols; ++cc) total += row[cc];
    const __m256 vtotal = _mm256_set1_ps(total);
    size_t cc = 0;
    for (; cc + 8 <= cols; cc += 8) {
      _mm256_storeu_ps(row + cc,
                       _mm256_div_ps(_mm256_loadu_ps(row + cc), vtotal));
    }
    if (cc + 4 <= cols) {
      _mm_storeu_ps(row + cc, _mm_div_ps(_mm_loadu_ps(row + cc),
                                         _mm256_castps256_ps128(vtotal)));
      cc += 4;
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
    MatMulBodyAvx2,       LogRegGradientAvx2,   GatherRowsAndColumnsAvx2,
    AddOuterBatchAvx2,    AddBiasRowsAvx2,      AddBiasReluRowsAvx2,
    ReluMaskBackwardAvx2, SoftmaxRowsAvx2,      ExpArrayAvx2,
    ColumnSumsAvx2,       SgdStepAvx2,          SgdMomentumStepAvx2,
    AddProximalAvx2,
};

}  // namespace

const KernelTable* Avx2KernelTable() { return &kAvx2Table; }

}  // namespace internal
}  // namespace fedshap

#else  // !__AVX2__

namespace fedshap {
namespace internal {

const KernelTable* Avx2KernelTable() { return nullptr; }

}  // namespace internal
}  // namespace fedshap

#endif
