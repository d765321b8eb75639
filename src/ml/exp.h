#ifndef FEDSHAP_ML_EXP_H_
#define FEDSHAP_ML_EXP_H_

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace fedshap {

/// \file
/// The float exponential of the softmax, owned so that training calls no
/// libm: glibc picks an `expf` per CPU, and its variants disagree.
///
/// Domain: x <= 0, the softmax's shifted logits. -0 gives 1, -inf gives
/// +0 and a NaN comes back as the same NaN, quieted. Results below
/// FLT_MIN are subnormal and round once, and x < -103.97 gives +0, as a
/// correctly rounded exp would. Over every non-positive float the result
/// is within 1 ulp of exp (subnormal results in subnormal ulps), checked
/// exhaustively by tests/ml_kernel_equivalence_test.cc.
///
/// Method (the classic Cody-Waite scheme, as in fdlibm or CORE-MATH's
/// reductions; nothing copied):
///  1. set |x| < 2^-26 to +0 and clamp x to >= -176. Both keep the
///     result and spare x86 a microcode assist per underflowing
///     operation: for such a tiny x, r^2 below would underflow, and e^x
///     rounds to 1 either way; exp(-104) is already below half the least
///     subnormal, and from about -175.7 down both scale factors of step 4
///     are +0, so the +0 comes without an underflow;
///  2. k = round(x * log2(e)) by adding 1.5 * 2^23, which leaves k in the
///     low mantissa bits; r = x - k * ln2 with ln2 split in two, so that
///     r_hi = x - k * kExpLn2Hi is exact and lo = k * kExpLn2Lo is small;
///  3. exp(r) = 1 + (r_hi + (r^2 * P(r) - lo)), P the degree-6 Taylor
///     polynomial of (e^r - 1 - r) / r^2 in Horner form;
///  4. times 2^(k/2) and then 2^(k - k/2): the first product is exact and
///     the second rounds once, also into the subnormals.
///
/// Two bodies perform this same sequence of IEEE basic operations: the
/// scalar Exp(float) and the 8-lane Exp(__m256) (compiled only where
/// AVX2 is enabled). Neither uses FMA (the build sets -ffp-contract=off),
/// so the two are bit-identical lane for lane and the kernel backends
/// train the same bits.

namespace internal {

inline constexpr float kExpTiny = 0x1p-26f;
inline constexpr float kExpMin = -176.0f;
/// 1.5 * 2^23: adding it rounds a float of magnitude below 2^22 to an
/// integer held in the low mantissa bits.
inline constexpr float kExpShift = 12582912.0f;
inline constexpr float kExpLog2e = 1.44269504088896341f;
/// ln 2 = kExpLn2Hi + kExpLn2Lo; kExpLn2Hi has 9 significant bits, so
/// k * kExpLn2Hi is exact for every k the clamp allows.
inline constexpr float kExpLn2Hi = 0.693359375f;
inline constexpr float kExpLn2Lo = -2.12194440054690583e-4f;
/// 1/8!, 1/7!, ..., 1/2!: P(r), highest degree first.
inline constexpr float kExpPoly[] = {
    1.0f / 40320.0f, 1.0f / 5040.0f, 1.0f / 720.0f, 1.0f / 120.0f,
    1.0f / 24.0f,    1.0f / 6.0f,    0.5f,
};

}  // namespace internal

/// exp(x) for x <= 0 (see the file comment), the scalar body.
inline float Exp(float x) {
  using namespace internal;
  // |x| < kExpTiny ? +0 : x, then x < kExpMin ? kExpMin : x (a NaN
  // stays), as selects on the compares' masks: GCC keeps a ?: on a float
  // compare as a branch, which stops it vectorizing loops over Exp.
  const uint32_t tiny = 0u - static_cast<uint32_t>(std::fabs(x) < kExpTiny);
  x = std::bit_cast<float>(std::bit_cast<uint32_t>(x) & ~tiny);
  const uint32_t below = 0u - static_cast<uint32_t>(x < kExpMin);
  x = std::bit_cast<float>((std::bit_cast<uint32_t>(x) & ~below) |
                           (std::bit_cast<uint32_t>(kExpMin) & below));
  const float t = x * kExpLog2e + kExpShift;
  const float k = t - kExpShift;
  const float r_hi = x - k * kExpLn2Hi;
  const float lo = k * kExpLn2Lo;
  const float r = r_hi - lo;
  float p = kExpPoly[0];
  for (size_t i = 1; i < std::size(kExpPoly); ++i) p = p * r + kExpPoly[i];
  const float y = 1.0f + (r_hi + ((r * r) * p - lo));
  const uint32_t ki = std::bit_cast<uint32_t>(t) -
                      std::bit_cast<uint32_t>(kExpShift);
  const uint32_t k1 = static_cast<uint32_t>(static_cast<int32_t>(ki) >> 1);
  const uint32_t k2 = ki - k1;
  return (y * std::bit_cast<float>((k1 + 127u) << 23)) *
         std::bit_cast<float>((k2 + 127u) << 23);
}

#if defined(__AVX2__)

/// exp of each lane of x, the AVX2 body: Exp(float)'s operations in its
/// order. _mm256_max_ps(min, x) is `min > x ? min : x`, the scalar
/// body's clamp, NaN included.
inline __m256 Exp(__m256 x) {
  using namespace internal;
  const __m256 abs_x = _mm256_andnot_ps(_mm256_set1_ps(-0.0f), x);
  x = _mm256_andnot_ps(
      _mm256_cmp_ps(abs_x, _mm256_set1_ps(kExpTiny), _CMP_LT_OQ), x);
  x = _mm256_max_ps(_mm256_set1_ps(kExpMin), x);
  const __m256 shift = _mm256_set1_ps(kExpShift);
  const __m256 t = _mm256_add_ps(_mm256_mul_ps(x, _mm256_set1_ps(kExpLog2e)),
                                 shift);
  const __m256 k = _mm256_sub_ps(t, shift);
  const __m256 r_hi =
      _mm256_sub_ps(x, _mm256_mul_ps(k, _mm256_set1_ps(kExpLn2Hi)));
  const __m256 lo = _mm256_mul_ps(k, _mm256_set1_ps(kExpLn2Lo));
  const __m256 r = _mm256_sub_ps(r_hi, lo);
  __m256 p = _mm256_set1_ps(kExpPoly[0]);
  for (size_t i = 1; i < std::size(kExpPoly); ++i) {
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpPoly[i]));
  }
  const __m256 y = _mm256_add_ps(
      _mm256_set1_ps(1.0f),
      _mm256_add_ps(r_hi, _mm256_sub_ps(_mm256_mul_ps(_mm256_mul_ps(r, r), p),
                                        lo)));
  const __m256i ki = _mm256_sub_epi32(_mm256_castps_si256(t),
                                      _mm256_castps_si256(shift));
  const __m256i k1 = _mm256_srai_epi32(ki, 1);
  const __m256i k2 = _mm256_sub_epi32(ki, k1);
  const __m256i bias = _mm256_set1_epi32(127);
  const __m256 s1 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(k1, bias), 23));
  const __m256 s2 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(k2, bias), 23));
  return _mm256_mul_ps(_mm256_mul_ps(y, s1), s2);
}

#endif  // __AVX2__

}  // namespace fedshap

#endif  // FEDSHAP_ML_EXP_H_
