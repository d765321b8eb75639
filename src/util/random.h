#ifndef FEDSHAP_UTIL_RANDOM_H_
#define FEDSHAP_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace fedshap {

/// The 64-bit Mersenne Twister MT19937-64 (Matsumoto & Nishimura), with
/// the seeding, tempering and 312-word state of `std::mt19937_64`: the
/// same seed gives the same draws. The twist is branch-free, so its cost
/// does not depend on the state's bits.
class Mt19937_64 {
 public:
  /// Number of 64-bit words of state.
  static constexpr size_t kStateWords = 312;

  /// Seeds the state as `std::mt19937_64(seed)` does.
  explicit Mt19937_64(uint64_t seed);

  /// Next tempered draw, uniform over all 64-bit values.
  uint64_t operator()() {
    if (index_ >= kStateWords) Twist();
    uint64_t z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  friend class Rng;  // SaveState / LoadState read and write the state.

  /// Regenerates all 312 words and rewinds the index.
  void Twist();

  uint64_t state_[kStateWords];
  size_t index_;
};

/// Deterministic random number generator used throughout the library.
///
/// Every stochastic component (data generation, partitioning, sampling
/// algorithms, SGD shuffling) takes an explicit `Rng` so experiments are
/// reproducible from a single seed. `Fork()` derives independent streams so
/// that adding randomness in one component does not perturb another.
///
/// The class owns its whole stream: the MT19937-64 engine, the mapping of
/// draws to [0, 1) and the Gaussian sampler (Marsaglia's polar method and
/// its spare deviate). All three are bit-identical to libstdc++'s
/// `std::mt19937_64`, `std::uniform_real_distribution<double>` and
/// `std::normal_distribution<double>`, so values do not depend on the
/// standard library linked. SaveState writes the same text those std
/// types write, so state saved by either resumes in the other.
class Rng {
 public:
  /// Creates a generator with the given seed.
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1): double(draw) * 2^-64, with draws that
  /// round to 2^64 mapped to the largest double below 1.
  double Uniform() {
    // The sum of the draw's two 32-bit halves, each converted and scaled
    // exactly, rounds once, to double(draw) * 2^-64. Unlike the baseline
    // x86-64 conversion of a uint64_t, it does not branch on the top bit.
    const uint64_t draw = engine_();
    const double u =
        static_cast<double>(static_cast<uint32_t>(draw >> 32)) * 0x1p-32 +
        static_cast<double>(static_cast<uint32_t>(draw)) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal sample.
  double Gaussian();

  /// Normal sample with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Gamma(shape, 1) sample (Marsaglia-Tsang). Requires shape > 0.
  double Gamma(double shape);

  /// Dirichlet(alpha, ..., alpha) sample of the given dimension: a point
  /// on the probability simplex. Small alpha concentrates mass on few
  /// coordinates (strong non-IID skew), large alpha approaches uniform.
  std::vector<double> Dirichlet(double alpha, int dimension);

  /// Samples an index in [0, weights.size()) proportionally to `weights`.
  /// Weights must be non-negative with a positive sum.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = UniformInt(i);
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Returns a random permutation of {0, 1, ..., n-1}.
  std::vector<int> Permutation(int n);

  /// Samples `k` distinct indices from [0, n) uniformly (order unspecified).
  std::vector<int> SampleWithoutReplacement(int n, int k);

  /// Derives an independent child generator. The child stream is a pure
  /// function of this generator's current state, so forking is itself
  /// deterministic.
  Rng Fork();

  /// Serializes the complete generator state (the engine's 312 words and
  /// index, then the Gaussian sampler's spare deviate) to a portable text
  /// form, the one `engine << ' ' << unit << ' ' << normal` writes for the
  /// std types above. A generator restored with LoadState produces the
  /// exact same stream this one would have — the basis of resumable
  /// sampling sweeps.
  std::string SaveState() const;

  /// Restores a state captured by SaveState. Fails with InvalidArgument
  /// on malformed input, leaving the generator untouched: an engine index
  /// above 312, distribution parameters other than the `0 1` SaveState
  /// writes, a spare flag other than 0 or 1, or a non-finite spare.
  Status LoadState(const std::string& state);

  /// Underlying engine, for raw 64-bit draws.
  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
  double spare_ = 0.0;      ///< Second deviate of the last polar pair.
  bool has_spare_ = false;  ///< Whether Gaussian() returns spare_ next.
};

}  // namespace fedshap

#endif  // FEDSHAP_UTIL_RANDOM_H_
