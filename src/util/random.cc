#include "util/random.h"

#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "util/logging.h"

namespace fedshap {

uint64_t Rng::UniformInt(uint64_t n) {
  FEDSHAP_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias: accept a draw only when the
  // block of n values it falls in, [draw - r, draw - r + n), ends at or
  // below the engine's maximum. Those are exactly the draws below
  // max - max % n, found with one division per draw instead of two.
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t draw, r;
  do {
    draw = engine_();
    r = draw % n;
  } while (draw - r > kMax - n);
  return r;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  FEDSHAP_CHECK(lo <= hi);
  // Unsigned arithmetic: hi - lo overflows int64_t once the span passes
  // INT64_MAX, and the full range's span, 2^64, wraps to 0.
  const uint64_t span =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  const uint64_t offset = span == 0 ? engine_() : UniformInt(span);
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + offset);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  FEDSHAP_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    FEDSHAP_CHECK(w >= 0.0);
    total += w;
  }
  FEDSHAP_CHECK(total > 0.0);
  double target = Uniform() * total;
  double cumulative = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i];
    if (target < cumulative) return i;
  }
  return weights.size() - 1;  // Guard against floating point round-off.
}

double Rng::Gamma(double shape) {
  FEDSHAP_CHECK(shape > 0.0);
  if (shape < 1.0) {
    // Boost trick: Gamma(a) = Gamma(a+1) * U^(1/a).
    return Gamma(shape + 1.0) * std::pow(Uniform(), 1.0 / shape);
  }
  // Marsaglia & Tsang (2000) squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x, v;
    do {
      x = Gaussian();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

std::vector<double> Rng::Dirichlet(double alpha, int dimension) {
  FEDSHAP_CHECK(alpha > 0.0);
  FEDSHAP_CHECK(dimension >= 1);
  std::vector<double> draw(dimension);
  double total = 0.0;
  for (double& v : draw) {
    v = Gamma(alpha);
    total += v;
  }
  if (total <= 0.0) {
    // Numerically degenerate (possible for tiny alpha): fall back to a
    // one-hot draw, the distribution's own limit.
    std::fill(draw.begin(), draw.end(), 0.0);
    draw[UniformInt(static_cast<uint64_t>(dimension))] = 1.0;
    return draw;
  }
  for (double& v : draw) v /= total;
  return draw;
}

std::vector<int> Rng::Permutation(int n) {
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  Shuffle(perm);
  return perm;
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  FEDSHAP_CHECK(k >= 0 && k <= n);
  // Partial Fisher-Yates: O(n) memory but only k swaps.
  std::vector<int> pool(n);
  std::iota(pool.begin(), pool.end(), 0);
  for (int i = 0; i < k; ++i) {
    size_t j = i + UniformInt(static_cast<uint64_t>(n - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

std::string Rng::SaveState() const {
  // <random> engines and distributions define stream operators whose
  // output round-trips exactly (values are emitted as integers / hex
  // floats per the standard's requirements). The normal distribution is
  // stateful (it caches the spare Box-Muller deviate), so it must be
  // saved alongside the engine for bit-identical resumption.
  std::ostringstream out;
  out << engine_ << ' ' << unit_ << ' ' << normal_;
  return out.str();
}

Status Rng::LoadState(const std::string& state) {
  std::istringstream in(state);
  std::mt19937_64 engine;
  std::uniform_real_distribution<double> unit;
  std::normal_distribution<double> normal;
  in >> engine >> unit >> normal;
  if (in.fail()) {
    return Status::InvalidArgument("malformed Rng state string");
  }
  engine_ = engine;
  unit_ = unit;
  normal_ = normal;
  return Status::OK();
}

Rng Rng::Fork() {
  // Mix two draws through SplitMix64 so child streams decorrelate from the
  // parent even for adjacent fork calls.
  uint64_t s = engine_() ^ (engine_() * 0x9E3779B97F4A7C15ULL);
  s ^= s >> 30;
  s *= 0xBF58476D1CE4E5B9ULL;
  s ^= s >> 27;
  s *= 0x94D049BB133111EBULL;
  s ^= s >> 31;
  return Rng(s);
}

}  // namespace fedshap
