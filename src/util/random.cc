#include "util/random.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <string_view>

#include "util/logging.h"

namespace fedshap {

Mt19937_64::Mt19937_64(uint64_t seed) {
  state_[0] = seed;
  for (size_t i = 1; i < kStateWords; ++i) {
    const uint64_t x = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
  }
  index_ = kStateWords;
}

void Mt19937_64::Twist() {
  // The recurrence of std::mt19937_64 (m = 156, r = 31), with the
  // conditional XOR of the twist matrix A written as a mask: the low bit
  // of y, negated, is all ones or all zeros.
  constexpr size_t kN = kStateWords;
  constexpr size_t kM = 156;
  constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
  constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
  constexpr uint64_t kLowerMask = ~kUpperMask;
  const auto twist = [](uint64_t upper, uint64_t lower, uint64_t far) {
    const uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
    return far ^ (y >> 1) ^ ((uint64_t{0} - (y & 1)) & kMatrixA);
  };
  for (size_t k = 0; k < kN - kM; ++k) {
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kM]);
  }
  for (size_t k = kN - kM; k < kN - 1; ++k) {
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kM - kN]);
  }
  state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
  index_ = 0;
}

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

double Rng::Gaussian() {
  // Marsaglia's polar method as libstdc++'s normal_distribution runs it,
  // operation for operation: each accepted point yields two deviates; one
  // is returned and the other kept as the spare for the next call.
  // Each result ends with the distribution's `* stddev + mean`, stddev 1
  // and mean 0: `+ 0.0` leaves every value but -0, which it turns into +0.
  if (has_spare_) {
    has_spare_ = false;
    return spare_ + 0.0;
  }
  double x, y, r2;
  do {
    x = 2.0 * Uniform() - 1.0;
    y = 2.0 * Uniform() - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  const double mult = std::sqrt(-2 * std::log(r2) / r2);
  spare_ = x * mult;
  has_spare_ = true;
  return y * mult + 0.0;
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

namespace {

/// The distribution parameters SaveState writes, in the std types'
/// format: uniform_real_distribution's a = 0 and b = 1, then
/// normal_distribution's mean = 0 and stddev = 1.
constexpr std::string_view kDistributionParams =
    "0.00000000000000000e+00 1.00000000000000000e+00 "
    "0.00000000000000000e+00 1.00000000000000000e+00";

/// Splits `text` at whitespace, the std stream extractors' separators.
std::vector<std::string_view> Tokens(std::string_view text) {
  const auto is_space = [&](size_t i) {
    return std::isspace(static_cast<unsigned char>(text[i])) != 0;
  };
  std::vector<std::string_view> tokens;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(i)) ++i;
    const size_t start = i;
    while (i < text.size() && !is_space(i)) ++i;
    if (i > start) tokens.push_back(text.substr(start, i - start));
  }
  return tokens;
}

/// Parses the whole of `token` into `value`.
template <typename T>
bool ParseToken(std::string_view token, T& value) {
  const char* end = token.data() + token.size();
  const std::from_chars_result parsed =
      std::from_chars(token.data(), end, value);
  return parsed.ec == std::errc() && parsed.ptr == end;
}

}  // namespace

std::string Rng::SaveState() const {
  // The text `engine << ' ' << unit << ' ' << normal` writes for the std
  // engine and distributions: the state words and index in decimal, then
  // each distribution's parameters in scientific notation with
  // max_digits10 digits, then the normal distribution's spare flag and,
  // when set, its spare deviate.
  std::string out;
  out.reserve(Mt19937_64::kStateWords * 21 + 160);
  char buffer[32];
  const auto append_u64 = [&](uint64_t value) {
    const std::to_chars_result printed =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    out.append(buffer, printed.ptr);
  };
  for (uint64_t word : engine_.state_) {
    append_u64(word);
    out += ' ';
  }
  append_u64(engine_.index_);
  out += ' ';
  out += kDistributionParams;
  out += has_spare_ ? " 1" : " 0";
  if (has_spare_) {
    const int length = std::snprintf(buffer, sizeof(buffer), " %.*e",
                                     std::numeric_limits<double>::max_digits10,
                                     spare_);
    out.append(buffer, static_cast<size_t>(length));
  }
  return out;
}

Status Rng::LoadState(const std::string& state) {
  const std::vector<std::string_view> tokens = Tokens(state);
  constexpr size_t kEngineTokens = Mt19937_64::kStateWords + 1;
  constexpr size_t kFlagToken = kEngineTokens + 4;
  if (tokens.size() != kFlagToken + 1 && tokens.size() != kFlagToken + 2) {
    return Status::InvalidArgument("malformed Rng state string");
  }
  Mt19937_64 engine(0);
  for (size_t i = 0; i < Mt19937_64::kStateWords; ++i) {
    if (!ParseToken(tokens[i], engine.state_[i])) {
      return Status::InvalidArgument("malformed Rng state word");
    }
  }
  uint64_t index = 0;
  if (!ParseToken(tokens[Mt19937_64::kStateWords], index) ||
      index > Mt19937_64::kStateWords) {
    return Status::InvalidArgument("Rng state index out of range");
  }
  engine.index_ = static_cast<size_t>(index);
  // The parameters must be exactly the 0 1 / 0 1 SaveState writes (a
  // mean of -0 would keep -0 deviates negative, so it is rejected too).
  const double expected[] = {0.0, 1.0, 0.0, 1.0};
  for (size_t i = 0; i < 4; ++i) {
    double param = 0.0;
    if (!ParseToken(tokens[kEngineTokens + i], param) ||
        std::memcmp(&param, &expected[i], sizeof(param)) != 0) {
      return Status::InvalidArgument(
          "Rng state distribution parameters must be 0 1 0 1");
    }
  }
  const std::string_view flag = tokens[kFlagToken];
  if (flag != "0" && flag != "1") {
    return Status::InvalidArgument("Rng state spare flag must be 0 or 1");
  }
  const bool has_spare = flag == "1";
  double spare = 0.0;
  if (has_spare != (tokens.size() == kFlagToken + 2) ||
      (has_spare && (!ParseToken(tokens[kFlagToken + 1], spare) ||
                     !std::isfinite(spare)))) {
    return Status::InvalidArgument("malformed Rng state spare");
  }
  engine_ = engine;
  spare_ = spare;
  has_spare_ = has_spare;
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
