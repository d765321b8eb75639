#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/serialization.h"

namespace fedshap {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformStaysInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) {
    // Each bucket should be close to draws/10; allow 10% slack.
    EXPECT_NEAR(c, draws / 10, draws / 100);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(13);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

/// Uniform integer in [0, n) by the textbook two-division rejection
/// test, drawing from `engine`: the reference Rng::UniformInt(n) must
/// reproduce draw for draw.
uint64_t TwoDivisionUniformInt(Mt19937_64& engine, uint64_t n) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const uint64_t limit = kMax - kMax % n;
  uint64_t draw;
  do {
    draw = engine();
  } while (draw >= limit);
  return draw % n;
}

TEST(RngTest, UniformIntMatchesTwoDivisionRejection) {
  // Bounds where rejection is never, rarely and about half the time
  // taken, plus a spread of small and mid-sized ones; 10^7 draws in all.
  std::vector<uint64_t> bounds = {1,
                                  2,
                                  3,
                                  7,
                                  10,
                                  120,
                                  1ULL << 32,
                                  (1ULL << 32) + 1,
                                  1ULL << 63,
                                  (1ULL << 63) + 5,
                                  ~0ULL - 1,
                                  ~0ULL};
  Rng picker(5);
  for (int i = 0; i < 88; ++i) {
    bounds.push_back(picker.engine()() >> picker.UniformInt(64));
    if (bounds.back() == 0) bounds.back() = 1;
  }
  constexpr int kDrawsPerBound = 100000;
  for (size_t i = 0; i < bounds.size(); ++i) {
    const uint64_t n = bounds[i];
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    Rng rng(1000 + i);
    Rng reference(1000 + i);
    for (int d = 0; d < kDrawsPerBound; ++d) {
      const uint64_t expected = TwoDivisionUniformInt(reference.engine(), n);
      ASSERT_EQ(rng.UniformInt(n), expected) << "draw " << d;
    }
  }
}

TEST(RngTest, UniformIntSmallRangesKeepTheirStream) {
  // lo + UniformInt(hi - lo + 1) for ranges whose span fits int64_t.
  const std::pair<int64_t, int64_t> ranges[] = {
      {-3, 3}, {0, 0}, {1, 40}, {-1000000, 999999}, {5, 1LL << 40}};
  for (const auto& [lo, hi] : ranges) {
    SCOPED_TRACE(::testing::Message() << "[" << lo << ", " << hi << "]");
    Rng rng(17);
    Rng reference(17);
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    for (int d = 0; d < 1000; ++d) {
      ASSERT_EQ(rng.UniformInt(lo, hi),
                lo + static_cast<int64_t>(
                         TwoDivisionUniformInt(reference.engine(), span)));
    }
  }
}

TEST(RngTest, UniformIntFullAndWideSignedRanges) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // The full range's span, 2^64, takes one raw engine draw.
  Rng rng(19);
  Rng reference(19);
  std::set<int64_t> seen;
  for (int d = 0; d < 1000; ++d) {
    const int64_t v = rng.UniformInt(kMin, kMax);
    EXPECT_EQ(static_cast<uint64_t>(v),
              static_cast<uint64_t>(kMin) + reference.engine()());
    seen.insert(v);
  }
  EXPECT_GT(seen.size(), 990u);
  // Spans past INT64_MAX but short of 2^64 stay in range.
  for (int d = 0; d < 1000; ++d) {
    const int64_t v = rng.UniformInt(kMin + 1, kMax);
    EXPECT_GT(v, kMin);
    const int64_t w = rng.UniformInt(-5, kMax);
    EXPECT_GE(w, -5);
    const int64_t x = rng.UniformInt(kMin, 5);
    EXPECT_LE(x, 5);
  }
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(17);
  const int draws = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < draws; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / draws;
  const double var = sum_sq / draws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GaussianShiftScale) {
  Rng rng(19);
  const int draws = 100000;
  double sum = 0.0;
  for (int i = 0; i < draws; ++i) sum += rng.Gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / draws, 5.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int successes = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    if (rng.Bernoulli(0.3)) ++successes;
  }
  EXPECT_NEAR(successes / static_cast<double>(draws), 0.3, 0.01);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(29);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int draws = 40000;
  for (int i = 0; i < draws; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(draws), 0.25, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(draws), 0.75, 0.02);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(31);
  std::vector<int> perm = rng.Permutation(20);
  std::vector<int> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 20; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, PermutationIsShuffledAcrossDraws) {
  Rng rng(37);
  // At least one of several permutations of size 10 must differ from
  // identity (probability of failure is negligible).
  bool any_shuffled = false;
  for (int t = 0; t < 5; ++t) {
    std::vector<int> perm = rng.Permutation(10);
    for (int i = 0; i < 10; ++i) {
      if (perm[i] != i) any_shuffled = true;
    }
  }
  EXPECT_TRUE(any_shuffled);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(41);
  for (int t = 0; t < 100; ++t) {
    std::vector<int> sample = rng.SampleWithoutReplacement(12, 5);
    ASSERT_EQ(sample.size(), 5u);
    std::set<int> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 5u);
    for (int v : sample) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 12);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(43);
  std::vector<int> sample = rng.SampleWithoutReplacement(6, 6);
  std::sort(sample.begin(), sample.end());
  for (int i = 0; i < 6; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngTest, SampleWithoutReplacementUniformCoverage) {
  Rng rng(47);
  std::vector<int> counts(8, 0);
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    for (int v : rng.SampleWithoutReplacement(8, 2)) ++counts[v];
  }
  // Each element appears in a 2-of-8 sample with probability 1/4.
  for (int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(draws), 0.25, 0.02);
  }
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(53);
  Rng child_a = parent.Fork();
  Rng child_b = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child_a.Uniform() == child_b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng a(59), b(59);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(fa.Uniform(), fb.Uniform());
  }
}

TEST(RngTest, SaveLoadStateResumesIdenticalStream) {
  Rng rng(67);
  // Burn mixed draws, including a Gaussian so the normal distribution's
  // Box-Muller spare is live in the saved state.
  for (int i = 0; i < 7; ++i) {
    rng.Uniform();
    rng.Gaussian();
  }
  const std::string state = rng.SaveState();
  Rng restored(0);
  ASSERT_TRUE(restored.LoadState(state).ok());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(restored.Uniform(), rng.Uniform());
    EXPECT_EQ(restored.Gaussian(), rng.Gaussian());
    EXPECT_EQ(restored.UniformInt(uint64_t{1000}),
              rng.UniformInt(uint64_t{1000}));
  }
}

TEST(RngTest, LoadStateRejectsGarbage) {
  Rng rng(71);
  EXPECT_FALSE(rng.LoadState("not an rng state").ok());
  EXPECT_FALSE(rng.LoadState("").ok());
}

/// `state` split at spaces into its 312 words, index, four distribution
/// parameters, spare flag and (when set) spare.
std::vector<std::string> StateTokens(const std::string& state) {
  std::istringstream in(state);
  std::vector<std::string> tokens;
  for (std::string token; in >> token;) tokens.push_back(token);
  return tokens;
}

std::string JoinTokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& token : tokens) {
    if (!out.empty()) out += ' ';
    out += token;
  }
  return out;
}

TEST(RngTest, LoadStateRejectsHostileText) {
  Rng source(73);
  for (int i = 0; i < 5; ++i) source.Gaussian();
  const std::vector<std::string> valid = StateTokens(source.SaveState());
  ASSERT_EQ(valid.size(), 319u);  // 312 words, index, 4 params, flag, spare
  constexpr size_t kIndex = 312, kStddev = 316, kFlag = 317;

  std::vector<std::pair<std::string, std::vector<std::string>>> cases;
  const auto with = [&](size_t at, const std::string& token) {
    std::vector<std::string> tokens = valid;
    tokens[at] = token;
    return tokens;
  };
  cases.push_back({"index 313", with(kIndex, "313")});
  cases.push_back({"index 2^64-1", with(kIndex, "18446744073709551615")});
  cases.push_back({"index -1", with(kIndex, "-1")});
  cases.push_back({"stddev -1", with(kStddev, "-1.00000000000000000e+00")});
  cases.push_back({"stddev nan", with(kStddev, "nan")});
  cases.push_back({"mean 2", with(kStddev - 1, "2")});
  cases.push_back({"mean -0", with(kStddev - 1, "-0.0")});
  cases.push_back({"unit b 2", with(kStddev - 2, "2")});
  cases.push_back({"flag 2", with(kFlag, "2")});
  cases.push_back({"spare nan", with(kFlag + 1, "nan")});
  cases.push_back({"spare inf", with(kFlag + 1, "inf")});
  cases.push_back({"word 1e3", with(7, "1e3")});
  cases.push_back({"word 2^64", with(7, "18446744073709551616")});
  cases.push_back({"truncated after 311 words",
                   std::vector<std::string>(valid.begin(),
                                            valid.begin() + 311)});
  cases.push_back({"flag set without a spare",
                   std::vector<std::string>(valid.begin(),
                                            valid.begin() + kFlag + 1)});
  std::vector<std::string> spare_without_flag = with(kFlag, "0");
  cases.push_back({"spare without a flag", spare_without_flag});
  std::vector<std::string> trailing = valid;
  trailing.push_back("0");
  cases.push_back({"trailing token", trailing});

  for (const auto& [name, tokens] : cases) {
    SCOPED_TRACE(name);
    Rng rng(79);
    rng.Gaussian();  // a spare is pending, so a partial load would show
    Rng untouched = rng;
    EXPECT_EQ(rng.LoadState(JoinTokens(tokens)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(rng.SaveState(), untouched.SaveState());
    for (int i = 0; i < 10; ++i) {
      ASSERT_EQ(rng.Gaussian(), untouched.Gaussian());
      ASSERT_EQ(rng.engine()(), untouched.engine()());
    }
  }

  // The edges that stay valid: index 312 (a twist is due), and the spare
  // flag cleared with the spare dropped.
  Rng rng(83);
  EXPECT_TRUE(rng.LoadState(JoinTokens(with(kIndex, "312"))).ok());
  std::vector<std::string> no_spare = with(kFlag, "0");
  no_spare.pop_back();
  EXPECT_TRUE(rng.LoadState(JoinTokens(no_spare)).ok());
  EXPECT_TRUE(rng.LoadState(JoinTokens(valid)).ok());
  EXPECT_EQ(rng.SaveState(), source.SaveState());
}

TEST(RngTest, ShuffleKeepsMultiset) {
  Rng rng(61);
  std::vector<int> items = {5, 5, 1, 2, 9};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::sort(items.begin(), items.end());
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(items, shuffled);
}


// ---------------------------------------------------------------------------
// Stream pins
//
// Every sampled coalition, permutation, shuffle and synthetic federation
// is a function of these streams, and stored utilities are addressed by
// fingerprints of data generated from them. The literals below fix the
// streams bit for bit, so a change to the generator cannot move a
// result unnoticed.

constexpr uint64_t kPinnedSeeds[] = {0, 1, 5489, ~0ULL};
constexpr int kPinnedDraws = 1000000;

/// Digests of the streams of one seed, each drawn from a fresh Rng.
struct StreamDigests {
  uint64_t raw;
  uint64_t uniform;
  uint64_t gaussian;
  uint64_t uniform_int;
  uint64_t fork_chain;
};

uint64_t RawDigest(uint64_t seed) {
  Rng rng(seed);
  Hasher64 hasher;
  for (int i = 0; i < kPinnedDraws; ++i) hasher.MixU64(rng.engine()());
  return hasher.digest();
}

uint64_t UniformDigest(uint64_t seed) {
  Rng rng(seed);
  Hasher64 hasher;
  for (int i = 0; i < kPinnedDraws; ++i) hasher.MixDouble(rng.Uniform());
  return hasher.digest();
}

uint64_t GaussianDigest(uint64_t seed) {
  Rng rng(seed);
  Hasher64 hasher;
  for (int i = 0; i < kPinnedDraws; ++i) hasher.MixDouble(rng.Gaussian());
  return hasher.digest();
}

uint64_t UniformIntDigest(uint64_t seed) {
  const uint64_t bounds[] = {2, 7, 120, (1ULL << 32) + 1, (1ULL << 63) + 5};
  Rng rng(seed);
  Hasher64 hasher;
  for (int i = 0; i < kPinnedDraws; ++i) {
    hasher.MixU64(rng.UniformInt(bounds[i % 5]));
  }
  return hasher.digest();
}

/// Draws from each generator of a 3-deep Fork chain, the parent's
/// stream interleaved with its descendants'.
uint64_t ForkChainDigest(uint64_t seed) {
  Rng parent(seed);
  Hasher64 hasher;
  for (int round = 0; round < 1000; ++round) {
    Rng child = parent.Fork();
    Rng grandchild = child.Fork();
    Rng great_grandchild = grandchild.Fork();
    for (Rng* rng : {&parent, &child, &grandchild, &great_grandchild}) {
      hasher.MixU64(rng->engine()());
      hasher.MixDouble(rng->Uniform());
    }
  }
  return hasher.digest();
}

StreamDigests DigestsOf(uint64_t seed) {
  return {RawDigest(seed), UniformDigest(seed), GaussianDigest(seed),
          UniformIntDigest(seed), ForkChainDigest(seed)};
}

TEST(RngStreamPinTest, StreamsArePinned) {
  const StreamDigests pinned[] = {
      {0xd5169a243c6dbe8eULL, 0xc2ba6df0ccc2f095ULL, 0xf5018b4c67ec0598ULL,
       0xbc361fb433cde158ULL, 0x28de2beddaf17bf3ULL},
      {0xd1cc86c5d4c189ecULL, 0xf9312eafd92af4a9ULL, 0x8148be77adaebb7aULL,
       0xea19eb2a89c90616ULL, 0xf06287a0ed81174bULL},
      {0xb59c3004d59af633ULL, 0xe77767fe7681cf11ULL, 0xf7f978eeccc066c9ULL,
       0xcdcab672f42d30a3ULL, 0xa4c85af64eae0657ULL},
      {0xfe8736ca2fdc3046ULL, 0xccb419ca8d09004fULL, 0xbbc784cf76011e90ULL,
       0x09b9e5c06562d43cULL, 0xb33a6d32224732dcULL},
  };
  for (size_t i = 0; i < std::size(kPinnedSeeds); ++i) {
    const uint64_t seed = kPinnedSeeds[i];
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const StreamDigests got = DigestsOf(seed);
    EXPECT_EQ(got.raw, pinned[i].raw);
    EXPECT_EQ(got.uniform, pinned[i].uniform);
    EXPECT_EQ(got.uniform_int, pinned[i].uniform_int);
    EXPECT_EQ(got.fork_chain, pinned[i].fork_chain);
    EXPECT_EQ(got.gaussian, pinned[i].gaussian);
  }
}

// SaveState after an odd number of Gaussians carries the polar method's
// spare deviate; after an even number it carries none. Stored sweep
// snapshots hold this text, so it is pinned as well.
TEST(RngStreamPinTest, SaveStateTextIsPinned) {
  const std::string params =
      " 0.00000000000000000e+00 1.00000000000000000e+00"
      " 0.00000000000000000e+00 1.00000000000000000e+00";
  const struct {
    int gaussians;
    uint64_t digest;
    std::string tail;
  } pins[] = {
      {3, 0x95c2bab7277696cbULL, params + " 1 -1.06876072121761978e+00"},
      {4, 0x485ca263e6d7237dULL, " 4" + params + " 0"},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE(::testing::Message() << pin.gaussians << " gaussians");
    Rng rng(2025);
    for (int i = 0; i < pin.gaussians; ++i) rng.Gaussian();
    const std::string state = rng.SaveState();
    EXPECT_EQ(Hasher64().MixString(state).digest(), pin.digest);
    ASSERT_GE(state.size(), pin.tail.size());
    EXPECT_EQ(state.substr(state.size() - pin.tail.size()), pin.tail);
  }
}

#if defined(__GLIBCXX__)
// Differential test against libstdc++'s <random>: Rng must draw the same
// values as std::mt19937_64 driving std::uniform_real_distribution and
// std::normal_distribution, and write the same state text.

/// The std generator triple Rng reproduces.
struct StdStream {
  explicit StdStream(uint64_t seed) : engine(seed) {}
  std::string State() const {
    std::ostringstream out;
    out << engine << ' ' << unit << ' ' << normal;
    return out.str();
  }
  std::mt19937_64 engine;
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  std::normal_distribution<double> normal{0.0, 1.0};
};

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(RngDifferentialTest, MatchesLibstdcxxValuesAndStateText) {
  Rng picker(99);
  for (int s = 0; s < 200; ++s) {
    const uint64_t seed = s < 4 ? kPinnedSeeds[s] : picker.engine()();
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    StdStream reference(seed);
    // Runs of each kind of draw, of seeded lengths, so the spare and the
    // engine index land everywhere.
    for (int run = 0; run < 40; ++run) {
      const int kind = static_cast<int>(picker.UniformInt(3));
      const int length = 1 + static_cast<int>(picker.UniformInt(9));
      for (int d = 0; d < length; ++d) {
        if (kind == 0) {
          ASSERT_EQ(rng.engine()(), reference.engine());
        } else if (kind == 1) {
          ASSERT_EQ(Bits(rng.Uniform()),
                    Bits(reference.unit(reference.engine)));
        } else {
          ASSERT_EQ(Bits(rng.Gaussian()),
                    Bits(reference.normal(reference.engine)));
        }
      }
      if (run % 8 == 7) {
        ASSERT_EQ(rng.SaveState(), reference.State()) << "run " << run;
      }
    }
  }
}

TEST(RngDifferentialTest, LoadStateResumesTheStdStream) {
  for (int gaussians : {0, 1, 2, 7}) {
    SCOPED_TRACE(::testing::Message() << gaussians << " gaussians");
    StdStream reference(31337);
    for (int i = 0; i < gaussians; ++i) reference.normal(reference.engine);
    Rng rng(0);
    ASSERT_TRUE(rng.LoadState(reference.State()).ok());
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(Bits(rng.Gaussian()),
                Bits(reference.normal(reference.engine)));
      ASSERT_EQ(Bits(rng.Uniform()), Bits(reference.unit(reference.engine)));
      ASSERT_EQ(rng.engine()(), reference.engine());
    }
    EXPECT_EQ(rng.SaveState(), reference.State());
  }
}

/// Inverts MT19937-64's output tempering: the state word whose draw is
/// `draw`.
uint64_t Untemper(uint64_t draw) {
  uint64_t z = draw ^ (draw >> 43);
  z ^= (z << 37) & 0xFFF7EEE000000000ULL;
  uint64_t y = z;
  for (int i = 0; i < 4; ++i) y = z ^ ((y << 17) & 0x71D67FFFEDA60000ULL);
  z = y;
  for (int i = 0; i < 3; ++i) y = z ^ ((y >> 29) & 0x5555555555555555ULL);
  return y;
}

// Draws of 2^64 - 2^10 and above round to 2^64 as doubles; the std
// canonical generator then returns the largest double below 1, and so
// must Uniform.
TEST(RngDifferentialTest, UniformClampsDrawsThatRoundToOne) {
  for (uint64_t draw : {~0ULL, ~0ULL - 1023, ~0ULL - 1024, ~0ULL - 4096,
                        0ULL}) {
    SCOPED_TRACE(::testing::Message() << "draw " << draw);
    // After one draw the engine's index is 1: overwrite that state word
    // with the pre-image of `draw`.
    StdStream reference(7);
    reference.engine();
    std::ostringstream words;
    words << reference.engine;
    std::istringstream in(words.str());
    uint64_t state[313];
    for (uint64_t& word : state) in >> word;
    ASSERT_EQ(state[312], 1u);
    state[1] = Untemper(draw);
    std::ostringstream edited;
    for (int i = 0; i < 312; ++i) edited << state[i] << ' ';
    edited << state[312];
    std::istringstream edited_in(edited.str());
    edited_in >> reference.engine;
    ASSERT_EQ(std::mt19937_64(reference.engine)(), draw);

    Rng rng(0);
    ASSERT_TRUE(rng.LoadState(reference.State()).ok());
    const double u = rng.Uniform();
    EXPECT_EQ(Bits(u), Bits(reference.unit(reference.engine)));
    EXPECT_LT(u, 1.0);
    if (draw >= ~0ULL - 1023) {
      EXPECT_EQ(u, std::nextafter(1.0, 0.0));
    }
  }
}
#endif  // __GLIBCXX__

}  // namespace
}  // namespace fedshap
