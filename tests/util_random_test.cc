#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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
uint64_t TwoDivisionUniformInt(std::mt19937_64& engine, uint64_t n) {
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

TEST(RngTest, ShuffleKeepsMultiset) {
  Rng rng(61);
  std::vector<int> items = {5, 5, 1, 2, 9};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::sort(items.begin(), items.end());
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(items, shuffled);
}

}  // namespace
}  // namespace fedshap
