/// Kernel-equivalence suite: every batched kernel of ml/matrix.h is
/// cross-checked against a naive scalar reference on randomized shapes
/// (including non-multiple-of-tile sizes that exercise the remainder
/// paths), every model's per-step gradient from
/// ComputeGradientBatched is cross-checked against the per-example
/// reference ComputeGradient, and so is a whole TrainSgd run against a
/// per-example reference loop. The tolerance contract is the one
/// documented in ml/matrix.h: |batched - reference| <= kKernelAbsTol +
/// kKernelRelTol * |reference| per element; element-wise kernels must
/// match to float rounding.
///
/// The whole suite is *parameterized over every kernel backend this
/// machine can execute* (scalar and AVX2 — see
/// ml/kernel_backend.h): each TEST_P below runs once per backend with
/// the dispatch table pinned to it, so a vector backend that drifts
/// from the contract fails here by name. Every kernel-table entry is
/// additionally cross-checked *bitwise* against the scalar backend.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ml/cnn.h"
#include "ml/exp.h"
#include "ml/kernel_backend.h"
#include "ml/linear_regression.h"
#include "ml/logistic_regression.h"
#include "ml/matrix.h"
#include "ml/mlp.h"
#include "ml/model.h"
#include "ml/sgd.h"
#include "test_util.h"
#include "util/logging.h"
#include "util/random.h"

namespace fedshap {
namespace {

std::vector<float> RandomBuffer(size_t n, Rng& rng, double lo = -1.0,
                                double hi = 1.0) {
  std::vector<float> buf(n);
  for (float& v : buf) v = static_cast<float>(rng.Uniform(lo, hi));
  return buf;
}

void ExpectAllClose(const std::vector<float>& actual,
                    const std::vector<float>& reference,
                    const char* what) {
  ASSERT_EQ(actual.size(), reference.size()) << what;
  for (size_t i = 0; i < actual.size(); ++i) {
    const float tol =
        kKernelAbsTol + kKernelRelTol * std::fabs(reference[i]);
    EXPECT_NEAR(actual[i], reference[i], tol)
        << what << " element " << i;
  }
}

using testing_util::ExecutableBackends;

/// Pins the dispatch table to the parameter backend for the test body,
/// restoring the entry backend afterwards.
class KernelBackendSuite : public ::testing::TestWithParam<KernelBackend> {
 protected:
  void SetUp() override {
    original_ = SelectedKernelBackend();
    ASSERT_TRUE(SetKernelBackend(GetParam()).ok());
  }
  void TearDown() override {
    ASSERT_TRUE(SetKernelBackend(original_).ok());
  }

 private:
  KernelBackend original_ = KernelBackend::kScalar;
};

INSTANTIATE_TEST_SUITE_P(
    AllBackends, KernelBackendSuite,
    ::testing::ValuesIn(ExecutableBackends()),
    [](const ::testing::TestParamInfo<KernelBackend>& info) {
      return std::string(KernelBackendName(info.param));
    });

/// Random shapes that exercise the 4-row / 2-k remainder paths: every
/// dimension is drawn from [1, 40] so tiles of 4 and unrolls of 2 hit
/// partial iterations constantly.
struct Shape {
  size_t m, k, n;
};

std::vector<Shape> RandomShapes(uint64_t seed) {
  Rng rng(seed);
  std::vector<Shape> shapes;
  for (int i = 0; i < 12; ++i) {
    shapes.push_back({static_cast<size_t>(rng.UniformInt(1, 40)),
                      static_cast<size_t>(rng.UniformInt(1, 40)),
                      static_cast<size_t>(rng.UniformInt(1, 40))});
  }
  // Pin the corners: single row/col/reduction, and a larger-than-panel k.
  shapes.push_back({1, 1, 1});
  shapes.push_back({4, 300, 8});
  shapes.push_back({32, 64, 16});
  return shapes;
}

// ---------------------------------------------------------------------------
// Raw kernel cross-checks

TEST_P(KernelBackendSuite, MatMulMatchesNaive) {
  for (Shape s : RandomShapes(11)) {
    Rng rng(s.m * 131 + s.k * 17 + s.n);
    std::vector<float> a = RandomBuffer(s.m * s.k, rng);
    std::vector<float> b = RandomBuffer(s.k * s.n, rng);
    std::vector<float> c(s.m * s.n, -7.0f);  // stale content must vanish
    MatMul(a.data(), s.m, s.k, b.data(), s.n, c.data());
    std::vector<float> ref(s.m * s.n, 0.0f);
    for (size_t i = 0; i < s.m; ++i) {
      for (size_t j = 0; j < s.n; ++j) {
        float acc = 0.0f;
        for (size_t kk = 0; kk < s.k; ++kk) {
          acc += a[i * s.k + kk] * b[kk * s.n + j];
        }
        ref[i * s.n + j] = acc;
      }
    }
    ExpectAllClose(c, ref, "MatMul");
  }
}

TEST_P(KernelBackendSuite, MatMulAccAccumulatesOntoSeed) {
  for (Shape s : RandomShapes(13)) {
    Rng rng(s.m * 7 + s.k * 3 + s.n);
    std::vector<float> a = RandomBuffer(s.m * s.k, rng);
    std::vector<float> b = RandomBuffer(s.k * s.n, rng);
    std::vector<float> seed = RandomBuffer(s.m * s.n, rng);
    std::vector<float> c = seed;
    MatMulAcc(a.data(), s.m, s.k, b.data(), s.n, c.data());
    std::vector<float> ref = seed;
    for (size_t i = 0; i < s.m; ++i) {
      for (size_t j = 0; j < s.n; ++j) {
        float acc = 0.0f;
        for (size_t kk = 0; kk < s.k; ++kk) {
          acc += a[i * s.k + kk] * b[kk * s.n + j];
        }
        ref[i * s.n + j] += acc;
      }
    }
    ExpectAllClose(c, ref, "MatMulAcc");
  }
}

/// The logistic-regression step as separate kernels compose it: Gather
/// + Transpose + MatMul for the logits, AddBiasRows, SoftmaxRows, the
/// label deltas, AddOuterBatch with alpha 1/bsz and ColumnSums. `deltas`
/// receives the bsz x classes logit deltas.
void ComposedLogRegStep(const Dataset& data, const std::vector<size_t>& batch,
                        const std::vector<float>& params, size_t dim,
                        size_t classes, std::vector<float>& grad,
                        std::vector<float>& deltas) {
  const size_t bsz = batch.size();
  const size_t weight_count = classes * dim;
  const float inv = 1.0f / static_cast<float>(bsz);
  AlignedFloats xb, wt(dim * classes);
  GatherRows(data, batch, xb);
  Transpose(params.data(), classes, dim, wt.data());
  deltas.assign(bsz * classes, 0.0f);
  MatMul(xb.data(), bsz, dim, wt.data(), classes, deltas.data());
  AddBiasRows(deltas.data(), bsz, classes, params.data() + weight_count);
  SoftmaxRows(deltas.data(), bsz, classes);
  for (size_t i = 0; i < bsz; ++i) {
    deltas[i * classes + data.ClassLabel(batch[i])] -= 1.0f;
  }
  grad.assign(params.size(), 0.0f);
  AddOuterBatch(grad.data(), classes, dim, inv, deltas.data(), xb.data(),
                bsz);
  ColumnSums(deltas.data(), bsz, classes, grad.data() + weight_count);
  for (size_t c = 0; c < classes; ++c) grad[weight_count + c] *= inv;
}

/// Batch pairs (rows 2p, 2p + 1) with a class whose two deltas are both
/// exactly zero: the pairs AddOuterBatch skips.
size_t ZeroDeltaPairs(const std::vector<float>& deltas, size_t bsz,
                      size_t classes) {
  size_t pairs = 0;
  for (size_t s = 0; s + 2 <= bsz; s += 2) {
    for (size_t c = 0; c < classes; ++c) {
      if (deltas[s * classes + c] == 0.0f &&
          deltas[(s + 1) * classes + c] == 0.0f) {
        ++pairs;
      }
    }
  }
  return pairs;
}

/// LogisticRegression::ComputeGradientBatched (the fused LogRegGradient)
/// against ComposedLogRegStep, every gradient element bit for bit, into a
/// NaN-filled gradient so an element left unwritten shows.
void ExpectStepMatchesComposition(const LogisticRegression& model,
                                  const Dataset& data,
                                  const std::vector<size_t>& batch,
                                  std::vector<float>* deltas = nullptr) {
  const size_t dim = static_cast<size_t>(model.NumFeatures());
  const size_t classes = static_cast<size_t>(model.NumOutputs());
  std::vector<float> expected_grad, expected_deltas;
  ComposedLogRegStep(data, batch, model.GetParameters(), dim, classes,
                     expected_grad, expected_deltas);
  std::vector<float> grad(model.NumParameters(), std::nanf(""));
  model.ComputeGradientBatched(data, batch, grad);
  ASSERT_EQ(grad.size(), expected_grad.size());
  for (size_t i = 0; i < grad.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(grad[i]),
              std::bit_cast<uint32_t>(expected_grad[i]))
        << "gradient element " << i << " (" << (i < classes * dim ? "W" : "b")
        << ")";
  }
  if (deltas != nullptr) *deltas = std::move(expected_deltas);
}

TEST_P(KernelBackendSuite, LogRegGradientMatchesKernelCompositionBitwise) {
  // classes cross AVX2's four-class logit passes and its single-class
  // tail, and 70 the 64 classes a block keeps on the stack; bsz the 4-row
  // tiles, 8-row blocks and a 256-row batch; dim the pair unroll and
  // AddOuterBatch's 8-lane columns and masked tail.
  constexpr size_t kRows = 300;
  for (size_t classes : {2, 5, 8, 9, 10, 17, 70}) {
    for (size_t dim : {1, 7, 36, 64}) {
      Rng rng(classes * 101 + dim);
      Result<Dataset> created =
          Dataset::Create(static_cast<int>(dim), static_cast<int>(classes));
      ASSERT_TRUE(created.ok());
      Dataset data = std::move(created).value();
      for (size_t i = 0; i < kRows; ++i) {
        data.Append(RandomBuffer(dim, rng, -2.0, 2.0),
                    static_cast<float>(rng.UniformInt(classes)));
      }
      LogisticRegression model(static_cast<int>(dim),
                               static_cast<int>(classes));
      ASSERT_TRUE(
          model.SetParameters(RandomBuffer(model.NumParameters(), rng)).ok());
      for (size_t bsz : {1, 2, 3, 13, 16, 17, 203, 256}) {
        SCOPED_TRACE(::testing::Message() << "classes=" << classes
                                          << " dim=" << dim << " bsz=" << bsz);
        std::vector<size_t> batch(bsz);
        for (size_t& index : batch) index = rng.UniformInt(kRows);
        ASSERT_NO_FATAL_FAILURE(
            ExpectStepMatchesComposition(model, data, batch));
      }
    }
  }
}

TEST_P(KernelBackendSuite, LogRegGradientSkipsZeroDeltaPairsBitwise) {
  // Row i is the unit vector e_(i % dim), and W gives feature f's class
  // (f % classes) a logit 400 above the rest, so expf underflows to 0
  // and every probability is exactly 0 or 1. Rows labeled with that
  // class have all-zero deltas; every fourth row is labeled with another
  // class. So pairs of the batch skip (both rows right, or a class
  // neither row involves) and others do not.
  for (size_t classes : {2, 5, 10, 17}) {
    for (size_t dim : {1, 7, 36, 64}) {
      Result<Dataset> created =
          Dataset::Create(static_cast<int>(dim), static_cast<int>(classes));
      ASSERT_TRUE(created.ok());
      Dataset data = std::move(created).value();
      for (size_t i = 0; i < 64; ++i) {
        std::vector<float> row(dim, 0.0f);
        row[i % dim] = 1.0f;
        const size_t winner = (i % dim) % classes;
        data.Append(row, static_cast<float>(i % 4 == 3 ? (winner + 1) % classes
                                                       : winner));
      }
      std::vector<float> params(classes * dim + classes, 0.0f);
      for (size_t c = 0; c < classes; ++c) {
        for (size_t f = 0; f < dim; ++f) {
          params[c * dim + f] = f % classes == c ? 200.0f : -200.0f;
        }
      }
      LogisticRegression model(static_cast<int>(dim),
                               static_cast<int>(classes));
      ASSERT_TRUE(model.SetParameters(params).ok());
      for (size_t bsz : {2, 13, 16, 64}) {
        SCOPED_TRACE(::testing::Message() << "classes=" << classes
                                          << " dim=" << dim << " bsz=" << bsz);
        std::vector<size_t> batch(bsz);
        std::iota(batch.begin(), batch.end(), size_t{0});
        std::vector<float> deltas;
        ASSERT_NO_FATAL_FAILURE(
            ExpectStepMatchesComposition(model, data, batch, &deltas));
        EXPECT_GT(ZeroDeltaPairs(deltas, bsz, classes), 0u);
      }
    }
  }
}

TEST_P(KernelBackendSuite, GatherRowsAndColumnsCopiesTheBatchBitwise) {
  // dim crosses AVX2's 8-feature transposes and 4-feature tail, batch its
  // groups of 8 rows; indices repeat, and the values include -0 and NaN.
  constexpr size_t kRows = 50;
  for (size_t dim : {1, 7, 8, 35, 36, 64}) {
    Rng rng(dim);
    Result<Dataset> created = Dataset::Create(static_cast<int>(dim), 3);
    ASSERT_TRUE(created.ok());
    Dataset data = std::move(created).value();
    for (size_t i = 0; i < kRows; ++i) {
      std::vector<float> row = RandomBuffer(dim, rng);
      row[i % dim] = i % 2 == 0 ? -0.0f : std::nanf("");
      data.Append(row, static_cast<float>(i % 3));
    }
    for (size_t bsz : {1, 7, 8, 13, 16, 17, 64}) {
      SCOPED_TRACE(::testing::Message() << "dim=" << dim << " batch=" << bsz);
      std::vector<size_t> batch(bsz);
      for (size_t& index : batch) index = rng.UniformInt(kRows);
      batch[bsz - 1] = batch[0];
      AlignedFloats rows, cols;
      GatherRowsAndColumns(data, batch, rows, cols);
      ASSERT_EQ(rows.size(), bsz * dim);
      ASSERT_EQ(cols.size(), dim * bsz);
      for (size_t f = 0; f < dim; ++f) {
        const float* column = data.Column(static_cast<int>(f));
        for (size_t b = 0; b < bsz; ++b) {
          const uint32_t expected = std::bit_cast<uint32_t>(column[batch[b]]);
          ASSERT_EQ(std::bit_cast<uint32_t>(rows[b * dim + f]), expected)
              << "row " << b << " feature " << f;
          ASSERT_EQ(std::bit_cast<uint32_t>(cols[f * bsz + b]), expected)
              << "row " << b << " feature " << f;
        }
      }
    }
  }
}

TEST_P(KernelBackendSuite, MatTMatMatchesNaive) {
  for (Shape s : RandomShapes(17)) {
    // Here m is the shared (batch) dimension: a is m x k, b is m x n.
    Rng rng(s.m + s.k * 29 + s.n * 5);
    std::vector<float> a = RandomBuffer(s.m * s.k, rng);
    std::vector<float> b = RandomBuffer(s.m * s.n, rng);
    std::vector<float> c(s.k * s.n, 3.0f);
    MatTMat(a.data(), s.m, s.k, b.data(), s.n, c.data());
    std::vector<float> ref(s.k * s.n, 0.0f);
    for (size_t r = 0; r < s.m; ++r) {
      for (size_t kk = 0; kk < s.k; ++kk) {
        for (size_t j = 0; j < s.n; ++j) {
          ref[kk * s.n + j] += a[r * s.k + kk] * b[r * s.n + j];
        }
      }
    }
    ExpectAllClose(c, ref, "MatTMat");
  }
}

TEST_P(KernelBackendSuite, AddOuterBatchMatchesNaiveWithAlphaAndSparsity) {
  for (Shape s : RandomShapes(19)) {
    Rng rng(s.m * 41 + s.k + s.n * 11);
    const float alpha = static_cast<float>(rng.Uniform(0.25, 2.0));
    // a gets exact zeros to exercise the skip path.
    std::vector<float> a = RandomBuffer(s.m * s.k, rng);
    for (float& v : a) {
      if (rng.Bernoulli(0.4)) v = 0.0f;
    }
    std::vector<float> b = RandomBuffer(s.m * s.n, rng);
    std::vector<float> seed = RandomBuffer(s.k * s.n, rng);
    std::vector<float> acc = seed;
    AddOuterBatch(acc.data(), s.k, s.n, alpha, a.data(), b.data(), s.m);
    std::vector<float> ref = seed;
    for (size_t r = 0; r < s.m; ++r) {
      for (size_t kk = 0; kk < s.k; ++kk) {
        for (size_t j = 0; j < s.n; ++j) {
          ref[kk * s.n + j] += alpha * a[r * s.k + kk] * b[r * s.n + j];
        }
      }
    }
    ExpectAllClose(acc, ref, "AddOuterBatch");
  }
}

TEST(KernelEquivalence, TransposeIsExact) {
  for (Shape s : RandomShapes(23)) {
    Rng rng(s.m + s.n);
    std::vector<float> a = RandomBuffer(s.m * s.n, rng);
    std::vector<float> out(s.m * s.n, 0.0f);
    Transpose(a.data(), s.m, s.n, out.data());
    for (size_t r = 0; r < s.m; ++r) {
      for (size_t c = 0; c < s.n; ++c) {
        EXPECT_EQ(out[c * s.m + r], a[r * s.n + c]);
      }
    }
    // Also the > 32x32 blocked path.
    std::vector<float> big = RandomBuffer(48 * 50, rng);
    std::vector<float> big_t(48 * 50, 0.0f);
    Transpose(big.data(), 48, 50, big_t.data());
    for (size_t r = 0; r < 48; ++r) {
      for (size_t c = 0; c < 50; ++c) {
        EXPECT_EQ(big_t[c * 48 + r], big[r * 50 + c]);
      }
    }
  }
}

TEST_P(KernelBackendSuite, BiasReluAndMaskKernelsAreExact) {
  Rng rng(29);
  const size_t rows = 13, cols = 27;
  std::vector<float> m = RandomBuffer(rows * cols, rng);
  std::vector<float> bias = RandomBuffer(cols, rng);

  std::vector<float> plain = m;
  AddBiasRows(plain.data(), rows, cols, bias.data());
  std::vector<float> fused = m;
  AddBiasReluRows(fused.data(), rows, cols, bias.data());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const float expected = m[r * cols + c] + bias[c];
      EXPECT_FLOAT_EQ(plain[r * cols + c], expected);
      EXPECT_FLOAT_EQ(fused[r * cols + c],
                      expected > 0.0f ? expected : 0.0f);
    }
  }

  std::vector<float> delta = RandomBuffer(rows * cols, rng);
  std::vector<float> masked = delta;
  ReluMaskBackward(masked.data(), fused.data(), rows * cols);
  for (size_t i = 0; i < rows * cols; ++i) {
    EXPECT_FLOAT_EQ(masked[i], fused[i] > 0.0f ? delta[i] : 0.0f);
  }
}

TEST_P(KernelBackendSuite, SoftmaxRowsMatchesSoftmaxInPlaceBitwise) {
  Rng rng(31);
  const size_t rows = 9;
  // cols 4, 5 and 12 reach AVX2's 4-lane divide tail, 10 its scalar one.
  for (size_t cols : {4, 5, 10, 12}) {
    std::vector<float> m = RandomBuffer(rows * cols, rng, -4.0, 4.0);
    std::vector<float> batched = m;
    SoftmaxRows(batched.data(), rows, cols);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<float> row(m.begin() + r * cols,
                             m.begin() + (r + 1) * cols);
      SoftmaxInPlace(row);
      for (size_t c = 0; c < cols; ++c) {
        EXPECT_EQ(std::bit_cast<uint32_t>(batched[r * cols + c]),
                  std::bit_cast<uint32_t>(row[c]))
            << "cols " << cols << " row " << r;
      }
    }
  }
}

TEST_P(KernelBackendSuite, ColumnSumsMatchesRowOrderAccumulationBitwise) {
  Rng rng(37);
  const size_t rows = 21, cols = 15;
  std::vector<float> m = RandomBuffer(rows * cols, rng);
  std::vector<float> out(cols, 99.0f);
  ColumnSums(m.data(), rows, cols, out.data());
  std::vector<float> ref(cols, 0.0f);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) ref[c] += m[r * cols + c];
  }
  for (size_t c = 0; c < cols; ++c) EXPECT_EQ(out[c], ref[c]);
}

TEST_P(KernelBackendSuite, FusedSgdStepsMatchScalarLoops) {
  Rng rng(41);
  const size_t n = 137;  // odd length: exercises vector tails
  const float lr = 0.05f, wd = 1e-3f, momentum = 0.9f, mu = 0.01f;
  std::vector<float> p0 = RandomBuffer(n, rng);
  std::vector<float> g = RandomBuffer(n, rng);
  std::vector<float> v0 = RandomBuffer(n, rng);
  std::vector<float> ref_buf = RandomBuffer(n, rng);

  std::vector<float> p = p0;
  SgdStep(p.data(), g.data(), n, lr, wd);
  for (size_t i = 0; i < n; ++i) {
    const float expected = p0[i] - lr * (g[i] + wd * p0[i]);
    EXPECT_FLOAT_EQ(p[i], expected);
  }

  p = p0;
  std::vector<float> v = v0;
  SgdMomentumStep(p.data(), v.data(), g.data(), n, lr, momentum, wd);
  for (size_t i = 0; i < n; ++i) {
    const float ev = momentum * v0[i] + g[i] + wd * p0[i];
    EXPECT_FLOAT_EQ(v[i], ev);
    EXPECT_FLOAT_EQ(p[i], p0[i] - lr * ev);
  }

  std::vector<float> g2 = g;
  AddProximal(g2.data(), p0.data(), ref_buf.data(), n, mu);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(g2[i], g[i] + mu * (p0[i] - ref_buf[i]));
  }
}

// ---------------------------------------------------------------------------
// Model-level equivalence: batched vs per-example reference on randomized
// shapes and batch sizes (1 exercises the degenerate minibatch, odd sizes
// the remainder tiles).

void ExpectGradientEquivalent(const Model& model, const Dataset& data,
                              size_t batch_size, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> batch;
  std::vector<int> picks = rng.SampleWithoutReplacement(
      static_cast<int>(data.size()),
      static_cast<int>(std::min(batch_size, data.size())));
  for (int p : picks) batch.push_back(static_cast<size_t>(p));

  std::vector<float> ref_grad, batched_grad;
  model.ComputeGradient(data, batch, ref_grad);
  model.ComputeGradientBatched(data, batch, batched_grad);
  ExpectAllClose(batched_grad, ref_grad, model.Name().c_str());
}

Dataset RandomClassificationData(int dim, int classes, size_t rows,
                                 uint64_t seed) {
  Rng rng(seed);
  Result<Dataset> data = GenerateBlobs(classes, dim, 3.0, rows, rng);
  FEDSHAP_CHECK(data.ok());
  return std::move(data).value();
}

TEST(ModelEquivalence, LinearRegressionBatchedMatchesReference) {
  Rng shape_rng(43);
  for (int trial = 0; trial < 6; ++trial) {
    const int dim = static_cast<int>(shape_rng.UniformInt(1, 48));
    Result<Dataset> data = Dataset::Create(dim, 0);
    ASSERT_TRUE(data.ok());
    Rng rng(1000 + trial);
    std::vector<float> row(dim);
    for (int i = 0; i < 64; ++i) {
      for (float& v : row) v = static_cast<float>(rng.Gaussian());
      data->Append(row, static_cast<float>(rng.Gaussian()));
    }
    LinearRegression model(dim);
    model.InitializeParameters(rng);
    for (size_t batch : {size_t{1}, size_t{7}, size_t{32}, size_t{64}}) {
      ExpectGradientEquivalent(model, *data, batch, 77 + trial);
    }
  }
}

TEST(ModelEquivalence, LogisticRegressionBatchedMatchesReference) {
  Rng shape_rng(47);
  for (int trial = 0; trial < 6; ++trial) {
    const int dim = static_cast<int>(shape_rng.UniformInt(1, 40));
    const int classes = static_cast<int>(shape_rng.UniformInt(2, 11));
    Dataset data = RandomClassificationData(dim, classes, 64, 2000 + trial);
    LogisticRegression model(dim, classes);
    Rng rng(3000 + trial);
    model.InitializeParameters(rng);
    for (size_t batch : {size_t{1}, size_t{5}, size_t{32}, size_t{64}}) {
      ExpectGradientEquivalent(model, data, batch, 87 + trial);
    }
  }
}

TEST_P(KernelBackendSuite, MlpBatchedMatchesReference) {
  Rng shape_rng(53);
  for (int trial = 0; trial < 6; ++trial) {
    const int dim = static_cast<int>(shape_rng.UniformInt(2, 48));
    const int hidden = static_cast<int>(shape_rng.UniformInt(1, 24));
    const int classes = static_cast<int>(shape_rng.UniformInt(2, 11));
    Dataset data = RandomClassificationData(dim, classes, 64, 4000 + trial);
    Mlp model(dim, hidden, classes);
    Rng rng(5000 + trial);
    model.InitializeParameters(rng);
    for (size_t batch : {size_t{1}, size_t{9}, size_t{32}, size_t{64}}) {
      ExpectGradientEquivalent(model, data, batch, 97 + trial);
    }
  }
}

TEST_P(KernelBackendSuite, CnnBatchedMatchesReference) {
  Rng shape_rng(59);
  for (int trial = 0; trial < 4; ++trial) {
    const int side = static_cast<int>(shape_rng.UniformInt(6, 10));
    const int filters = static_cast<int>(shape_rng.UniformInt(1, 5));
    const int classes = static_cast<int>(shape_rng.UniformInt(2, 8));
    DigitsConfig config;
    config.image_size = side;
    config.num_classes = classes;
    Rng data_rng(6000 + trial);
    Result<FederatedSource> source = GenerateDigits(config, 64, data_rng);
    ASSERT_TRUE(source.ok());
    Cnn model(side, filters, classes);
    Rng rng(7000 + trial);
    model.InitializeParameters(rng);
    for (size_t batch : {size_t{1}, size_t{11}, size_t{32}}) {
      ExpectGradientEquivalent(model, source->data, batch, 107 + trial);
    }
  }
}

TEST(ModelEquivalence, BatchedGradientAgreesWithNumericalGradient) {
  // Independent of the reference path: the batched gradient must also
  // descend the true loss surface.
  Dataset data = RandomClassificationData(6, 3, 24, 8080);
  Mlp model(6, 5, 3);
  Rng rng(909);
  model.InitializeParameters(rng);
  std::vector<size_t> batch;
  for (size_t i = 0; i < data.size(); ++i) batch.push_back(i);

  std::vector<float> analytic;
  model.ComputeGradientBatched(data, batch, analytic);
  std::vector<float> numeric = NumericalGradient(model, data, batch);
  ASSERT_EQ(analytic.size(), numeric.size());
  double dot = 0.0, na = 0.0, nn = 0.0;
  for (size_t i = 0; i < analytic.size(); ++i) {
    dot += static_cast<double>(analytic[i]) * numeric[i];
    na += static_cast<double>(analytic[i]) * analytic[i];
    nn += static_cast<double>(numeric[i]) * numeric[i];
  }
  ASSERT_GT(na, 0.0);
  ASSERT_GT(nn, 0.0);
  EXPECT_GT(dot / std::sqrt(na * nn), 0.999);
}

// ---------------------------------------------------------------------------
// Cross-backend checks: the scalar backend is the reference, and every
// kernel-table entry of every other backend matches it bit for bit (each
// body performs the scalar body's operations per element, in its order).

/// Runs `fn` under `backend`, restoring the entry backend afterwards.
template <typename Fn>
void WithBackend(KernelBackend backend, Fn fn) {
  const KernelBackend original = SelectedKernelBackend();
  ASSERT_TRUE(SetKernelBackend(backend).ok());
  fn();
  ASSERT_TRUE(SetKernelBackend(original).ok());
}

/// Each kernel's output, by kernel name.
using KernelOutputs = std::vector<std::pair<std::string, std::vector<float>>>;

/// Runs every kernel-table entry under the active backend on inputs drawn
/// from `seed`: MatMul (m x k by k x n) and MatTMat; AddOuterBatch,
/// LogRegGradient and GatherRowsAndColumns with batch m, k rows or
/// features and n columns, classes or batch rows; the element-wise
/// kernels on m x n. AddOuterBatch's coefficients include zeros of both
/// signs and its accumulator -0 entries, which an added +0 product would
/// turn into +0, so a skipped pair that touched its row shows.
KernelOutputs RunEveryKernel(Shape s, uint64_t seed) {
  Rng rng(seed);
  const size_t m = s.m, k = s.k, n = s.n;
  KernelOutputs out;
  const std::vector<float> a = RandomBuffer(m * k, rng);
  const std::vector<float> b = RandomBuffer(k * n, rng);
  const std::vector<float> mn = RandomBuffer(m * n, rng);
  std::vector<float> c(m * n, -1.0f);
  MatMul(a.data(), m, k, b.data(), n, c.data());
  out.emplace_back("MatMul", c);
  c.assign(k * n, 3.0f);
  MatTMat(a.data(), m, k, mn.data(), n, c.data());
  out.emplace_back("MatTMat", c);

  std::vector<float> coef = a;
  for (float& v : coef) {
    if (rng.Bernoulli(0.3)) v = rng.Bernoulli(0.5) ? 0.0f : -0.0f;
  }
  c = b;
  for (size_t i = 0; i < c.size(); i += 3) c[i] = -0.0f;
  AddOuterBatch(c.data(), k, n, 1.0f / 13.0f, coef.data(), mn.data(), m);
  out.emplace_back("AddOuterBatch", c);

  std::vector<float> at(k * m);
  Transpose(a.data(), m, k, at.data());
  const std::vector<float> params = RandomBuffer(n * k + n, rng);
  std::vector<int> labels(m);
  for (int& label : labels) label = static_cast<int>(rng.UniformInt(n));
  c.assign(params.size(), std::nanf(""));
  LogRegGradient(a.data(), at.data(), m, k, params.data(), n, labels.data(),
                 c.data());
  out.emplace_back("LogRegGradient", c);

  Result<Dataset> data = Dataset::Create(static_cast<int>(k), 2);
  FEDSHAP_CHECK(data.ok());
  for (size_t i = 0; i < m; ++i) {
    const auto row = a.begin() + static_cast<ptrdiff_t>(i * k);
    data->Append(std::vector<float>(row, row + static_cast<ptrdiff_t>(k)),
                 static_cast<float>(i % 2));
  }
  std::vector<size_t> batch(n);
  for (size_t& index : batch) index = rng.UniformInt(m);
  AlignedFloats rows, cols;
  GatherRowsAndColumns(*data, batch, rows, cols);
  out.emplace_back("GatherRowsAndColumns rows",
                   std::vector<float>(rows.begin(), rows.end()));
  out.emplace_back("GatherRowsAndColumns cols",
                   std::vector<float>(cols.begin(), cols.end()));

  const std::vector<float> bias = RandomBuffer(n, rng);
  c = mn;
  AddBiasRows(c.data(), m, n, bias.data());
  out.emplace_back("AddBiasRows", c);
  std::vector<float> relu = mn;
  AddBiasReluRows(relu.data(), m, n, bias.data());
  out.emplace_back("AddBiasReluRows", relu);
  c = RandomBuffer(m * n, rng);
  ReluMaskBackward(c.data(), relu.data(), m * n);
  out.emplace_back("ReluMaskBackward", c);
  c = RandomBuffer(m * n, rng, -4.0, 4.0);
  SoftmaxRows(c.data(), m, n);
  out.emplace_back("SoftmaxRows", c);
  c.assign(n, 99.0f);
  ColumnSums(mn.data(), m, n, c.data());
  out.emplace_back("ColumnSums", c);

  const float lr = 0.07f, wd = 2e-3f, momentum = 0.85f, mu = 0.02f;
  const std::vector<float> g = RandomBuffer(m * n, rng);
  std::vector<float> p = mn;
  SgdStep(p.data(), g.data(), m * n, lr, wd);
  out.emplace_back("SgdStep", p);
  p = mn;
  std::vector<float> v = RandomBuffer(m * n, rng);
  SgdMomentumStep(p.data(), v.data(), g.data(), m * n, lr, momentum, wd);
  out.emplace_back("SgdMomentumStep param", p);
  out.emplace_back("SgdMomentumStep velocity", v);
  c = g;
  AddProximal(c.data(), mn.data(), relu.data(), m * n, mu);
  out.emplace_back("AddProximal", c);
  return out;
}

TEST(CrossBackendEquivalence, EveryKernelMatchesScalarBitwise) {
  for (Shape s : RandomShapes(61)) {
    SCOPED_TRACE(::testing::Message()
                 << "m=" << s.m << " k=" << s.k << " n=" << s.n);
    const uint64_t seed = s.m * 3 + s.k * 7 + s.n * 13;
    KernelOutputs scalar;
    WithBackend(KernelBackend::kScalar,
                [&] { scalar = RunEveryKernel(s, seed); });
    for (KernelBackend backend : ExecutableBackends()) {
      if (backend == KernelBackend::kScalar) continue;
      SCOPED_TRACE(KernelBackendName(backend));
      KernelOutputs vec;
      WithBackend(backend, [&] { vec = RunEveryKernel(s, seed); });
      ASSERT_EQ(vec.size(), scalar.size());
      for (size_t i = 0; i < vec.size(); ++i) {
        const auto& [what, expected] = scalar[i];
        const std::vector<float>& actual = vec[i].second;
        ASSERT_EQ(actual.size(), expected.size()) << what;
        for (size_t e = 0; e < actual.size(); ++e) {
          ASSERT_EQ(std::bit_cast<uint32_t>(actual[e]),
                    std::bit_cast<uint32_t>(expected[e]))
              << what << " element " << e;
        }
      }
    }
  }
}

TEST(CrossBackendEquivalence, FixedBackendIsDeterministicAcrossRuns) {
  for (KernelBackend backend : ExecutableBackends()) {
    SCOPED_TRACE(KernelBackendName(backend));
    Rng rng(71);
    const size_t m = 13, k = 29, n = 21;
    std::vector<float> a = RandomBuffer(m * k, rng);
    std::vector<float> b = RandomBuffer(k * n, rng);
    std::vector<float> first(m * n), second(m * n);
    WithBackend(backend, [&] {
      MatMul(a.data(), m, k, b.data(), n, first.data());
      MatMul(a.data(), m, k, b.data(), n, second.data());
    });
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i], second[i]) << "element " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// The softmax exponential (ml/exp.h). Every backend's ExpArray returns
// the scalar Exp's bits, and Exp is within 1 ulp of exp, over every
// non-positive float.

/// |y - exp(x)| in ulps of exp(x)'s binade, with double exp as the
/// reference (its error is 2^-29 of a float ulp). Below FLT_MIN the ulp
/// is the least subnormal, 2^-149.
double ExpErrorUlps(float x, float y) {
  const double reference = std::exp(static_cast<double>(x));
  const int64_t binade = static_cast<int64_t>(
      (std::bit_cast<uint64_t>(reference) >> 52) & 0x7ff) - 1023;
  const double ulp = std::bit_cast<double>(
      static_cast<uint64_t>(std::max<int64_t>(binade, -126) - 23 + 1023)
      << 52);
  return std::fabs(static_cast<double>(y) - reference) / ulp;
}

TEST(ExpKernel, SpecialValues) {
  EXPECT_EQ(std::bit_cast<uint32_t>(Exp(-0.0f)),
            std::bit_cast<uint32_t>(1.0f));
  EXPECT_EQ(std::bit_cast<uint32_t>(Exp(0.0f)),
            std::bit_cast<uint32_t>(1.0f));
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(std::bit_cast<uint32_t>(Exp(-inf)), 0u);
  EXPECT_EQ(std::bit_cast<uint32_t>(Exp(-104.0f)), 0u);
  EXPECT_EQ(std::bit_cast<uint32_t>(Exp(-176.0f)), 0u);
  EXPECT_EQ(std::bit_cast<uint32_t>(Exp(-std::numeric_limits<float>::max())),
            0u);
  // The least subnormal, 2^-149, is exp(-103.28); exp(-88) is subnormal.
  EXPECT_EQ(Exp(-103.2f), std::numeric_limits<float>::denorm_min());
  EXPECT_LT(Exp(-88.0f), std::numeric_limits<float>::min());
  EXPECT_GT(Exp(-88.0f), 0.0f);
  // A NaN comes back as itself, quieted, on every backend.
  const std::vector<float> inputs = {
      -0.0f, 0.0f, -inf, -1.0f, -87.5f,
      std::bit_cast<float>(0x7fc00000u), std::bit_cast<float>(0xffc01234u),
      std::bit_cast<float>(0x7f800001u), std::bit_cast<float>(0xff812345u)};
  for (KernelBackend backend : ExecutableBackends()) {
    SCOPED_TRACE(KernelBackendName(backend));
    std::vector<float> out(inputs.size());
    WithBackend(backend,
                [&] { ExpArray(inputs.data(), inputs.size(), out.data()); });
    for (size_t i = 0; i < inputs.size(); ++i) {
      const uint32_t in = std::bit_cast<uint32_t>(inputs[i]);
      const uint32_t expected = std::isnan(inputs[i])
                                    ? in | 0x00400000u
                                    : std::bit_cast<uint32_t>(Exp(inputs[i]));
      EXPECT_EQ(std::bit_cast<uint32_t>(out[i]), expected) << "input " << in;
      EXPECT_EQ(std::bit_cast<uint32_t>(Exp(inputs[i])), expected)
          << "input " << in;
    }
  }
}

// The sweep covers the 2^31 floats with the sign bit set (-0 through -inf
// and the negative NaNs); SpecialValues covers +0 and the positive NaNs.
// The scalar backend's ExpArray is the scalar Exp (SpecialValues checks
// that too), and every other backend must return its bits. About 14 s in
// a Release build on a 2-vCPU AVX2 Xeon VM, 2 min under ASan+UBSan at -O1.
TEST(ExpKernel, EveryNonPositiveFloatMatchesAcrossBackendsWithinOneUlp) {
  constexpr size_t kChunk = size_t{1} << 16;
  std::vector<float> x(kChunk), expected(kChunk), actual(kChunk);
  double worst_ulps = 0.0;
  float worst_x = 0.0f;
  for (uint64_t begin = 0x80000000u; begin <= 0xffffffffu; begin += kChunk) {
    for (size_t i = 0; i < kChunk; ++i) {
      x[i] = std::bit_cast<float>(static_cast<uint32_t>(begin + i));
    }
    WithBackend(KernelBackend::kScalar,
                [&] { ExpArray(x.data(), kChunk, expected.data()); });
    for (size_t i = 0; i < kChunk; ++i) {
      // Where exp(x) has an obvious correct rounding, demand it: +0 below
      // -104 (exp(x) < 2^-150, half the least subnormal) and 1 above
      // -2^-26 (exp(x) > 1 - 2^-26).
      if (std::isnan(x[i])) {
        ASSERT_TRUE(std::isnan(expected[i])) << x[i];
      } else if (x[i] <= -104.0f) {
        ASSERT_EQ(std::bit_cast<uint32_t>(expected[i]), 0u) << x[i];
      } else if (x[i] > -0x1p-26f) {
        ASSERT_EQ(expected[i], 1.0f) << x[i];
      } else if (const double ulps = ExpErrorUlps(x[i], expected[i]);
                 ulps > worst_ulps) {
        worst_ulps = ulps;
        worst_x = x[i];
      }
    }
    for (KernelBackend backend : ExecutableBackends()) {
      if (backend == KernelBackend::kScalar) continue;
      WithBackend(backend,
                  [&] { ExpArray(x.data(), kChunk, actual.data()); });
      if (std::memcmp(actual.data(), expected.data(),
                      kChunk * sizeof(float)) == 0) {
        continue;
      }
      size_t i = 0;
      while (std::bit_cast<uint32_t>(actual[i]) ==
             std::bit_cast<uint32_t>(expected[i])) {
        ++i;
      }
      FAIL() << KernelBackendName(backend) << " differs from scalar Exp at "
             << std::hexfloat << x[i] << ": " << actual[i] << " vs "
             << expected[i];
    }
  }
  std::printf("Exp max error %.4f ulp at %a\n", worst_ulps, worst_x);
  EXPECT_LE(worst_ulps, 1.0) << std::hexfloat << worst_x;
}

// ---------------------------------------------------------------------------
// Backend selection: the names FEDSHAP_KERNEL_BACKEND accepts, and what
// auto-detection binds.

TEST(KernelBackendSelection, ParseAcceptsScalarAvx2AndAuto) {
  Result<KernelBackend> scalar = ParseKernelBackend("scalar");
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(*scalar, KernelBackend::kScalar);
  Result<KernelBackend> avx2 = ParseKernelBackend("avx2");
  ASSERT_TRUE(avx2.ok());
  EXPECT_EQ(*avx2, KernelBackend::kAvx2);
  Result<KernelBackend> automatic = ParseKernelBackend("auto");
  ASSERT_TRUE(automatic.ok());
  EXPECT_EQ(*automatic, AutoDetectKernelBackend());
}

TEST(KernelBackendSelection, ParseRejectsOtherNamesListingTheValidOnes) {
  for (const char* name : {"avx512", "AVX2", "sse4", ""}) {
    Result<KernelBackend> parsed = ParseKernelBackend(name);
    ASSERT_FALSE(parsed.ok()) << name;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(parsed.status().message().find("scalar | avx2 | auto"),
              std::string::npos)
        << parsed.status().message();
  }
}

TEST(KernelBackendSelection, AutoDetectBindsAvx2ExactlyWhenAvailable) {
  EXPECT_EQ(AutoDetectKernelBackend() == KernelBackend::kAvx2,
            KernelBackendAvailable(KernelBackend::kAvx2));
}

// ---------------------------------------------------------------------------
// One whole local training: TrainSgd against a per-example reference loop.

TEST(TrainSgdEquivalence, OneEpochParamsMatchWithinTolerance) {
  Dataset data = RandomClassificationData(10, 4, 48, 515);
  Mlp prototype(10, 8, 4);
  Rng init(616);
  prototype.InitializeParameters(init);
  const std::vector<float> start = prototype.GetParameters();

  SgdConfig config;
  config.epochs = 2;
  config.batch_size = 16;
  config.learning_rate = 0.2;
  config.momentum = 0.9;
  config.weight_decay = 1e-3;
  config.proximal_mu = 0.05;

  Mlp batched = prototype;
  Rng rng_a(42);
  ASSERT_TRUE(TrainSgd(batched, data, config, rng_a).ok());

  // The reference is TrainSgd's loop with the per-example ComputeGradient
  // in place of the batched one: the same shuffles, minibatches, proximal
  // term and momentum step.
  Mlp per_example = prototype;
  Rng rng_b(42);
  std::vector<float> p_ref = start;
  std::vector<float> velocity(p_ref.size(), 0.0f);
  std::vector<size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  const size_t batch_size = static_cast<size_t>(config.batch_size);
  std::vector<float> grad;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng_b.Shuffle(order);
    for (size_t begin = 0; begin < order.size(); begin += batch_size) {
      const std::vector<size_t> batch(
          order.begin() + begin,
          order.begin() + std::min(order.size(), begin + batch_size));
      per_example.ComputeGradient(data, batch, grad);
      AddProximal(grad.data(), p_ref.data(), start.data(), p_ref.size(),
                  static_cast<float>(config.proximal_mu));
      SgdMomentumStep(p_ref.data(), velocity.data(), grad.data(),
                      p_ref.size(), static_cast<float>(config.learning_rate),
                      static_cast<float>(config.momentum),
                      static_cast<float>(config.weight_decay));
      ASSERT_TRUE(per_example.SetParameters(p_ref).ok());
    }
  }

  // Both consumed the same shuffles, so batch order is identical;
  // parameters agree within the kernel tolerance (slightly relaxed: two
  // epochs of updates compound the per-step reassociation error).
  const std::vector<float> p_batched = batched.GetParameters();
  ASSERT_EQ(p_ref.size(), p_batched.size());
  for (size_t i = 0; i < p_ref.size(); ++i) {
    const float tol =
        10.0f * (kKernelAbsTol + kKernelRelTol * std::fabs(p_ref[i]));
    EXPECT_NEAR(p_batched[i], p_ref[i], tol) << "param " << i;
  }
  EXPECT_NEAR(batched.Loss(data), per_example.Loss(data), 1e-3);
}

}  // namespace
}  // namespace fedshap
