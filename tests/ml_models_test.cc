#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ml/cnn.h"
#include "ml/linear_regression.h"
#include "ml/logistic_regression.h"
#include "ml/matrix.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/model.h"
#include "ml/sgd.h"

namespace fedshap {
namespace {

/// Model factories for the parameterized gradient-check / training suite.
struct ModelCase {
  const char* name;
  bool classification;
  std::function<std::unique_ptr<Model>(int dim, int classes)> make;
};

std::vector<ModelCase> AllModelCases() {
  return {
      {"linreg", false,
       [](int dim, int) { return std::make_unique<LinearRegression>(dim); }},
      {"logreg", true,
       [](int dim, int classes) {
         return std::make_unique<LogisticRegression>(dim, classes);
       }},
      {"mlp", true,
       [](int dim, int classes) {
         return std::make_unique<Mlp>(dim, 8, classes);
       }},
      {"cnn", true,
       [](int dim, int classes) {
         const int side = static_cast<int>(std::lround(std::sqrt(dim)));
         return std::make_unique<Cnn>(side, 2, classes);
       }},
  };
}

class ModelSuite : public ::testing::TestWithParam<size_t> {
 protected:
  ModelCase Case() const { return AllModelCases()[GetParam()]; }

  /// Small dataset matching the model type. CNN wants square images.
  Dataset MakeData(size_t rows, uint64_t seed) const {
    Rng rng(seed);
    if (!Case().classification) {
      RegressionConfig config;
      config.dim = 6;
      config.noise_stddev = 0.3;
      Result<Dataset> data = GenerateRegression(config, rows, rng);
      EXPECT_TRUE(data.ok());
      return std::move(data).value();
    }
    if (std::string(Case().name) == "cnn") {
      DigitsConfig config;
      config.image_size = 8;
      config.num_classes = 3;
      Result<FederatedSource> source = GenerateDigits(config, rows, rng);
      EXPECT_TRUE(source.ok());
      return std::move(source->data);
    }
    Result<Dataset> data = GenerateBlobs(3, 6, 4.0, rows, rng);
    EXPECT_TRUE(data.ok());
    return std::move(data).value();
  }

  std::unique_ptr<Model> MakeModel(const Dataset& data,
                                   uint64_t seed) const {
    const int classes = data.num_classes() > 0 ? data.num_classes() : 2;
    std::unique_ptr<Model> model = Case().make(data.num_features(), classes);
    Rng rng(seed);
    model->InitializeParameters(rng);
    return model;
  }
};

TEST_P(ModelSuite, ParameterRoundTrip) {
  Dataset data = MakeData(10, 1);
  std::unique_ptr<Model> model = MakeModel(data, 2);
  std::vector<float> params = model->GetParameters();
  EXPECT_EQ(params.size(), model->NumParameters());
  // Perturb, set, read back.
  for (float& p : params) p += 0.25f;
  ASSERT_TRUE(model->SetParameters(params).ok());
  EXPECT_EQ(model->GetParameters(), params);
  // Wrong size rejected.
  params.push_back(0.0f);
  EXPECT_FALSE(model->SetParameters(params).ok());
}

TEST_P(ModelSuite, CloneIsDeepAndExact) {
  Dataset data = MakeData(10, 3);
  std::unique_ptr<Model> model = MakeModel(data, 4);
  std::unique_ptr<Model> clone = model->Clone();
  EXPECT_EQ(clone->GetParameters(), model->GetParameters());
  // Mutating the clone leaves the original untouched.
  std::vector<float> params = clone->GetParameters();
  params[0] += 1.0f;
  ASSERT_TRUE(clone->SetParameters(params).ok());
  EXPECT_NE(clone->GetParameters()[0], model->GetParameters()[0]);
}

TEST_P(ModelSuite, GradientMatchesNumericalEstimate) {
  Dataset data = MakeData(6, 5);
  std::unique_ptr<Model> model = MakeModel(data, 6);
  std::vector<size_t> batch(data.size());
  std::iota(batch.begin(), batch.end(), 0);

  std::vector<float> analytic;
  model->ComputeGradient(data, batch, analytic);
  std::vector<float> numeric = NumericalGradient(*model, data, batch, 1e-3f);
  ASSERT_EQ(analytic.size(), numeric.size());

  double dot = 0, norm_a = 0, norm_n = 0, max_abs_diff = 0;
  for (size_t i = 0; i < analytic.size(); ++i) {
    dot += static_cast<double>(analytic[i]) * numeric[i];
    norm_a += static_cast<double>(analytic[i]) * analytic[i];
    norm_n += static_cast<double>(numeric[i]) * numeric[i];
    max_abs_diff = std::max(
        max_abs_diff,
        std::fabs(static_cast<double>(analytic[i]) - numeric[i]));
  }
  ASSERT_GT(norm_a, 0.0);
  ASSERT_GT(norm_n, 0.0);
  const double cosine = dot / std::sqrt(norm_a * norm_n);
  EXPECT_GT(cosine, 0.999) << Case().name;
  // float32 central differences: absolute agreement is loose but bounded.
  EXPECT_LT(max_abs_diff, 0.05) << Case().name;
}

TEST_P(ModelSuite, EmptyBatchYieldsZeroGradient) {
  Dataset data = MakeData(5, 7);
  std::unique_ptr<Model> model = MakeModel(data, 8);
  std::vector<float> grad;
  model->ComputeGradient(data, {}, grad);
  EXPECT_EQ(grad.size(), model->NumParameters());
  for (float g : grad) EXPECT_EQ(g, 0.0f);
  model->ComputeGradientBatched(data, {}, grad);
  EXPECT_EQ(grad.size(), model->NumParameters());
  for (float g : grad) EXPECT_EQ(g, 0.0f);
}

TEST_P(ModelSuite, LossAtZeroParametersHasClosedForm) {
  // With every parameter zero a classifier predicts the uniform
  // distribution, so its cross-entropy is log(C) on any row; a regressor
  // predicts 0, so its loss is 0.5 * mean(y^2).
  Dataset data = MakeData(40, 22);
  std::unique_ptr<Model> model = MakeModel(data, 23);
  ASSERT_TRUE(
      model->SetParameters(std::vector<float>(model->NumParameters(), 0.0f))
          .ok());
  if (Case().classification) {
    EXPECT_NEAR(model->Loss(data), std::log(model->NumOutputs()), 1e-6)
        << Case().name;
  } else {
    double squares = 0.0;
    for (size_t i = 0; i < data.size(); ++i) {
      squares += static_cast<double>(data.Target(i)) * data.Target(i);
    }
    EXPECT_NEAR(model->Loss(data), 0.5 * squares / data.size(), 1e-12)
        << Case().name;
  }
  EXPECT_EQ(model->Loss(data.Subset({})), 0.0);
}

TEST_P(ModelSuite, SgdReducesLoss) {
  Dataset data = MakeData(200, 9);
  std::unique_ptr<Model> model = MakeModel(data, 10);
  const double initial_loss = model->Loss(data);
  SgdConfig config;
  config.epochs = 15;
  config.batch_size = 16;
  config.learning_rate = std::string(Case().name) == "linreg" ? 0.05 : 0.2;
  Rng rng(11);
  ASSERT_TRUE(TrainSgd(*model, data, config, rng).ok());
  EXPECT_LT(model->Loss(data), initial_loss * 0.9) << Case().name;
}

/// The per-example reference outputs of one row: the softmax
/// probabilities of a classifier's Forward, or w.x + b for LinearRegression
/// (which has no Forward).
std::vector<float> ReferenceOutputs(const Model& model, const float* x) {
  std::vector<float> out, hidden, conv, pooled;
  std::vector<int> argmax;
  if (const auto* m = dynamic_cast<const LogisticRegression*>(&model)) {
    m->Forward(x, out);
  } else if (const auto* m = dynamic_cast<const Mlp*>(&model)) {
    m->Forward(x, hidden, out);
  } else if (const auto* m = dynamic_cast<const Cnn*>(&model)) {
    m->Forward(x, conv, pooled, argmax, out);
  } else {
    const std::vector<float> params = model.GetParameters();
    const size_t dim = static_cast<size_t>(model.NumFeatures());
    double pred = params[dim];
    for (size_t d = 0; d < dim; ++d) pred += params[d] * x[d];
    out.assign(1, static_cast<float>(pred));
  }
  return out;
}

float KernelTolerance(float reference) {
  return kKernelAbsTol + kKernelRelTol * std::fabs(reference);
}

// ForwardBatch against the per-example reference, and the scores
// ScoreRows reads from it, on row counts either side of its 256-row
// chunk. A classifier's softmax of the logits stays within the kernel
// tolerance of Forward's probabilities, and its argmax is Forward's
// wherever the top two probabilities are further apart than their
// tolerances. Loss is the mean of the reference's per-row losses;
// accuracy counts the rows whose ForwardBatch argmax is the label.
TEST_P(ModelSuite, ForwardBatchMatchesReference) {
  const Dataset data = MakeData(257, 12);
  const std::unique_ptr<Model> model = MakeModel(data, 13);
  // InitializeParameters zeroes the biases; perturb every parameter so
  // the biases count too.
  std::vector<float> params = model->GetParameters();
  Rng rng(14);
  for (float& p : params) p += static_cast<float>(rng.Gaussian(0.0, 0.1));
  ASSERT_TRUE(model->SetParameters(params).ok());
  const size_t outputs = static_cast<size_t>(model->NumOutputs());
  std::vector<float> row(static_cast<size_t>(data.num_features()));
  for (size_t rows : {0, 1, 255, 256, 257}) {
    SCOPED_TRACE(::testing::Message() << rows << " rows");
    std::vector<size_t> batch(rows);
    std::iota(batch.begin(), batch.end(), 0);
    AlignedFloats xb;
    GatherRows(data, batch, xb);
    // One sentinel past the end: ForwardBatch writes rows x outputs.
    std::vector<float> out(rows * outputs + 1, -7.0f);
    model->ForwardBatch(xb.data(), rows, out.data());
    EXPECT_EQ(out.back(), -7.0f);
    double reference_loss = 0.0;
    size_t correct = 0;
    for (size_t i = 0; i < rows; ++i) {
      data.CopyRow(i, row.data());
      const std::vector<float> reference = ReferenceOutputs(*model, row.data());
      ASSERT_EQ(reference.size(), outputs);
      std::vector<float> batched(out.begin() + i * outputs,
                                 out.begin() + (i + 1) * outputs);
      if (!Case().classification) {
        EXPECT_NEAR(batched[0], reference[0], KernelTolerance(reference[0]))
            << "row " << i;
        const double err = static_cast<double>(reference[0]) - data.Target(i);
        reference_loss += 0.5 * err * err;
        continue;
      }
      const size_t arg = static_cast<size_t>(
          std::max_element(batched.begin(), batched.end()) - batched.begin());
      if (static_cast<int>(arg) == data.ClassLabel(i)) ++correct;
      reference_loss -= std::log(reference[data.ClassLabel(i)]);
      SoftmaxInPlace(batched);
      for (size_t c = 0; c < outputs; ++c) {
        EXPECT_NEAR(batched[c], reference[c], KernelTolerance(reference[c]))
            << "row " << i << " class " << c;
      }
      std::vector<float> sorted = reference;
      std::sort(sorted.rbegin(), sorted.rend());
      if (sorted[0] - sorted[1] >
          KernelTolerance(sorted[0]) + KernelTolerance(sorted[1])) {
        const size_t reference_arg = static_cast<size_t>(
            std::max_element(reference.begin(), reference.end()) -
            reference.begin());
        EXPECT_EQ(arg, reference_arg) << "row " << i;
      }
    }
    if (rows == 0) continue;
    const Dataset subset = data.Subset(batch);
    reference_loss /= static_cast<double>(rows);
    EXPECT_NEAR(model->Loss(subset), reference_loss,
                1e-3 * (1.0 + reference_loss));
    if (Case().classification) {
      EXPECT_EQ(EvaluateAccuracy(*model, subset),
                static_cast<double>(correct) / static_cast<double>(rows));
    }
  }
}

TEST_P(ModelSuite, NameIsNonEmpty) {
  Dataset data = MakeData(3, 14);
  std::unique_ptr<Model> model = MakeModel(data, 15);
  EXPECT_FALSE(model->Name().empty());
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelSuite,
                         ::testing::Range<size_t>(0, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return AllModelCases()[info.param].name;
                         });

// ---------------------------------------------------------------------------
// Model-specific behaviour.

TEST(LinearRegressionTest, ClosedFormRecoversTrueWeights) {
  RegressionConfig config;
  config.dim = 5;
  config.noise_stddev = 0.01;
  config.weight_seed = 77;
  Rng rng(1);
  Result<Dataset> data = GenerateRegression(config, 2000, rng);
  ASSERT_TRUE(data.ok());
  LinearRegression model(5);
  ASSERT_TRUE(model.FitClosedForm(*data).ok());
  EXPECT_LT(2.0 * model.Loss(*data), 0.001);  // the mean squared error
}

TEST(LinearRegressionTest, ClosedFormBeatsShortSgd) {
  RegressionConfig config;
  config.dim = 4;
  config.noise_stddev = 0.2;
  Rng rng(2);
  Result<Dataset> data = GenerateRegression(config, 500, rng);
  ASSERT_TRUE(data.ok());
  LinearRegression closed(4), sgd_model(4);
  Rng init(3);
  sgd_model.InitializeParameters(init);
  ASSERT_TRUE(closed.FitClosedForm(*data).ok());
  SgdConfig sgd;
  sgd.epochs = 2;
  sgd.learning_rate = 0.05;
  Rng train_rng(4);
  ASSERT_TRUE(TrainSgd(sgd_model, *data, sgd, train_rng).ok());
  EXPECT_LE(2.0 * closed.Loss(*data), 2.0 * sgd_model.Loss(*data) + 1e-9);
}

TEST(LinearRegressionTest, ClosedFormValidation) {
  LinearRegression model(3);
  Result<Dataset> wrong_dim = Dataset::Create(2, 0);
  ASSERT_TRUE(wrong_dim.ok());
  wrong_dim->Append({1.0f, 2.0f}, 0.5f);
  EXPECT_FALSE(model.FitClosedForm(*wrong_dim).ok());
  Result<Dataset> empty = Dataset::Create(3, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(model.FitClosedForm(*empty).ok());
}

TEST(LogisticRegressionTest, LearnsSeparableProblem) {
  Rng rng(5);
  Result<Dataset> data = GenerateBlobs(3, 4, 6.0, 600, rng);
  ASSERT_TRUE(data.ok());
  LogisticRegression model(4, 3);
  Rng init(6);
  model.InitializeParameters(init);
  SgdConfig config;
  config.epochs = 20;
  config.learning_rate = 0.3;
  Rng train_rng(7);
  ASSERT_TRUE(TrainSgd(model, *data, config, train_rng).ok());
  EXPECT_GT(EvaluateAccuracy(model, *data), 0.95);
}

TEST(SoftmaxTest, StableForLargeLogits) {
  std::vector<float> logits = {1000.0f, 1000.0f, 999.0f};
  SoftmaxInPlace(logits);
  EXPECT_NEAR(logits[0], logits[1], 1e-6);
  EXPECT_LT(logits[2], logits[0]);
  double total = logits[0] + logits[1] + logits[2];
  EXPECT_NEAR(total, 1.0, 1e-5);
}

TEST(MlpTest, OutperformsChanceOnBlobs) {
  Rng rng(8);
  Result<Dataset> data = GenerateBlobs(4, 6, 5.0, 800, rng);
  ASSERT_TRUE(data.ok());
  Mlp model(6, 16, 4);
  Rng init(9);
  model.InitializeParameters(init);
  SgdConfig config;
  config.epochs = 25;
  config.learning_rate = 0.2;
  Rng train_rng(10);
  ASSERT_TRUE(TrainSgd(model, *data, config, train_rng).ok());
  EXPECT_GT(EvaluateAccuracy(model, *data), 0.9);
}

TEST(CnnTest, LearnsDigits) {
  DigitsConfig digits;
  digits.image_size = 8;
  digits.num_classes = 4;
  digits.pixel_noise = 0.15;
  Rng rng(11);
  Result<FederatedSource> source = GenerateDigits(digits, 800, rng);
  ASSERT_TRUE(source.ok());
  Cnn model(8, 4, 4);
  Rng init(12);
  model.InitializeParameters(init);
  SgdConfig config;
  config.epochs = 12;
  config.learning_rate = 0.15;
  Rng train_rng(13);
  ASSERT_TRUE(TrainSgd(model, source->data, config, train_rng).ok());
  EXPECT_GT(EvaluateAccuracy(model, source->data), 0.8);
}

TEST(SgdTest, ValidatesConfig) {
  Rng rng(14);
  Result<Dataset> data = GenerateBlobs(2, 3, 4.0, 50, rng);
  ASSERT_TRUE(data.ok());
  LogisticRegression model(3, 2);
  SgdConfig config;
  Rng train_rng(15);
  config.epochs = -1;
  EXPECT_FALSE(TrainSgd(model, *data, config, train_rng).ok());
  config.epochs = 1;
  config.batch_size = 0;
  EXPECT_FALSE(TrainSgd(model, *data, config, train_rng).ok());
  config.batch_size = 8;
  config.learning_rate = 0.0;
  EXPECT_FALSE(TrainSgd(model, *data, config, train_rng).ok());
}

TEST(SgdTest, RejectsDataTheModelCannotFit) {
  // The checks run before any step, so the model is left as it was. A
  // 10-class dataset in a 5-output model would otherwise index past the
  // model's 5 probabilities, and a regression dataset has no class labels
  // to read at all.
  Rng rng(21);
  Result<Dataset> ten_classes = GenerateBlobs(10, 4, 4.0, 60, rng);
  Result<Dataset> three_features = GenerateBlobs(5, 3, 4.0, 60, rng);
  RegressionConfig regression_config;
  regression_config.dim = 4;
  Result<Dataset> regression = GenerateRegression(regression_config, 60, rng);
  ASSERT_TRUE(ten_classes.ok() && three_features.ok() && regression.ok());
  LogisticRegression model(4, 5);
  Rng init(22);
  model.InitializeParameters(init);
  const std::vector<float> before = model.GetParameters();
  SgdConfig config;
  for (const Dataset* data :
       {&*ten_classes, &*three_features, &*regression}) {
    Rng train_rng(23);
    Status status = TrainSgd(model, *data, config, train_rng);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(model.GetParameters(), before);
  }
  Rng train_rng(24);
  Status status = TrainSgd(model, *ten_classes, config, train_rng);
  EXPECT_NE(status.message().find("10 classes, model outputs 5"),
            std::string::npos)
      << status;
}

TEST(SgdTest, EmptyDataIsNoOp) {
  Result<Dataset> empty = Dataset::Create(3, 2);
  ASSERT_TRUE(empty.ok());
  LogisticRegression model(3, 2);
  Rng init(16);
  model.InitializeParameters(init);
  const std::vector<float> before = model.GetParameters();
  SgdConfig config;
  Rng rng(17);
  ASSERT_TRUE(TrainSgd(model, *empty, config, rng).ok());
  EXPECT_EQ(model.GetParameters(), before);
}

TEST(SgdTest, MomentumAcceleratesConvergence) {
  Rng rng(18);
  Result<Dataset> data = GenerateBlobs(2, 4, 3.0, 400, rng);
  ASSERT_TRUE(data.ok());
  LogisticRegression plain(4, 2), momentum(4, 2);
  Rng init_a(19), init_b(19);
  plain.InitializeParameters(init_a);
  momentum.InitializeParameters(init_b);
  SgdConfig config;
  config.epochs = 3;
  config.learning_rate = 0.02;
  Rng rng_a(20), rng_b(20);
  ASSERT_TRUE(TrainSgd(plain, *data, config, rng_a).ok());
  config.momentum = 0.9;
  ASSERT_TRUE(TrainSgd(momentum, *data, config, rng_b).ok());
  EXPECT_LT(momentum.Loss(*data), plain.Loss(*data));
}

TEST(MetricsTest, AccuracyOnKnownPredictions) {
  Rng rng(21);
  Result<Dataset> data = GenerateBlobs(2, 3, 8.0, 300, rng);
  ASSERT_TRUE(data.ok());
  LogisticRegression model(3, 2);
  Rng init(22);
  model.InitializeParameters(init);
  const double acc = EvaluateAccuracy(model, *data);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
  Result<Dataset> empty = Dataset::Create(3, 2);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(EvaluateAccuracy(model, *empty), 0.0);
}

// Scoring checks the dataset against the model once, for both metrics:
// a dataset narrower than the model is a fatal error, never a read past
// the end of a row.
TEST(MetricsDeathTest, ScoringRejectsDataNarrowerThanTheModel) {
  Rng rng(24);
  Result<Dataset> data = GenerateBlobs(10, 36, 4.0, 50, rng);
  ASSERT_TRUE(data.ok());
  LogisticRegression model(64, 10);
  EXPECT_DEATH(EvaluateAccuracy(model, *data),
               "dataset has 36 features, model expects 64");
  EXPECT_DEATH(model.Loss(*data), "dataset has 36 features, model expects 64");
}

TEST(MetricsTest, MseBetweenVectors) {
  EXPECT_DOUBLE_EQ(MseBetween({1, 2, 3}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(MseBetween({0, 0}, {3, 4}), 12.5);
  EXPECT_DOUBLE_EQ(MseBetween({}, {}), 0.0);
}

}  // namespace
}  // namespace fedshap
