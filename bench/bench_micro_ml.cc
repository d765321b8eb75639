/// Microbenchmarks (google-benchmark) for the ML substrate's batched
/// kernels and the models' gradient paths. Every utility query of the
/// valuation pipeline is a full FL training, so these per-step costs are
/// the floor under all Table IV/V wall-clock numbers.
///
/// The *_PerExample / *_Batched pairs compare the historical scalar
/// reference path against the blocked-kernel path at the same batch
/// size; items/s is examples per second, so the batched:per-example
/// ratio is the per-step speedup. CI runs this binary once with a
/// tiny --benchmark_min_time as a smoke test.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "data/synthetic.h"
#include "fl/utility.h"
#include "ml/cnn.h"
#include "ml/kernel_backend.h"
#include "ml/linear_regression.h"
#include "ml/logistic_regression.h"
#include "ml/matrix.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/model.h"
#include "ml/sgd.h"
#include "service/job_spec.h"
#include "util/coalition.h"
#include "util/logging.h"
#include "util/random.h"

namespace fedshap {
namespace {

constexpr int kBatch = 32;

/// The backend the process dispatched at startup (env override
/// included); the per-backend benchmarks below pin other backends and
/// restore this one so every non-backend benchmark runs dispatched.
KernelBackend g_entry_backend = KernelBackend::kScalar;

std::vector<float> RandomBuffer(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> buf(n);
  for (float& v : buf) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return buf;
}

// ---------------------------------------------------------------------------
// Raw kernels

/// Naive dot-product GEMM (the shape of the old per-example loops):
/// reduction inner loop, which the compiler cannot vectorize without
/// -ffast-math. The baseline the blocked kernel is measured against.
void NaiveMatMul(const float* a, size_t m, size_t k, const float* b,
                 size_t n, float* c) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (size_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
      c[i * n + j] = acc;
    }
  }
}

void BM_MatMulNaive(benchmark::State& state) {
  const size_t m = kBatch, k = 64, n = 64;
  std::vector<float> a = RandomBuffer(m * k, 1), b = RandomBuffer(k * n, 2);
  std::vector<float> c(m * n);
  for (auto _ : state) {
    NaiveMatMul(a.data(), m, k, b.data(), n, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_MatMulNaive);

void BM_MatMulBlocked(benchmark::State& state) {
  const size_t m = kBatch, k = 64, n = 64;
  std::vector<float> a = RandomBuffer(m * k, 1), b = RandomBuffer(k * n, 2);
  std::vector<float> c(m * n);
  for (auto _ : state) {
    MatMul(a.data(), m, k, b.data(), n, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_MatMulBlocked);

/// GEMM-bound cases per kernel backend: the same blocked MatMul body
/// pinned to scalar / AVX2, so the dispatched-vs-scalar
/// speedup is measured directly (the acceptance number of the SIMD
/// dispatch work). Registered dynamically for every backend this
/// machine can execute; names look like "BM_MatMulBackend/avx2/64x256x256".
void MatMulBackendCase(benchmark::State& state, KernelBackend backend,
                       size_t m, size_t k, size_t n) {
  if (!SetKernelBackend(backend).ok()) {
    state.SkipWithError("backend unavailable");
    return;
  }
  std::vector<float> a = RandomBuffer(m * k, 1), b = RandomBuffer(k * n, 2);
  std::vector<float> c(m * n);
  for (auto _ : state) {
    MatMul(a.data(), m, k, b.data(), n, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
  FEDSHAP_CHECK(SetKernelBackend(g_entry_backend).ok());
}

/// The GEMM-bound shapes measured per backend; the speedup report below
/// derives its benchmark names from this same table.
struct GemmShape {
  size_t m, k, n;
};
constexpr GemmShape kGemmShapes[] = {{kBatch, 64, 64}, {64, 256, 256}};

std::string GemmShapeName(const GemmShape& shape) {
  return std::to_string(shape.m) + "x" + std::to_string(shape.k) + "x" +
         std::to_string(shape.n);
}

void RegisterBackendBenchmarks() {
  for (KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    if (!KernelBackendAvailable(backend)) continue;
    for (const GemmShape& shape : kGemmShapes) {
      const std::string name =
          "BM_MatMulBackend/" + std::string(KernelBackendName(backend)) +
          "/" + GemmShapeName(shape);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [backend, shape](benchmark::State& state) {
            MatMulBackendCase(state, backend, shape.m, shape.k, shape.n);
          });
    }
  }
}

void BM_AddOuterBatch(benchmark::State& state) {
  const size_t batch = kBatch, rows = 16, cols = 64;
  std::vector<float> a = RandomBuffer(batch * rows, 3);
  std::vector<float> b = RandomBuffer(batch * cols, 4);
  std::vector<float> acc(rows * cols, 0.0f);
  for (auto _ : state) {
    AddOuterBatch(acc.data(), rows, cols, 1.0f, a.data(), b.data(), batch);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * rows * cols);
}
BENCHMARK(BM_AddOuterBatch);

void BM_SgdStepFused(benchmark::State& state) {
  std::vector<float> p = RandomBuffer(4096, 5), g = RandomBuffer(4096, 6);
  for (auto _ : state) {
    SgdStep(p.data(), g.data(), p.size(), 0.01f, 1e-4f);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(state.iterations() * p.size());
}
BENCHMARK(BM_SgdStepFused);

// ---------------------------------------------------------------------------
// Model gradient paths: per-example reference vs batched kernels. The
// shapes match the Table IV/V scenarios (8x8 digits, MLP hidden 16,
// 10 classes; CNN with 4 filters).

template <typename ModelT, typename MakeModel, typename MakeData>
void GradientBench(benchmark::State& state, MakeModel make_model,
                   MakeData make_data, bool batched,
                   size_t batch_size = kBatch) {
  Rng rng(7);
  Dataset data = make_data(rng);
  ModelT model = make_model(data);
  model.InitializeParameters(rng);
  std::vector<size_t> batch;
  for (size_t i = 0; i < batch_size; ++i) batch.push_back(i % data.size());
  std::vector<float> grad;
  for (auto _ : state) {
    if (batched) {
      model.ComputeGradientBatched(data, batch, grad);
    } else {
      model.ComputeGradient(data, batch, grad);
    }
    benchmark::DoNotOptimize(grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch.size());
}

Dataset MakeBlobData(Rng& rng) {
  Result<Dataset> data = GenerateBlobs(10, 64, 4.0, 256, rng);
  return std::move(data).value();
}

Dataset MakeDigitData(Rng& rng) {
  DigitsConfig config;
  config.image_size = 8;
  Result<FederatedSource> source = GenerateDigits(config, 256, rng);
  return std::move(source).value().data;
}

/// The e2e workload's data: 6x6 digits over 5 classes.
Dataset MakeSmallDigitData(Rng& rng) {
  DigitsConfig config;
  config.image_size = 6;
  config.num_classes = 5;
  Result<FederatedSource> source = GenerateDigits(config, 256, rng);
  return std::move(source).value().data;
}

Dataset MakeRegressionData(Rng& rng) {
  Result<Dataset> data = Dataset::Create(32, 0);
  Dataset out = std::move(data).value();
  std::vector<float> row(32);
  for (int i = 0; i < 256; ++i) {
    for (float& v : row) v = static_cast<float>(rng.Gaussian());
    out.Append(row, static_cast<float>(rng.Gaussian()));
  }
  return out;
}

void BM_MlpGradient_PerExample(benchmark::State& state) {
  GradientBench<Mlp>(
      state, [](const Dataset&) { return Mlp(64, 16, 10); }, MakeBlobData,
      /*batched=*/false);
}
BENCHMARK(BM_MlpGradient_PerExample);

void BM_MlpGradient_Batched(benchmark::State& state) {
  GradientBench<Mlp>(
      state, [](const Dataset&) { return Mlp(64, 16, 10); }, MakeBlobData,
      /*batched=*/true);
}
BENCHMARK(BM_MlpGradient_Batched);

void BM_LogRegGradient_PerExample(benchmark::State& state) {
  GradientBench<LogisticRegression>(
      state, [](const Dataset&) { return LogisticRegression(64, 10); },
      MakeBlobData, /*batched=*/false);
}
BENCHMARK(BM_LogRegGradient_PerExample);

void BM_LogRegGradient_Batched(benchmark::State& state) {
  GradientBench<LogisticRegression>(
      state, [](const Dataset&) { return LogisticRegression(64, 10); },
      MakeBlobData, /*batched=*/true);
}
BENCHMARK(BM_LogRegGradient_Batched);

/// The local-SGD step of the digits workloads (ScenarioSpec and the e2e
/// benchmark): 36 -> 5 logistic regression at batch 16.
void BM_LogRegGradient_Batched_Digits(benchmark::State& state) {
  GradientBench<LogisticRegression>(
      state, [](const Dataset&) { return LogisticRegression(36, 5); },
      MakeSmallDigitData, /*batched=*/true, /*batch_size=*/16);
}
BENCHMARK(BM_LogRegGradient_Batched_Digits);

void BM_CnnGradient_PerExample(benchmark::State& state) {
  GradientBench<Cnn>(
      state, [](const Dataset&) { return Cnn(8, 4, 10); }, MakeDigitData,
      /*batched=*/false);
}
BENCHMARK(BM_CnnGradient_PerExample);

void BM_CnnGradient_Batched(benchmark::State& state) {
  GradientBench<Cnn>(
      state, [](const Dataset&) { return Cnn(8, 4, 10); }, MakeDigitData,
      /*batched=*/true);
}
BENCHMARK(BM_CnnGradient_Batched);

void BM_LinRegGradient_PerExample(benchmark::State& state) {
  GradientBench<LinearRegression>(
      state, [](const Dataset&) { return LinearRegression(32); },
      MakeRegressionData, /*batched=*/false);
}
BENCHMARK(BM_LinRegGradient_PerExample);

void BM_LinRegGradient_Batched(benchmark::State& state) {
  GradientBench<LinearRegression>(
      state, [](const Dataset&) { return LinearRegression(32); },
      MakeRegressionData, /*batched=*/true);
}
BENCHMARK(BM_LinRegGradient_Batched);

// ---------------------------------------------------------------------------
// Scoring one trained model on a test set, as U(S) does: Loss and
// EvaluateAccuracy over 1000 8x8 digit rows, each one ScoreRows pass of
// batched forwards. The shapes are the gradient cases' above.

template <typename ModelT>
void BM_Score(benchmark::State& state, ModelT model) {
  Rng rng(7);
  DigitsConfig config;
  config.image_size = 8;
  Result<FederatedSource> source = GenerateDigits(config, 1000, rng);
  const Dataset data = std::move(source).value().data;
  model.InitializeParameters(rng);
  double sink = 0.0;
  for (auto _ : state) {
    sink += model.Loss(data) + EvaluateAccuracy(model, data);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK_CAPTURE(BM_Score, logreg, LogisticRegression(64, 10));
BENCHMARK_CAPTURE(BM_Score, mlp, Mlp(64, 16, 10));
BENCHMARK_CAPTURE(BM_Score, cnn, Cnn(8, 4, 10));

// ---------------------------------------------------------------------------
// A whole local training (what one FL client does per round): one epoch
// of shuffled minibatch SGD end to end. The name is kept so archived
// baseline records stay comparable.

void BM_TrainSgdEpoch_Batched(benchmark::State& state) {
  Rng rng(11);
  Dataset data = MakeBlobData(rng);
  Mlp prototype(64, 16, 10);
  prototype.InitializeParameters(rng);
  const std::vector<float> init = prototype.GetParameters();
  SgdConfig config;
  config.epochs = 1;
  config.batch_size = kBatch;
  for (auto _ : state) {
    Mlp model = prototype;
    benchmark::DoNotOptimize(model.SetParameters(init));
    Rng train_rng(42);
    benchmark::DoNotOptimize(TrainSgd(model, data, config, train_rng));
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_TrainSgdEpoch_Batched);

// ---------------------------------------------------------------------------
// The logistic-regression step of the digits workloads per kernel
// backend: its batch gather alone, the whole step (gather plus the fused
// LogRegGradient kernel), and whole local trainings. Names look like
// "BM_TrainSgd_LogRegDigits/avx2".

void GatherRowsAndColumnsCase(benchmark::State& state,
                              KernelBackend backend) {
  if (!SetKernelBackend(backend).ok()) {
    state.SkipWithError("backend unavailable");
    return;
  }
  Rng rng(13);
  const Dataset data = MakeSmallDigitData(rng);
  std::vector<size_t> batch(16);
  for (size_t& row : batch) row = rng.UniformInt(data.size());
  AlignedFloats rows, cols;
  for (auto _ : state) {
    GatherRowsAndColumns(data, batch, rows, cols);
    benchmark::DoNotOptimize(rows.data());
    benchmark::DoNotOptimize(cols.data());
  }
  state.SetItemsProcessed(state.iterations() * batch.size());
  FEDSHAP_CHECK(SetKernelBackend(g_entry_backend).ok());
}

/// BM_LogRegGradient_Batched_Digits (which runs dispatched) pinned to
/// `backend`.
void LogRegGradientDigitsCase(benchmark::State& state,
                              KernelBackend backend) {
  if (!SetKernelBackend(backend).ok()) {
    state.SkipWithError("backend unavailable");
    return;
  }
  BM_LogRegGradient_Batched_Digits(state);
  FEDSHAP_CHECK(SetKernelBackend(g_entry_backend).ok());
}

/// train-heavy's inner loop: 5 epochs of local SGD over a 120-row client
/// of 6x6 digits at batch 16, from the same parameters every iteration.
void TrainSgdLogRegDigitsCase(benchmark::State& state,
                              KernelBackend backend) {
  if (!SetKernelBackend(backend).ok()) {
    state.SkipWithError("backend unavailable");
    return;
  }
  Rng rng(17);
  std::vector<size_t> client_rows(120);
  std::iota(client_rows.begin(), client_rows.end(), 0);
  const Dataset client = MakeSmallDigitData(rng).Subset(client_rows);
  LogisticRegression model(36, 5);
  model.InitializeParameters(rng);
  const std::vector<float> init = model.GetParameters();
  SgdConfig config;
  config.epochs = 5;
  config.batch_size = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.SetParameters(init));
    Rng train_rng(42);
    benchmark::DoNotOptimize(TrainSgd(model, client, config, train_rng));
  }
  state.SetItemsProcessed(state.iterations() * config.epochs *
                          client.size());
  FEDSHAP_CHECK(SetKernelBackend(g_entry_backend).ok());
}

/// The 80 softmax inputs of one batch-16 step of the e2e digits model
/// (6x6 pixels, 5 classes, initial parameters): each row's logits minus
/// the row's max, as the step exponentiates them.
std::vector<float> StepSoftmaxInputs() {
  Rng rng(13);
  const Dataset data = MakeSmallDigitData(rng);
  LogisticRegression model(36, 5);
  model.InitializeParameters(rng);
  const std::vector<float> params = model.GetParameters();
  std::vector<size_t> batch(16);
  for (size_t& row : batch) row = rng.UniformInt(data.size());
  AlignedFloats rows, cols, wt(36 * 5);
  GatherRowsAndColumns(data, batch, rows, cols);
  Transpose(params.data(), 5, 36, wt.data());
  std::vector<float> z(16 * 5);
  MatMul(rows.data(), 16, 36, wt.data(), 5, z.data());
  AddBiasRows(z.data(), 16, 5, params.data() + 36 * 5);
  for (size_t r = 0; r < 16; ++r) {
    float* row = z.data() + r * 5;
    const float top = *std::max_element(row, row + 5);
    for (size_t c = 0; c < 5; ++c) row[c] -= top;
  }
  return z;
}

/// libm's expf over the step's softmax inputs, the exponential training
/// used before ml/exp.h.
void BM_ExpLibm(benchmark::State& state) {
  const std::vector<float> in = StepSoftmaxInputs();
  std::vector<float> out(in.size());
  for (auto _ : state) {
    for (size_t i = 0; i < in.size(); ++i) out[i] = std::exp(in[i]);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}

/// ExpArray over the step's softmax inputs, pinned to `backend`.
void ExpCase(benchmark::State& state, KernelBackend backend) {
  if (!SetKernelBackend(backend).ok()) {
    state.SkipWithError("backend unavailable");
    return;
  }
  const std::vector<float> in = StepSoftmaxInputs();
  std::vector<float> out(in.size());
  for (auto _ : state) {
    ExpArray(in.data(), in.size(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * in.size());
  FEDSHAP_CHECK(SetKernelBackend(g_entry_backend).ok());
}

std::string LogRegStepCaseName(const char* name, KernelBackend backend) {
  return std::string(name) + "/" + KernelBackendName(backend);
}

void RegisterLogRegStepBenchmarks() {
  // Every exponential in one process: separate binaries' timings of the
  // same kernel differ by 10-25%, so only these ratios are meaningful.
  benchmark::RegisterBenchmark("BM_Exp/libm", BM_ExpLibm);
  for (KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    if (!KernelBackendAvailable(backend)) continue;
    benchmark::RegisterBenchmark(
        LogRegStepCaseName("BM_Exp", backend).c_str(),
        [backend](benchmark::State& state) { ExpCase(state, backend); });
    benchmark::RegisterBenchmark(
        LogRegStepCaseName("BM_GatherRowsAndColumns", backend).c_str(),
        [backend](benchmark::State& state) {
          GatherRowsAndColumnsCase(state, backend);
        });
    benchmark::RegisterBenchmark(
        LogRegStepCaseName("BM_LogRegGradient_Batched_Digits", backend)
            .c_str(),
        [backend](benchmark::State& state) {
          LogRegGradientDigitsCase(state, backend);
        });
    benchmark::RegisterBenchmark(
        LogRegStepCaseName("BM_TrainSgd_LogRegDigits", backend).c_str(),
        [backend](benchmark::State& state) {
          TrainSgdLogRegDigitsCase(state, backend);
        });
  }
}

/// One coalition's whole FedAvg training and scoring at train-heavy's
/// shape: the digits federation of n = 8 clients, 10 rounds of 5 local
/// epochs, valued for the first 4 clients. This is the e2e workload's
/// tau without the service around it.
void BM_FedAvgTraining(benchmark::State& state) {
  ScenarioSpec scenario;
  scenario.kind = "digits";
  scenario.n = 8;
  scenario.fl_rounds = 10;
  scenario.local_epochs = 5;
  Result<std::unique_ptr<UtilityFunction>> utility = scenario.Build();
  FEDSHAP_CHECK(utility.ok());
  const Coalition coalition = Coalition::Of({0, 1, 2, 3});
  for (auto _ : state) {
    Result<double> value = (*utility)->Evaluate(coalition);
    FEDSHAP_CHECK(value.ok());
    benchmark::DoNotOptimize(*value);
  }
}
BENCHMARK(BM_FedAvgTraining)->Name("BM_FedAvgTraining/train_heavy");

// ---------------------------------------------------------------------------
// The random stream. Rng::Gaussian against the libstdc++ distribution it
// reproduces bit for bit (the pair behind rng_gaussian_speedup), the
// local-SGD shuffle of a 120-row client, building the n = 6 digits
// federation every cluster-outage job values, fingerprint included, and
// that fingerprint's dataset hashing alone.

void BM_RngGaussian(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Gaussian());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngGaussian);

void BM_StdNormalDistribution(benchmark::State& state) {
  std::mt19937_64 engine(7);
  std::normal_distribution<double> normal(0.0, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(normal(engine));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdNormalDistribution);

void BM_RngShuffle(benchmark::State& state) {
  Rng rng(11);
  std::vector<size_t> items(static_cast<size_t>(state.range(0)));
  std::iota(items.begin(), items.end(), 0);
  for (auto _ : state) {
    rng.Shuffle(items);
    benchmark::DoNotOptimize(items.data());
  }
  state.SetItemsProcessed(state.iterations() * items.size());
}
BENCHMARK(BM_RngShuffle)->Arg(120);

void BM_BuildScenario_Digits(benchmark::State& state) {
  ScenarioSpec scenario;
  scenario.kind = "digits";
  scenario.n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Result<std::unique_ptr<UtilityFunction>> utility = scenario.Build();
    FEDSHAP_CHECK(utility.ok());
    benchmark::DoNotOptimize((*utility)->Fingerprint());
  }
}
BENCHMARK(BM_BuildScenario_Digits)->Arg(6);

/// Dataset::Fingerprint over the n = 6 digits federation's client and
/// test datasets (920 rows of 36 features and a target): the share of
/// BM_BuildScenario_Digits/6 that content-addresses the data.
void BM_DatasetFingerprint(benchmark::State& state) {
  ScenarioSpec scenario;
  scenario.kind = "digits";
  scenario.n = 6;
  Result<std::unique_ptr<UtilityFunction>> built = scenario.Build();
  FEDSHAP_CHECK(built.ok());
  const auto* utility = dynamic_cast<const FedAvgUtility*>(built->get());
  FEDSHAP_CHECK(utility != nullptr);
  std::vector<const Dataset*> datasets = {&utility->test_data()};
  for (int i = 0; i < utility->num_clients(); ++i) {
    datasets.push_back(&utility->client(i).data());
  }
  int64_t bytes = 0;
  for (const Dataset* data : datasets) {
    bytes += static_cast<int64_t>(data->size() * (data->num_features() + 1) *
                                  sizeof(float));
  }
  for (auto _ : state) {
    uint64_t digest = 0;
    for (const Dataset* data : datasets) digest ^= data->Fingerprint();
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_DatasetFingerprint);

// ---------------------------------------------------------------------------
// Main: standard google-benchmark flags plus --json=<path> (see
// bench/common.h), which archives every benchmark's timing and the
// derived speedup pairs (Batched vs PerExample gradients, AVX2 vs scalar
// GEMM) as machine-readable records.

/// Console reporter that additionally captures per-benchmark seconds
/// per iteration, keyed by benchmark name.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      seconds_per_iteration_[run.benchmark_name()] =
          run.real_accumulated_time / static_cast<double>(run.iterations);
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::map<std::string, double>& seconds_per_iteration() const {
    return seconds_per_iteration_;
  }

 private:
  std::map<std::string, double> seconds_per_iteration_;
};

/// Speedup of `denominator_name` over `baseline_name` (how many times
/// faster), or 0 when either is missing.
double SpeedupOf(const std::map<std::string, double>& seconds,
                 const std::string& baseline_name,
                 const std::string& faster_name) {
  auto base = seconds.find(baseline_name);
  auto fast = seconds.find(faster_name);
  if (base == seconds.end() || fast == seconds.end() ||
      fast->second <= 0.0) {
    return 0.0;
  }
  return base->second / fast->second;
}

int RunMicroMl(int argc, char** argv) {
  // Peel --json off before google-benchmark sees the flags.
  std::string json_path;
  if (const char* env = std::getenv("FEDSHAP_BENCH_JSON")) json_path = env;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());

  g_entry_backend = SelectedKernelBackend();
  std::printf("%s\n", KernelProvenanceString().c_str());
  RegisterBackendBenchmarks();
  RegisterLogRegStepBenchmarks();
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  const std::map<std::string, double>& seconds =
      reporter.seconds_per_iteration();
  bench::BenchJson json("micro_ml");
  for (const auto& [name, secs] : seconds) {
    json.Add(name).Metric("seconds_per_iteration", secs);
  }

  // Derived speedups: the numbers the README table and CI artifacts
  // track. Backend cases compare AVX2 against the scalar backend at the
  // same shape; model cases compare Batched against PerExample.
  std::printf("\nspeedups:\n");
  const char* avx2 = KernelBackendName(KernelBackend::kAvx2);
  for (const GemmShape& gemm_shape : kGemmShapes) {
    const std::string shape = GemmShapeName(gemm_shape);
    const double speedup =
        SpeedupOf(seconds, "BM_MatMulBackend/scalar/" + shape,
                  std::string("BM_MatMulBackend/") + avx2 + "/" + shape);
    if (speedup <= 0.0) continue;
    std::printf("  gemm %-11s %-7s vs scalar: %.2fx\n", shape.c_str(), avx2,
                speedup);
    json.Add("gemm_speedup")
        .Label("case", shape)
        .Label("backend", avx2)
        .Metric("speedup_vs_scalar", speedup);
  }
  // avx2 over scalar on the digits step alone and on whole local
  // trainings, so the CI gate tracks the fused step kernel.
  const struct {
    const char* label;
    const char* record;
    const char* benchmark;
  } backend_pairs[] = {
      {"logreg_step", "logreg_step_speedup",
       "BM_LogRegGradient_Batched_Digits"},
      {"logreg_train", "logreg_train_speedup", "BM_TrainSgd_LogRegDigits"},
  };
  for (const auto& pair : backend_pairs) {
    const double speedup = SpeedupOf(
        seconds, LogRegStepCaseName(pair.benchmark, KernelBackend::kScalar),
        LogRegStepCaseName(pair.benchmark, KernelBackend::kAvx2));
    if (speedup <= 0.0) continue;
    std::printf("  %-12s %-7s vs scalar: %.2fx\n", pair.label, avx2,
                speedup);
    json.Add(pair.record)
        .Label("backend", avx2)
        .Metric("speedup_vs_scalar", speedup);
  }
  for (KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    const double speedup = SpeedupOf(seconds, "BM_Exp/libm",
                                     LogRegStepCaseName("BM_Exp", backend));
    if (speedup <= 0.0) continue;
    std::printf("  exp %-7s vs libm expf: %.2fx\n",
                KernelBackendName(backend), speedup);
    json.Add("exp_speedup")
        .Label("backend", KernelBackendName(backend))
        .Metric("speedup_vs_libm", speedup);
  }
  const double gaussian_speedup =
      SpeedupOf(seconds, "BM_StdNormalDistribution", "BM_RngGaussian");
  if (gaussian_speedup > 0.0) {
    std::printf("  rng_gaussian vs std::normal_distribution: %.2fx\n",
                gaussian_speedup);
    json.Add("rng_gaussian_speedup").Metric("speedup_vs_std",
                                            gaussian_speedup);
  }
  const struct {
    const char* label;
    const char* baseline;
    const char* faster;
  } pairs[] = {
      {"mlp_gradient", "BM_MlpGradient_PerExample", "BM_MlpGradient_Batched"},
      {"logreg_gradient", "BM_LogRegGradient_PerExample",
       "BM_LogRegGradient_Batched"},
      {"cnn_gradient", "BM_CnnGradient_PerExample", "BM_CnnGradient_Batched"},
      {"linreg_gradient", "BM_LinRegGradient_PerExample",
       "BM_LinRegGradient_Batched"},
      {"matmul_blocked", "BM_MatMulNaive", "BM_MatMulBlocked"},
  };
  for (const auto& pair : pairs) {
    const double speedup = SpeedupOf(seconds, pair.baseline, pair.faster);
    if (speedup <= 0.0) continue;
    std::printf("  %-24s batched vs reference: %.2fx\n", pair.label,
                speedup);
    json.Add(pair.label).Metric("speedup_batched_vs_reference", speedup);
  }

  Status written = json.WriteTo(json_path);
  if (!written.ok()) {
    std::fprintf(stderr, "bench JSON write failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  if (!json_path.empty()) {
    std::printf("\n[json] wrote %s\n", json_path.c_str());
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace
}  // namespace fedshap

int main(int argc, char** argv) { return fedshap::RunMicroMl(argc, argv); }
