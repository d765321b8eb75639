/// valuation_cli — a small command-line tool over the public API: builds a
/// synthetic federated workload, runs the requested valuation algorithm and
/// prints (optionally exports) a valuation report.
///
/// Usage:
///   valuation_cli [--n=<clients>] [--gamma=<budget>] [--seed=<u64>]
///                 [--algo=exact|ipss|adaptive|tmc|gtb|cc|loo|banzhaf]
///                 [--partition=iid|skew|sizes|noisy]
///                 [--csv=<path>]
///
/// Examples:
///   valuation_cli --n=6 --algo=ipss --gamma=12
///   valuation_cli --n=8 --algo=adaptive --partition=skew --csv=report.csv

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/alternatives.h"
#include "core/exact.h"
#include "core/ipss.h"
#include "core/report.h"
#include "baselines/cc_shapley.h"
#include "baselines/extended_gtb.h"
#include "baselines/extended_tmc.h"
#include "data/partition.h"
#include "data/statistics.h"
#include "data/synthetic.h"
#include "fl/utility.h"
#include "fl/utility_cache.h"
#include "ml/logistic_regression.h"
#include "ml/kernel_backend.h"

using namespace fedshap;

namespace {

struct CliOptions {
  int n = 5;
  int gamma = 16;
  uint64_t seed = 2025;
  std::string algo = "ipss";
  std::string partition = "iid";
  std::string csv;
};

CliOptions ParseArgs(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    if (arg.rfind("--n=", 0) == 0) {
      options.n = std::atoi(value("--n="));
    } else if (arg.rfind("--gamma=", 0) == 0) {
      options.gamma = std::atoi(value("--gamma="));
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(value("--seed="), nullptr, 10);
    } else if (arg.rfind("--algo=", 0) == 0) {
      options.algo = value("--algo=");
    } else if (arg.rfind("--partition=", 0) == 0) {
      options.partition = value("--partition=");
    } else if (arg.rfind("--csv=", 0) == 0) {
      options.csv = value("--csv=");
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  // Provenance: which kernel backend produced this
  // run (see ml/kernel_backend.h).
  std::printf("%s\n", fedshap::KernelProvenanceString().c_str());
  const CliOptions options = ParseArgs(argc, argv);
  if (options.n < 2 || options.n > 16) {
    std::fprintf(stderr, "--n must be in [2, 16]\n");
    return 2;
  }

  // 1. Workload: synthetic digits, federated per --partition.
  DigitsConfig digits;
  digits.image_size = 8;
  digits.num_classes = 10;
  Rng rng(options.seed);
  Result<FederatedSource> source =
      GenerateDigits(digits, 250 * options.n + 400, rng);
  if (!source.ok()) return 1;
  auto [train, test] = source->data.Split(
      1.0 - 400.0 / source->data.size(), rng);

  PartitionConfig part;
  part.num_clients = options.n;
  if (options.partition == "iid") {
    part.scheme = PartitionScheme::kSameSizeSameDist;
  } else if (options.partition == "skew") {
    part.scheme = PartitionScheme::kSameSizeDiffDist;
  } else if (options.partition == "sizes") {
    part.scheme = PartitionScheme::kDiffSizeSameDist;
  } else if (options.partition == "noisy") {
    part.scheme = PartitionScheme::kSameSizeNoisyLabel;
  } else {
    std::fprintf(stderr, "unknown --partition=%s\n",
                 options.partition.c_str());
    return 2;
  }
  Result<std::vector<Dataset>> clients = PartitionDataset(train, part, rng);
  if (!clients.ok()) return 1;

  std::printf("federation of %d clients (%s partition):\n", options.n,
              options.partition.c_str());
  for (int i = 0; i < options.n; ++i) {
    std::printf("  client %d: %s\n", i,
                SummaryToString(Summarize((*clients)[i])).c_str());
  }
  std::printf("  drift across clients: %.4f\n\n", ClientDrift(*clients));

  // 2. Utility oracle.
  LogisticRegression prototype(64, 10);
  Rng init(options.seed + 1);
  prototype.InitializeParameters(init);
  FedAvgConfig fl;
  fl.rounds = 4;
  fl.local.epochs = 2;
  fl.local.learning_rate = 0.25;
  Result<std::unique_ptr<FedAvgUtility>> utility = FedAvgUtility::Create(
      std::move(clients).value(), std::move(test), prototype, fl);
  if (!utility.ok()) return 1;
  UtilityCache cache(utility->get());

  // 3. Run the requested algorithm (plus exact ground truth when cheap).
  std::vector<double> exact_values;
  ValuationReport report("fedshap valuation (n=" +
                             std::to_string(options.n) + ", algo=" +
                             options.algo + ")",
                         {});
  if (options.n <= 12) {
    UtilitySession session(&cache);
    Result<ValuationResult> exact = ExactShapleyMc(session);
    if (!exact.ok()) return 1;
    exact_values = exact->values;
    report = ValuationReport("fedshap valuation (n=" +
                                 std::to_string(options.n) + ", algo=" +
                                 options.algo + ")",
                             exact_values);
    report.Add({"exact (MC-SV)", *exact, true});
  }

  UtilitySession session(&cache);
  Result<ValuationResult> run = Status::Internal("unset");
  if (options.algo == "exact") {
    run = ExactShapleyMc(session);
  } else if (options.algo == "ipss") {
    IpssConfig config;
    config.total_rounds = options.gamma;
    config.seed = options.seed;
    run = IpssShapley(session, config);
  } else if (options.algo == "adaptive") {
    AdaptiveIpssConfig config;
    config.max_rounds = 1 << std::min(options.n, 12);
    config.seed = options.seed;
    run = AdaptiveIpssShapley(session, config);
  } else if (options.algo == "tmc") {
    ExtendedTmcConfig config;
    config.permutations = options.gamma;
    config.seed = options.seed;
    run = ExtendedTmcShapley(session, config);
  } else if (options.algo == "gtb") {
    ExtendedGtbConfig config;
    config.samples = options.gamma;
    config.seed = options.seed;
    run = ExtendedGtbShapley(session, config);
  } else if (options.algo == "cc") {
    CcShapleyConfig config;
    config.rounds = options.gamma;
    config.seed = options.seed;
    run = CcShapley(session, config);
  } else if (options.algo == "loo") {
    run = LeaveOneOut(session);
  } else if (options.algo == "banzhaf") {
    BanzhafConfig config;
    config.samples = options.gamma;
    config.seed = options.seed;
    run = MonteCarloBanzhaf(session, config);
  } else {
    std::fprintf(stderr, "unknown --algo=%s\n", options.algo.c_str());
    return 2;
  }
  if (!run.ok()) {
    std::fprintf(stderr, "valuation failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  report.Add({options.algo, *run, options.algo == "exact"});

  std::fputs(report.Render().c_str(), stdout);
  if (!options.csv.empty()) {
    Status written = report.WriteCsv(options.csv);
    if (!written.ok()) {
      std::fprintf(stderr, "CSV export failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("\nreport written to %s\n", options.csv.c_str());
  }
  return 0;
}
