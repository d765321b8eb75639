/// Free-rider detection: using IPSS to audit a federation cheaply.
///
/// Eight clients join an FL federation. Two are free riders (one holds no
/// data, one holds garbage labels). Computing exact Shapley values would
/// train 2^8 = 256 FL models; IPSS spots both free riders with a budget of
/// 37 evaluations (k* = 2: all coalitions of size <= 2 plus a balanced
/// sample of triples).

#include <algorithm>
#include <cstdio>

#include "core/exact.h"
#include "core/ipss.h"
#include "core/valuation_metrics.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/utility.h"
#include "fl/utility_cache.h"
#include "ml/mlp.h"
#include "ml/kernel_backend.h"

using namespace fedshap;

int main() {
  // Provenance: which kernel backend produced this
  // run (see ml/kernel_backend.h).
  std::printf("%s\n", fedshap::KernelProvenanceString().c_str());
  const int n = 8;
  Rng rng(21);
  Result<Dataset> pool = GenerateBlobs(4, 8, 4.0, 1700, rng);
  if (!pool.ok()) return 1;
  auto [train, test] = pool->Split(0.75, rng);

  PartitionConfig part;
  part.scheme = PartitionScheme::kSameSizeSameDist;
  part.num_clients = n;
  Result<std::vector<Dataset>> clients = PartitionDataset(train, part, rng);
  if (!clients.ok()) return 1;
  std::vector<Dataset> federation = std::move(clients).value();

  // Client 3: empty dataset (pure free rider).
  Result<Dataset> empty = Dataset::Create(8, 4);
  if (!empty.ok()) return 1;
  federation[3] = std::move(empty).value();
  // Client 6: completely scrambled labels (poisoned free rider).
  if (!FlipLabels(federation[6], 1.0, rng).ok()) return 1;

  Mlp prototype(8, 12, 4);
  Rng init(22);
  prototype.InitializeParameters(init);
  FedAvgConfig config;
  config.rounds = 3;
  config.local.epochs = 1;
  config.local.learning_rate = 0.25;
  Result<std::unique_ptr<FedAvgUtility>> utility = FedAvgUtility::Create(
      std::move(federation), std::move(test), prototype, config);
  if (!utility.ok()) return 1;

  UtilityCache cache(utility->get());
  UtilitySession session(&cache);
  IpssConfig ipss;
  ipss.total_rounds = 37;  // all coalitions of size <= 2, plus sampled triples
  Result<ValuationResult> values = IpssShapley(session, ipss);
  if (!values.ok()) {
    std::fprintf(stderr, "%s\n", values.status().ToString().c_str());
    return 1;
  }

  std::printf("IPSS audit of an 8-client federation (budget: %zu of 256"
              " coalitions)\n\n",
              values->num_trainings);
  std::printf("%-8s %12s  %s\n", "client", "data value", "verdict");
  // Flag clients whose value is < 25% of the average positive value.
  double positive_mean = 0.0;
  int positive_count = 0;
  for (double v : values->values) {
    if (v > 0) {
      positive_mean += v;
      ++positive_count;
    }
  }
  positive_mean /= std::max(positive_count, 1);
  for (int i = 0; i < n; ++i) {
    const double v = values->values[i];
    const bool flagged = v < 0.25 * positive_mean;
    std::printf("%-8d %12.5f  %s\n", i, v,
                flagged ? "FLAGGED (free rider?)" : "contributing");
  }
  std::printf("\nplanted free riders: clients 3 (no data) and 6 (random"
              " labels)\n");
  return 0;
}
