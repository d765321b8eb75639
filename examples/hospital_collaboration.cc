/// Hospital collaboration: the full pipeline on real (synthetic) FL
/// training, mirroring the paper's Fig. 1(a) story.
///
/// Three hospitals hold digit images from different "writers" (patients /
/// devices), train a shared softmax classifier with FedAvg, and split a
/// collaboration reward proportionally to their exact Shapley data values.
/// Every coalition's model really is trained — 2^3 = 8 FedAvg runs.

#include <cstdio>

#include "core/exact.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/utility.h"
#include "fl/utility_cache.h"
#include "ml/logistic_regression.h"
#include "ml/kernel_backend.h"

using namespace fedshap;

int main() {
  // Provenance: which kernel backend produced this
  // run (see ml/kernel_backend.h).
  std::printf("%s\n", fedshap::KernelProvenanceString().c_str());
  // 1. Each hospital contributes writer-specific digit data; hospital 2
  //    has twice the data of hospital 0.
  DigitsConfig digits;
  digits.image_size = 8;
  digits.num_classes = 10;
  digits.num_writers = 12;
  Rng rng(7);
  Result<FederatedSource> source = GenerateDigits(digits, 1500, rng);
  if (!source.ok()) return 1;

  Dataset train = source->data.Head(1100);
  std::vector<size_t> test_idx;
  for (size_t i = 1100; i < source->data.size(); ++i) test_idx.push_back(i);
  Dataset test = source->data.Subset(test_idx);

  PartitionConfig part;
  part.scheme = PartitionScheme::kDiffSizeSameDist;  // sizes 1 : 2 : 3
  part.num_clients = 3;
  Result<std::vector<Dataset>> clients = PartitionDataset(train, part, rng);
  if (!clients.ok()) return 1;
  std::printf("hospital datasets: %zu / %zu / %zu samples\n",
              (*clients)[0].size(), (*clients)[1].size(),
              (*clients)[2].size());

  // 2. Build the FL utility: train FedAvg per coalition, score on the
  //    shared test set.
  LogisticRegression prototype(64, 10);
  Rng init(13);
  prototype.InitializeParameters(init);
  FedAvgConfig config;
  config.rounds = 4;
  config.local.epochs = 1;
  config.local.learning_rate = 0.25;
  Result<std::unique_ptr<FedAvgUtility>> utility = FedAvgUtility::Create(
      std::move(clients).value(), std::move(test), prototype, config);
  if (!utility.ok()) return 1;

  UtilityCache cache(utility->get());
  UtilitySession session(&cache);
  Result<double> full = session.Evaluate(Coalition::Full(3));
  Result<double> none = session.Evaluate(Coalition());
  if (!full.ok() || !none.ok()) return 1;
  std::printf("federation accuracy: %.3f (untrained: %.3f)\n\n", *full,
              *none);

  // 3. Exact Shapley values -> reward split.
  Result<ValuationResult> values = ExactShapleyMc(session);
  if (!values.ok()) return 1;

  const double reward_pool = 300000.0;  // collaboration budget to split
  double total = 0.0;
  for (double v : values->values) total += v;
  std::printf("%-10s %10s %14s\n", "hospital", "SV", "reward share");
  for (int i = 0; i < 3; ++i) {
    const double share =
        total > 0 ? values->values[i] / total * reward_pool : 0.0;
    std::printf("%-10d %10.4f %13.0f$\n", i, values->values[i], share);
  }
  std::printf(
      "\n(larger datasets earn larger rewards; trained %zu FL models)\n",
      values->num_trainings);
  return 0;
}
