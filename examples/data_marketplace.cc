/// Data marketplace: budgeted valuation for revenue sharing.
///
/// A data marketplace sells access to a model trained on six providers'
/// tabular data (Adult-like, GBDT model — note gradient-based valuation
/// methods cannot handle tree models; sampling-based ones can). The
/// marketplace needs provider payouts *today*, so instead of 64 exact
/// coalition trainings it spends a budget of 22 and compares IPSS with
/// Extended-TMC at the same budget.

#include <cstdio>

#include "baselines/extended_tmc.h"
#include "core/exact.h"
#include "core/ipss.h"
#include "core/valuation_metrics.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/utility.h"
#include "fl/utility_cache.h"
#include "ml/kernel_backend.h"

using namespace fedshap;

int main() {
  // Provenance: which kernel backend produced this
  // run (see ml/kernel_backend.h).
  std::printf("%s\n", fedshap::KernelProvenanceString().c_str());
  const int n = 6;
  TabularConfig tabular;
  tabular.num_occupations = 18;
  Rng rng(33);
  Result<FederatedSource> source = GenerateTabular(tabular, 2400, rng);
  if (!source.ok()) return 1;

  Dataset train = source->data.Head(1900);
  std::vector<size_t> test_idx;
  for (size_t i = 1900; i < source->data.size(); ++i) test_idx.push_back(i);
  Dataset test = source->data.Subset(test_idx);

  FederatedSource train_source;
  train_source.data = std::move(train);
  train_source.group_ids.assign(source->group_ids.begin(),
                                source->group_ids.begin() + 1900);
  train_source.num_groups = source->num_groups;
  Result<std::vector<Dataset>> providers =
      PartitionByGroup(train_source, n, rng);
  if (!providers.ok()) return 1;

  GbdtConfig gbdt;
  gbdt.num_trees = 12;
  gbdt.max_depth = 3;
  Result<std::unique_ptr<GbdtUtility>> utility =
      GbdtUtility::Create(std::move(providers).value(), std::move(test),
                          gbdt);
  if (!utility.ok()) return 1;

  UtilityCache cache(utility->get());

  // Ground truth for reference (the marketplace would skip this).
  UtilitySession exact_session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  if (!exact.ok()) return 1;

  const int budget = 22;
  UtilitySession ipss_session(&cache);
  IpssConfig ipss_config;
  ipss_config.total_rounds = budget;
  Result<ValuationResult> ipss = IpssShapley(ipss_session, ipss_config);
  if (!ipss.ok()) return 1;

  UtilitySession tmc_session(&cache);
  ExtendedTmcConfig tmc_config;
  tmc_config.permutations = budget / n;  // match the coalition budget
  tmc_config.truncation_tolerance = 0.005;
  Result<ValuationResult> tmc = ExtendedTmcShapley(tmc_session, tmc_config);
  if (!tmc.ok()) return 1;

  const double monthly_revenue = 120000.0;
  double total = 0.0;
  for (double v : exact->values) total += v > 0 ? v : 0.0;

  std::printf("marketplace payouts from %d providers (GBDT model)\n\n", n);
  std::printf("%-10s %10s %10s %10s %14s\n", "provider", "exact", "IPSS",
              "Ext-TMC", "payout (exact)");
  for (int i = 0; i < n; ++i) {
    const double payout =
        total > 0 ? std::max(exact->values[i], 0.0) / total *
                        monthly_revenue
                  : 0.0;
    std::printf("%-10d %10.4f %10.4f %10.4f %13.0f$\n", i,
                exact->values[i], ipss->values[i], tmc->values[i], payout);
  }
  std::printf("\nbudgets: exact=%zu, IPSS=%zu, TMC=%zu coalition"
              " trainings\n",
              exact->num_trainings, ipss->num_trainings,
              tmc->num_trainings);
  std::printf("IPSS error:    %.4f (rank corr %.3f)\n",
              RelativeL2Error(exact->values, ipss->values),
              SpearmanCorrelation(exact->values, ipss->values));
  std::printf("Ext-TMC error: %.4f (rank corr %.3f)\n",
              RelativeL2Error(exact->values, tmc->values),
              SpearmanCorrelation(exact->values, tmc->values));
  return 0;
}
