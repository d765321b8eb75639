/// Quickstart: the paper's running example (Fig. 1a / Table I) in a dozen
/// lines of fedshap API.
///
/// Three hospitals jointly train an FL model; the utility of every coalition
/// is known (Table I of the paper). We compute each hospital's exact
/// Shapley data value, then approximate it with IPSS under a budget of 5
/// utility evaluations (the paper's gamma for n=3) and compare.

#include <cstdio>

#include "core/exact.h"
#include "core/ipss.h"
#include "core/valuation_metrics.h"
#include "fl/utility.h"
#include "fl/utility_cache.h"
#include "ml/kernel_backend.h"

using namespace fedshap;

int main() {
  // Provenance: which kernel backend produced this
  // run (see ml/kernel_backend.h).
  std::printf("%s\n", fedshap::KernelProvenanceString().c_str());
  // U(S) for all 8 coalitions of {hospital0, hospital1, hospital2},
  // indexed by bitmask (paper Table I).
  Result<TableUtility> utility = TableUtility::FromValues(
      3, {0.10, 0.50, 0.70, 0.80, 0.60, 0.90, 0.90, 0.96});
  if (!utility.ok()) {
    std::fprintf(stderr, "failed to build utility: %s\n",
                 utility.status().ToString().c_str());
    return 1;
  }

  UtilityCache cache(&utility.value());

  // Exact Shapley values (trains all 2^3 coalitions).
  UtilitySession exact_session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  if (!exact.ok()) {
    std::fprintf(stderr, "exact SV failed: %s\n",
                 exact.status().ToString().c_str());
    return 1;
  }

  // IPSS under the paper's n=3 budget: gamma = 5 evaluations.
  UtilitySession ipss_session(&cache);
  IpssConfig config;
  config.total_rounds = 5;
  Result<ValuationResult> approx = IpssShapley(ipss_session, config);
  if (!approx.ok()) {
    std::fprintf(stderr, "IPSS failed: %s\n",
                 approx.status().ToString().c_str());
    return 1;
  }

  std::printf("Shapley data valuation of three hospitals (paper Table I)\n");
  std::printf("%-12s %12s %14s\n", "client", "exact SV", "IPSS (gamma=5)");
  for (int i = 0; i < 3; ++i) {
    std::printf("hospital %-3d %12.4f %14.4f\n", i, exact->values[i],
                approx->values[i]);
  }
  std::printf("\nexact evaluations used:  %zu coalitions\n",
              exact->num_trainings);
  std::printf("IPSS evaluations used:   %zu coalitions\n",
              approx->num_trainings);
  std::printf("relative l2 error:       %.4f\n",
              RelativeL2Error(exact->values, approx->values));
  return 0;
}
