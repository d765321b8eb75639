/// Scheme comparison: why the paper builds IPSS on MC-SV rather than CC-SV.
///
/// Replicates the paper's Sec. III-B analysis empirically: under the FL
/// linear-regression noise model (Donahue & Kleinberg), the unified
/// stratified-sampling framework (Alg. 1) is run many times with each
/// computation scheme, and the across-run variance of the estimates is
/// compared. MC-SV should come out lower (Theorem 2).

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/stratified.h"
#include "fl/utility.h"
#include "fl/utility_cache.h"
#include "ml/kernel_backend.h"

using namespace fedshap;

int main() {
  // Provenance: which kernel backend produced this
  // run (see ml/kernel_backend.h).
  std::printf("%s\n", fedshap::KernelProvenanceString().c_str());
  LinearRegressionUtility::Params params;
  params.num_clients = 8;
  params.samples_per_client = 40;
  params.feature_dim = 4;
  params.noise_mean = 1.5;
  params.initial_mse = 10.0;
  params.noise_scale = 0.001;  // Var[U(M_D)] = (0.001 * |D_S|)^2
  LinearRegressionUtility utility(params);

  const int n = params.num_clients;
  const int runs = 200;
  std::vector<std::vector<double>> mc_estimates, cc_estimates;
  for (int run = 0; run < runs; ++run) {
    utility.Reseed(1000 + run);  // fresh noise realization
    UtilityCache cache(&utility);
    StratifiedConfig config;
    // Theorem 2 compares the estimators with pairs always evaluated and
    // every client covered in every stratum (m_{i,k} > 0).
    config.rounds_per_stratum = {160, 12, 10, 8, 8, 10, 12, 1};
    config.pair_policy = PairPolicy::kEvaluateOnDemand;
    config.seed = 77 + run;

    config.scheme = SvScheme::kMarginal;
    UtilitySession mc_session(&cache);
    Result<ValuationResult> mc = StratifiedSamplingShapley(mc_session, config);
    if (!mc.ok()) return 1;
    mc_estimates.push_back(mc->values);

    config.scheme = SvScheme::kComplementary;
    UtilitySession cc_session(&cache);
    Result<ValuationResult> cc = StratifiedSamplingShapley(cc_session, config);
    if (!cc.ok()) return 1;
    cc_estimates.push_back(cc->values);
  }

  auto per_client_variance = [&](const std::vector<std::vector<double>>& e,
                                 int client) {
    double mean = 0.0;
    for (const auto& v : e) mean += v[client];
    mean /= e.size();
    double var = 0.0;
    for (const auto& v : e) var += (v[client] - mean) * (v[client] - mean);
    return var / e.size();
  };

  std::printf("variance of Alg. 1 estimates over %d runs (gamma=24, n=%d)\n",
              runs, n);
  std::printf("FL linear regression utility, noise per Eq. (8)\n\n");
  std::printf("%-8s %14s %14s\n", "client", "Var[MC-SV]", "Var[CC-SV]");
  double mc_total = 0.0, cc_total = 0.0;
  for (int i = 0; i < n; ++i) {
    const double mc_var = per_client_variance(mc_estimates, i);
    const double cc_var = per_client_variance(cc_estimates, i);
    mc_total += mc_var;
    cc_total += cc_var;
    std::printf("%-8d %14.3e %14.3e\n", i, mc_var, cc_var);
  }
  std::printf("\ntotal: MC=%.3e vs CC=%.3e -> %s has lower variance"
              " (Theorem 2 predicts MC)\n",
              mc_total, cc_total, mc_total < cc_total ? "MC-SV" : "CC-SV");
  return 0;
}
