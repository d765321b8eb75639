/// Reproduces Fig. 9: scalability of the sampling-based algorithms up to
/// 100 FL clients. Exact ground truth is infeasible (2^100 coalitions), so
/// — exactly like the paper — 5% of clients are planted free riders (empty
/// datasets) and 5% hold duplicated datasets, and the error proxy is how
/// much each algorithm violates the no-free-rider and symmetric-fairness
/// properties. gamma = n log2 n.

#include <cstdio>
#include <iostream>

#include "common.h"
#include "core/valuation_metrics.h"
#include "util/table.h"

using namespace fedshap;
using namespace fedshap::bench;

int main(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  PrintRunHeader(
      "Fig. 9: scalability to 100 clients (gamma = n log2 n, "
      "5% free riders + 5% duplicates)",
      options);
  BenchJson json("fig9_scalability");

  ConsoleTable table({"n", "algorithm", "time", "trainings",
                      "free-rider err", "symmetry err", "combined"});
  for (int n : {20, 40, 60, 80, 100}) {
    ScalabilityScenario scenario = MakeScalabilityScenario(n, options);
    ScenarioRunner runner(std::move(scenario.scenario), options);
    const int gamma = PaperGamma(n);

    for (Algo algo : SamplingAlgos()) {
      Result<AlgoRun> run = runner.Run(algo, gamma, options.seed + n);
      if (!run.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", AlgoName(algo),
                     run.status().ToString().c_str());
        return 1;
      }
      Result<FairnessProxyError> proxies = ComputeFairnessProxies(
          run->result.values, scenario.null_players,
          scenario.duplicate_pairs);
      if (!proxies.ok()) return 1;
      table.AddRow({std::to_string(n), AlgoName(algo), TimeCell(*run),
                    std::to_string(run->result.num_trainings),
                    FormatDouble(proxies->free_rider, 4),
                    FormatDouble(proxies->symmetry, 4),
                    FormatDouble(proxies->combined, 4)});
      json.Add("scalability")
          .Label("algorithm", AlgoName(algo))
          .Metric("n", n)
          .Metric("gamma", gamma)
          .Metric("charged_seconds", run->result.charged_seconds)
          .Metric("trainings",
                  static_cast<double>(run->result.num_trainings))
          .Metric("free_rider_error", proxies->free_rider)
          .Metric("symmetry_error", proxies->symmetry);
    }
    table.AddSeparator();
  }
  table.Print(std::cout);

  Status written = json.WriteTo(options.json);
  if (!written.ok()) {
    std::fprintf(stderr, "bench JSON: %s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}
