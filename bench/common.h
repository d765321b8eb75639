#ifndef FEDSHAP_BENCH_COMMON_H_
#define FEDSHAP_BENCH_COMMON_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/exact.h"
#include "core/ipss.h"
#include "core/stratified.h"
#include "core/valuation_result.h"
#include "data/partition.h"
#include "fl/reconstruction.h"
#include "fl/utility.h"
#include "fl/utility_cache.h"
#include "fl/utility_store.h"

namespace fedshap {
namespace bench {

/// Command-line options shared by every bench binary.
///
///   --scale=<float>   multiplies dataset sizes (and some budgets); also
///                     readable from FEDSHAP_BENCH_SCALE. Default 1.0.
///   --seed=<u64>      master seed. Default 2025.
///   --quick           equivalent to --scale=0.4 (CI-sized run).
///   --threads=<int>   worker threads for coalition-batch evaluation; also
///                     readable from FEDSHAP_BENCH_THREADS. 0 = all
///                     hardware threads. Default 1 (sequential).
///   --batch-size=<int>  minibatch size of every FedAvg local-SGD epoch;
///                     also readable from FEDSHAP_BENCH_BATCH_SIZE.
///                     0 (default) keeps each scenario's own value. Part
///                     of the workload fingerprint: different batch sizes
///                     are different workloads and use different store
///                     files.
///   --cache-file=<stem>  persist utility evaluations: each workload the
///                     binary runs writes `<stem>.<fingerprint>.fsus`
///                     (content-addressed, crash-safe; also readable from
///                     FEDSHAP_BENCH_CACHE_FILE). Without --resume any
///                     existing store files are replaced.
///   --resume          with --cache-file: load existing store files, so a
///                     killed run relaunches warm and repeated invocations
///                     share trainings across processes. Charged-time
///                     accounting is unaffected (disk hits charge their
///                     recorded training cost).
///   --json=<path>     additionally write machine-readable timing /
///                     speedup records (BenchJson) to `path`; also
///                     readable from FEDSHAP_BENCH_JSON. CI uses this to
///                     archive BENCH_*.json artifacts per run so the
///                     perf trajectory is tracked over time.
///   --store-dir=<dir> directory for persistent utility stores; also
///                     readable from FEDSHAP_BENCH_STORE_DIR. Shorthand
///                     for --cache-file=<dir>/utilities (the per-workload
///                     store directories land under `dir`); an explicit
///                     --cache-file wins.
struct BenchOptions {
  double scale = 1.0;
  uint64_t seed = 2025;
  int threads = 1;
  int batch_size = 0;  // 0 = scenario default
  std::string cache_file;
  std::string store_dir;
  bool resume = false;
  std::string json;  // empty = no JSON output

  static BenchOptions Parse(int argc, char** argv);

  /// rows scaled by `scale`, with a floor to stay meaningful.
  size_t ScaledRows(size_t rows) const;

  /// The effective store stem: `cache_file` when set, else
  /// `<store_dir>/utilities`, else empty (no persistence).
  std::string StoreStem() const;
};

/// Peak resident set size of this process in bytes (0 when the platform
/// offers no reading). Recorded in BenchJson provenance so memory claims
/// are attributable.
uint64_t PeakRssBytes();

/// Current resident set size in bytes (0 when unavailable).
uint64_t CurrentRssBytes();

/// Prints the effective run configuration (scale, seed, threads, cache
/// file, resume mode) so every bench's output records its own
/// provenance. Every bench main calls this right after Parse. Benches
/// that never evaluate through a ScenarioRunner (closed-form utilities
/// reseeded per run, where caching and threading cannot apply) pass
/// `runner_backed = false`, and the header says the flags are unused
/// instead of claiming them as effective.
void PrintRunHeader(const char* title, const BenchOptions& options,
                    bool runner_backed = true);

/// Machine-readable bench output: an append-only list of named records,
/// each carrying string labels (case, backend, ...) and numeric metrics
/// (seconds, speedups, ...), serialized as
///
///   {"bench": "<name>", "provenance": {backend, worker budget, ...},
///    "records": [{"name": ..., <labels...>, <metrics...>}, ...]}
///
/// The provenance object is captured at write time from the live
/// process (kernel backend, worker budget, hardware threads), so every
/// archived number is attributable to the configuration that produced
/// it.
class BenchJson {
 public:
  /// One record under construction; returned by Add for fluent filling.
  class Record {
   public:
    /// Adds a string label.
    Record& Label(const std::string& key, const std::string& value);
    /// Adds a numeric metric.
    Record& Metric(const std::string& key, double value);

   private:
    friend class BenchJson;
    std::string name_;
    std::vector<std::pair<std::string, std::string>> labels_;
    std::vector<std::pair<std::string, double>> metrics_;
  };

  /// `bench_name` identifies the producing binary in the output.
  explicit BenchJson(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Starts a new record. The reference stays valid until the next Add.
  Record& Add(const std::string& name);

  /// True when no records were added.
  bool empty() const { return records_.empty(); }

  /// Writes the collected records to `path` (overwriting). No-op
  /// returning OK when `path` is empty, so call sites can pass
  /// BenchOptions::json unconditionally.
  Status WriteTo(const std::string& path) const;

 private:
  std::string bench_name_;
  std::vector<Record> records_;
};

/// FL model architectures used across the paper's evaluation.
enum class ModelKind { kMlp, kCnn, kLogReg, kXgb };
const char* ModelKindName(ModelKind kind);

/// A fully assembled valuation workload: the utility function plus the
/// metadata the harness needs.
struct Scenario {
  std::unique_ptr<UtilityFunction> utility;
  /// Non-null iff gradient-based baselines apply (FedAvg-trained models).
  FedAvgUtility* fedavg = nullptr;
  int n = 0;
  std::string description;
};

/// FEMNIST-style workload: synthetic digits partitioned by writer id.
Scenario MakeFemnistScenario(int n, ModelKind kind,
                             const BenchOptions& options);

/// Adult-style workload: synthetic census data partitioned by occupation.
/// `kind` must be kMlp, kLogReg or kXgb.
Scenario MakeAdultScenario(int n, ModelKind kind,
                           const BenchOptions& options);

/// The five synthetic setups of Fig. 6 on digit data.
Scenario MakeSyntheticScenario(PartitionScheme scheme, int n, ModelKind kind,
                               const BenchOptions& options);

/// Scalability workload (Fig. 9): n clients on small digits with 5% planted
/// free riders (empty datasets) and 5% duplicated datasets. Outputs the
/// planted structure for the fairness proxies.
struct ScalabilityScenario {
  Scenario scenario;
  std::vector<int> null_players;
  std::vector<std::pair<int, int>> duplicate_pairs;
};
ScalabilityScenario MakeScalabilityScenario(int n,
                                            const BenchOptions& options);

/// The paper's Table III sampling budgets: gamma = 5 / 8 / 32 for
/// n = 3 / 6 / 10; n log2(n) otherwise (the Fig. 9 choice).
int PaperGamma(int n);

/// All compared algorithms, in the paper's column order (Tables IV/V).
enum class Algo {
  kPermShapley,
  kMcShapley,
  kDigFl,
  kExtTmc,
  kExtGtb,
  kCcShapley,
  kGtgShapley,
  kOr,
  kLambdaMr,
  kIpss,
};
const char* AlgoName(Algo algo);
std::vector<Algo> AllAlgos();
/// The sampling-based subset used by Figs. 7/8/9.
std::vector<Algo> SamplingAlgos();

/// One algorithm execution, annotated for table rendering.
struct AlgoRun {
  ValuationResult result;
  /// False when the method does not apply (gradient-based x XGB).
  bool applicable = true;
  /// True for exact methods: the error column renders "-".
  bool exact = false;
  /// True when charged time is an extrapolation (Perm-Shapley at n where
  /// enumerating n! is infeasible), mirroring the paper's 10^9-second
  /// entries.
  bool estimated_time = false;
};

/// Drives all algorithms against one scenario with a shared utility cache,
/// computing the exact ground truth once. With `threads` > 1, every
/// session it opens fans coalition batches out over a shared ThreadPool
/// (0 = all hardware threads); estimates and accounting are identical to a
/// sequential run.
///
/// When the options carry a `--cache-file` stem, the runner opens the
/// scenario's content-addressed UtilityStore (`<stem>.<fp>.fsus` where fp
/// = the utility's workload fingerprint) and attaches it to the cache:
/// every training becomes durable as it completes, and with `--resume`
/// previously persisted trainings are preloaded, so a relaunched run only
/// pays for what the killed one never computed.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(Scenario scenario, int threads = 1);

  /// Applies `options.threads` and, when `options.cache_file` is set,
  /// opens + attaches the scenario's persistent utility store.
  ScenarioRunner(Scenario scenario, const BenchOptions& options);

  /// Flushes the attached store (when any) before tearing down.
  ~ScenarioRunner();

  int n() const { return scenario_.n; }
  const std::string& description() const { return scenario_.description; }
  UtilityCache& cache() { return cache_; }

  /// Exact MC-SV (computed once, cached).
  const std::vector<double>& GroundTruth();

  /// Mean train+evaluate seconds per coalition observed so far (tau).
  double MeanTrainingCost() const;

  /// Runs one algorithm at budget `gamma` with the given seed.
  Result<AlgoRun> Run(Algo algo, int gamma, uint64_t seed);

 private:
  Result<ReconstructionContext*> GetContext();

  Scenario scenario_;
  UtilityCache cache_;
  std::unique_ptr<UtilityStore> store_;  // null without --cache-file
  std::unique_ptr<ThreadPool> pool_;  // null when running sequentially
  std::unique_ptr<ReconstructionContext> context_;
  std::optional<std::vector<double>> ground_truth_;
  double ground_truth_seconds_ = 0.0;
};

/// "12.3ms" / "-" / "~1.2e+03s" cell renderers for the result tables.
std::string TimeCell(const AlgoRun& run);
std::string ErrorCell(const AlgoRun& run, const std::vector<double>& exact);

}  // namespace bench
}  // namespace fedshap

#endif  // FEDSHAP_BENCH_COMMON_H_
