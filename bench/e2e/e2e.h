#ifndef FEDSHAP_BENCH_E2E_E2E_H_
#define FEDSHAP_BENCH_E2E_E2E_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/valuation_result.h"
#include "service/cluster_worker.h"
#include "service/job_spec.h"
#include "service/valuation_service.h"
#include "util/status.h"

/// \file
/// Internal declarations of the fedshapd end-to-end benchmark driver
/// (fedshap_e2e). See README.md in this directory for the metrics, the
/// workloads and how to compare two commits.

namespace fedshap::e2e {

// ---------------------------------------------------------------------------
// Statistics and the metric table (metrics.cc)

/// Nearest-rank percentile of `samples` at `per_10k` / 10000 (5000 = p50,
/// 9000 = p90). Integer ranks, so p90 of 100 samples is exactly the 90th
/// smallest and leaves 10 samples beyond it. 0 for no samples.
double Percentile(std::vector<double> samples, int per_10k);

/// Samples strictly beyond the nearest-rank percentile `per_10k`.
size_t SamplesBeyond(size_t count, int per_10k);

/// The highest of p50/p90/p99/p99.9/p99.99 (as per-10k ranks) that keeps
/// at least 10 samples beyond it; 0 when not even p50 does.
int HighestResolvedPercentile(size_t count);

/// "p90", "p99.9", ... for a per-10k rank.
std::string PercentileLabel(int per_10k);

/// A span's extent in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// `parent`'s length minus the part of it that `children` cover; children
/// are clipped to the parent and overlapping children count once.
int64_t SelfTime(const Interval& parent, const std::vector<Interval>& children);

/// One end-to-end metric: its unit, direction and regression bound. A
/// change regresses the metric when its median is worse than the parent's
/// by more than max(bound * |parent median|, floor).
struct MetricDef {
  const char* name;
  const char* unit;
  bool lower_is_better;
  double bound;  ///< Share of the parent's median.
  double floor;  ///< Absolute minimum of the allowed worsening.
};

/// The end-to-end metrics every workload reports, in print order.
const std::vector<MetricDef>& EndToEndMetrics();

/// How much `def` may worsen from a parent median before it regresses.
double AllowedWorsening(const MetricDef& def, double parent_median);

/// True when `change_median` is worse than `parent_median` by more than
/// AllowedWorsening.
bool IsRegression(const MetricDef& def, double parent_median,
                  double change_median);

/// Peak resident set size of this process (VmHWM) in MiB; 0 if unknown.
double PeakRssMiB();

// ---------------------------------------------------------------------------
// Workloads (workloads.cc)

/// One benchmark workload: a job mix, the service topology it runs on,
/// and what it must be seen to exercise.
struct Workload {
  std::string name;
  /// The window closes only at a multiple of this many jobs: a round is a
  /// self-contained stretch of the job list (e.g. tenants arriving cold
  /// and turning hot), so every run measures whole rounds.
  size_t round_jobs = 1;
  /// Runs the service with a state directory (stores + snapshots).
  bool durable = false;
  /// Routes every cache miss through a LocalCluster with these options.
  bool cluster = false;
  LocalClusterOptions cluster_options;
  /// Durable only: jobs run by an untimed prepare phase whose stored
  /// trainings the timed phase re-reads.
  std::vector<JobSpec> prepared;
};

/// Names of every workload, in the order run.py runs them.
std::vector<std::string> WorkloadNames();

/// The workload called `name`, with its prepared pool generated from
/// `seed`; NotFound for unknown names.
Result<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// The `index`-th job of `workload`'s job list under `seed`: a pure
/// function of the three, so the list is the same on every run.
JobSpec MakeJob(const Workload& workload, uint64_t seed, size_t index);

/// True for jobs that only re-read trainings the prepare phase stored.
bool IsStoredRerun(const JobSpec& spec);

// ---------------------------------------------------------------------------
// Tracing (trace.cc)

/// Layer boundaries the traced replay records spans at.
enum class Layer : uint8_t {
  kClient,           ///< One client thread's whole replay.
  kJob,              ///< One job, from its first call to its result.
  kLookup,           ///< Finding (or building) the job's federation.
  kBuild,            ///< ScenarioSpec::Build of a new federation.
  kStoreOpen,        ///< UtilityStore::Open + AttachStore.
  kPlan,             ///< MakeSweep (estimator construction and plan).
  kStep,             ///< ResumableEstimator::Step.
  kFinish,           ///< ResumableEstimator::Finish.
  kOneShot,          ///< RunOneShot.
  kCheckpoint,       ///< SaveSnapshot after a slice.
  kEvaluate,         ///< Local FL training + scoring of one coalition.
  kClusterEvaluate,  ///< One coalition through ClusterUtility.
};
inline constexpr int kNumLayers = 12;

/// Span name of `layer` ("core.step", "fl.evaluate", ...).
const char* LayerName(Layer layer);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root.
  uint64_t job = 0;     ///< Shared by every span of one job (0 = none).
  Layer layer = Layer::kClient;
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Records a span on the current thread from construction to
/// destruction, as a child of the thread's innermost open span.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
};

/// Tags the spans the current thread opens from now on with `job`.
void SetCurrentJob(uint64_t job);

/// Every span recorded so far by any thread. Call once the recording
/// threads have been joined.
std::vector<Span> CollectSpans();

/// Writes `spans` as JSON to `path`.
Status WriteSpans(const std::vector<Span>& spans, const std::string& path);

/// Per-layer totals derived from a span list.
struct LayerTimes {
  std::vector<double> duration_ms[kNumLayers];  ///< Every span's length.
  double self_s[kNumLayers] = {};               ///< Summed self time.
  double busy_s[kNumLayers] = {};               ///< Summed durations.
};
LayerTimes SummarizeSpans(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// The closed-loop run and the traced replay

/// One job of the timed window, kept small because a run may finish
/// 10^5 jobs: the spec is MakeJob(workload, seed, index) and the values
/// are kept as HashValues of their bits.
struct JobOutcome {
  size_t index = 0;
  double latency_s = 0;
  double finished_s = 0;  ///< Completion time, from the window's start.
  bool ok = false;
  size_t fresh_trainings = 0;
  size_t evaluations = 0;
  uint64_t values_hash = 0;
};

/// FNV-1a over the bit patterns of `values`: equal hashes stand for
/// bit-identical value vectors.
uint64_t HashValues(const std::vector<double>& values);

/// Everything the untraced run measured that the replay reuses.
struct RunRecord {
  std::vector<JobOutcome> jobs;  ///< In index order.
  double window_s = 0;
  double setup_cluster_start_ms = 0;
  double setup_recover_ms = 0;
  ServiceStats service;  ///< Counters of the timed window's service.
  ClusterStats cluster;  ///< Its dispatcher (cluster workloads only).
};

/// One reported metric value.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};
using MetricList = std::vector<Metric>;

/// Replays `run.jobs` through the layers' public functions with 2 client
/// threads, records spans, and derives the per-layer metrics. `scratch`
/// holds durable state; `prepared_store` is the store directory the
/// prepare phase left (durable only). Writes spans to `spans_path` when
/// it is not empty.
Result<MetricList> ReplayTraced(const Workload& workload, uint64_t seed,
                                const RunRecord& run,
                                const std::string& scratch,
                                const std::string& prepared_store,
                                const std::string& spans_path);

/// The in-driver checks of --self-test; returns the process exit code.
int RunSelfTest();

}  // namespace fedshap::e2e

#endif  // FEDSHAP_BENCH_E2E_E2E_H_
