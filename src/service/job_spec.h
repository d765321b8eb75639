#ifndef FEDSHAP_SERVICE_JOB_SPEC_H_
#define FEDSHAP_SERVICE_JOB_SPEC_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/resumable.h"
#include "core/valuation_result.h"
#include "fl/utility.h"
#include "fl/utility_cache.h"
#include "util/serialization.h"
#include "util/status.h"

namespace fedshap {

/// \file
/// Job descriptions for the valuation service: what workload to value
/// (`ScenarioSpec`), with which estimator and budget (`JobSpec`), plus
/// the text job-line format `fedshapd` reads and the factory that turns
/// a spec into a runnable estimator.
///
/// A job line is one job per line of whitespace-separated `key=value`
/// tokens (`#` starts a comment, blank lines are skipped):
///
///     name=demo estimator=ipss gamma=24 n=6 partition=bygroup
///
/// See docs/OPERATIONS.md for the full key reference.

/// The workload half of a job: which federated scenario the utility
/// function U(S) is built from. Two jobs whose specs build utilities
/// with equal content fingerprints share trainings through the service's
/// per-workload cache and store — the cross-job dedup the service exists
/// for.
struct ScenarioSpec {
  /// Workload family: "digits" (synthetic image classification trained
  /// with FedAvg logistic regression — every utility evaluation is a real
  /// FL training) or "linreg" (the closed-form Donahue-Kleinberg
  /// linear-regression utility of the paper's theory sections — instant
  /// evaluations, used for tests and demos).
  std::string kind = "digits";
  /// Number of FL clients n.
  int n = 6;
  /// How training data is split across clients. For "digits":
  /// "bygroup" (writer-id partition) or the paper's synthetic setups
  /// "iid" / "skew" / "sizes" / "noisy". Ignored by "linreg".
  std::string partition = "bygroup";
  /// Master seed of data generation, partitioning and model init.
  uint64_t seed = 2025;
  /// FedAvg communication rounds per utility evaluation ("digits" only).
  int fl_rounds = 3;
  /// Local SGD epochs per round ("digits" only).
  int local_epochs = 1;
  /// Local SGD minibatch size ("digits" only; part of the workload
  /// fingerprint, like the bench harness's --batch-size).
  int batch_size = 16;
  /// Local SGD learning rate ("digits" only).
  double learning_rate = 0.3;
  /// Rows per client t ("linreg" only).
  int samples_per_client = 50;
  /// Per-sample noise sigma ("linreg" only; 0 = deterministic utility).
  double noise_scale = 0.0;

  /// Builds the utility function this spec describes. Generating the
  /// synthetic data and initializing the model takes tens of
  /// milliseconds for "digits"; evaluation cost is where the real time
  /// goes. Fails with InvalidArgument on an unknown kind/partition or
  /// out-of-range n.
  Result<std::unique_ptr<UtilityFunction>> Build() const;

  /// Deterministic textual identity of the spec: equal keys mean "the
  /// service may share one workload context". The built utility's
  /// content fingerprint (UtilityFunction::Fingerprint()) is the
  /// ground-truth identity; the key is the cheap pre-build index into
  /// the service's workload table.
  std::string CanonicalKey() const;
};

/// Which valuation estimator a job runs.
enum class EstimatorKind {
  kIpss,            ///< IPSS (Alg. 3), resumable sweep.
  kAdaptiveIpss,    ///< Adaptive-budget IPSS (doubling gamma), one-shot.
  kStratified,      ///< Unified stratified sampling (Alg. 1), resumable.
  kExactMc,         ///< Exact MC-SV over all 2^n coalitions, resumable.
  kExactCc,         ///< Exact CC-SV over all 2^n coalitions, resumable.
  kExactPerm,       ///< Exact permutation SV (n! orderings), one-shot.
  kPermMc,          ///< Monte-Carlo permutation sampling, resumable.
  kKGreedy,         ///< K-Greedy probe (Alg. 2), one-shot.
  kExtTmc,          ///< Ext-TMC baseline, one-shot.
  kExtGtb,          ///< Ext-GTB baseline, one-shot.
  kCcShapley,       ///< CC-Shapley baseline, one-shot.
  kLeaveOneOut,     ///< Leave-one-out index, one-shot.
  kBanzhaf,         ///< Monte-Carlo Banzhaf index, one-shot.
};

/// The job-line token of `kind` (e.g. "ipss", "exact-mc").
const char* EstimatorKindName(EstimatorKind kind);

/// Parses an estimator token; InvalidArgument on unknown names.
Result<EstimatorKind> ParseEstimatorKind(std::string_view token);

/// True for estimators that implement ResumableEstimator: they run in
/// checkpointed slices and survive a service kill mid-job. One-shot
/// estimators run as a single unit of work; a crash re-runs them from
/// scratch, which the shared utility store makes cheap (the trainings
/// are durable even when the estimator state is not).
bool IsResumable(EstimatorKind kind);

/// One valuation job: a workload, an estimator, and its budget.
struct JobSpec {
  /// Unique job name ([A-Za-z0-9_.-]+); doubles as the state-file stem.
  std::string name;
  /// Which estimator to run.
  EstimatorKind estimator = EstimatorKind::kIpss;
  /// Sampling budget gamma (utility evaluations for IPSS/stratified;
  /// permutations/samples/rounds for the other samplers; the budget
  /// ceiling for adaptive IPSS). Ignored by exact sweeps and LOO.
  int gamma = 32;
  /// K-Greedy depth (kKGreedy only).
  int k = 2;
  /// Seed of the estimator's sampling randomness.
  uint64_t seed = 1;
  /// Work units per checkpointed slice for resumable estimators: the
  /// service snapshots the estimator and re-queues the job after this
  /// many evaluations, bounding both checkpoint loss and the time a job
  /// can monopolize a worker.
  int checkpoint_every = 8;
  /// Stratum budget allocation of the stratified estimator: "fixed"
  /// (DefaultStratumAllocation up front) or "neyman" (the adaptive
  /// estimator: periodic Neyman reallocation from running per-stratum
  /// variance, see core/stratified.h). Only meaningful with
  /// estimator=stratified; other estimators reject "neyman".
  std::string allocation = "fixed";
  /// Ignored. The `prefetch=` key (>= 0) is still accepted so job files
  /// written by older versions parse, but ToLine no longer writes it and
  /// nothing reads the value. Kept only because bench/e2e sets it;
  /// delete with that reference.
  int prefetch = 0;
  /// Fused multi-coalition dispatch (`fuse=on|off` key): route slice
  /// batches through UtilityFunction::EvaluateBatchFused, stacking
  /// same-shape model scoring into larger GEMM dispatches. Off by
  /// default: fused values agree with the unfused path only within the
  /// kernel tolerance contract (ml/matrix.h), not bitwise.
  bool fuse = false;
  /// The workload to value.
  ScenarioSpec scenario;

  /// Parses one job line (see the file comment for the format). Fails
  /// with InvalidArgument on unknown keys, bad values or a missing name.
  static Result<JobSpec> FromLine(std::string_view line);

  /// Serializes the spec as a job line that FromLine parses back
  /// identically, apart from the ignored `prefetch` (the service
  /// persists submitted jobs in this form).
  std::string ToLine() const;
};

/// Parses a whole job file / stdin stream: one job per non-empty,
/// non-comment line. Duplicate names within the batch are rejected.
Result<std::vector<JobSpec>> ParseJobFile(std::string_view contents);

/// Binary ScenarioSpec codec for the cluster wire protocol: the
/// coordinator announces each workload to its workers as an encoded
/// spec, and every worker rebuilds the identical utility from it (the
/// fingerprint check in the cluster handshake verifies this). Versioned
/// so a field added later still decodes old frames.
void EncodeScenarioSpec(const ScenarioSpec& spec, ByteWriter& writer);
Result<ScenarioSpec> DecodeScenarioSpec(ByteReader& reader);

/// Creates the resumable sweep for `spec`. Requires
/// IsResumable(spec.estimator); `n` is the workload's client count.
Result<std::unique_ptr<ResumableEstimator>> MakeSweep(const JobSpec& spec,
                                                      int n);

/// Runs a one-shot (non-resumable) estimator to completion through
/// `session`. Requires !IsResumable(spec.estimator).
Result<ValuationResult> RunOneShot(const JobSpec& spec,
                                   UtilitySession& session);

}  // namespace fedshap

#endif  // FEDSHAP_SERVICE_JOB_SPEC_H_
