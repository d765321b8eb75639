#include "core/resumable.h"

#include <algorithm>
#include <climits>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "core/exact.h"
#include "fl/utility_store.h"
#include "util/combinatorics.h"
#include "util/logging.h"
#include "util/serialization.h"
#include "util/stopwatch.h"

namespace fedshap {

namespace {

/// The common snapshot header: algorithm name + configuration hash.
void PutSnapshotHeader(ByteWriter& payload, const char* algorithm,
                       uint64_t config_hash) {
  payload.PutString(algorithm);
  payload.PutU64(config_hash);
}

/// Validates the frame and the common header against the restoring
/// estimator's identity; returns the remaining payload reader on match.
/// Accepts any frame version <= kSweepSnapshotVersion: the payload
/// layout of every pre-existing sweep is unchanged since version 1, so
/// old snapshots (written before the adaptive allocation state existed)
/// restore as-is.
Result<ByteReader> CheckSnapshotHeader(std::string_view snapshot,
                                       const char* algorithm,
                                       uint64_t config_hash) {
  FEDSHAP_ASSIGN_OR_RETURN(
      std::string_view payload,
      DecodeFramed(kSweepSnapshotMagic, kSweepSnapshotVersion, snapshot));
  ByteReader reader(payload);
  FEDSHAP_ASSIGN_OR_RETURN(std::string name, reader.GetString());
  if (name != algorithm) {
    return Status::FailedPrecondition("snapshot was taken by '" + name +
                                      "', not '" + algorithm + "'");
  }
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t stored_hash, reader.GetU64());
  if (stored_hash != config_hash) {
    return Status::FailedPrecondition(
        "snapshot configuration does not match this sweep");
  }
  return reader;
}

}  // namespace

Result<ValuationResult> ResumableEstimator::Run(UtilitySession& session) {
  FEDSHAP_RETURN_NOT_OK(Step(session, 0));
  return Finish(session);
}

Status SaveSnapshot(const ResumableEstimator& estimator,
                    const std::string& path) {
  FEDSHAP_ASSIGN_OR_RETURN(std::string snapshot, estimator.Snapshot());
  return WriteFileAtomic(path, snapshot);
}

Status LoadSnapshot(ResumableEstimator& estimator, const std::string& path) {
  FEDSHAP_ASSIGN_OR_RETURN(std::string snapshot, ReadFileToString(path));
  return estimator.Restore(snapshot);
}

namespace {
/// Frame tag of persisted ValuationResults ("FSVR" little-endian).
constexpr uint32_t kResultMagic = 0x52565346u;
constexpr uint32_t kResultVersion = 1;
}  // namespace

std::string EncodeValuationResult(const ValuationResult& result) {
  ByteWriter payload;
  payload.PutVarint(result.values.size());
  for (double value : result.values) payload.PutDouble(value);
  payload.PutVarint(result.num_evaluations);
  payload.PutVarint(result.num_trainings);
  payload.PutVarint(result.num_fresh_trainings);
  payload.PutDouble(result.charged_seconds);
  payload.PutDouble(result.wall_seconds);
  return EncodeFramed(kResultMagic, kResultVersion, payload.bytes());
}

Result<ValuationResult> DecodeValuationResult(std::string_view encoded) {
  FEDSHAP_ASSIGN_OR_RETURN(std::string_view payload,
                           DecodeFramed(kResultMagic, kResultVersion,
                                        encoded));
  ByteReader reader(payload);
  ValuationResult result;
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t count, reader.GetCount(8));
  result.values.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    FEDSHAP_ASSIGN_OR_RETURN(double value, reader.GetDouble());
    result.values.push_back(value);
  }
  FEDSHAP_ASSIGN_OR_RETURN(result.num_evaluations, reader.GetVarint());
  FEDSHAP_ASSIGN_OR_RETURN(result.num_trainings, reader.GetVarint());
  FEDSHAP_ASSIGN_OR_RETURN(result.num_fresh_trainings, reader.GetVarint());
  FEDSHAP_ASSIGN_OR_RETURN(result.charged_seconds, reader.GetDouble());
  FEDSHAP_ASSIGN_OR_RETURN(result.wall_seconds, reader.GetDouble());
  FEDSHAP_RETURN_NOT_OK(reader.CheckAtEnd("ValuationResult"));
  return result;
}

// ---------------------------------------------------------------------------
// CoalitionPlanSweep

void CoalitionPlanSweep::SetPlan(std::vector<Coalition> plan) {
  plan_ = std::move(plan);
  utilities_.reserve(plan_.size());
}

void CoalitionPlanSweep::FailInit(Status status) {
  FEDSHAP_CHECK(!status.ok());
  init_status_ = std::move(status);
}

uint64_t CoalitionPlanSweep::PlanHash() const {
  Hasher64 hasher;
  hasher.MixU64(plan_.size());
  for (const Coalition& c : plan_) hasher.MixU64(c.Hash());
  return hasher.digest();
}

Status CoalitionPlanSweep::Step(UtilitySession& session, int max_units) {
  FEDSHAP_RETURN_NOT_OK(init_status_);
  if (cursor_ >= plan_.size()) return Status::OK();
  Stopwatch timer;
  size_t todo = plan_.size() - cursor_;
  if (max_units > 0) todo = std::min(todo, static_cast<size_t>(max_units));
  const std::vector<Coalition> batch(
      plan_.begin() + static_cast<ptrdiff_t>(cursor_),
      plan_.begin() + static_cast<ptrdiff_t>(cursor_ + todo));
  FEDSHAP_ASSIGN_OR_RETURN(std::vector<double> values,
                           session.EvaluateBatch(batch));
  utilities_.insert(utilities_.end(), values.begin(), values.end());
  cursor_ += todo;
  wall_accum_ += timer.ElapsedSeconds();
  return Status::OK();
}

Result<ValuationResult> CoalitionPlanSweep::Finish(UtilitySession& session) {
  FEDSHAP_RETURN_NOT_OK(init_status_);
  if (cursor_ != plan_.size()) {
    return Status::FailedPrecondition(
        "sweep is not complete: " + std::to_string(cursor_) + "/" +
        std::to_string(plan_.size()) + " evaluations done");
  }
  Stopwatch timer;
  FEDSHAP_ASSIGN_OR_RETURN(std::vector<double> values, Estimate(session));
  return FinishValuation(std::move(values), session,
                         wall_accum_ + timer.ElapsedSeconds());
}

Result<std::string> CoalitionPlanSweep::Snapshot() const {
  FEDSHAP_RETURN_NOT_OK(init_status_);
  ByteWriter payload;
  PutSnapshotHeader(payload, AlgorithmName(), ConfigHash());
  payload.PutU64(PlanHash());
  payload.PutVarint(plan_.size());
  payload.PutVarint(cursor_);
  for (size_t j = 0; j < cursor_; ++j) payload.PutDouble(utilities_[j]);
  return EncodeFramed(kSweepSnapshotMagic, kSweepSnapshotVersion, payload.bytes());
}

Status CoalitionPlanSweep::Restore(std::string_view snapshot) {
  FEDSHAP_RETURN_NOT_OK(init_status_);
  FEDSHAP_ASSIGN_OR_RETURN(
      ByteReader reader,
      CheckSnapshotHeader(snapshot, AlgorithmName(), ConfigHash()));
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t plan_hash, reader.GetU64());
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t plan_size, reader.GetVarint());
  if (plan_hash != PlanHash() || plan_size != plan_.size()) {
    return Status::FailedPrecondition(
        "snapshot evaluation plan does not match this sweep");
  }
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t cursor,
                           reader.GetVarintAtMost(plan_.size()));
  std::vector<double> utilities;
  utilities.reserve(cursor);
  for (uint64_t j = 0; j < cursor; ++j) {
    FEDSHAP_ASSIGN_OR_RETURN(double value, reader.GetDouble());
    utilities.push_back(value);
  }
  FEDSHAP_RETURN_NOT_OK(reader.CheckAtEnd("snapshot"));
  // All validated; commit. Wall accounting restarts: the resumed run
  // reports its own process's time, not the dead process's (nor time
  // spent on work a rollback just discarded).
  utilities_ = std::move(utilities);
  cursor_ = cursor;
  wall_accum_ = 0.0;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// IpssSweep

IpssSweep::IpssSweep(int n, const IpssConfig& config)
    : n_(n), config_(config) {
  if (n < 1) {
    FailInit(Status::InvalidArgument("need at least one client"));
    return;
  }
  if (config.total_rounds < 1) {
    FailInit(Status::InvalidArgument("total_rounds must be >= 1"));
    return;
  }
  // Alg. 3 lines 1-14: exhaustive strata up to k*, then the balanced
  // sample of the (k*+1)-stratum drawn from Rng(seed).
  k_star_ = IpssKStar(n, config.total_rounds);
  FEDSHAP_CHECK(k_star_ >= 0);
  std::vector<Coalition> plan;
  for (int k = 0; k <= k_star_; ++k) {
    ForEachSubsetOfSize(n, k,
                        [&](const Coalition& c) { plan.push_back(c); });
  }
  exhaustive_count_ = plan.size();
  if (k_star_ + 1 <= n) {
    Rng rng(config.seed);
    const int remaining =
        config.total_rounds - static_cast<int>(exhaustive_count_);
    for (const Coalition& c :
         BalancedCoalitionSample(n, k_star_ + 1, remaining, rng)) {
      plan.push_back(c);
    }
  }
  SetPlan(std::move(plan));
}

uint64_t IpssSweep::ConfigHash() const {
  return Hasher64()
      .MixString("ipss")
      .MixU64(static_cast<uint64_t>(n_))
      .MixU64(static_cast<uint64_t>(config_.total_rounds))
      .MixU64(config_.seed)
      .digest();
}

Result<std::vector<double>> IpssSweep::Estimate(UtilitySession&) const {
  std::unordered_map<Coalition, double, CoalitionHash> utilities;
  utilities.reserve(plan_.size());
  for (size_t j = 0; j < plan_.size(); ++j) {
    utilities.emplace(plan_[j], utilities_[j]);
  }
  const std::vector<Coalition> pruned_sample(
      plan_.begin() + static_cast<ptrdiff_t>(exhaustive_count_),
      plan_.end());
  // Observability: the sampled stratum's marginal-contribution spread,
  // accumulated as the stratified framework's running moments (every
  // pair S \ {i} has size k* and is exhaustively evaluated). The
  // adaptive allocator (core/stratified.h) reads the same statistic
  // when it decides where the next rounds go; here it tells an operator
  // how noisy IPSS's one sampled stratum actually was. It costs a pass
  // over the sample, so it is only computed when debug lines are kept.
  if (k_star_ < n_ && GetLogLevel() <= LogLevel::kDebug) {
    StratumMoments pruned_moments;
    for (const Coalition& p : pruned_sample) {
      const double u_p = utilities.at(p);
      for (int i : p.Members()) {
        const auto it = utilities.find(p.Without(i));
        if (it != utilities.end()) pruned_moments.Add(u_p - it->second);
      }
    }
    FEDSHAP_LOG(Debug) << "[ipss] pruned stratum k=" << (k_star_ + 1)
                       << " samples=" << pruned_moments.count
                       << " sigma=" << pruned_moments.StdDev();
  }
  return IpssEstimateFromUtilities(n_, k_star_, utilities, pruned_sample);
}

// ---------------------------------------------------------------------------
// StratifiedSweep

StratifiedSweep::StratifiedSweep(int n, const StratifiedConfig& config)
    : n_(n), config_(config) {
  if (n < 1) {
    FailInit(Status::InvalidArgument("need at least one client"));
    return;
  }
  if (config.rounds_per_stratum.empty() && config.total_rounds < 0) {
    FailInit(Status::InvalidArgument("total_rounds must be >= 0"));
    return;
  }
  std::vector<int> rounds = config.rounds_per_stratum;
  if (rounds.empty()) {
    rounds = DefaultStratumAllocation(n, config.total_rounds);
  }
  if (static_cast<int>(rounds.size()) != n) {
    FailInit(Status::InvalidArgument(
        "rounds_per_stratum must have n entries (m_1..m_n)"));
    return;
  }
  // Alg. 1 lines 1-8: repeated i.i.d. draws per stratum, duplicates
  // collapsed (the paper's S_k is a set), the empty coalition always
  // first.
  Rng rng(config.seed);
  std::vector<std::unordered_set<Coalition, CoalitionHash>> sampled(n + 1);
  std::vector<Coalition> plan;
  plan.push_back(Coalition());
  for (int k = 1; k <= n; ++k) {
    const int m_k = rounds[k - 1];
    for (int s = 0; s < m_k; ++s) {
      Coalition c = RandomSubsetOfSize(n, k, rng);
      if (!sampled[k].insert(c).second) continue;
      plan.push_back(c);
    }
  }
  SetPlan(std::move(plan));
}

uint64_t StratifiedSweep::ConfigHash() const {
  Hasher64 hasher;
  hasher.MixString("stratified")
      .MixU64(static_cast<uint64_t>(n_))
      .MixU64(static_cast<uint64_t>(config_.scheme))
      .MixU64(static_cast<uint64_t>(config_.pair_policy))
      .MixU64(static_cast<uint64_t>(config_.total_rounds))
      .MixU64(config_.seed);
  hasher.MixU64(config_.rounds_per_stratum.size());
  for (int m : config_.rounds_per_stratum) {
    hasher.MixU64(static_cast<uint64_t>(m));
  }
  return hasher.digest();
}

Result<std::vector<double>> StratifiedSweep::Estimate(
    UtilitySession& session) const {
  // Regroup the flat plan into per-stratum draw lists (plan order is
  // already grouped by ascending stratum).
  std::vector<std::vector<Coalition>> draws(n_ + 1);
  std::unordered_map<Coalition, double, CoalitionHash> utilities;
  utilities.reserve(plan_.size());
  for (size_t j = 0; j < plan_.size(); ++j) {
    draws[plan_[j].Count()].push_back(plan_[j]);
    utilities.emplace(plan_[j], utilities_[j]);
  }
  return StratifiedEstimateFromDraws(
      n_, config_.scheme, config_.pair_policy, draws,
      [&utilities, &session](const Coalition& c) -> Result<double> {
        auto it = utilities.find(c);
        if (it != utilities.end()) return it->second;
        // Only reachable under PairPolicy::kEvaluateOnDemand: the pair
        // of a sampled coalition was never itself drawn.
        return session.Evaluate(c);
      });
}

// ---------------------------------------------------------------------------
// ExactSweep

ExactSweep::ExactSweep(int n, SvScheme scheme) : n_(n), scheme_(scheme) {
  if (n < 1 || n > 20) {
    FailInit(Status::InvalidArgument(
        "exact SV requires 1 <= n <= 20"));
    return;
  }
  const uint64_t total = uint64_t{1} << n;
  std::vector<Coalition> plan;
  plan.reserve(total);
  for (uint64_t mask = 0; mask < total; ++mask) {
    Coalition c;
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1ULL) c.Add(i);
    }
    plan.push_back(c);
  }
  SetPlan(std::move(plan));
}

uint64_t ExactSweep::ConfigHash() const {
  return Hasher64()
      .MixString("exact")
      .MixU64(static_cast<uint64_t>(n_))
      .MixU64(static_cast<uint64_t>(scheme_))
      .digest();
}

Result<std::vector<double>> ExactSweep::Estimate(UtilitySession&) const {
  // plan_ is in mask order, so utilities_ already is the subset-utility
  // table u[mask] the exact schemes consume.
  switch (scheme_) {
    case SvScheme::kMarginal:
      return McShapleyFromSubsetUtilities(n_, utilities_);
    case SvScheme::kComplementary:
      return CcShapleyFromSubsetUtilities(n_, utilities_);
  }
  return Status::Internal("unknown scheme");
}

// ---------------------------------------------------------------------------
// PermutationMcSweep

PermutationMcSweep::PermutationMcSweep(int n,
                                       const PermutationMcConfig& config)
    : n_(n), config_(config), sums_(std::max(n, 1), 0.0),
      rng_(config.seed) {
  if (n < 1) {
    init_status_ = Status::InvalidArgument("need at least one client");
    return;
  }
  if (config.permutations < 1) {
    init_status_ = Status::InvalidArgument("permutations must be >= 1");
  }
}

size_t PermutationMcSweep::total_units() const {
  return static_cast<size_t>(std::max(config_.permutations, 0));
}

bool PermutationMcSweep::done() const {
  return init_status_.ok() && permutations_done_ >= total_units();
}

Status PermutationMcSweep::Step(UtilitySession& session, int max_units) {
  FEDSHAP_RETURN_NOT_OK(init_status_);
  if (done()) return Status::OK();
  Stopwatch timer;
  size_t todo = total_units() - permutations_done_;
  if (max_units > 0) todo = std::min(todo, static_cast<size_t>(max_units));
  // Draw the chunk's permutations first — the RNG stream must not depend
  // on evaluation scheduling, or resumption would not be bit-identical.
  // They go back to back into one array, each drawn as Rng::Permutation
  // draws it: a vector per permutation cost an allocation each, and a
  // slice's thousands of small blocks ran up to a third slower on some
  // threads than on others, depending on the state of their heap.
  const size_t n = static_cast<size_t>(n_);
  std::vector<int> perms;
  perms.reserve(todo * n);
  std::vector<int> perm(n);
  for (size_t p = 0; p < todo; ++p) {
    std::iota(perm.begin(), perm.end(), 0);
    rng_.Shuffle(perm);
    perms.insert(perms.end(), perm.begin(), perm.end());
  }
  // One batch holding every prefix of every drawn permutation (plus the
  // empty coalition) fans out over the session's thread pool; distinct
  // prefixes deduplicate in the utility cache.
  std::vector<Coalition> order;
  order.reserve(1 + todo * n);
  order.push_back(Coalition());
  for (size_t p = 0; p < todo; ++p) {
    Coalition prefix;
    for (size_t i = 0; i < n; ++i) {
      prefix.Add(perms[p * n + i]);
      order.push_back(prefix);
    }
  }
  FEDSHAP_ASSIGN_OR_RETURN(std::vector<double> u,
                           session.EvaluateBatch(order));
  size_t cursor = 1;
  for (size_t p = 0; p < todo; ++p) {
    double previous = u[0];
    for (size_t i = 0; i < n; ++i) {
      const double current = u[cursor++];
      sums_[perms[p * n + i]] += current - previous;
      previous = current;
    }
  }
  permutations_done_ += todo;
  wall_accum_ += timer.ElapsedSeconds();
  return Status::OK();
}

Result<ValuationResult> PermutationMcSweep::Finish(UtilitySession& session) {
  FEDSHAP_RETURN_NOT_OK(init_status_);
  if (!done()) {
    return Status::FailedPrecondition(
        "sweep is not complete: " + std::to_string(permutations_done_) +
        "/" + std::to_string(total_units()) + " permutations done");
  }
  Stopwatch timer;
  std::vector<double> values(n_, 0.0);
  for (int i = 0; i < n_; ++i) {
    values[i] = sums_[i] / static_cast<double>(permutations_done_);
  }
  return FinishValuation(std::move(values), session,
                         wall_accum_ + timer.ElapsedSeconds());
}

uint64_t PermutationMcSweep::ConfigHash() const {
  return Hasher64()
      .MixString("perm-mc")
      .MixU64(static_cast<uint64_t>(n_))
      .MixU64(static_cast<uint64_t>(config_.permutations))
      .MixU64(config_.seed)
      .digest();
}

Result<std::string> PermutationMcSweep::Snapshot() const {
  FEDSHAP_RETURN_NOT_OK(init_status_);
  ByteWriter payload;
  PutSnapshotHeader(payload, AlgorithmName(), ConfigHash());
  payload.PutVarint(permutations_done_);
  payload.PutVarint(sums_.size());
  for (double sum : sums_) payload.PutDouble(sum);
  payload.PutString(rng_.SaveState());
  return EncodeFramed(kSweepSnapshotMagic, kSweepSnapshotVersion, payload.bytes());
}

Status PermutationMcSweep::Restore(std::string_view snapshot) {
  FEDSHAP_RETURN_NOT_OK(init_status_);
  FEDSHAP_ASSIGN_OR_RETURN(
      ByteReader reader,
      CheckSnapshotHeader(snapshot, AlgorithmName(), ConfigHash()));
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t done_count,
                           reader.GetVarintAtMost(total_units()));
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t sum_count, reader.GetCount(8));
  if (sum_count != static_cast<uint64_t>(n_)) {
    return Status::InvalidArgument("snapshot running-sum count mismatch");
  }
  std::vector<double> sums;
  sums.reserve(sum_count);
  for (uint64_t j = 0; j < sum_count; ++j) {
    FEDSHAP_ASSIGN_OR_RETURN(double sum, reader.GetDouble());
    sums.push_back(sum);
  }
  FEDSHAP_ASSIGN_OR_RETURN(std::string rng_state, reader.GetString());
  FEDSHAP_RETURN_NOT_OK(reader.CheckAtEnd("snapshot"));
  Rng rng(0);
  FEDSHAP_RETURN_NOT_OK(rng.LoadState(rng_state));
  // All validated; commit (wall accounting restarts with this process).
  permutations_done_ = done_count;
  sums_ = std::move(sums);
  rng_ = rng;
  wall_accum_ = 0.0;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// AdaptiveStratifiedSweep

AdaptiveStratifiedSweep::AdaptiveStratifiedSweep(
    int n, const AdaptiveAllocationConfig& config)
    : n_(n), config_(config), rng_(config.seed) {
  if (n < 1) {
    init_status_ = Status::InvalidArgument("need at least one client");
    return;
  }
  if (config.total_rounds < 1) {
    init_status_ = Status::InvalidArgument("total_rounds must be >= 1");
    return;
  }
  if (config.pilot_rounds_per_stratum < 1) {
    init_status_ =
        Status::InvalidArgument("pilot_rounds_per_stratum must be >= 1");
    return;
  }
  if (config.reallocate_every < 1) {
    init_status_ = Status::InvalidArgument("reallocate_every must be >= 1");
    return;
  }
  if (!(config.refine_dominance > 0.0 && config.refine_dominance <= 1.0)) {
    init_status_ =
        Status::InvalidArgument("refine_dominance must be in (0, 1]");
    return;
  }
  if (!(config.coverage_per_client >= 0.0)) {
    init_status_ =
        Status::InvalidArgument("coverage_per_client must be >= 0");
    return;
  }
  // The run can place at most sum_k C(n, k) rounds (the clip every epoch
  // plan respects); a larger total_rounds would loop forever asking for
  // budget no stratum can absorb.
  int64_t capacity = 0;
  for (int k = 1; k <= n; ++k) {
    const uint64_t population = BinomialU64(n, k);
    capacity += population > static_cast<uint64_t>(
                                 std::numeric_limits<int>::max())
                    ? std::numeric_limits<int>::max()
                    : static_cast<int64_t>(population);
    if (capacity >= config.total_rounds) break;
  }
  effective_total_ = static_cast<size_t>(
      std::min<int64_t>(config.total_rounds, capacity));
  moments_.assign(n, StratumMoments());
  rounds_per_size_.assign(n, 0);
}

size_t AdaptiveStratifiedSweep::total_units() const {
  return effective_total_;
}

bool AdaptiveStratifiedSweep::done() const {
  return init_status_.ok() && rounds_spent_ >= effective_total_;
}

uint64_t AdaptiveStratifiedSweep::ConfigHash() const {
  return Hasher64()
      .MixString("adaptive-stratified")
      .MixU64(static_cast<uint64_t>(n_))
      .MixU64(static_cast<uint64_t>(config_.scheme))
      .MixU64(static_cast<uint64_t>(config_.pair_policy))
      .MixU64(static_cast<uint64_t>(config_.total_rounds))
      .MixU64(config_.seed)
      .MixU64(static_cast<uint64_t>(config_.pilot_rounds_per_stratum))
      .MixU64(static_cast<uint64_t>(config_.reallocate_every))
      .MixU64(static_cast<uint64_t>(config_.initial_buckets))
      .MixDouble(config_.refine_dominance)
      .MixDouble(config_.coverage_per_client)
      .digest();
}

void AdaptiveStratifiedSweep::BeginEpoch() {
  const int remaining =
      static_cast<int>(effective_total_ - rounds_spent_);
  FEDSHAP_CHECK(remaining > 0);
  if (rounds_spent_ == 0) {
    // Pilot epoch: a few rounds per stratum (clipped at the stratum
    // population and the total budget) to seed the moments. Sigma
    // pooling starts at the configured coarse bucket granularity.
    buckets_ = InitialAllocationBuckets(n_, config_.initial_buckets);
    epoch_plan_.assign(n_, 0);
    int budget = remaining;
    for (int k = 1; k <= n_ && budget > 0; ++k) {
      const uint64_t population = BinomialU64(n_, k);
      int64_t take = std::min<int64_t>(
          config_.pilot_rounds_per_stratum,
          population > static_cast<uint64_t>(
                           std::numeric_limits<int>::max())
              ? std::numeric_limits<int>::max()
              : static_cast<int64_t>(population));
      take = std::min<int64_t>(take, budget);
      epoch_plan_[k - 1] = static_cast<int>(take);
      budget -= static_cast<int>(take);
      rounds_per_size_[k - 1] += take;
    }
  } else {
    // Refinement first (sharper sigma pooling), then Neyman reallocation
    // of the next epoch's budget over the refreshed moment state.
    if (RefineDominantBucket(n_, buckets_, moments_,
                             config_.refine_dominance)) {
      FEDSHAP_LOG(Debug) << "[adaptive] split bucket: buckets="
                         << buckets_.size();
    }
    const int budget = std::min(config_.reallocate_every, remaining);
    // Coverage floor first: strata below their quota are topped up before
    // any variance chasing, keeping the run in the m_{i,k} > 0 regime
    // Theorem 1's unbiasedness (and the Neyman bound itself) assumes.
    epoch_plan_ = CoverageFloorAllocation(
        n_, budget, rounds_per_size_, config_.coverage_per_client);
    int floored = 0;
    for (int k = 0; k < n_; ++k) {
      rounds_per_size_[k] += epoch_plan_[k];
      floored += epoch_plan_[k];
    }
    // Then the Neyman split of the surplus over the refreshed moments.
    std::vector<StratumMoments> pooled(n_);
    for (const AllocationBucket& bucket : buckets_) {
      const StratumMoments m =
          PoolStratumMoments(moments_, bucket.lo, bucket.hi);
      for (int k = bucket.lo; k <= bucket.hi; ++k) pooled[k - 1] = m;
    }
    const std::vector<int> neyman = NeymanStratumAllocation(
        n_, budget - floored, pooled, rounds_per_size_);
    for (int k = 0; k < n_; ++k) {
      epoch_plan_[k] += neyman[k];
      rounds_per_size_[k] += neyman[k];
    }
    ++reallocations_;
    FEDSHAP_LOG(Debug) << "[adaptive] reallocated: epoch="
                       << reallocations_ << " spent=" << rounds_spent_
                       << "/" << effective_total_
                       << " buckets=" << buckets_.size()
                       << " epoch_rounds=" << budget;
  }
  epoch_cursor_ = 0;
}

Status AdaptiveStratifiedSweep::RunRounds(UtilitySession& session,
                                          size_t count) {
  std::vector<Coalition> batch;
  if (draws_.empty()) {
    // The empty coalition anchors every run (Alg. 1 treats it as always
    // sampled); it is recorded as draw 0 before any stratum draw.
    draws_.push_back(Coalition());
    index_of_.emplace(Coalition(), 0);
    batch.push_back(Coalition());
  }
  // Locate the epoch cursor in the plan (rounds are laid out stratum by
  // stratum, ascending k), then draw `count` rounds forward. The RNG is
  // consumed once per round in this fixed order, so any chunking of the
  // same epoch draws the identical stream.
  size_t within = epoch_cursor_;
  int k = 1;
  for (; k <= n_; ++k) {
    const size_t m_k = static_cast<size_t>(epoch_plan_[k - 1]);
    if (within < m_k) break;
    within -= m_k;
  }
  size_t drawn = 0;
  while (drawn < count) {
    FEDSHAP_CHECK(k <= n_);
    if (within >= static_cast<size_t>(epoch_plan_[k - 1])) {
      within = 0;
      ++k;
      continue;
    }
    const Coalition c = RandomSubsetOfSize(n_, k, rng_);
    ++within;
    ++drawn;
    const auto inserted = index_of_.emplace(c, draws_.size());
    if (inserted.second) {
      draws_.push_back(c);
      batch.push_back(c);
    }
  }
  epoch_cursor_ += count;
  rounds_spent_ += count;
  if (!batch.empty()) {
    FEDSHAP_ASSIGN_OR_RETURN(std::vector<double> values,
                             session.EvaluateBatch(batch));
    utilities_.insert(utilities_.end(), values.begin(), values.end());
  }
  return FoldNewDraws(session);
}

Status AdaptiveStratifiedSweep::FoldNewDraws(UtilitySession& session) {
  // Under kRequireSampled a draw's pair contributes to the moments iff
  // the pair sits strictly earlier in the global draw order — exactly
  // the differences the final estimate averages. Under kEvaluateOnDemand
  // the estimate averages every pair, so the moments do too: missing
  // pairs are evaluated on the spot (the same evaluations Finish needs
  // anyway; the cache makes them free there). Either way the folded
  // state after any prefix is a pure function of the draw sequence —
  // independent of how Step calls chunked it — which is what keeps
  // reallocation (and so resumption) bit-identical. Members iterate
  // ascending, fixing the float summation order.
  const bool on_demand =
      config_.pair_policy == PairPolicy::kEvaluateOnDemand;
  std::unordered_map<Coalition, double, CoalitionHash> extra;
  if (on_demand) {
    std::vector<Coalition> missing;
    const auto want = [&](const Coalition& pair, size_t j) {
      const auto it = index_of_.find(pair);
      if (it != index_of_.end() && it->second < j) return;
      if (extra.emplace(pair, 0.0).second) missing.push_back(pair);
    };
    for (size_t j = moments_folded_; j < draws_.size(); ++j) {
      const Coalition& s = draws_[j];
      if (s.Count() == 0) continue;
      if (config_.scheme == SvScheme::kMarginal) {
        for (int i : s.Members()) want(s.Without(i), j);
      } else {
        want(s.ComplementIn(n_), j);
      }
    }
    if (!missing.empty()) {
      FEDSHAP_ASSIGN_OR_RETURN(std::vector<double> values,
                               session.EvaluateBatch(missing));
      for (size_t m = 0; m < missing.size(); ++m) {
        extra[missing[m]] = values[m];
      }
    }
  }
  // The pair's utility: recorded when the pair was drawn earlier, the
  // on-demand evaluation otherwise (when the policy allows one).
  const auto pair_utility = [&](const Coalition& pair, size_t j,
                                double* out) {
    const auto it = index_of_.find(pair);
    if (it != index_of_.end() && it->second < j) {
      *out = utilities_[it->second];
      return true;
    }
    const auto ex = extra.find(pair);
    if (ex == extra.end()) return false;
    *out = ex->second;
    return true;
  };
  for (size_t j = moments_folded_; j < draws_.size(); ++j) {
    const Coalition& s = draws_[j];
    const int k = s.Count();
    if (k == 0) continue;
    double u_pair = 0.0;
    switch (config_.scheme) {
      case SvScheme::kMarginal: {
        for (int i : s.Members()) {
          if (pair_utility(s.Without(i), j, &u_pair)) {
            moments_[k - 1].Add(utilities_[j] - u_pair);
          }
        }
        break;
      }
      case SvScheme::kComplementary: {
        if (pair_utility(s.ComplementIn(n_), j, &u_pair)) {
          moments_[k - 1].Add(utilities_[j] - u_pair);
        }
        break;
      }
    }
  }
  moments_folded_ = draws_.size();
  return Status::OK();
}

Status AdaptiveStratifiedSweep::Step(UtilitySession& session,
                                     int max_units) {
  FEDSHAP_RETURN_NOT_OK(init_status_);
  if (done()) return Status::OK();
  Stopwatch timer;
  size_t todo = effective_total_ - rounds_spent_;
  if (max_units > 0) todo = std::min(todo, static_cast<size_t>(max_units));
  while (todo > 0) {
    size_t epoch_total = 0;
    for (int m : epoch_plan_) epoch_total += static_cast<size_t>(m);
    if (epoch_cursor_ >= epoch_total) {
      BeginEpoch();
      epoch_total = 0;
      for (int m : epoch_plan_) epoch_total += static_cast<size_t>(m);
    }
    // A batch never crosses an epoch boundary: the next epoch's plan
    // depends on utilities this batch is about to observe.
    const size_t chunk = std::min(todo, epoch_total - epoch_cursor_);
    FEDSHAP_RETURN_NOT_OK(RunRounds(session, chunk));
    todo -= chunk;
  }
  wall_accum_ += timer.ElapsedSeconds();
  return Status::OK();
}

Result<ValuationResult> AdaptiveStratifiedSweep::Finish(
    UtilitySession& session) {
  FEDSHAP_RETURN_NOT_OK(init_status_);
  if (!done()) {
    return Status::FailedPrecondition(
        "sweep is not complete: " + std::to_string(rounds_spent_) + "/" +
        std::to_string(effective_total_) + " rounds done");
  }
  Stopwatch timer;
  // Regroup the accumulated draws by stratum (evaluation order within
  // each stratum is draw order) and run the shared pairing pass.
  std::vector<std::vector<Coalition>> grouped(n_ + 1);
  std::unordered_map<Coalition, double, CoalitionHash> utilities;
  utilities.reserve(draws_.size());
  for (size_t j = 0; j < draws_.size(); ++j) {
    grouped[draws_[j].Count()].push_back(draws_[j]);
    utilities.emplace(draws_[j], utilities_[j]);
  }
  FEDSHAP_ASSIGN_OR_RETURN(
      std::vector<double> values,
      StratifiedEstimateFromDraws(
          n_, config_.scheme, config_.pair_policy, grouped,
          [&utilities, &session](const Coalition& c) -> Result<double> {
            const auto it = utilities.find(c);
            if (it != utilities.end()) return it->second;
            // Only reachable under PairPolicy::kEvaluateOnDemand.
            return session.Evaluate(c);
          }));
  return FinishValuation(std::move(values), session,
                         wall_accum_ + timer.ElapsedSeconds());
}

Result<std::string> AdaptiveStratifiedSweep::Snapshot() const {
  FEDSHAP_RETURN_NOT_OK(init_status_);
  ByteWriter payload;
  PutSnapshotHeader(payload, AlgorithmName(), ConfigHash());
  payload.PutString(rng_.SaveState());
  payload.PutVarint(rounds_spent_);
  payload.PutVarint(static_cast<uint64_t>(reallocations_));
  payload.PutVarint(epoch_cursor_);
  payload.PutVarint(epoch_plan_.size());
  for (int m : epoch_plan_) payload.PutVarint(static_cast<uint64_t>(m));
  for (int64_t r : rounds_per_size_) {
    payload.PutVarint(static_cast<uint64_t>(r));
  }
  payload.PutVarint(buckets_.size());
  for (const AllocationBucket& bucket : buckets_) {
    payload.PutVarint(static_cast<uint64_t>(bucket.lo));
    payload.PutVarint(static_cast<uint64_t>(bucket.hi));
  }
  for (const StratumMoments& m : moments_) {
    payload.PutVarint(m.count);
    payload.PutDouble(m.sum);
    payload.PutDouble(m.sum_squares);
  }
  payload.PutVarint(draws_.size());
  for (size_t j = 0; j < draws_.size(); ++j) {
    PutCoalition(payload, draws_[j]);
    payload.PutDouble(utilities_[j]);
  }
  return EncodeFramed(kSweepSnapshotMagic, kSweepSnapshotVersion,
                      payload.bytes());
}

Status AdaptiveStratifiedSweep::Restore(std::string_view snapshot) {
  FEDSHAP_RETURN_NOT_OK(init_status_);
  FEDSHAP_ASSIGN_OR_RETURN(
      ByteReader reader,
      CheckSnapshotHeader(snapshot, AlgorithmName(), ConfigHash()));
  FEDSHAP_ASSIGN_OR_RETURN(std::string rng_state, reader.GetString());
  Rng rng(0);
  FEDSHAP_RETURN_NOT_OK(rng.LoadState(rng_state));
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t spent,
                           reader.GetVarintAtMost(effective_total_));
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t reallocations,
                           reader.GetVarintAtMost(INT_MAX));
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t epoch_cursor, reader.GetVarint());
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t plan_size, reader.GetCount(1));
  if (plan_size != 0 && plan_size != static_cast<uint64_t>(n_)) {
    return Status::InvalidArgument("snapshot epoch plan size mismatch");
  }
  std::vector<int> epoch_plan(plan_size, 0);
  uint64_t epoch_total = 0;
  for (uint64_t k = 0; k < plan_size; ++k) {
    FEDSHAP_ASSIGN_OR_RETURN(uint64_t m, reader.GetVarintAtMost(INT_MAX));
    epoch_plan[k] = static_cast<int>(m);
    epoch_total += m;
  }
  if (epoch_cursor > epoch_total) {
    return Status::InvalidArgument("snapshot epoch cursor out of range");
  }
  // Every epoch plans at most the rounds still unspent, so no stratum's
  // cumulative grant can exceed the run's budget.
  std::vector<int64_t> rounds_per_size(n_, 0);
  for (int k = 0; k < n_; ++k) {
    FEDSHAP_ASSIGN_OR_RETURN(uint64_t r,
                             reader.GetVarintAtMost(effective_total_));
    rounds_per_size[k] = static_cast<int64_t>(r);
  }
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t bucket_count, reader.GetVarintAtMost(n_));
  std::vector<AllocationBucket> buckets(bucket_count);
  for (uint64_t b = 0; b < bucket_count; ++b) {
    FEDSHAP_ASSIGN_OR_RETURN(uint64_t lo, reader.GetVarintAtMost(n_));
    FEDSHAP_ASSIGN_OR_RETURN(uint64_t hi, reader.GetVarintAtMost(n_));
    if (lo < 1 || hi < lo) {
      return Status::InvalidArgument("snapshot bucket range invalid");
    }
    buckets[b].lo = static_cast<int>(lo);
    buckets[b].hi = static_cast<int>(hi);
  }
  std::vector<StratumMoments> moments(n_);
  for (int k = 0; k < n_; ++k) {
    FEDSHAP_ASSIGN_OR_RETURN(moments[k].count, reader.GetVarint());
    FEDSHAP_ASSIGN_OR_RETURN(moments[k].sum, reader.GetDouble());
    FEDSHAP_ASSIGN_OR_RETURN(moments[k].sum_squares, reader.GetDouble());
  }
  // Each draw is a coalition (at least its count byte) and a double.
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t draw_count, reader.GetCount(1 + 8));
  std::vector<Coalition> draws;
  std::vector<double> utilities;
  std::unordered_map<Coalition, size_t, CoalitionHash> index_of;
  draws.reserve(draw_count);
  utilities.reserve(draw_count);
  for (uint64_t j = 0; j < draw_count; ++j) {
    FEDSHAP_ASSIGN_OR_RETURN(Coalition c, GetCoalition(reader));
    FEDSHAP_ASSIGN_OR_RETURN(double u, reader.GetDouble());
    if (j == 0 && !c.Empty()) {
      return Status::InvalidArgument(
          "snapshot draw 0 must be the empty coalition");
    }
    if (!index_of.emplace(c, draws.size()).second) {
      return Status::InvalidArgument("snapshot has duplicate draws");
    }
    draws.push_back(c);
    utilities.push_back(u);
  }
  FEDSHAP_RETURN_NOT_OK(reader.CheckAtEnd("snapshot"));
  // All validated; commit (wall accounting restarts with this process).
  rng_ = rng;
  rounds_spent_ = spent;
  reallocations_ = static_cast<int>(reallocations);
  epoch_cursor_ = epoch_cursor;
  epoch_plan_ = std::move(epoch_plan);
  rounds_per_size_ = std::move(rounds_per_size);
  buckets_ = std::move(buckets);
  moments_ = std::move(moments);
  draws_ = std::move(draws);
  utilities_ = std::move(utilities);
  index_of_ = std::move(index_of);
  moments_folded_ = draws_.size();
  wall_accum_ = 0.0;
  return Status::OK();
}

}  // namespace fedshap
