#ifndef FEDSHAP_FL_UTILITY_CACHE_H_
#define FEDSHAP_FL_UTILITY_CACHE_H_

#include <condition_variable>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fl/utility.h"
#include "util/coalition.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace fedshap {

class UtilityStore;

/// \file
/// In-process memoization of utility evaluations (one full FL training
/// per distinct coalition) plus per-run cost accounting. The optional
/// persistent backing (UtilityStore) extends the memoization across
/// processes; see docs/ARCHITECTURE.md for where these layers sit on the
/// utility-evaluation hot path.

/// One memoized utility evaluation: the value and what it cost to compute.
struct UtilityRecord {
  /// U(S), the model quality the coalition's FL training reached.
  double utility = 0.0;
  /// Wall-clock seconds of the underlying train+evaluate (0 on rerun: the
  /// stored cost is from the first, real computation).
  double cost_seconds = 0.0;
};

/// Thread-safe memoization layer over a UtilityFunction.
///
/// Every distinct coalition is trained *exactly* once, even under
/// concurrent access: a Get racing an in-flight computation of the same
/// coalition blocks until that computation lands instead of duplicating
/// the FL training (single-flight). The measured
/// train+evaluate cost is stored alongside the value. This enables the
/// benches' *charged time* accounting: an algorithm run "pays" the recorded
/// training cost of every coalition it asks for, whether or not the value
/// was already cached from an earlier run — i.e. reported time stays
/// faithful to "train and evaluate an FL model per evaluated combination"
/// while ground-truth sweeps stay tractable (see EXPERIMENTS.md).
class UtilityCache {
 public:
  /// `fn` must outlive the cache.
  explicit UtilityCache(const UtilityFunction* fn);

  /// Number of FL clients n of the underlying utility function.
  int num_clients() const { return fn_->num_clients(); }

  /// Returns the record for `coalition`, computing and memoizing on miss.
  /// When `fresh` is non-null, `*fresh` is set to true iff *this call*
  /// performed the training (a miss this caller computed), false on any
  /// kind of hit — including waiting out another thread's in-flight
  /// computation of the same coalition. Callers that share one cache
  /// across several logical runs (the valuation service) use this to
  /// attribute each training to exactly one run.
  Result<UtilityRecord> Get(const Coalition& coalition, bool* fresh = nullptr);

  /// Evaluates all `coalitions` (cache misses in parallel on `pool` when
  /// provided). Useful for the exhaustive phases of IPSS / exact SV.
  /// When `fresh` is non-null it is resized to `coalitions.size()` and
  /// `(*fresh)[i]` records whether evaluating `coalitions[i]` trained a
  /// new model here (same semantics as Get's `fresh`). On failure the
  /// *first* failing coalition's actual Status is returned (lowest index
  /// wins), matching what a sequential pass would surface.
  Status Prefetch(const std::vector<Coalition>& coalitions,
                  ThreadPool* pool = nullptr,
                  std::vector<uint8_t>* fresh = nullptr);

  /// Like Prefetch, but routes the misses through one
  /// UtilityFunction::EvaluateBatchFused dispatch instead of per-coalition
  /// Evaluate calls: same single-flight and store read/write-through
  /// semantics, but the underlying utility may stack the coalitions'
  /// model evaluations into fused GEMM dispatches (values then agree with
  /// Evaluate within the kernel tolerance contract, see ml/matrix.h).
  /// Each fused record's cost_seconds is the batch's wall time amortized
  /// evenly over the coalitions it trained.
  Status PrefetchFused(const std::vector<Coalition>& coalitions,
                       std::vector<uint8_t>* fresh = nullptr);

  /// Attaches a persistent store as the cache's cross-process backing:
  ///
  ///  - on a cache miss the store is consulted *first* (read-through): a
  ///    stored record is served with its original training cost, so
  ///    charged-time accounting is identical to a run that really
  ///    trained it, and no model is trained. Nothing is loaded
  ///    wholesale: a store larger than memory stays on disk until a
  ///    coalition is actually asked for;
  ///  - every freshly computed record is written through to the store,
  ///    which is flushed (fsync'd) once at least `flush_bytes` bytes
  ///    have been appended since the last flush (0 = only on explicit
  ///    UtilityStore::Flush; 1 = after every record), bounding what a
  ///    crash can lose.
  ///
  /// `store` must outlive the cache; its fingerprint must describe the
  /// same workload as the cache's utility function (the caller binds the
  /// two — see ScenarioRunner / UtilityFunction::Fingerprint).
  void AttachStore(UtilityStore* store, size_t flush_bytes = 1);

  /// Drops all memoized entries (e.g. when the underlying utility was
  /// reseeded and old values are stale). Entries already persisted in an
  /// attached store are dropped from memory only, not from disk. All
  /// counters reset, including the unflushed-byte count that paces the
  /// store's implicit flushes.
  void Clear();

  /// Number of memoized entries.
  size_t size() const;
  /// Gets served without a computation: memory hits plus read-through
  /// hits on the attached store.
  size_t hits() const;
  /// Gets that computed a fresh utility (one FL training each).
  size_t misses() const;
  /// Entries served from the attached store instead of being retrained
  /// (read-through hits; 0 when no store is attached).
  size_t preloaded() const;
  /// Total seconds actually spent computing utilities (misses only).
  double total_compute_seconds() const;
  /// Sum of the recorded training costs of every entry, including those
  /// preloaded from a store — i.e. what all held utilities originally
  /// cost, wherever they were computed. The benches' tau (mean training
  /// cost per model) is recorded_cost_seconds() / size().
  double recorded_cost_seconds() const;
  /// Bytes appended to the attached store since its last implicit flush
  /// (0 without a store). Exposed so tests can pin the flush-interval
  /// accounting across Clear()/AttachStore().
  size_t unflushed_bytes() const;

 private:
  /// Write-through + byte-counted flush for one freshly computed record;
  /// called outside the cache mutex (Get and PrefetchFused share it).
  void WriteThrough(UtilityStore* store, const Coalition& coalition,
                    const UtilityRecord& record);
  const UtilityFunction* fn_;
  UtilityStore* store_ = nullptr;
  /// Flush the store once this many bytes have been appended since the
  /// last flush (0 = never implicitly).
  size_t flush_bytes_ = 0;
  size_t unflushed_bytes_ = 0;
  size_t preloaded_ = 0;
  mutable std::mutex mutex_;
  std::unordered_map<Coalition, UtilityRecord, CoalitionHash> entries_;
  /// Coalitions currently being computed by some thread; waiters park on
  /// `inflight_done_` until theirs lands in `entries_`.
  std::unordered_set<Coalition, CoalitionHash> inflight_;
  std::condition_variable inflight_done_;
  size_t hits_ = 0;
  size_t misses_ = 0;
  double total_compute_seconds_ = 0.0;
  double recorded_cost_seconds_ = 0.0;
};

/// Per-algorithm-run view of a UtilityCache.
///
/// Valuation algorithms consume this class. It tracks, for one run: how
/// many Evaluate calls were made, how many *distinct* coalitions were
/// needed (= FL trainings a standalone run would have performed; each
/// distinct coalition is charged its recorded training cost exactly once,
/// matching an implementation that memoizes within the run).
class UtilitySession {
 public:
  /// `cache` (and `pool`, when given) must outlive the session. A session
  /// with a pool fans EvaluateBatch misses out over the pool's workers;
  /// without one it degrades to plain sequential evaluation.
  explicit UtilitySession(UtilityCache* cache, ThreadPool* pool = nullptr)
      : cache_(cache), pool_(pool) {}

  /// Number of FL clients n of the underlying utility function.
  int num_clients() const { return cache_->num_clients(); }

  /// U(S), with cost accounting.
  Result<double> Evaluate(const Coalition& coalition);

  /// Evaluates a round's worth of coalitions, returning their utilities in
  /// order. Cache misses are computed in parallel on the session's thread
  /// pool (when set); accounting is identical to calling Evaluate on each
  /// coalition sequentially — same num_evaluations, num_distinct and
  /// charged_seconds, and on failure the same first error.
  Result<std::vector<double>> EvaluateBatch(
      const std::vector<Coalition>& coalitions);

  /// Routes EvaluateBatch misses through the utility's fused
  /// multi-coalition path (UtilityCache::PrefetchFused) instead of
  /// per-coalition dispatch. Off by default: fused values agree with the
  /// unfused path only within the kernel tolerance contract, so callers
  /// opt in per job (`fuse=on`).
  void set_fused(bool fused) { fused_ = fused; }
  /// Whether the fused dispatch path is enabled.
  bool fused() const { return fused_; }

  /// Total U(.) queries this run issued (statistics for ValuationResult).
  size_t num_evaluations() const;
  /// Distinct coalitions this run needed (= FL trainings a standalone
  /// run would have performed).
  size_t num_distinct() const;
  /// Distinct coalitions this run actually trained itself: evaluations
  /// that missed the shared cache and were computed on this session's
  /// behalf. `num_distinct() - num_fresh_trainings()` is therefore the
  /// number of trainings this run *reused* — from earlier runs in the
  /// process, from concurrent runs sharing the cache, or from an attached
  /// store. The valuation service reports this as its cross-job dedup
  /// metric.
  size_t num_fresh_trainings() const;
  /// Sum of the recorded training costs of the distinct coalitions, each
  /// charged exactly once.
  double charged_seconds() const;

 private:
  Result<double> EvaluateInternal(const Coalition& coalition,
                                  bool batch_fresh);

  UtilityCache* cache_;
  ThreadPool* pool_;
  bool fused_ = false;
  /// Guards all accounting below, so the counters may be read from any
  /// thread while the run thread evaluates.
  mutable std::mutex mutex_;
  std::unordered_set<Coalition, CoalitionHash> seen_;
  size_t num_evaluations_ = 0;
  size_t fresh_trainings_ = 0;
  double charged_seconds_ = 0.0;
};

}  // namespace fedshap

#endif  // FEDSHAP_FL_UTILITY_CACHE_H_
