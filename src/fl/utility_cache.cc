#include "fl/utility_cache.h"

#include <atomic>

#include "fl/utility_store.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace fedshap {

UtilityCache::UtilityCache(const UtilityFunction* fn) : fn_(fn) {
  FEDSHAP_CHECK(fn != nullptr);
}

Result<UtilityRecord> UtilityCache::Get(const Coalition& coalition,
                                        bool* fresh) {
  if (fresh != nullptr) *fresh = false;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    auto it = entries_.find(coalition);
    if (it != entries_.end()) {
      ++hits_;
      return it->second;
    }
    // Single-flight: first asker computes, racers wait for its result
    // instead of duplicating a full FL training.
    if (inflight_.insert(coalition).second) break;
    inflight_done_.wait(lock);
  }
  UtilityStore* store = store_;
  lock.unlock();
  // Read-through: the attached store may already hold this coalition
  // from an earlier process. A store hit is served with its original
  // training cost and trains nothing; the single-flight slot held here
  // keeps racers from hitting the store (or training) redundantly. Store
  // IO happens outside the cache mutex so concurrent memory hits never
  // stall on disk.
  if (store != nullptr) {
    UtilityRecord stored;
    if (store->Lookup(coalition, &stored)) {
      lock.lock();
      inflight_.erase(coalition);
      inflight_done_.notify_all();
      if (entries_.emplace(coalition, stored).second) {
        ++preloaded_;
        recorded_cost_seconds_ += stored.cost_seconds;
      }
      ++hits_;
      return stored;
    }
  }
  Stopwatch timer;
  Result<double> utility = fn_->Evaluate(coalition);
  const double cost_seconds = timer.ElapsedSeconds();
  lock.lock();
  inflight_.erase(coalition);
  inflight_done_.notify_all();
  // A failed evaluation counts as neither hit nor miss; a waiter finding
  // no entry retakes the in-flight slot and retries the computation.
  if (!utility.ok()) return utility.status();
  if (fresh != nullptr) *fresh = true;
  UtilityRecord record{utility.value(), cost_seconds};
  entries_.emplace(coalition, record);
  ++misses_;
  total_compute_seconds_ += record.cost_seconds;
  recorded_cost_seconds_ += record.cost_seconds;
  // Store IO happens outside the cache mutex: the store is internally
  // synchronized, and an fsync must not stall concurrent hits on the
  // evaluation hot path.
  lock.unlock();
  WriteThrough(store, coalition, record);
  return record;
}

void UtilityCache::WriteThrough(UtilityStore* store,
                                const Coalition& coalition,
                                const UtilityRecord& record) {
  if (store == nullptr) return;
  // Write-through: the freshly trained utility becomes durable via an
  // O(record) append. The byte-counted flush interval bounds how many
  // appended-but-unsynced bytes a crash can lose.
  const size_t appended = store->Put(coalition, record);
  bool should_flush = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (flush_bytes_ > 0) {
      unflushed_bytes_ += appended;
      if (unflushed_bytes_ >= flush_bytes_) {
        unflushed_bytes_ = 0;
        should_flush = true;
      }
    }
  }
  if (should_flush) {
    Status flushed = store->Flush();
    if (!flushed.ok()) {
      FEDSHAP_LOG(Warning) << "utility store flush failed: "
                           << flushed.ToString();
    }
  }
}

void UtilityCache::AttachStore(UtilityStore* store, size_t flush_bytes) {
  FEDSHAP_CHECK(store != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  store_ = store;
  flush_bytes_ = flush_bytes;
  unflushed_bytes_ = 0;
  preloaded_ = 0;
}

Status UtilityCache::Prefetch(const std::vector<Coalition>& coalitions,
                              ThreadPool* pool,
                              std::vector<uint8_t>* fresh) {
  if (fresh != nullptr) fresh->assign(coalitions.size(), 0);
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (size_t i = 0; i < coalitions.size(); ++i) {
      bool computed = false;
      FEDSHAP_ASSIGN_OR_RETURN(UtilityRecord unused,
                               Get(coalitions[i], &computed));
      (void)unused;
      if (fresh != nullptr) (*fresh)[i] = computed ? 1 : 0;
    }
    return Status::OK();
  }
  // Capture the *first* failure's real Status (lowest index wins) so
  // callers — and through them service job reports — name the actual
  // cause, and the error matches what a sequential pass would return.
  std::mutex failure_mutex;
  size_t first_failed = coalitions.size();
  Status first_status = Status::OK();
  pool->ParallelFor(static_cast<int>(coalitions.size()), [&](int i) {
    bool computed = false;
    Result<UtilityRecord> r = Get(coalitions[i], &computed);
    if (!r.ok()) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (static_cast<size_t>(i) < first_failed) {
        first_failed = static_cast<size_t>(i);
        first_status = r.status();
      }
    }
    // Each iteration writes only its own slot, so no synchronization is
    // needed beyond ParallelFor's completion barrier.
    if (fresh != nullptr) (*fresh)[i] = computed ? 1 : 0;
  });
  return first_status;
}

Status UtilityCache::PrefetchFused(const std::vector<Coalition>& coalitions,
                                   std::vector<uint8_t>* fresh) {
  if (fresh != nullptr) fresh->assign(coalitions.size(), 0);
  // Claim the single-flight slot of every coalition that is neither
  // cached nor already being computed elsewhere; those are the ones this
  // call may evaluate. Duplicates within `coalitions` claim once.
  std::vector<size_t> claimed;
  UtilityStore* store = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    store = store_;
    for (size_t i = 0; i < coalitions.size(); ++i) {
      if (entries_.find(coalitions[i]) != entries_.end()) continue;
      if (inflight_.insert(coalitions[i]).second) claimed.push_back(i);
    }
  }
  // Read-through first: store hits train nothing and keep their original
  // recorded cost, exactly like Get's miss path.
  std::vector<size_t> misses;
  for (size_t i : claimed) {
    UtilityRecord stored;
    if (store != nullptr && store->Lookup(coalitions[i], &stored)) {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_.erase(coalitions[i]);
      inflight_done_.notify_all();
      if (entries_.emplace(coalitions[i], stored).second) {
        ++preloaded_;
        recorded_cost_seconds_ += stored.cost_seconds;
      }
      ++hits_;
    } else {
      misses.push_back(i);
    }
  }
  if (misses.empty()) return Status::OK();
  std::vector<Coalition> batch;
  batch.reserve(misses.size());
  for (size_t i : misses) batch.push_back(coalitions[i]);
  Stopwatch timer;
  Result<std::vector<double>> values = fn_->EvaluateBatchFused(batch);
  // The fused dispatch's wall time is amortized evenly: per-record cost
  // has no per-coalition breakdown once the scoring GEMMs are stacked.
  const double per_record_seconds =
      timer.ElapsedSeconds() / static_cast<double>(misses.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i : misses) inflight_.erase(coalitions[i]);
    inflight_done_.notify_all();
    // On failure no entry is published (mirrors Get: a failed evaluation
    // is neither hit nor miss; retries recompute).
    if (!values.ok()) return values.status();
    for (size_t j = 0; j < misses.size(); ++j) {
      UtilityRecord record{(*values)[j], per_record_seconds};
      entries_.emplace(coalitions[misses[j]], record);
      ++misses_;
      total_compute_seconds_ += per_record_seconds;
      recorded_cost_seconds_ += per_record_seconds;
      if (fresh != nullptr) (*fresh)[misses[j]] = 1;
    }
  }
  for (size_t j = 0; j < misses.size(); ++j) {
    WriteThrough(store, coalitions[misses[j]],
                 UtilityRecord{(*values)[j], per_record_seconds});
  }
  return Status::OK();
}

void UtilityCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
  preloaded_ = 0;
  total_compute_seconds_ = 0.0;
  recorded_cost_seconds_ = 0.0;
  // Also restart the flush-interval pacing: bytes appended before the
  // clear must not make the next epoch's first flush fire early (or,
  // mis-tracked, late past the crash-loss bound).
  unflushed_bytes_ = 0;
}

size_t UtilityCache::unflushed_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return unflushed_bytes_;
}

size_t UtilityCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

size_t UtilityCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

size_t UtilityCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

size_t UtilityCache::preloaded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return preloaded_;
}

double UtilityCache::total_compute_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_compute_seconds_;
}

double UtilityCache::recorded_cost_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_cost_seconds_;
}

Result<double> UtilitySession::Evaluate(const Coalition& coalition) {
  return EvaluateInternal(coalition, /*batch_fresh=*/false);
}

Result<double> UtilitySession::EvaluateInternal(const Coalition& coalition,
                                                bool batch_fresh) {
  bool computed = false;
  FEDSHAP_ASSIGN_OR_RETURN(UtilityRecord record,
                           cache_->Get(coalition, &computed));
  std::lock_guard<std::mutex> lock(mutex_);
  ++num_evaluations_;
  if (seen_.insert(coalition).second) {
    charged_seconds_ += record.cost_seconds;
    // A training counts as this session's own when this evaluation
    // computed it, or when the batch prefetch below computed it on this
    // session's behalf before the sequential accounting pass ran. The
    // cache's single-flight guarantee means at most one of these can be
    // true per coalition, so the count is exact under any interleaving.
    if (computed || batch_fresh) ++fresh_trainings_;
  }
  return record.utility;
}

size_t UtilitySession::num_evaluations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_evaluations_;
}

size_t UtilitySession::num_distinct() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return seen_.size();
}

size_t UtilitySession::num_fresh_trainings() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fresh_trainings_;
}

double UtilitySession::charged_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return charged_seconds_;
}

Result<std::vector<double>> UtilitySession::EvaluateBatch(
    const std::vector<Coalition>& coalitions) {
  std::vector<uint8_t> fresh;
  if (fused_ && coalitions.size() > 1) {
    // Fused dispatch: one stacked evaluation for all misses. A failure
    // is deliberately ignored here for the same reason as the pool
    // prefetch below — the sequential pass rediscovers it at the same
    // coalition a sequential run would have.
    (void)cache_->PrefetchFused(coalitions, &fresh);
  } else if (pool_ != nullptr && pool_->num_threads() > 1 &&
             coalitions.size() > 1) {
    // Fan the misses out over the pool. A failure here is deliberately
    // ignored: the sequential pass below rediscovers it at the same
    // coalition a sequential run would have, so the returned error and
    // the *session* accounting are deterministic. (Cache-level stats may
    // still record trainings the pool completed past the failing
    // coalition before the error surfaced.)
    (void)cache_->Prefetch(coalitions, pool_, &fresh);
  }
  std::vector<double> values;
  values.reserve(coalitions.size());
  for (size_t i = 0; i < coalitions.size(); ++i) {
    const bool batch_fresh = i < fresh.size() && fresh[i] != 0;
    FEDSHAP_ASSIGN_OR_RETURN(double utility,
                             EvaluateInternal(coalitions[i],
                                              batch_fresh));
    values.push_back(utility);
  }
  return values;
}

}  // namespace fedshap
