#include "fl/utility_cache.h"

#include <algorithm>

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

Status UtilityCache::GetMany(std::span<const Coalition> coalitions,
                             std::span<UtilityRecord> records,
                             std::span<uint8_t> fresh, ThreadPool* pool,
                             size_t* resolved) {
  FEDSHAP_CHECK(records.size() == coalitions.size() &&
                fresh.size() == coalitions.size());
  const size_t count = coalitions.size();
  std::vector<size_t> misses;
  {
    // One lock serves every entry the cache already holds.
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t k = 0; k < count; ++k) {
      fresh[k] = 0;
      auto it = entries_.find(coalitions[k]);
      if (it != entries_.end()) {
        records[k] = it->second;
      } else {
        misses.push_back(k);
      }
    }
    if (misses.empty()) {
      hits_ += count;
      *resolved = count;
      return Status::OK();
    }
  }
  // The rest go through Get's single-flight, read-through and
  // write-through. On failure, capture the *first* one's real Status
  // (lowest index wins), so the error matches a sequential pass.
  std::mutex failure_mutex;
  size_t first_failed = count;
  Status first_status = Status::OK();
  auto get = [&](size_t k) {
    bool computed = false;
    Result<UtilityRecord> r = Get(coalitions[k], &computed);
    if (!r.ok()) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (k < first_failed) {
        first_failed = k;
        first_status = r.status();
      }
      return false;
    }
    // Each call writes only its own slots, so no synchronization is
    // needed beyond ParallelFor's completion barrier.
    records[k] = *r;
    fresh[k] = computed ? 1 : 0;
    return true;
  };
  if (pool == nullptr || pool->num_threads() <= 1 || misses.size() <= 1) {
    for (size_t k : misses) {
      if (!get(k)) break;
    }
  } else {
    pool->ParallelFor(static_cast<int>(misses.size()),
                      [&](int j) { get(misses[static_cast<size_t>(j)]); });
  }
  // Held entries count as hits up to the first failure, where a
  // sequential Get loop would have stopped.
  const size_t missed_before = static_cast<size_t>(
      std::lower_bound(misses.begin(), misses.end(), first_failed) -
      misses.begin());
  CountHits(first_failed - missed_before);
  *resolved = first_failed;
  return first_status;
}

void UtilityCache::CountHits(size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  hits_ += n;
}

Status UtilityCache::Prefetch(const std::vector<Coalition>& coalitions,
                              ThreadPool* pool,
                              std::vector<uint8_t>* fresh) {
  std::vector<UtilityRecord> records(coalitions.size());
  std::vector<uint8_t> computed(coalitions.size());
  size_t resolved = 0;
  Status status = GetMany(coalitions, records, computed, pool, &resolved);
  if (fresh != nullptr) *fresh = std::move(computed);
  return status;
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
  double value = 0.0;
  FEDSHAP_RETURN_NOT_OK(Answer({&coalition, 1}, &value));
  return value;
}

Result<std::vector<double>> UtilitySession::EvaluateBatch(
    const std::vector<Coalition>& coalitions) {
  std::vector<double> values(coalitions.size());
  FEDSHAP_RETURN_NOT_OK(Answer(coalitions, values.data()));
  return values;
}

uint32_t UtilitySession::FindOrAdd(const Coalition& coalition) {
  // Keep the load factor at or below 1/2, so probes stay short.
  if (2 * (coalitions_.size() + 1) > slots_.size()) {
    Reindex(std::max<size_t>(16, 2 * slots_.size()));
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = coalition.Hash() & mask;; i = (i + 1) & mask) {
    const uint32_t slot = slots_[i];
    if (slot == 0) {
      coalitions_.push_back(coalition);
      slots_[i] = static_cast<uint32_t>(coalitions_.size());
      return slots_[i] - 1;
    }
    if (coalitions_[slot - 1] == coalition) return slot - 1;
  }
}

void UtilitySession::Reindex(size_t capacity) {
  slots_.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (size_t e = 0; e < coalitions_.size(); ++e) {
    size_t i = coalitions_[e].Hash() & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(e + 1);
  }
}

Status UtilitySession::Answer(std::span<const Coalition> coalitions,
                              double* values) {
  // Map every query to its memo entry. A coalition the session has not
  // seen gets a new entry, so the new ones are deduplicated, in first-ask
  // order, at the end of the memo.
  const size_t base = num_distinct_;
  entry_of_.resize(coalitions.size());
  for (size_t i = 0; i < coalitions.size(); ++i) {
    entry_of_[i] = FindOrAdd(coalitions[i]);
  }
  const size_t added = coalitions_.size() - base;
  size_t resolved = 0;
  Status status = Status::OK();
  if (added > 0) {
    records_.resize(added);
    fresh_.resize(added);
    status = cache_->GetMany(
        std::span<const Coalition>(coalitions_).subspan(base), records_,
        fresh_, pool_, &resolved);
    utilities_.resize(base + resolved);
    for (size_t k = 0; k < resolved; ++k) {
      utilities_[base + k] = records_[k].utility;
    }
  }

  // Answer the queries in order up to the first occurrence of the first
  // failed coalition, where a sequential Evaluate loop would have
  // stopped. Entries are in first-ask order, so a query's entry is new
  // exactly when it is the next one past those already answered.
  const size_t failed = base + resolved;
  size_t next_new = base;
  size_t answered = 0;
  for (; answered < coalitions.size(); ++answered) {
    const uint32_t entry = entry_of_[answered];
    if (entry == next_new) {
      if (entry == failed) break;
      ++next_new;
    }
    values[answered] = utilities_[entry];
  }
  const size_t repeats = answered - resolved;
  if (repeats > 0) cache_->CountHits(repeats);

  if (!status.ok()) {
    // Forget the failed coalition and every later new one: none of them
    // was asked by the sequential loop this batch stands for.
    coalitions_.resize(failed);
    Reindex(slots_.size());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  num_evaluations_ += answered;
  num_distinct_ = failed;
  for (size_t k = 0; k < resolved; ++k) {
    // Charged in first-ask order, so the sum matches a sequential loop's
    // bit for bit.
    charged_seconds_ += records_[k].cost_seconds;
    fresh_trainings_ += fresh_[k];
  }
  return status;
}

size_t UtilitySession::num_evaluations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_evaluations_;
}

size_t UtilitySession::num_distinct() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_distinct_;
}

size_t UtilitySession::num_fresh_trainings() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fresh_trainings_;
}

double UtilitySession::charged_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return charged_seconds_;
}

}  // namespace fedshap
