#include "fl/utility_cache.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include <gtest/gtest.h>

#include "fl/utility_store.h"
#include "test_util.h"
#include "util/combinatorics.h"
#include "util/random.h"

namespace fedshap {
namespace {

/// Counts underlying evaluations to verify memoization.
class CountingUtility : public UtilityFunction {
 public:
  explicit CountingUtility(int n) : n_(n) {}
  int num_clients() const override { return n_; }
  Result<double> Evaluate(const Coalition& coalition) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return static_cast<double>(coalition.Count());
  }
  int calls() const { return calls_.load(); }

 private:
  int n_;
  mutable std::atomic<int> calls_{0};
};

/// Always fails; exercises error propagation.
class FailingUtility : public UtilityFunction {
 public:
  int num_clients() const override { return 2; }
  Result<double> Evaluate(const Coalition&) const override {
    return Status::Internal("deliberate failure");
  }
};

TEST(UtilityCacheTest, MemoizesDistinctCoalitions) {
  CountingUtility fn(5);
  UtilityCache cache(&fn);
  const Coalition a = Coalition::Of({0, 1});
  const Coalition b = Coalition::Of({2});
  ASSERT_TRUE(cache.Get(a).ok());
  ASSERT_TRUE(cache.Get(a).ok());
  ASSERT_TRUE(cache.Get(b).ok());
  ASSERT_TRUE(cache.Get(a).ok());
  EXPECT_EQ(fn.calls(), 2);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(UtilityCacheTest, ValuesComeFromUnderlyingFunction) {
  CountingUtility fn(5);
  UtilityCache cache(&fn);
  Result<UtilityRecord> record = cache.Get(Coalition::Of({0, 2, 4}));
  ASSERT_TRUE(record.ok());
  EXPECT_DOUBLE_EQ(record->utility, 3.0);
  EXPECT_GE(record->cost_seconds, 0.0);
}

TEST(UtilityCacheTest, ErrorsPropagate) {
  FailingUtility fn;
  UtilityCache cache(&fn);
  EXPECT_FALSE(cache.Get(Coalition()).ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(UtilityCacheTest, ClearResetsEverything) {
  CountingUtility fn(4);
  UtilityCache cache(&fn);
  ASSERT_TRUE(cache.Get(Coalition::Of({1})).ok());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  ASSERT_TRUE(cache.Get(Coalition::Of({1})).ok());
  EXPECT_EQ(fn.calls(), 2);  // recomputed after Clear
}

TEST(UtilityCacheTest, GetReportsWhoComputed) {
  CountingUtility fn(5);
  UtilityCache cache(&fn);
  bool fresh = false;
  ASSERT_TRUE(cache.Get(Coalition::Of({0, 1}), &fresh).ok());
  EXPECT_TRUE(fresh);  // First asker trains.
  ASSERT_TRUE(cache.Get(Coalition::Of({0, 1}), &fresh).ok());
  EXPECT_FALSE(fresh);  // Hit.
}

TEST(UtilityCacheTest, SessionAttributesFreshTrainings) {
  CountingUtility fn(5);
  UtilityCache cache(&fn);
  UtilitySession first(&cache);
  ASSERT_TRUE(first.Evaluate(Coalition::Of({0})).ok());
  ASSERT_TRUE(first.Evaluate(Coalition::Of({0, 1})).ok());
  ASSERT_TRUE(first.Evaluate(Coalition::Of({0})).ok());  // Repeat.
  EXPECT_EQ(first.num_distinct(), 2u);
  EXPECT_EQ(first.num_fresh_trainings(), 2u);

  // A second session over the same cache needs both coalitions but
  // trains only the one the first session did not cover.
  UtilitySession second(&cache);
  ASSERT_TRUE(second.Evaluate(Coalition::Of({0})).ok());
  ASSERT_TRUE(second.Evaluate(Coalition::Of({2})).ok());
  EXPECT_EQ(second.num_distinct(), 2u);
  EXPECT_EQ(second.num_fresh_trainings(), 1u);
  EXPECT_EQ(fn.calls(), 3);
}

TEST(UtilityCacheTest, BatchFreshAccountingMatchesSequential) {
  std::vector<Coalition> batch;
  ForEachSubsetOfSize(7, 2, [&](const Coalition& c) { batch.push_back(c); });

  CountingUtility sequential_fn(7);
  UtilityCache sequential_cache(&sequential_fn);
  UtilitySession sequential(&sequential_cache);
  for (const Coalition& c : batch) {
    ASSERT_TRUE(sequential.Evaluate(c).ok());
  }

  CountingUtility parallel_fn(7);
  UtilityCache parallel_cache(&parallel_fn);
  ThreadPool pool(4);
  UtilitySession parallel(&parallel_cache, &pool);
  ASSERT_TRUE(parallel.EvaluateBatch(batch).ok());

  // The pool prefetch computes the misses, but they are still this
  // session's own trainings — identical accounting to sequential.
  EXPECT_EQ(parallel.num_fresh_trainings(),
            sequential.num_fresh_trainings());
  EXPECT_EQ(parallel.num_fresh_trainings(), batch.size());
  EXPECT_EQ(parallel.num_distinct(), sequential.num_distinct());
}

TEST(UtilityCacheTest, PrefetchSequential) {
  CountingUtility fn(6);
  UtilityCache cache(&fn);
  std::vector<Coalition> batch;
  ForEachSubsetOfSize(6, 2, [&](const Coalition& c) { batch.push_back(c); });
  ASSERT_TRUE(cache.Prefetch(batch).ok());
  EXPECT_EQ(cache.size(), 15u);
  EXPECT_EQ(fn.calls(), 15);
}

TEST(UtilityCacheTest, PrefetchParallelComputesEachOnce) {
  CountingUtility fn(8);
  UtilityCache cache(&fn);
  ThreadPool pool(4);
  std::vector<Coalition> batch;
  ForEachSubsetOfSize(8, 3, [&](const Coalition& c) { batch.push_back(c); });
  ASSERT_TRUE(cache.Prefetch(batch, &pool).ok());
  EXPECT_EQ(cache.size(), 56u);
  // Single-flight: racing workers wait for the in-flight computation
  // instead of duplicating it.
  EXPECT_EQ(fn.calls(), 56);
  EXPECT_EQ(cache.misses(), 56u);
  for (const Coalition& c : batch) {
    Result<UtilityRecord> record = cache.Get(c);
    ASSERT_TRUE(record.ok());
    EXPECT_DOUBLE_EQ(record->utility, 3.0);
  }
}

/// Coalition.Count() plus a deliberate stall, to force Get/Prefetch races
/// to overlap in time.
class SlowCountingUtility : public UtilityFunction {
 public:
  explicit SlowCountingUtility(int n) : n_(n) {}
  int num_clients() const override { return n_; }
  Result<double> Evaluate(const Coalition& coalition) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    return static_cast<double>(coalition.Count()) * 1.5;
  }
  int calls() const { return calls_.load(); }

 private:
  int n_;
  mutable std::atomic<int> calls_{0};
};

TEST(UtilityCacheTest, ConcurrentHammerComputesEachCoalitionExactlyOnce) {
  // The reference: one sequential sweep over the distinct coalitions.
  std::vector<Coalition> distinct;
  ForEachSubsetOfSize(10, 2, [&](const Coalition& c) {
    distinct.push_back(c);
  });
  SlowCountingUtility sequential_fn(10);
  UtilityCache sequential_cache(&sequential_fn);
  std::vector<double> expected;
  for (const Coalition& c : distinct) {
    Result<UtilityRecord> r = sequential_cache.Get(c);
    ASSERT_TRUE(r.ok());
    expected.push_back(r->utility);
  }

  // The hammer: 8 threads each Get/Prefetch every coalition in a
  // different order, racing on a shared cache.
  SlowCountingUtility fn(10);
  UtilityCache cache(&fn);
  ThreadPool prefetch_pool(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      std::vector<Coalition> order = distinct;
      Rng rng(1000 + t);
      for (size_t j = order.size(); j > 1; --j) {
        std::swap(order[j - 1], order[rng.UniformInt(j)]);
      }
      if (t % 2 == 0) {
        ASSERT_TRUE(cache.Prefetch(order, &prefetch_pool).ok());
      } else {
        for (const Coalition& c : order) {
          ASSERT_TRUE(cache.Get(c).ok());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Exactly-once: every distinct coalition trained once, despite 8x
  // oversubscription, and every value matches the sequential run.
  EXPECT_EQ(cache.misses(), distinct.size());
  EXPECT_EQ(fn.calls(), static_cast<int>(distinct.size()));
  EXPECT_EQ(cache.size(), distinct.size());
  for (size_t j = 0; j < distinct.size(); ++j) {
    Result<UtilityRecord> r = cache.Get(distinct[j]);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r->utility, expected[j]);
  }
}

TEST(UtilityCacheTest, PrefetchPropagatesFailure) {
  FailingUtility fn;
  UtilityCache cache(&fn);
  ThreadPool pool(2);
  EXPECT_FALSE(cache.Prefetch({Coalition()}, &pool).ok());
}

// Regression: the parallel Prefetch path used to collapse any worker
// failure into a generic "prefetch failed" status, losing the underlying
// cause. It must now surface the first failing coalition's real Status,
// exactly as a sequential pass would.
TEST(UtilityCacheTest, PrefetchSurfacesUnderlyingError) {
  FailingUtility fn;
  UtilityCache cache(&fn);
  ThreadPool pool(4);
  std::vector<Coalition> batch = {Coalition(), Coalition::Of({0}),
                                  Coalition::Of({1}), Coalition::Of({0, 1})};
  Status parallel_status = cache.Prefetch(batch, &pool);
  ASSERT_FALSE(parallel_status.ok());
  EXPECT_EQ(parallel_status.code(), StatusCode::kInternal);
  EXPECT_NE(parallel_status.ToString().find("deliberate failure"),
            std::string::npos)
      << parallel_status.ToString();
}

// Regression: Clear() used to leave the store write-through's
// unflushed-byte counter at its pre-Clear value, so the first appends of
// the next run flushed on a stale schedule.
TEST(UtilityCacheTest, ClearResetsUnflushedByteAccounting) {
  const std::string path =
      ::testing::TempDir() + "fedshap_cache_clear_unflushed";
  std::filesystem::remove_all(path);
  CountingUtility fn(5);
  Result<std::unique_ptr<UtilityStore>> store = UtilityStore::Open(path, 42);
  ASSERT_TRUE(store.ok());
  UtilityCache cache(&fn);
  // A flush interval far above one record: appends accumulate unflushed.
  cache.AttachStore(store->get(), /*flush_bytes=*/1 << 20);
  ASSERT_TRUE(cache.Get(Coalition::Of({0, 1})).ok());
  const size_t per_record = cache.unflushed_bytes();
  ASSERT_GT(per_record, 0u);

  cache.Clear();
  EXPECT_EQ(cache.unflushed_bytes(), 0u);

  // The counter restarts from zero: one fresh append of a same-shape
  // coalition leaves exactly one record's bytes pending, not
  // one-plus-the-stale-balance.
  ASSERT_TRUE(cache.Get(Coalition::Of({2, 3})).ok());
  EXPECT_EQ(cache.unflushed_bytes(), per_record);
  std::filesystem::remove_all(path);
}

TEST(UtilityCacheTest, PrefetchFusedComputesEachOnceAndMarksFresh) {
  CountingUtility fn(6);
  UtilityCache cache(&fn);
  std::vector<Coalition> batch;
  ForEachSubsetOfSize(6, 2, [&](const Coalition& c) { batch.push_back(c); });
  std::vector<uint8_t> fresh;
  ASSERT_TRUE(cache.PrefetchFused(batch, &fresh).ok());
  ASSERT_EQ(fresh.size(), batch.size());
  for (size_t i = 0; i < fresh.size(); ++i) EXPECT_EQ(fresh[i], 1) << i;
  EXPECT_EQ(cache.misses(), batch.size());
  EXPECT_EQ(fn.calls(), static_cast<int>(batch.size()));
  for (const Coalition& c : batch) {
    Result<UtilityRecord> record = cache.Get(c);
    ASSERT_TRUE(record.ok());
    EXPECT_DOUBLE_EQ(record->utility, 2.0);
  }
  // A second fused pass is all hits: nothing retrained, nothing fresh.
  ASSERT_TRUE(cache.PrefetchFused(batch, &fresh).ok());
  for (size_t i = 0; i < fresh.size(); ++i) EXPECT_EQ(fresh[i], 0) << i;
  EXPECT_EQ(fn.calls(), static_cast<int>(batch.size()));
}

TEST(UtilitySessionTest, CountsEvaluationsAndDistinct) {
  CountingUtility fn(5);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  EXPECT_EQ(session.num_clients(), 5);
  ASSERT_TRUE(session.Evaluate(Coalition::Of({0})).ok());
  ASSERT_TRUE(session.Evaluate(Coalition::Of({0})).ok());
  ASSERT_TRUE(session.Evaluate(Coalition::Of({1})).ok());
  EXPECT_EQ(session.num_evaluations(), 3u);
  EXPECT_EQ(session.num_distinct(), 2u);
}

TEST(UtilitySessionTest, ChargesEachDistinctCoalitionOnce) {
  CountingUtility fn(5);
  UtilityCache cache(&fn);
  UtilitySession warmup(&cache);
  ASSERT_TRUE(warmup.Evaluate(Coalition::Of({0, 1})).ok());
  const double warm_cost = warmup.charged_seconds();
  EXPECT_GE(warm_cost, 0.0);

  // A later session re-asking for the cached coalition is still charged
  // the recorded cost — the honest-time model.
  UtilitySession later(&cache);
  ASSERT_TRUE(later.Evaluate(Coalition::Of({0, 1})).ok());
  ASSERT_TRUE(later.Evaluate(Coalition::Of({0, 1})).ok());
  EXPECT_DOUBLE_EQ(later.charged_seconds(), warm_cost);
  EXPECT_EQ(later.num_distinct(), 1u);
  EXPECT_EQ(fn.calls(), 1);  // no recomputation happened
}

TEST(UtilitySessionTest, IndependentSessionsShareCache) {
  CountingUtility fn(4);
  UtilityCache cache(&fn);
  UtilitySession a(&cache), b(&cache);
  ASSERT_TRUE(a.Evaluate(Coalition::Of({2})).ok());
  ASSERT_TRUE(b.Evaluate(Coalition::Of({2})).ok());
  EXPECT_EQ(fn.calls(), 1);
  EXPECT_EQ(a.num_distinct(), 1u);
  EXPECT_EQ(b.num_distinct(), 1u);
}

TEST(UtilitySessionTest, EvaluateBatchMatchesSequentialAccounting) {
  SlowCountingUtility fn(9);
  UtilityCache cache(&fn);
  std::vector<Coalition> batch;
  ForEachSubsetOfSize(9, 2, [&](const Coalition& c) { batch.push_back(c); });
  batch.push_back(batch.front());  // a repeat, to exercise hit accounting

  // Sequential reference session.
  UtilitySession sequential(&cache);
  std::vector<double> expected;
  for (const Coalition& c : batch) {
    Result<double> u = sequential.Evaluate(c);
    ASSERT_TRUE(u.ok());
    expected.push_back(*u);
  }

  // Pooled batch session on the same cache: identical values, identical
  // per-run accounting (charged costs come from the same records).
  ThreadPool pool(4);
  UtilitySession parallel(&cache, &pool);
  Result<std::vector<double>> values = parallel.EvaluateBatch(batch);
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(*values, expected);
  EXPECT_EQ(parallel.num_evaluations(), sequential.num_evaluations());
  EXPECT_EQ(parallel.num_distinct(), sequential.num_distinct());
  EXPECT_DOUBLE_EQ(parallel.charged_seconds(),
                   sequential.charged_seconds());
}

TEST(UtilitySessionTest, EvaluateBatchWithoutPoolStillWorks) {
  CountingUtility fn(5);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  Result<std::vector<double>> values =
      session.EvaluateBatch({Coalition::Of({0}), Coalition::Of({0, 1})});
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(*values, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(session.num_evaluations(), 2u);
}

TEST(UtilitySessionTest, EvaluateBatchPropagatesFailure) {
  FailingUtility fn;
  UtilityCache cache(&fn);
  ThreadPool pool(2);
  UtilitySession session(&cache, &pool);
  EXPECT_FALSE(session.EvaluateBatch({Coalition(), Coalition::Of({0})}).ok());
  EXPECT_EQ(session.num_evaluations(), 0u);
}

TEST(UtilitySessionTest, FusedBatchMatchesUnfusedValuesAndAccounting) {
  std::vector<Coalition> batch;
  ForEachSubsetOfSize(8, 2, [&](const Coalition& c) { batch.push_back(c); });
  batch.push_back(batch.front());  // repeat exercises hit accounting

  CountingUtility unfused_fn(8);
  UtilityCache unfused_cache(&unfused_fn);
  UtilitySession unfused(&unfused_cache);
  Result<std::vector<double>> expected = unfused.EvaluateBatch(batch);
  ASSERT_TRUE(expected.ok());

  CountingUtility fused_fn(8);
  UtilityCache fused_cache(&fused_fn);
  UtilitySession fused(&fused_cache);
  fused.set_fused(true);
  ASSERT_TRUE(fused.fused());
  Result<std::vector<double>> values = fused.EvaluateBatch(batch);
  ASSERT_TRUE(values.ok());

  // The base fused dispatch routes through the same Evaluate, so values
  // are identical here; accounting must match the unfused path exactly.
  EXPECT_EQ(*values, *expected);
  EXPECT_EQ(fused.num_evaluations(), unfused.num_evaluations());
  EXPECT_EQ(fused.num_distinct(), unfused.num_distinct());
  EXPECT_EQ(fused.num_fresh_trainings(), unfused.num_fresh_trainings());
  EXPECT_EQ(fused_fn.calls(), unfused_fn.calls());
}

TEST(UtilitySessionTest, PaperTableOneRoundTrip) {
  TableUtility table = testing_util::PaperTableOne();
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  Result<double> u = session.Evaluate(Coalition::Of({0, 1, 2}));
  ASSERT_TRUE(u.ok());
  EXPECT_DOUBLE_EQ(*u, 0.96);
}

}  // namespace
}  // namespace fedshap
