#include "fl/utility_cache.h"

#include <atomic>
#include <bit>
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

/// A distinct value per coalition; evaluating `bad` fails every time.
class FailsOnUtility : public UtilityFunction {
 public:
  FailsOnUtility(int n, Coalition bad) : n_(n), bad_(bad) {}
  int num_clients() const override { return n_; }
  Result<double> Evaluate(const Coalition& coalition) const override {
    if (coalition == bad_) return Status::Internal("bad coalition");
    double value = 0.0;
    coalition.ForEach([&](int i) { value += (i + 1) * (i + 1); });
    return value;
  }

 private:
  int n_;
  Coalition bad_;
};

/// Everything a session counts, plus the hits and misses its queries
/// added to the cache.
struct Counts {
  size_t evaluations = 0, distinct = 0, fresh = 0, hits = 0, misses = 0;
  uint64_t charged_bits = 0;
  bool operator==(const Counts&) const = default;
};

void PrintTo(const Counts& c, std::ostream* os) {
  *os << "{evaluations " << c.evaluations << ", distinct " << c.distinct
      << ", fresh " << c.fresh << ", hits " << c.hits << ", misses "
      << c.misses << ", charged bits " << c.charged_bits << "}";
}

/// Runs `fn` through `session` and folds the counts into `counts`.
template <typename Fn>
void Counted(const UtilitySession& session, const UtilityCache& cache,
             Counts& counts, Fn fn) {
  const size_t hits = cache.hits(), misses = cache.misses();
  fn();
  counts.evaluations = session.num_evaluations();
  counts.distinct = session.num_distinct();
  counts.fresh = session.num_fresh_trainings();
  counts.hits += cache.hits() - hits;
  counts.misses += cache.misses() - misses;
  counts.charged_bits = std::bit_cast<uint64_t>(session.charged_seconds());
}

/// Runs `batches` once through EvaluateBatch and once through a
/// sequential Evaluate loop that stops at the first error. Cold, each
/// side has a fresh cache of its own. Warm, new sessions on the
/// sequential side's cache take turns batch by batch, so the charged
/// costs come from the same records and compare bit for bit. Values,
/// errors and every count must agree after each batch.
void ExpectBatchesMatchSequential(
    const std::vector<std::vector<Coalition>>& batches, const Coalition& bad,
    ThreadPool* pool) {
  FailsOnUtility sequential_fn(6, bad), batch_fn(6, bad);
  UtilityCache sequential_cache(&sequential_fn), batch_cache(&batch_fn);
  for (const bool warm : {false, true}) {
    UtilityCache& batch_side = warm ? sequential_cache : batch_cache;
    UtilitySession sequential(&sequential_cache);
    UtilitySession batched(&batch_side, pool);
    Counts want, got;
    for (size_t b = 0; b < batches.size(); ++b) {
      std::vector<double> expected;
      Status expected_status = Status::OK();
      Counted(sequential, sequential_cache, want, [&] {
        for (const Coalition& c : batches[b]) {
          Result<double> u = sequential.Evaluate(c);
          if (!u.ok()) {
            expected_status = u.status();
            return;
          }
          expected.push_back(*u);
        }
      });
      Result<std::vector<double>> values = std::vector<double>();
      Counted(batched, batch_side, got,
              [&] { values = batched.EvaluateBatch(batches[b]); });
      ASSERT_EQ(values.ok(), expected_status.ok()) << "batch " << b;
      if (values.ok()) {
        EXPECT_EQ(*values, expected) << "batch " << b;
      } else {
        EXPECT_EQ(values.status().ToString(), expected_status.ToString());
      }
      // Cold, the two caches measured their own training costs.
      if (!warm) got.charged_bits = want.charged_bits = 0;
      EXPECT_EQ(got, want) << "batch " << b << (warm ? ", warm" : ", cold");
    }
    if (!warm) {
      EXPECT_EQ(batch_cache.size(), sequential_cache.size());
    }
  }
}

TEST(UtilitySessionTest, EvaluateBatchMatchesSequentialAccounting) {
  const Coalition a = Coalition::Of({0}), b = Coalition::Of({1, 2}),
                  c = Coalition::Of({0, 3}), d = Coalition::Of({4}),
                  e = Coalition::Of({2, 5}), bad = Coalition::Of({1, 5});
  // In-batch repeats, repeats of an earlier batch, a failure in the
  // middle, a retry of the failed coalition and coalitions past it.
  const std::vector<std::vector<Coalition>> batches = {
      {a, b, a, c, a},
      {b, d, bad, d, e, c},
      {e, a, bad},
      {e, d, c, b},
  };
  ExpectBatchesMatchSequential(batches, bad, nullptr);
  // A pool may train a coalition past a failure before the failure
  // surfaces, which a sequential loop never asks for; so the pooled
  // stream puts no new coalition after one.
  const std::vector<std::vector<Coalition>> pooled = {
      {a, b, a, c, a},
      {b, d, c, d, e, a},
      {e, bad, a, e},
      {e, d, c, b, bad},
  };
  ThreadPool pool(2);
  ExpectBatchesMatchSequential(pooled, bad, &pool);
  // Regression: a pooled batch counted every cache hit twice, once in its
  // prefetch and again in its accounting pass.
  CountingUtility fn(4);
  UtilityCache cache(&fn);
  UtilitySession session(&cache, &pool);
  ASSERT_TRUE(session.EvaluateBatch({a, c, a}).ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

// Counters are read while the run thread evaluates a large batch: every
// read sees a whole earlier batch, never a torn one.
TEST(UtilitySessionTest, CountersReadableDuringABatch) {
  CountingUtility fn(12);
  UtilityCache cache(&fn);
  std::vector<Coalition> batch;
  for (int round = 0; round < 32; ++round) {
    for (uint64_t mask = 0; mask < (1u << 12); ++mask) {
      Coalition coalition;
      for (int i = 0; i < 12; ++i) {
        if ((mask >> i) & 1u) coalition.Add(i);
      }
      batch.push_back(coalition);
    }
  }
  UtilitySession session(&cache);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    size_t last = 0;
    while (!done.load()) {
      const size_t evaluations = session.num_evaluations();
      EXPECT_EQ(evaluations % batch.size(), 0u);
      EXPECT_GE(evaluations, last);
      last = evaluations;
      // Fresh before distinct: both only grow, so the pair read in this
      // order keeps fresh <= distinct.
      const size_t fresh = session.num_fresh_trainings();
      const size_t distinct = session.num_distinct();
      EXPECT_LE(fresh, distinct);
      EXPECT_LE(distinct, size_t{1} << 12);
      EXPECT_GE(session.charged_seconds(), 0.0);
      EXPECT_LE(cache.hits(), 3 * batch.size());
    }
  });
  for (int b = 0; b < 3; ++b) ASSERT_TRUE(session.EvaluateBatch(batch).ok());
  done.store(true);
  reader.join();
  EXPECT_EQ(session.num_evaluations(), 3 * batch.size());
  EXPECT_EQ(session.num_distinct(), size_t{1} << 12);
  EXPECT_EQ(session.num_fresh_trainings(), size_t{1} << 12);
  EXPECT_EQ(cache.misses(), size_t{1} << 12);
  EXPECT_EQ(cache.hits(), 3 * batch.size() - (size_t{1} << 12));
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
