/// Tests for fl/utility_store.h: open/flush/reopen round-trips across the
/// segment layout, torn-tail truncation, manifest/stray-segment crash
/// recovery, rejection of non-store paths, compaction, byte-budget
/// eviction, coalition codec edge cases, and the UtilityCache
/// read-through/write-through integration.

#include "fl/utility_store.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace fedshap {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test store path: removes any leftover file *or* directory
/// from a previous run (std::remove cannot delete segment directories).
std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "fedshap_store_" + name;
  fs::remove_all(path);
  return path;
}

std::string ActiveSegmentPath(const std::string& store, uint64_t id) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06llu.seg",
                static_cast<unsigned long long>(id));
  return store + "/" + name;
}

/// Counts underlying evaluations to verify cross-process reuse.
class CountingUtility : public UtilityFunction {
 public:
  explicit CountingUtility(int n) : n_(n) {}
  int num_clients() const override { return n_; }
  Result<double> Evaluate(const Coalition& coalition) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return static_cast<double>(coalition.Count()) * 0.125;
  }
  int calls() const { return calls_.load(); }

 private:
  int n_;
  mutable std::atomic<int> calls_{0};
};

TEST(CoalitionCodecTest, RoundTripsEdgeCoalitions) {
  const std::vector<Coalition> cases = {
      Coalition(), Coalition::Of({0}), Coalition::Of({255}),
      Coalition::Of({0, 1, 2, 63, 64, 127, 128, 255}),
      Coalition::Full(100)};
  ByteWriter writer;
  for (const Coalition& c : cases) PutCoalition(writer, c);
  ByteReader reader(writer.bytes());
  for (const Coalition& c : cases) {
    Result<Coalition> read = GetCoalition(reader);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, c);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(CoalitionCodecTest, RejectsOutOfRangeMembers) {
  ByteWriter writer;
  writer.PutVarint(1);
  writer.PutVarint(256);  // member index 256 >= kMaxClients
  ByteReader reader(writer.bytes());
  EXPECT_FALSE(GetCoalition(reader).ok());
}

TEST(UtilityStoreTest, OpensEmptyWhenFileMissing) {
  const std::string path = TempPath("missing.fsus");
  Result<std::unique_ptr<UtilityStore>> store =
      UtilityStore::Open(path, 42);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->size(), 0u);
  EXPECT_EQ((*store)->loaded_entries(), 0u);
  EXPECT_FALSE((*store)->dirty());
  // Nothing written yet: the store directory is created lazily on Put.
  EXPECT_TRUE((*store)->Flush().ok());
  EXPECT_FALSE(fs::exists(path));
}

TEST(UtilityStoreTest, PutFlushReopenRoundTrip) {
  const std::string path = TempPath("roundtrip.fsus");
  {
    Result<std::unique_ptr<UtilityStore>> store =
        UtilityStore::Open(path, 7);
    ASSERT_TRUE(store.ok());
    EXPECT_GT((*store)->Put(Coalition::Of({0, 2}), {0.75, 1.5}), 0u);
    EXPECT_GT((*store)->Put(Coalition(), {0.1, 0.0}), 0u);
    EXPECT_TRUE((*store)->dirty());
    ASSERT_TRUE((*store)->Flush().ok());
    EXPECT_FALSE((*store)->dirty());
  }
  Result<std::unique_ptr<UtilityStore>> reopened =
      UtilityStore::Open(path, 7);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->size(), 2u);
  EXPECT_EQ((*reopened)->loaded_entries(), 2u);
  UtilityRecord record;
  ASSERT_TRUE((*reopened)->Lookup(Coalition::Of({0, 2}), &record));
  EXPECT_DOUBLE_EQ(record.utility, 0.75);
  EXPECT_DOUBLE_EQ(record.cost_seconds, 1.5);
  ASSERT_TRUE((*reopened)->Lookup(Coalition(), &record));
  EXPECT_DOUBLE_EQ(record.utility, 0.1);
  EXPECT_FALSE((*reopened)->Lookup(Coalition::Of({1}), nullptr));
}

TEST(UtilityStoreTest, LargeStoreRoundTripAcrossSegments) {
  const std::string path = TempPath("large.fsus");
  Rng rng(99);
  std::vector<std::pair<Coalition, UtilityRecord>> entries;
  {
    Result<std::unique_ptr<UtilityStore>> store =
        UtilityStore::Open(path, 1);
    ASSERT_TRUE(store.ok());
    // Small rotation size: the 5000 records span many sealed segments,
    // so the reopen below exercises footer indexing and the manifest.
    (*store)->set_segment_target_bytes(16 * 1024);
    for (int j = 0; j < 5000; ++j) {
      Coalition c;
      for (int i = 0; i < 200; ++i) {
        if (rng.Bernoulli(0.3)) c.Add(i);
      }
      UtilityRecord record{rng.Uniform(-1.0, 1.0), rng.Uniform()};
      (*store)->Put(c, record);
      entries.emplace_back(c, record);
    }
    ASSERT_TRUE((*store)->Flush().ok());
    EXPECT_GT((*store)->stats().sealed_segments, 1u);
  }
  Result<std::unique_ptr<UtilityStore>> reopened =
      UtilityStore::Open(path, 1);
  ASSERT_TRUE(reopened.ok());
  for (const auto& [coalition, record] : entries) {
    UtilityRecord read;
    ASSERT_TRUE((*reopened)->Lookup(coalition, &read));
    EXPECT_DOUBLE_EQ(read.utility, record.utility);
    EXPECT_DOUBLE_EQ(read.cost_seconds, record.cost_seconds);
  }
}

TEST(UtilityStoreTest, FingerprintMismatchRejected) {
  const std::string path = TempPath("fingerprint.fsus");
  {
    Result<std::unique_ptr<UtilityStore>> store =
        UtilityStore::Open(path, 1111);
    ASSERT_TRUE(store.ok());
    (*store)->Put(Coalition::Of({0}), {0.5, 0.1});
    ASSERT_TRUE((*store)->Flush().ok());
  }
  Result<std::unique_ptr<UtilityStore>> wrong =
      UtilityStore::Open(path, 2222);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);
}

TEST(UtilityStoreTest, TornActiveTailTruncatedOnOpen) {
  const std::string path = TempPath("torn.fsus");
  {
    Result<std::unique_ptr<UtilityStore>> store =
        UtilityStore::Open(path, 5);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 10; ++i) {
      (*store)->Put(Coalition::Of({i}), {0.1 * i, 0.0});
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  const std::string active = ActiveSegmentPath(path, 1);
  Result<std::string> contents = ReadFileToString(active);
  ASSERT_TRUE(contents.ok());

  // A crash mid-append leaves a torn record at the tail: garbage framing
  // bytes. Open must truncate it and keep every complete record.
  {
    std::FILE* f = std::fopen(active.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite("XXXXX", 1, 5, f);
    std::fclose(f);
  }
  {
    Result<std::unique_ptr<UtilityStore>> store =
        UtilityStore::Open(path, 5);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->size(), 10u);
    UtilityRecord record;
    ASSERT_TRUE((*store)->Lookup(Coalition::Of({9}), &record));
    EXPECT_DOUBLE_EQ(record.utility, 0.9);
  }

  // A tail truncated *inside* the last record loses exactly that record;
  // the store stays open for business and appends resume cleanly.
  ASSERT_TRUE(
      WriteFileAtomic(active, contents->substr(0, contents->size() - 7))
          .ok());
  {
    Result<std::unique_ptr<UtilityStore>> store =
        UtilityStore::Open(path, 5);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->size(), 9u);
    EXPECT_FALSE((*store)->Lookup(Coalition::Of({9}), nullptr));
    (*store)->Put(Coalition::Of({0, 9}), {4.5, 0.0});
    ASSERT_TRUE((*store)->Flush().ok());
  }
  Result<std::unique_ptr<UtilityStore>> reopened =
      UtilityStore::Open(path, 5);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->size(), 10u);
  UtilityRecord record;
  ASSERT_TRUE((*reopened)->Lookup(Coalition::Of({0, 9}), &record));
  EXPECT_DOUBLE_EQ(record.utility, 4.5);
}

TEST(UtilityStoreTest, CorruptManifestAndNonStoreFilesRejected) {
  const std::string path = TempPath("corrupt.fsus");
  {
    Result<std::unique_ptr<UtilityStore>> store =
        UtilityStore::Open(path, 5);
    ASSERT_TRUE(store.ok());
    (*store)->Put(Coalition::Of({1}), {0.5, 0.0});
    ASSERT_TRUE((*store)->Flush().ok());
  }
  ASSERT_TRUE(WriteFileAtomic(path + "/MANIFEST", "garbage bytes").ok());
  EXPECT_FALSE(UtilityStore::Open(path, 5).ok());

  // A regular file is never a store, including a legacy single-file (v1)
  // store: Open rejects it with InvalidArgument and leaves it untouched.
  ByteWriter v1;
  v1.PutU64(5);
  v1.PutVarint(1);
  PutCoalition(v1, Coalition::Of({0}));
  v1.PutDouble(-0.25);
  v1.PutDouble(2.5);
  const std::string regular_files[] = {
      "definitely not a store",
      EncodeFramed(UtilityStore::kMagic, /*version=*/1, v1.bytes()),
  };
  for (const std::string& contents : regular_files) {
    fs::remove_all(path);
    ASSERT_TRUE(WriteFileAtomic(path, contents).ok());
    EXPECT_EQ(UtilityStore::Open(path, 5).status().code(),
              StatusCode::kInvalidArgument);
    Result<std::string> after = ReadFileToString(path);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, contents);
  }
}

TEST(UtilityStoreTest, CompactionMergesSegmentsAndDropsDuplicates) {
  const std::string path = TempPath("compact.fsus");
  Result<std::unique_ptr<UtilityStore>> store =
      UtilityStore::Open(path, 11);
  ASSERT_TRUE(store.ok());
  (*store)->set_segment_target_bytes(4096);
  // Every coalition written twice: the second value supersedes the first
  // and compaction reclaims the dead bytes.
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 150; ++i) {
      Coalition c = Coalition::Of({i % 100, 100 + i / 100});
      (*store)->Put(c, {static_cast<double>(i + pass * 1000), 0.0});
    }
  }
  ASSERT_TRUE((*store)->CompactNow().ok());
  UtilityStoreStats stats = (*store)->stats();
  EXPECT_EQ(stats.entries, 150u);
  EXPECT_EQ(stats.sealed_segments, 1u);
  EXPECT_GE(stats.compactions, 1u);
  for (int i = 0; i < 150; ++i) {
    Coalition c = Coalition::Of({i % 100, 100 + i / 100});
    UtilityRecord read;
    ASSERT_TRUE((*store)->Lookup(c, &read));
    EXPECT_DOUBLE_EQ(read.utility, static_cast<double>(i + 1000));
  }
  store->reset();
  Result<std::unique_ptr<UtilityStore>> reopened =
      UtilityStore::Open(path, 11);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->size(), 150u);
  UtilityRecord read;
  ASSERT_TRUE((*reopened)->Lookup(Coalition::Of({0, 100}), &read));
  EXPECT_DOUBLE_EQ(read.utility, 1000.0);
}

TEST(UtilityStoreTest, CompactionKilledMidSwapRecoversFromOldManifest) {
  const std::string path = TempPath("killswap.fsus");
  {
    Result<std::unique_ptr<UtilityStore>> store =
        UtilityStore::Open(path, 13);
    ASSERT_TRUE(store.ok());
    (*store)->set_segment_target_bytes(4096);
    for (int i = 0; i < 300; ++i) {
      (*store)->Put(Coalition::Of({i % 100, 100 + i / 100}),
                    {static_cast<double>(i), 0.0});
    }
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_GE((*store)->stats().sealed_segments, 1u);
  }
  // Simulate a compaction killed after writing its merged segment but
  // before the manifest swap: a stray sealed file not in the manifest.
  const std::string stray = ActiveSegmentPath(path, 99);
  fs::copy_file(ActiveSegmentPath(path, 1), stray);
  ASSERT_TRUE(fs::exists(stray));

  Result<std::unique_ptr<UtilityStore>> reopened =
      UtilityStore::Open(path, 13);
  ASSERT_TRUE(reopened.ok());
  // The old manifest stays authoritative: every record intact, the
  // half-finished merge segment deleted.
  EXPECT_EQ((*reopened)->size(), 300u);
  EXPECT_FALSE(fs::exists(stray));
  UtilityRecord read;
  ASSERT_TRUE((*reopened)->Lookup(Coalition::Of({5, 100}), &read));
  EXPECT_DOUBLE_EQ(read.utility, 5.0);
}

TEST(UtilityStoreTest, ByteBudgetEvictsColdSegmentsButServesEverything) {
  const std::string path = TempPath("evict.fsus");
  Result<std::unique_ptr<UtilityStore>> store =
      UtilityStore::Open(path, 17);
  ASSERT_TRUE(store.ok());
  (*store)->set_segment_target_bytes(4096);
  // Stay under kCompactMinSegments sealed segments so background
  // compaction does not merge away the eviction candidates.
  std::vector<Coalition> coalitions;
  for (int i = 0; i < 450 && (*store)->stats().sealed_segments < 3; ++i) {
    Coalition c = Coalition::Of({i % 100, 100 + i / 100});
    (*store)->Put(c, {static_cast<double>(i), 0.0});
    coalitions.push_back(c);
  }
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_GE((*store)->stats().sealed_segments, 2u);

  // Budget fits roughly one segment: lookups across all segments force
  // LRU eviction and transparent remaps, never a wrong or lost record.
  (*store)->set_byte_budget(8192);
  for (size_t i = 0; i < coalitions.size(); ++i) {
    UtilityRecord read;
    ASSERT_TRUE((*store)->Lookup(coalitions[i], &read)) << "entry " << i;
    EXPECT_DOUBLE_EQ(read.utility, static_cast<double>(i));
  }
  UtilityStoreStats stats = (*store)->stats();
  EXPECT_LE(stats.mapped_bytes, 8192u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.byte_budget, 8192u);
}

TEST(UtilityStoreTest, EvictionNeverDropsUnflushedRecords) {
  const std::string path = TempPath("unflushed.fsus");
  Result<std::unique_ptr<UtilityStore>> store =
      UtilityStore::Open(path, 19);
  ASSERT_TRUE(store.ok());
  // A budget below any segment size: nothing sealed may stay mapped.
  (*store)->set_byte_budget(1);
  for (int i = 0; i < 5; ++i) {
    (*store)->Put(Coalition::Of({i}), {static_cast<double>(i), 0.0});
  }
  // The records are dirty (never flushed) yet must all be served from
  // the in-memory active set — eviction only unmaps sealed segments.
  EXPECT_TRUE((*store)->dirty());
  for (int i = 0; i < 5; ++i) {
    UtilityRecord read;
    ASSERT_TRUE((*store)->Lookup(Coalition::Of({i}), &read));
    EXPECT_DOUBLE_EQ(read.utility, static_cast<double>(i));
  }
}

TEST(UtilityStoreTest, StemPathEncodesFingerprint) {
  EXPECT_EQ(UtilityStore::StemPath("/tmp/x", 0xabcULL),
            "/tmp/x.0000000000000abc.fsus");
  EXPECT_NE(UtilityStore::StemPath("/tmp/x", 1),
            UtilityStore::StemPath("/tmp/x", 2));
}

TEST(UtilityCacheStoreTest, WriteThroughAndCrossProcessReuse) {
  const std::string path = TempPath("integration.fsus");
  CountingUtility fn(6);
  const uint64_t fingerprint = fn.Fingerprint();

  // "Process 1": computes five utilities, each flushed as it lands
  // (flush_bytes=1 makes every appended byte trip the interval).
  {
    Result<std::unique_ptr<UtilityStore>> store =
        UtilityStore::Open(path, fingerprint);
    ASSERT_TRUE(store.ok());
    UtilityCache cache(&fn);
    cache.AttachStore(store->get(), /*flush_bytes=*/1);
    UtilitySession session(&cache);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(session.Evaluate(Coalition::Of({i})).ok());
    }
    EXPECT_EQ(fn.calls(), 5);
    EXPECT_FALSE((*store)->dirty());  // flush_bytes=1 persisted everything
  }

  // "Process 2": a fresh cache reads through to the store on miss;
  // repeated coalitions cost no new trainings and are charged their
  // recorded costs.
  {
    Result<std::unique_ptr<UtilityStore>> store =
        UtilityStore::Open(path, fingerprint);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->loaded_entries(), 5u);
    UtilityCache cache(&fn);
    cache.AttachStore(store->get());
    // Read-through is lazy: nothing enters the cache until asked for.
    EXPECT_EQ(cache.preloaded(), 0u);
    EXPECT_EQ(cache.size(), 0u);
    UtilitySession session(&cache);
    for (int i = 0; i < 5; ++i) {
      Result<double> u = session.Evaluate(Coalition::Of({i}));
      ASSERT_TRUE(u.ok());
      EXPECT_DOUBLE_EQ(*u, 0.125);
    }
    EXPECT_EQ(fn.calls(), 5);  // no re-training across "processes"
    EXPECT_EQ(cache.hits(), 5u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.preloaded(), 5u);
    EXPECT_EQ(cache.size(), 5u);
    // A genuinely new coalition still computes and persists.
    ASSERT_TRUE(session.Evaluate(Coalition::Of({0, 1})).ok());
    EXPECT_EQ(fn.calls(), 6);
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    Result<std::unique_ptr<UtilityStore>> store =
        UtilityStore::Open(path, fingerprint);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->loaded_entries(), 6u);
  }
}

TEST(UtilityFingerprintTest, DistinguishesWorkloads) {
  LinearRegressionUtility::Params params;
  LinearRegressionUtility a(params);
  LinearRegressionUtility same(params);
  params.samples_per_client += 1;
  LinearRegressionUtility different(params);
  EXPECT_EQ(a.Fingerprint(), same.Fingerprint());
  EXPECT_NE(a.Fingerprint(), different.Fingerprint());

  TableUtility table_a = testing_util::PaperTableOne();
  TableUtility table_b = testing_util::RandomTable(3, 1);
  EXPECT_NE(table_a.Fingerprint(), table_b.Fingerprint());
  EXPECT_EQ(table_a.Fingerprint(),
            testing_util::PaperTableOne().Fingerprint());
}

}  // namespace
}  // namespace fedshap
