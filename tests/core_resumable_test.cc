/// Tests for core/resumable.h: snapshot/restore equivalence (a resumed
/// sweep is bit-identical to an uninterrupted one), chunked stepping
/// against an uninterrupted Run, snapshot validation (wrong algorithm /
/// config / corruption), and file-based checkpoint round-trips. Also the
/// run-level determinism contract: same seed + same --threads/--batch-size
/// means a bit-identical ValuationResult across repeated in-process runs,
/// across thread counts, and across a store-warm resume.

#include "core/resumable.h"

#include <cstdio>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/ipss.h"
#include "data/synthetic.h"
#include "fl/utility_store.h"
#include "ml/mlp.h"
#include "test_util.h"
#include "util/serialization.h"
#include "util/thread_pool.h"

namespace fedshap {
namespace {

using testing_util::MonotoneTable;
using testing_util::PaperTableOne;
using testing_util::RandomTable;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "fedshap_resume_" + name;
}

/// Runs `make()`'s sweep start to finish in one process.
ValuationResult RunUninterrupted(
    const UtilityFunction& fn,
    const std::function<std::unique_ptr<ResumableEstimator>()>& make) {
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  std::unique_ptr<ResumableEstimator> sweep = make();
  Result<ValuationResult> result = sweep->Run(session);
  FEDSHAP_CHECK_OK(result.status());
  return std::move(result).value();
}

/// Runs the sweep in chunks of `chunk` units, snapshotting after every
/// step and handing the snapshot to a *fresh* estimator + cache each
/// time — the worst-case resume (no warm cache at all, only the
/// serialized state survives).
ValuationResult RunWithSnapshotsEveryStep(
    const UtilityFunction& fn,
    const std::function<std::unique_ptr<ResumableEstimator>()>& make,
    int chunk) {
  std::string snapshot;
  {
    std::unique_ptr<ResumableEstimator> sweep = make();
    Result<std::string> first = sweep->Snapshot();
    FEDSHAP_CHECK_OK(first.status());
    snapshot = std::move(first).value();
  }
  while (true) {
    std::unique_ptr<ResumableEstimator> sweep = make();
    FEDSHAP_CHECK_OK(sweep->Restore(snapshot));
    if (sweep->done()) {
      UtilityCache cache(&fn);
      UtilitySession session(&cache);
      Result<ValuationResult> result = sweep->Finish(session);
      FEDSHAP_CHECK_OK(result.status());
      return std::move(result).value();
    }
    UtilityCache cache(&fn);
    UtilitySession session(&cache);
    FEDSHAP_CHECK_OK(sweep->Step(session, chunk));
    Result<std::string> next = sweep->Snapshot();
    FEDSHAP_CHECK_OK(next.status());
    snapshot = std::move(next).value();
  }
}

void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // EXPECT_EQ, not NEAR: resumption must not perturb a single bit.
    EXPECT_EQ(a[i], b[i]) << "client " << i;
  }
}

/// Steps one sweep through a single warm session in chunks of `chunk`
/// units, then finishes it: the service's slice-by-slice execution, with
/// no snapshot in between.
ValuationResult RunInChunks(
    const UtilityFunction& fn,
    const std::function<std::unique_ptr<ResumableEstimator>()>& make,
    int chunk) {
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  std::unique_ptr<ResumableEstimator> sweep = make();
  while (!sweep->done()) FEDSHAP_CHECK_OK(sweep->Step(session, chunk));
  Result<ValuationResult> result = sweep->Finish(session);
  FEDSHAP_CHECK_OK(result.status());
  return std::move(result).value();
}

/// Chunked and uninterrupted runs agree on values and on every
/// evaluation/training count.
void ExpectChunkedMatchesUninterrupted(
    const UtilityFunction& fn,
    const std::function<std::unique_ptr<ResumableEstimator>()>& make,
    int chunk) {
  const ValuationResult uninterrupted = RunUninterrupted(fn, make);
  const ValuationResult chunked = RunInChunks(fn, make, chunk);
  ExpectBitIdentical(uninterrupted.values, chunked.values);
  EXPECT_EQ(chunked.num_evaluations, uninterrupted.num_evaluations);
  EXPECT_EQ(chunked.num_trainings, uninterrupted.num_trainings);
}

TEST(IpssSweepTest, ChunkedStepsMatchUninterruptedRun) {
  TableUtility fn = MonotoneTable(6);
  IpssConfig config;
  config.total_rounds = 24;
  config.seed = 3;
  for (int chunk : {1, 5}) {
    ExpectChunkedMatchesUninterrupted(
        fn, [&] { return std::make_unique<IpssSweep>(6, config); }, chunk);
  }
}

TEST(IpssSweepTest, ResumedBitIdenticalToUninterrupted) {
  TableUtility fn = RandomTable(7, 11);
  IpssConfig config;
  config.total_rounds = 40;
  config.seed = 9;
  const auto make = [&] { return std::make_unique<IpssSweep>(7, config); };
  ValuationResult uninterrupted = RunUninterrupted(fn, make);
  for (int chunk : {1, 3, 7}) {
    ValuationResult resumed = RunWithSnapshotsEveryStep(fn, make, chunk);
    ExpectBitIdentical(uninterrupted.values, resumed.values);
  }
}

TEST(StratifiedSweepTest, ChunkedStepsMatchUninterruptedForBothSchemes) {
  TableUtility fn = RandomTable(6, 21);
  for (SvScheme scheme :
       {SvScheme::kMarginal, SvScheme::kComplementary}) {
    StratifiedConfig config;
    config.scheme = scheme;
    config.total_rounds = 30;
    config.seed = 5;
    ExpectChunkedMatchesUninterrupted(
        fn, [&] { return std::make_unique<StratifiedSweep>(6, config); }, 4);
  }
}

TEST(StratifiedSweepTest, ResumedBitIdenticalToUninterrupted) {
  TableUtility fn = MonotoneTable(6);
  StratifiedConfig config;
  config.total_rounds = 25;
  config.seed = 13;
  const auto make = [&] {
    return std::make_unique<StratifiedSweep>(6, config);
  };
  ValuationResult uninterrupted = RunUninterrupted(fn, make);
  ValuationResult resumed = RunWithSnapshotsEveryStep(fn, make, 4);
  ExpectBitIdentical(uninterrupted.values, resumed.values);
}

TEST(ExactSweepTest, ChunkedStepsMatchUninterruptedForBothSchemes) {
  TableUtility fn = PaperTableOne();
  for (SvScheme scheme :
       {SvScheme::kMarginal, SvScheme::kComplementary}) {
    ExpectChunkedMatchesUninterrupted(
        fn, [&] { return std::make_unique<ExactSweep>(3, scheme); }, 3);
  }
  ValuationResult exact = RunInChunks(
      fn, [] { return std::make_unique<ExactSweep>(3, SvScheme::kMarginal); },
      3);
  EXPECT_EQ(exact.num_trainings, 8u);
}

TEST(ExactSweepTest, ResumedBitIdenticalToUninterrupted) {
  TableUtility fn = RandomTable(5, 31);
  const auto make = [&] {
    return std::make_unique<ExactSweep>(5, SvScheme::kMarginal);
  };
  ValuationResult uninterrupted = RunUninterrupted(fn, make);
  ValuationResult resumed = RunWithSnapshotsEveryStep(fn, make, 5);
  ExpectBitIdentical(uninterrupted.values, resumed.values);
}

TEST(PermutationMcSweepTest, ResumedBitIdenticalAcrossRngBoundary) {
  // The permutation sampler's RNG lives across steps: resuming from a
  // snapshot must continue the identical permutation stream, which only
  // works if the serialized RNG state (engine + distribution carry)
  // round-trips exactly.
  TableUtility fn = RandomTable(6, 41);
  PermutationMcConfig config;
  config.permutations = 30;
  config.seed = 17;
  const auto make = [&] {
    return std::make_unique<PermutationMcSweep>(6, config);
  };
  ValuationResult uninterrupted = RunUninterrupted(fn, make);
  for (int chunk : {1, 4, 13}) {
    ValuationResult resumed = RunWithSnapshotsEveryStep(fn, make, chunk);
    ExpectBitIdentical(uninterrupted.values, resumed.values);
  }
}

TEST(PermutationMcSweepTest, ConvergesTowardExactSv) {
  TableUtility fn = PaperTableOne();
  PermutationMcConfig config;
  config.permutations = 4000;
  config.seed = 23;
  ValuationResult result = RunUninterrupted(fn, [&] {
    return std::make_unique<PermutationMcSweep>(3, config);
  });
  // Exact SV of Table I is (0.22, 0.32, 0.32).
  EXPECT_NEAR(result.values[0], 0.22, 0.02);
  EXPECT_NEAR(result.values[1], 0.32, 0.02);
  EXPECT_NEAR(result.values[2], 0.32, 0.02);
}

TEST(SnapshotValidationTest, WrongAlgorithmRejected) {
  IpssConfig ipss_config;
  ipss_config.total_rounds = 10;
  IpssSweep ipss(4, ipss_config);
  Result<std::string> snapshot = ipss.Snapshot();
  ASSERT_TRUE(snapshot.ok());

  StratifiedConfig strat_config;
  StratifiedSweep stratified(4, strat_config);
  EXPECT_EQ(stratified.Restore(*snapshot).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotValidationTest, ConfigMismatchRejected) {
  IpssConfig config;
  config.total_rounds = 16;
  config.seed = 1;
  IpssSweep original(5, config);
  Result<std::string> snapshot = original.Snapshot();
  ASSERT_TRUE(snapshot.ok());

  config.seed = 2;  // different sampling stream
  IpssSweep different_seed(5, config);
  EXPECT_EQ(different_seed.Restore(*snapshot).code(),
            StatusCode::kFailedPrecondition);

  config.seed = 1;
  IpssSweep different_n(6, config);
  EXPECT_EQ(different_n.Restore(*snapshot).code(),
            StatusCode::kFailedPrecondition);

  PermutationMcConfig perm_a;
  perm_a.seed = 1;
  PermutationMcSweep perm(4, perm_a);
  Result<std::string> perm_snapshot = perm.Snapshot();
  ASSERT_TRUE(perm_snapshot.ok());
  perm_a.seed = 99;
  PermutationMcSweep other(4, perm_a);
  EXPECT_EQ(other.Restore(*perm_snapshot).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotValidationTest, CorruptedSnapshotRejected) {
  TableUtility fn = MonotoneTable(5);
  IpssConfig config;
  config.total_rounds = 12;
  IpssSweep sweep(5, config);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  ASSERT_TRUE(sweep.Step(session, 6).ok());
  Result<std::string> snapshot = sweep.Snapshot();
  ASSERT_TRUE(snapshot.ok());

  std::string corrupted = *snapshot;
  corrupted[corrupted.size() - 3] ^= 0x40;
  IpssSweep target(5, config);
  EXPECT_FALSE(target.Restore(corrupted).ok());
  EXPECT_FALSE(target.Restore("not a snapshot").ok());
  // The failed restores left the target untouched and usable.
  EXPECT_EQ(target.completed_units(), 0u);
  EXPECT_TRUE(target.Restore(*snapshot).ok());
  EXPECT_EQ(target.completed_units(), 6u);
}

TEST(SnapshotFileTest, SaveLoadRoundTripAndMissingFile) {
  const std::string path = TempPath("checkpoint.bin");
  std::remove(path.c_str());
  TableUtility fn = MonotoneTable(5);
  PermutationMcConfig config;
  config.permutations = 10;
  PermutationMcSweep sweep(5, config);

  EXPECT_EQ(LoadSnapshot(sweep, path).code(), StatusCode::kNotFound);

  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  ASSERT_TRUE(sweep.Step(session, 4).ok());
  ASSERT_TRUE(SaveSnapshot(sweep, path).ok());

  PermutationMcSweep restored(5, config);
  ASSERT_TRUE(LoadSnapshot(restored, path).ok());
  EXPECT_EQ(restored.completed_units(), 4u);
  std::remove(path.c_str());
}

TEST(SweepLifecycleTest, InvalidConfigSurfacesOnUse) {
  IpssConfig config;
  config.total_rounds = 0;
  IpssSweep sweep(4, config);
  TableUtility fn = MonotoneTable(4);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  EXPECT_FALSE(sweep.done());
  EXPECT_EQ(sweep.Step(session, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(sweep.Snapshot().ok());
}

// ---------------------------------------------------------------------------
// The adaptive stratified sweep. Its epoch plans are a function of the
// utilities it observed, so resumability here proves the hardest case:
// the serialized state must carry the whole allocation decision process
// (moments, buckets, plan, cursor), not just an RNG position.

TEST(AdaptiveSweepTest, MatchesOneShotAdaptive) {
  TableUtility fn = RandomTable(7, 43);
  AdaptiveAllocationConfig config;
  config.total_rounds = 36;
  config.reallocate_every = 8;
  config.seed = 15;

  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  Result<ValuationResult> one_shot =
      AdaptiveStratifiedShapley(session, config);
  ASSERT_TRUE(one_shot.ok());

  ValuationResult sweep = RunUninterrupted(fn, [&] {
    return std::make_unique<AdaptiveStratifiedSweep>(7, config);
  });
  ExpectBitIdentical(one_shot->values, sweep.values);
  EXPECT_EQ(sweep.num_trainings, one_shot->num_trainings);
}

TEST(AdaptiveSweepTest, ResumedBitIdenticalAcrossChunkSizes) {
  // reallocate_every=8 with chunks 1/3/7 puts snapshot points inside
  // epochs, exactly at epoch boundaries, and straddling a reallocation —
  // every alignment the service's checkpoint_every can produce.
  TableUtility fn = RandomTable(7, 47);
  for (PairPolicy policy :
       {PairPolicy::kRequireSampled, PairPolicy::kEvaluateOnDemand}) {
    AdaptiveAllocationConfig config;
    config.total_rounds = 40;
    config.reallocate_every = 8;
    config.pair_policy = policy;
    config.seed = 21;
    const auto make = [&] {
      return std::make_unique<AdaptiveStratifiedSweep>(7, config);
    };
    ValuationResult uninterrupted = RunUninterrupted(fn, make);
    for (int chunk : {1, 3, 7}) {
      ValuationResult resumed = RunWithSnapshotsEveryStep(fn, make, chunk);
      ExpectBitIdentical(uninterrupted.values, resumed.values);
    }
  }
}

TEST(AdaptiveSweepTest, ResumedBitIdenticalForCcScheme) {
  TableUtility fn = MonotoneTable(6);
  AdaptiveAllocationConfig config;
  config.scheme = SvScheme::kComplementary;
  config.total_rounds = 30;
  config.reallocate_every = 6;
  config.seed = 27;
  const auto make = [&] {
    return std::make_unique<AdaptiveStratifiedSweep>(6, config);
  };
  ValuationResult uninterrupted = RunUninterrupted(fn, make);
  ValuationResult resumed = RunWithSnapshotsEveryStep(fn, make, 5);
  ExpectBitIdentical(uninterrupted.values, resumed.values);
}

TEST(AdaptiveSweepTest, CrashMidReallocationReplaysNoTraining) {
  // Fault injection against a durable utility store: kill the run right
  // after a mid-epoch step (the allocation state is half-spent), restore
  // from the snapshot into a fresh process image, and finish. The values
  // must match the uninterrupted run bit for bit, and the two phases
  // together must train each coalition exactly once — the crash repays
  // zero trainings.
  TableUtility fn = MonotoneTable(6);
  AdaptiveAllocationConfig config;
  config.total_rounds = 32;
  config.reallocate_every = 8;
  config.seed = 33;

  ValuationResult uninterrupted = RunUninterrupted(fn, [&] {
    return std::make_unique<AdaptiveStratifiedSweep>(6, config);
  });
  size_t uninterrupted_fresh = 0;
  {
    UtilityCache cache(&fn);
    UtilitySession session(&cache);
    AdaptiveStratifiedSweep sweep(6, config);
    FEDSHAP_CHECK_OK(sweep.Run(session).status());
    uninterrupted_fresh = session.num_fresh_trainings();
  }

  const std::string stem = TempPath("adaptive_crash_store");
  std::remove(UtilityStore::StemPath(stem, fn.Fingerprint()).c_str());
  std::string snapshot;
  size_t fresh_before_crash = 0;
  {
    UtilityCache cache(&fn);
    Result<std::unique_ptr<UtilityStore>> store =
        OpenAndAttachStore(stem, /*resume=*/false, fn, cache);
    ASSERT_TRUE(store.ok());
    UtilitySession session(&cache);
    AdaptiveStratifiedSweep sweep(6, config);
    // 19 rounds: past the pilot (12 rounds at n=6) and 7 rounds into the
    // first reallocated epoch — mid-epoch, plan half-executed.
    ASSERT_TRUE(sweep.Step(session, 19).ok());
    ASSERT_FALSE(sweep.done());
    Result<std::string> snap = sweep.Snapshot();
    ASSERT_TRUE(snap.ok());
    snapshot = std::move(snap).value();
    fresh_before_crash = session.num_fresh_trainings();
    ASSERT_TRUE((*store)->Flush().ok());
    // The process dies here: cache, session and sweep all vanish.
  }
  {
    UtilityCache cache(&fn);
    Result<std::unique_ptr<UtilityStore>> store =
        OpenAndAttachStore(stem, /*resume=*/true, fn, cache);
    ASSERT_TRUE(store.ok());
    EXPECT_GT((*store)->loaded_entries(), 0u);
    UtilitySession session(&cache);
    AdaptiveStratifiedSweep sweep(6, config);
    ASSERT_TRUE(sweep.Restore(snapshot).ok());
    EXPECT_EQ(sweep.completed_units(), 19u);
    while (!sweep.done()) {
      ASSERT_TRUE(sweep.Step(session, 4).ok());
    }
    Result<ValuationResult> result = sweep.Finish(session);
    ASSERT_TRUE(result.ok());
    ExpectBitIdentical(uninterrupted.values, result->values);
    // Every distinct coalition was trained exactly once across the two
    // phases; the restored phase re-used the store for everything the
    // first phase already paid for.
    EXPECT_EQ(fresh_before_crash + session.num_fresh_trainings(),
              uninterrupted_fresh);
  }
  std::remove(UtilityStore::StemPath(stem, fn.Fingerprint()).c_str());
}

TEST(AdaptiveSweepTest, ConfigMismatchRejected) {
  AdaptiveAllocationConfig config;
  config.total_rounds = 24;
  config.seed = 7;
  AdaptiveStratifiedSweep original(5, config);
  Result<std::string> snapshot = original.Snapshot();
  ASSERT_TRUE(snapshot.ok());

  config.seed = 8;
  AdaptiveStratifiedSweep different_seed(5, config);
  EXPECT_EQ(different_seed.Restore(*snapshot).code(),
            StatusCode::kFailedPrecondition);

  config.seed = 7;
  config.reallocate_every = 4;
  AdaptiveStratifiedSweep different_epochs(5, config);
  EXPECT_EQ(different_epochs.Restore(*snapshot).code(),
            StatusCode::kFailedPrecondition);

  config = {};
  config.total_rounds = 24;
  config.seed = 7;
  config.coverage_per_client = 0.0;
  AdaptiveStratifiedSweep different_coverage(5, config);
  EXPECT_EQ(different_coverage.Restore(*snapshot).code(),
            StatusCode::kFailedPrecondition);
}

TEST(AdaptiveSweepTest, OutOfRangeReallocationCountRejected) {
  TableUtility fn = MonotoneTable(5);
  AdaptiveAllocationConfig config;
  config.total_rounds = 24;
  config.reallocate_every = 4;
  config.seed = 7;
  AdaptiveStratifiedSweep sweep(5, config);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  ASSERT_TRUE(sweep.Step(session, 12).ok());
  Result<std::string> snapshot = sweep.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(sweep.Restore(*snapshot).ok());

  // Re-encode the payload with the reallocation count (the varint after
  // the header, the RNG state and the spent rounds) pushed past 2^32.
  Result<std::string_view> payload = DecodeFramed(
      kSweepSnapshotMagic, kSweepSnapshotVersion, *snapshot);
  ASSERT_TRUE(payload.ok());
  ByteReader reader(*payload);
  Result<std::string> algorithm = reader.GetString();
  Result<uint64_t> config_hash = reader.GetU64();
  Result<std::string> rng_state = reader.GetString();
  Result<uint64_t> spent = reader.GetVarint();
  Result<uint64_t> reallocations = reader.GetVarint();
  ASSERT_TRUE(algorithm.ok() && config_hash.ok() && rng_state.ok() &&
              spent.ok() && reallocations.ok());
  ByteWriter forged;
  forged.PutString(*algorithm);
  forged.PutU64(*config_hash);
  forged.PutString(*rng_state);
  forged.PutVarint(*spent);
  forged.PutVarint((uint64_t{1} << 32) + *reallocations);
  const std::string rest(payload->substr(payload->size() - reader.remaining()));
  const std::string frame =
      EncodeFramed(kSweepSnapshotMagic, kSweepSnapshotVersion,
                   forged.bytes() + rest);

  AdaptiveStratifiedSweep restored(5, config);
  EXPECT_EQ(restored.Restore(frame).code(), StatusCode::kInvalidArgument);
}

TEST(AdaptiveSweepTest, OutOfRangeStratumRoundsRejected) {
  TableUtility fn = MonotoneTable(5);
  AdaptiveAllocationConfig config;
  config.total_rounds = 24;
  config.reallocate_every = 4;
  config.seed = 7;
  AdaptiveStratifiedSweep sweep(5, config);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  ASSERT_TRUE(sweep.Step(session, 12).ok());
  Result<std::string> snapshot = sweep.Snapshot();
  ASSERT_TRUE(snapshot.ok());

  // Walk the payload up to the per-stratum cumulative round counts and
  // re-encode it with the first count set to 2^63, which would restore
  // as a negative int64_t.
  Result<std::string_view> payload = DecodeFramed(
      kSweepSnapshotMagic, kSweepSnapshotVersion, *snapshot);
  ASSERT_TRUE(payload.ok());
  ByteReader reader(*payload);
  Result<std::string> algorithm = reader.GetString();
  Result<uint64_t> config_hash = reader.GetU64();
  Result<std::string> rng_state = reader.GetString();
  ASSERT_TRUE(algorithm.ok() && config_hash.ok() && rng_state.ok());
  ByteWriter forged;
  forged.PutString(*algorithm);
  forged.PutU64(*config_hash);
  forged.PutString(*rng_state);
  // spent, reallocations, epoch cursor, then the epoch plan.
  for (int field = 0; field < 3; ++field) {
    Result<uint64_t> value = reader.GetVarint();
    ASSERT_TRUE(value.ok());
    forged.PutVarint(*value);
  }
  Result<uint64_t> plan_size = reader.GetVarint();
  ASSERT_TRUE(plan_size.ok());
  forged.PutVarint(*plan_size);
  for (uint64_t k = 0; k < *plan_size; ++k) {
    Result<uint64_t> m = reader.GetVarint();
    ASSERT_TRUE(m.ok());
    forged.PutVarint(*m);
  }
  Result<uint64_t> first_rounds = reader.GetVarint();
  ASSERT_TRUE(first_rounds.ok());
  ASSERT_GT(*first_rounds, 0u);
  forged.PutVarint(uint64_t{1} << 63);
  const std::string rest(payload->substr(payload->size() - reader.remaining()));
  const std::string frame =
      EncodeFramed(kSweepSnapshotMagic, kSweepSnapshotVersion,
                   forged.bytes() + rest);

  AdaptiveStratifiedSweep restored(5, config);
  EXPECT_EQ(restored.Restore(frame).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(restored.completed_units(), 0u);
  // The same walk without the forged count restores cleanly.
  EXPECT_TRUE(restored.Restore(*snapshot).ok());
  EXPECT_EQ(restored.completed_units(), 12u);
}

TEST(SnapshotValidationTest, VersionOneSnapshotsStillRestore) {
  // Snapshots written before the adaptive sweep existed carry frame
  // version 1; a service upgrade must keep restoring them. The payload
  // layout of the pre-existing sweeps did not change, so a v1 frame is
  // simply the old version number around the same bytes.
  TableUtility fn = MonotoneTable(5);
  StratifiedConfig config;
  config.total_rounds = 20;
  config.seed = 3;
  StratifiedSweep sweep(5, config);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  ASSERT_TRUE(sweep.Step(session, 8).ok());
  Result<std::string> snapshot = sweep.Snapshot();
  ASSERT_TRUE(snapshot.ok());

  Result<std::string_view> payload = DecodeFramed(
      kSweepSnapshotMagic, kSweepSnapshotVersion, *snapshot);
  ASSERT_TRUE(payload.ok());
  const std::string v1 =
      EncodeFramed(kSweepSnapshotMagic, 1, std::string(*payload));

  StratifiedSweep restored(5, config);
  ASSERT_TRUE(restored.Restore(v1).ok());
  EXPECT_EQ(restored.completed_units(), 8u);

  // A frame from a *future* version is rejected, not misparsed.
  const std::string v9 = EncodeFramed(
      kSweepSnapshotMagic, kSweepSnapshotVersion + 7,
      std::string(*payload));
  StratifiedSweep other(5, config);
  EXPECT_FALSE(other.Restore(v9).ok());
}

TEST(AdaptiveSweepTest, CorruptedSnapshotRejectedAndTargetUsable) {
  TableUtility fn = MonotoneTable(5);
  AdaptiveAllocationConfig config;
  config.total_rounds = 20;
  config.seed = 11;
  AdaptiveStratifiedSweep sweep(5, config);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  ASSERT_TRUE(sweep.Step(session, 9).ok());
  Result<std::string> snapshot = sweep.Snapshot();
  ASSERT_TRUE(snapshot.ok());

  std::string corrupted = *snapshot;
  corrupted[corrupted.size() - 2] ^= 0x11;
  AdaptiveStratifiedSweep target(5, config);
  EXPECT_FALSE(target.Restore(corrupted).ok());

  // A CRC-valid frame whose draw count claims 2^40 draws is rejected
  // before anything is reserved. A fresh sweep's payload ends in the
  // draw count 0; swap it for the inflated one.
  Result<std::string> fresh = AdaptiveStratifiedSweep(5, config).Snapshot();
  ASSERT_TRUE(fresh.ok());
  Result<std::string_view> payload =
      DecodeFramed(kSweepSnapshotMagic, kSweepSnapshotVersion, *fresh);
  ASSERT_TRUE(payload.ok());
  ASSERT_EQ(payload->back(), '\0');
  ByteWriter draw_count;
  draw_count.PutVarint(uint64_t{1} << 40);
  const std::string inflated =
      std::string(payload->substr(0, payload->size() - 1)) +
      draw_count.bytes();
  EXPECT_EQ(target
                .Restore(EncodeFramed(kSweepSnapshotMagic,
                                      kSweepSnapshotVersion, inflated))
                .code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(target.completed_units(), 0u);
  EXPECT_TRUE(target.Restore(*snapshot).ok());
  EXPECT_EQ(target.completed_units(), 9u);
}

// ---------------------------------------------------------------------------
// Run-level determinism over a real batched-training FedAvg utility.

/// A 5-client FedAvg MLP workload trained through the batched kernel
/// path with the given batch size.
std::unique_ptr<FedAvgUtility> MakeDeterminismGame(int batch_size) {
  Rng rng(2024);
  Result<Dataset> pool = GenerateBlobs(3, 6, 3.0, 5 * 14 + 30, rng);
  FEDSHAP_CHECK(pool.ok());
  std::vector<Dataset> clients;
  for (int c = 0; c < 5; ++c) {
    std::vector<size_t> idx;
    for (size_t i = c * 14; i < static_cast<size_t>(c + 1) * 14; ++i) {
      idx.push_back(i);
    }
    clients.push_back(pool->Subset(idx));
  }
  std::vector<size_t> test_idx;
  for (size_t i = 5 * 14; i < pool->size(); ++i) test_idx.push_back(i);
  Dataset test = pool->Subset(test_idx);

  Mlp prototype(6, 4, 3);
  Rng init(77);
  prototype.InitializeParameters(init);
  FedAvgConfig config;
  config.rounds = 2;
  config.local.epochs = 1;
  config.local.batch_size = batch_size;
  config.local.learning_rate = 0.2;
  config.seed = 4321;
  Result<std::unique_ptr<FedAvgUtility>> fn = FedAvgUtility::Create(
      std::move(clients), std::move(test), prototype, config,
      UtilityMetric::kNegativeLoss);
  FEDSHAP_CHECK(fn.ok());
  return std::move(fn).value();
}

ValuationResult RunIpss(const UtilityFunction& fn, ThreadPool* pool,
                        UtilityStore* store = nullptr) {
  UtilityCache cache(&fn);
  if (store != nullptr) cache.AttachStore(store, /*flush_every=*/1);
  UtilitySession session(&cache, pool);
  IpssConfig config;
  config.total_rounds = 20;
  config.seed = 99;
  Result<ValuationResult> result = IpssShapley(session, config);
  FEDSHAP_CHECK_OK(result.status());
  return std::move(result).value();
}

TEST(DeterminismTest, SameSeedBitIdenticalAcrossInProcessRuns) {
  std::unique_ptr<FedAvgUtility> fn = MakeDeterminismGame(8);
  ValuationResult first = RunIpss(*fn, nullptr);
  ValuationResult second = RunIpss(*fn, nullptr);
  ExpectBitIdentical(first.values, second.values);
  EXPECT_EQ(first.num_trainings, second.num_trainings);
}

TEST(DeterminismTest, SameSeedBitIdenticalAcrossThreadCounts) {
  std::unique_ptr<FedAvgUtility> fn = MakeDeterminismGame(8);
  ValuationResult sequential = RunIpss(*fn, nullptr);
  ThreadPool pool(4);
  ValuationResult threaded = RunIpss(*fn, &pool);
  ExpectBitIdentical(sequential.values, threaded.values);
  EXPECT_EQ(sequential.num_trainings, threaded.num_trainings);
}

TEST(DeterminismTest, SameSeedBitIdenticalAcrossStoreWarmResume) {
  std::unique_ptr<FedAvgUtility> fn = MakeDeterminismGame(8);
  const std::string stem = TempPath("determinism_store");
  std::remove(UtilityStore::StemPath(stem, fn->Fingerprint()).c_str());

  ValuationResult cold;
  {
    UtilityCache cache(fn.get());
    Result<std::unique_ptr<UtilityStore>> store =
        OpenAndAttachStore(stem, /*resume=*/false, *fn, cache);
    ASSERT_TRUE(store.ok());
    UtilitySession session(&cache);
    IpssConfig config;
    config.total_rounds = 20;
    config.seed = 99;
    Result<ValuationResult> result = IpssShapley(session, config);
    ASSERT_TRUE(result.ok());
    cold = std::move(result).value();
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    UtilityCache cache(fn.get());
    Result<std::unique_ptr<UtilityStore>> store =
        OpenAndAttachStore(stem, /*resume=*/true, *fn, cache);
    ASSERT_TRUE(store.ok());
    EXPECT_GT((*store)->loaded_entries(), 0u)
        << "warm resume should preload persisted trainings";
    UtilitySession session(&cache);
    IpssConfig config;
    config.total_rounds = 20;
    config.seed = 99;
    Result<ValuationResult> warm = IpssShapley(session, config);
    ASSERT_TRUE(warm.ok());
    ExpectBitIdentical(cold.values, warm->values);
    EXPECT_EQ(cold.num_trainings, warm->num_trainings);
  }
  std::remove(UtilityStore::StemPath(stem, fn->Fingerprint()).c_str());
}

TEST(DeterminismTest, BatchConfigIsPartOfTheWorkloadFingerprint) {
  // Different --batch-size means different training
  // numerics, so the content-addressed store must treat them as
  // different workloads.
  std::unique_ptr<FedAvgUtility> batch8 = MakeDeterminismGame(8);
  std::unique_ptr<FedAvgUtility> batch8_again = MakeDeterminismGame(8);
  std::unique_ptr<FedAvgUtility> batch16 = MakeDeterminismGame(16);
  EXPECT_EQ(batch8->Fingerprint(), batch8_again->Fingerprint());
  EXPECT_NE(batch8->Fingerprint(), batch16->Fingerprint());

  // And the two batch sizes genuinely are different workloads.
  ValuationResult v8 = RunIpss(*batch8, nullptr);
  ValuationResult v16 = RunIpss(*batch16, nullptr);
  bool any_different = false;
  for (size_t i = 0; i < v8.values.size(); ++i) {
    if (v8.values[i] != v16.values[i]) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(SweepLifecycleTest, FinishBeforeDoneFails) {
  TableUtility fn = MonotoneTable(5);
  IpssConfig config;
  config.total_rounds = 12;
  IpssSweep sweep(5, config);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  ASSERT_TRUE(sweep.Step(session, 2).ok());
  EXPECT_EQ(sweep.Finish(session).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace fedshap
