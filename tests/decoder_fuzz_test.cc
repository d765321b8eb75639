/// Deterministic decoder fuzzing. Every decoder that reads bytes this
/// process did not write is fed mutations of a valid corpus built here:
/// the cluster frame payloads, the ScenarioSpec and ValuationResult
/// codecs, coalitions, the three sampling-sweep snapshots, Rng state text,
/// job lines, and a UtilityStore's MANIFEST and sealed segment on disk.
///
/// Mutations: every truncation, seeded bit flips, and a count inflated to
/// 2^40 (for binary inputs, a varint of 2^40 spliced over every varint
/// that parses; for text, every number replaced by 2^40). Truncation and
/// inflation step over text blobs embedded in binary input (the Rng
/// state inside a snapshot), which the text targets cover. CRC-framed
/// inputs are mutated behind the frame and re-framed, so the mutation
/// reaches the field parser instead of dying at the checksum.
///
/// The invariant: no crash, and either a typed error Status or a value
/// that re-encodes to a fixpoint (decoding the re-encoding gives the same
/// bytes back). Under the sanitizer build an allocation sized from an
/// unvalidated count also aborts the run (max_allocation_size_mb).

#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/resumable.h"
#include "fl/utility_store.h"
#include "service/cluster.h"
#include "service/job_spec.h"
#include "test_util.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/segment_file.h"
#include "util/serialization.h"

namespace fedshap {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kInflated = uint64_t{1} << 40;
constexpr int kBitFlips = 96;

/// One decoder under test.
struct Target {
  std::string name;
  /// A valid input; for framed formats, the payload behind the CRC.
  std::string corpus;
  /// Decodes `input` and re-encodes the value in the input's format.
  /// Targets without an encoder (store directories) return "".
  std::function<Result<std::string>(std::string_view)> decode;
  /// Text input: inflate numbers, not varints.
  bool text = false;
};

/// Wraps `payload` in the magic and version of the valid `frame`.
std::string Reframe(std::string_view frame, std::string_view payload) {
  ByteReader header(frame);
  const uint32_t magic = header.GetU32().value();
  const uint32_t version = header.GetU32().value();
  return EncodeFramed(magic, version, payload);
}

/// The payload behind a valid CRC frame.
std::string Unframe(std::string_view frame) {
  return std::string(frame.substr(12));
}

bool IsTypedError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kNotFound:
      return true;
    default:
      return false;
  }
}

void CheckInput(const Target& target, std::string_view input,
                const char* mutation, size_t where) {
  Result<std::string> first = target.decode(input);
  if (!first.ok()) {
    EXPECT_TRUE(IsTypedError(first.status()))
        << target.name << " " << mutation << " @" << where << ": "
        << first.status();
    return;
  }
  if (first->empty()) return;
  Result<std::string> second = target.decode(*first);
  ASSERT_TRUE(second.ok()) << target.name << " " << mutation << " @" << where
                           << ": re-encoding does not decode: "
                           << second.status();
  EXPECT_EQ(*second, *first) << target.name << " " << mutation << " @"
                             << where << ": re-encoding is not a fixpoint";
}

/// Marks the bytes strictly inside runs of at least 64 printable
/// characters: text blobs embedded in a binary format (the Rng state in a
/// snapshot), which their own text target fuzzes. Truncating or
/// inflating inside one only re-tests the string length check, thousands
/// of times over.
std::vector<bool> InsideTextBlobs(const std::string& input) {
  constexpr size_t kMinBlob = 64;
  std::vector<bool> inside(input.size(), false);
  for (size_t begin = 0; begin < input.size();) {
    size_t end = begin;
    while (end < input.size() &&
           std::isprint(static_cast<unsigned char>(input[end]))) {
      ++end;
    }
    if (end - begin >= kMinBlob) {
      for (size_t i = begin + 1; i + 1 < end; ++i) inside[i] = true;
    }
    begin = end + 1;
  }
  return inside;
}

/// Calls `check(at, input)` with a varint of 2^40 spliced over each
/// varint that parses at offset `at`.
void ForEachInflatedVarint(
    const std::string& input, const std::vector<bool>& skip,
    const std::function<void(size_t, const std::string&)>& check) {
  ByteWriter inflated;
  inflated.PutVarint(kInflated);
  for (size_t at = 0; at < input.size(); ++at) {
    if (skip[at]) continue;
    ByteReader reader(std::string_view(input).substr(at));
    if (!reader.GetVarint().ok()) continue;
    const size_t end = input.size() - reader.remaining();
    check(at, input.substr(0, at) + inflated.bytes() + input.substr(end));
  }
}

/// Calls `check(at, input)` with each run of decimal digits, starting at
/// `at`, replaced by 2^40.
void ForEachInflatedNumber(
    const std::string& input,
    const std::function<void(size_t, const std::string&)>& check) {
  const std::string inflated = std::to_string(kInflated);
  for (size_t at = 0; at < input.size();) {
    if (!std::isdigit(static_cast<unsigned char>(input[at]))) {
      ++at;
      continue;
    }
    size_t end = at;
    while (end < input.size() &&
           std::isdigit(static_cast<unsigned char>(input[end]))) {
      ++end;
    }
    check(at, input.substr(0, at) + inflated + input.substr(end));
    at = end;
  }
}

void Fuzz(const Target& target, uint64_t seed) {
  SCOPED_TRACE(target.name);
  // The corpus itself must decode, or the mutations test nothing.
  Result<std::string> clean = target.decode(target.corpus);
  ASSERT_TRUE(clean.ok()) << clean.status();
  CheckInput(target, target.corpus, "corpus", 0);

  const std::vector<bool> skip =
      target.text ? std::vector<bool>(target.corpus.size(), false)
                  : InsideTextBlobs(target.corpus);
  for (size_t length = 0; length < target.corpus.size(); ++length) {
    if (skip[length]) continue;
    CheckInput(target, std::string_view(target.corpus).substr(0, length),
               "truncate", length);
  }
  Rng rng(seed);
  for (int flip = 0; flip < kBitFlips; ++flip) {
    std::string flipped = target.corpus;
    const int bits = 1 + static_cast<int>(rng.UniformInt(3));
    for (int b = 0; b < bits; ++b) {
      const uint64_t bit = rng.UniformInt(flipped.size() * 8);
      flipped[bit / 8] =
          static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    }
    CheckInput(target, flipped, "flip", static_cast<size_t>(flip));
  }
  size_t inflations = 0;
  const auto check = [&](size_t at, const std::string& input) {
    ++inflations;
    CheckInput(target, input, "inflate", at);
  };
  if (target.text) {
    ForEachInflatedNumber(target.corpus, check);
  } else {
    ForEachInflatedVarint(target.corpus, skip, check);
  }
  EXPECT_GT(inflations, 0u);
}

/// Registers an Encode/Decode pair of a cluster payload.
template <typename Decode, typename Encode>
Target PayloadTarget(std::string name, std::string corpus, Decode decode,
                     Encode encode) {
  return {std::move(name), std::move(corpus),
          [decode, encode](std::string_view input) -> Result<std::string> {
            auto decoded = decode(input);
            if (!decoded.ok()) return decoded.status();
            return encode(*decoded);
          }};
}

ScenarioSpec Scenario() {
  ScenarioSpec spec;
  spec.kind = "digits";
  spec.n = 5;
  spec.partition = "skew";
  spec.seed = 300;
  spec.fl_rounds = 3;
  spec.local_epochs = 2;
  spec.batch_size = 16;
  spec.learning_rate = 0.05;
  spec.samples_per_client = 40;
  spec.noise_scale = 0.25;
  return spec;
}

TEST(DecoderFuzzTest, ClusterPayloads) {
  WorkerRegistration registration;
  registration.shard = 3;
  registration.pid = 4242;
  registration.workloads = {{"digits/5/300", 0xDEADBEEFull}, {"lin", 7}};
  const std::vector<Target> targets = {
      PayloadTarget("Register", EncodeWorkerRegistration(registration),
                    DecodeWorkerRegistration, EncodeWorkerRegistration),
      PayloadTarget("Welcome", EncodeWelcome({.shard = 130}), DecodeWelcome,
                    EncodeWelcome),
      PayloadTarget("Reject", EncodeReject("protocol version mismatch"),
                    DecodeReject, EncodeReject),
      PayloadTarget("Workload",
                    EncodeWorkload({"digits/5/300", Scenario(), 0xF00Dull}),
                    DecodeWorkload, EncodeWorkload),
      PayloadTarget("Assign",
                    EncodeAssign({300, "digits/5/300",
                                  Coalition::Of({0, 2, 130, 255})}),
                    DecodeAssign, EncodeAssign),
      PayloadTarget("Result",
                    EncodeResult({300, 0xABCDEFull, {0.75, 0.5}, true}),
                    DecodeResult, EncodeResult),
      PayloadTarget("Error", EncodeError({301, "workload not announced"}),
                    DecodeError, EncodeError),
  };
  uint64_t seed = 1;
  for (const Target& target : targets) Fuzz(target, seed++);
}

TEST(DecoderFuzzTest, ScenarioSpecValuationResultAndCoalition) {
  ByteWriter spec;
  EncodeScenarioSpec(Scenario(), spec);
  Fuzz({"ScenarioSpec", spec.bytes(),
        [](std::string_view input) -> Result<std::string> {
          ByteReader reader(input);
          FEDSHAP_ASSIGN_OR_RETURN(ScenarioSpec decoded,
                                   DecodeScenarioSpec(reader));
          ByteWriter writer;
          EncodeScenarioSpec(decoded, writer);
          return writer.bytes();
        }},
       11);

  ValuationResult result;
  result.values = {0.5, -0.25, 1e-300, 3.0};
  result.num_evaluations = 130;
  result.num_trainings = 70;
  result.num_fresh_trainings = 2;
  result.charged_seconds = 1.5;
  result.wall_seconds = 0.125;
  const std::string encoded = EncodeValuationResult(result);
  Fuzz({"ValuationResult", Unframe(encoded),
        [&encoded](std::string_view payload) -> Result<std::string> {
          FEDSHAP_ASSIGN_OR_RETURN(
              ValuationResult decoded,
              DecodeValuationResult(Reframe(encoded, payload)));
          return Unframe(EncodeValuationResult(decoded));
        }},
       12);

  ByteWriter coalition;
  PutCoalition(coalition, Coalition::Of({1, 4, 127, 128, 200, 255}));
  Fuzz({"Coalition", coalition.bytes(),
        [](std::string_view input) -> Result<std::string> {
          ByteReader reader(input);
          FEDSHAP_ASSIGN_OR_RETURN(Coalition decoded, GetCoalition(reader));
          ByteWriter writer;
          PutCoalition(writer, decoded);
          return writer.bytes();
        }},
       13);
}

/// A snapshot target: `make` builds a fresh sweep, stepped `steps` units
/// over a random table before the corpus snapshot is taken.
Target SnapshotTarget(
    std::string name,
    std::function<std::unique_ptr<ResumableEstimator>()> make, int steps) {
  static const TableUtility table = testing_util::RandomTable(5, 17);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  std::unique_ptr<ResumableEstimator> sweep = make();
  FEDSHAP_CHECK_OK(sweep->Step(session, steps));
  const std::string snapshot = sweep->Snapshot().value();
  return {std::move(name), Unframe(snapshot),
          [make, snapshot](std::string_view payload) -> Result<std::string> {
            std::unique_ptr<ResumableEstimator> restored = make();
            FEDSHAP_RETURN_NOT_OK(
                restored->Restore(Reframe(snapshot, payload)));
            FEDSHAP_ASSIGN_OR_RETURN(std::string again, restored->Snapshot());
            return Unframe(again);
          }};
}

TEST(DecoderFuzzTest, SweepSnapshots) {
  StratifiedConfig stratified;
  stratified.total_rounds = 12;
  stratified.seed = 5;
  Fuzz(SnapshotTarget("stratified",
                      [stratified] {
                        return std::make_unique<StratifiedSweep>(5, stratified);
                      },
                      6),
       21);
  PermutationMcConfig permutations;
  permutations.permutations = 6;
  permutations.seed = 5;
  Fuzz(SnapshotTarget("perm-mc",
                      [permutations] {
                        return std::make_unique<PermutationMcSweep>(
                            5, permutations);
                      },
                      3),
       22);
  AdaptiveAllocationConfig adaptive;
  adaptive.total_rounds = 24;
  adaptive.reallocate_every = 4;
  adaptive.seed = 5;
  Fuzz(SnapshotTarget("adaptive-stratified",
                      [adaptive] {
                        return std::make_unique<AdaptiveStratifiedSweep>(
                            5, adaptive);
                      },
                      14),
       23);
}

TEST(DecoderFuzzTest, RngStateAndJobLine) {
  Rng rng(99);
  rng.Gaussian();  // leaves a spare deviate in the state
  Fuzz({"Rng", rng.SaveState(),
        [](std::string_view input) -> Result<std::string> {
          Rng loaded(0);
          FEDSHAP_RETURN_NOT_OK(loaded.LoadState(std::string(input)));
          return loaded.SaveState();
        },
        /*text=*/true},
       31);

  JobSpec job;
  job.name = "fuzzed";
  job.estimator = EstimatorKind::kStratified;
  job.allocation = "neyman";
  job.gamma = 48;
  job.seed = 9;
  job.checkpoint_every = 8;
  job.scenario = Scenario();
  Fuzz({"JobSpec", job.ToLine(),
        [](std::string_view input) -> Result<std::string> {
          FEDSHAP_ASSIGN_OR_RETURN(JobSpec parsed, JobSpec::FromLine(input));
          return parsed.ToLine();
        },
        /*text=*/true},
       32);
}

/// Opens the store at `dir` and reads back every entry it indexes.
Status OpenAndReadStore(const std::string& dir, uint64_t fingerprint,
                        const std::vector<Coalition>& coalitions) {
  FEDSHAP_ASSIGN_OR_RETURN(std::unique_ptr<UtilityStore> store,
                           UtilityStore::Open(dir, fingerprint));
  UtilityRecord record;
  for (const Coalition& c : coalitions) (void)store->Lookup(c, &record);
  store->ForEach([](const Coalition&, const UtilityRecord&) {});
  return Status::OK();
}

void WriteFile(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

TEST(DecoderFuzzTest, UtilityStoreManifestAndSealedSegment) {
  // Corrupt records are skipped with a Warning each; keep the log short.
  const LogLevel log_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  constexpr uint64_t kFingerprint = 77;
  const std::string dir = ::testing::TempDir() + "fedshap_fuzz_store";
  fs::remove_all(dir);
  fs::create_directories(dir);
  // A store with one sealed segment (id 1) of a few records, laid out
  // the way UtilityStore writes it; segment 2 is the (absent) active one.
  const std::vector<Coalition> coalitions = {
      Coalition(), Coalition::Of({0}), Coalition::Of({1, 3}),
      Coalition::Of({0, 130, 255})};
  const std::string segment_path = dir + "/seg-000001.seg";
  ByteWriter footer;
  {
    std::unique_ptr<SegmentWriter> writer =
        SegmentWriter::Create(segment_path, UtilityStore::kMagic,
                              UtilityStore::kVersion, kFingerprint)
            .value();
    footer.PutVarint(coalitions.size());
    for (size_t i = 0; i < coalitions.size(); ++i) {
      ByteWriter record;
      PutCoalition(record, coalitions[i]);
      record.PutDouble(0.25 * static_cast<double>(i));
      record.PutDouble(1.0);
      PutCoalition(footer, coalitions[i]);
      footer.PutVarint(writer->Append(record.bytes()).value());
    }
    ASSERT_TRUE(writer->Seal(footer.bytes()).ok());
  }
  const std::string sealed = ReadFileToString(segment_path).value();
  const std::string records = sealed.substr(
      0, SegmentReader::Open(segment_path, UtilityStore::kMagic,
                             UtilityStore::kVersion)
             .value()
             ->data_end());
  ByteWriter manifest_payload;
  manifest_payload.PutU64(kFingerprint);
  manifest_payload.PutVarint(2);  // active segment id
  manifest_payload.PutVarint(1);  // sealed segments: [1]
  manifest_payload.PutVarint(1);
  const std::string manifest =
      EncodeFramed(UtilityStore::kManifestMagic, UtilityStore::kVersion,
                   manifest_payload.bytes());
  // Stores rewrite their manifest on some repairs; every decode starts
  // from the valid files with only the mutated one replaced.
  const auto open_with = [&](std::string_view manifest_bytes,
                             std::string_view segment_bytes) -> Status {
    fs::remove_all(dir);
    fs::create_directories(dir);
    WriteFile(dir + "/MANIFEST", manifest_bytes);
    WriteFile(segment_path, segment_bytes);
    return OpenAndReadStore(dir, kFingerprint, coalitions);
  };
  {
    // The hand-built store serves every entry before any mutation.
    ASSERT_TRUE(open_with(manifest, sealed).ok());
    std::unique_ptr<UtilityStore> store =
        UtilityStore::Open(dir, kFingerprint).value();
    UtilityRecord record;
    for (const Coalition& c : coalitions) {
      EXPECT_TRUE(store->Lookup(c, &record));
    }
  }

  Fuzz({"MANIFEST", manifest_payload.bytes(),
        [&](std::string_view payload) -> Result<std::string> {
          FEDSHAP_RETURN_NOT_OK(
              open_with(Reframe(manifest, payload), sealed));
          return std::string();
        }},
       41);
  // The footer index, under a valid footer CRC and trailer, so the
  // mutation reaches the index parser.
  Fuzz({"segment footer", footer.bytes(),
        [&](std::string_view index) -> Result<std::string> {
          ByteWriter crc;
          crc.PutU32(Crc32(index));
          ByteWriter trailer;
          trailer.PutU32(static_cast<uint32_t>(index.size()));
          trailer.PutU32(kSegmentFooterMagic);
          FEDSHAP_RETURN_NOT_OK(open_with(
              manifest, records + crc.bytes() + std::string(index) +
                            trailer.bytes()));
          return std::string();
        }},
       42);
  // The raw file: record frames, footer CRC and trailer all exposed.
  Fuzz({"sealed segment", sealed,
        [&](std::string_view segment) -> Result<std::string> {
          FEDSHAP_RETURN_NOT_OK(open_with(manifest, segment));
          return std::string();
        }},
       43);
  fs::remove_all(dir);
  SetLogLevel(log_level);
}

}  // namespace
}  // namespace fedshap
