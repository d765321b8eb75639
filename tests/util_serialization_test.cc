/// Tests for util/serialization.h: byte-codec round-trips (fixed-width,
/// varint, double, string), the bounded varint and count reads, CRC
/// behavior, framed encode/decode error paths, both content hashes, and
/// atomic file IO.

#include "util/serialization.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fedshap {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "fedshap_ser_" + name;
}

TEST(ByteCodecTest, FixedWidthRoundTrip) {
  ByteWriter writer;
  writer.PutU8(0xab);
  writer.PutU32(0xdeadbeefu);
  writer.PutU64(0x0123456789abcdefULL);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.GetU8().value(), 0xab);
  EXPECT_EQ(reader.GetU32().value(), 0xdeadbeefu);
  EXPECT_EQ(reader.GetU64().value(), 0x0123456789abcdefULL);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteCodecTest, VarintRoundTripEdgeValues) {
  const std::vector<uint64_t> values = {
      0,    1,    127,  128,   129,   16383, 16384,
      1ULL << 32, (1ULL << 56) - 1, std::numeric_limits<uint64_t>::max()};
  ByteWriter writer;
  for (uint64_t v : values) writer.PutVarint(v);
  ByteReader reader(writer.bytes());
  for (uint64_t v : values) {
    Result<uint64_t> read = reader.GetVarint();
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, v);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteCodecTest, VarintIsCompactForSmallValues) {
  ByteWriter writer;
  writer.PutVarint(5);
  EXPECT_EQ(writer.size(), 1u);
  writer.PutVarint(300);
  EXPECT_EQ(writer.size(), 3u);  // 1 + 2
}

TEST(ByteCodecTest, DoubleRoundTripIsExact) {
  const std::vector<double> values = {
      0.0, -0.0, 1.0, -1.5, 1e-300, -1e300, M_PI,
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min()};
  ByteWriter writer;
  for (double v : values) writer.PutDouble(v);
  writer.PutDouble(std::nan(""));
  ByteReader reader(writer.bytes());
  for (double v : values) {
    Result<double> read = reader.GetDouble();
    ASSERT_TRUE(read.ok());
    // Bit-exact, including the sign of zero.
    EXPECT_EQ(std::signbit(*read), std::signbit(v));
    EXPECT_EQ(*read, v);
  }
  Result<double> read_nan = reader.GetDouble();
  ASSERT_TRUE(read_nan.ok());
  EXPECT_TRUE(std::isnan(*read_nan));
}

TEST(ByteCodecTest, StringRoundTripIncludingEmbeddedNul) {
  ByteWriter writer;
  writer.PutString("");
  writer.PutString(std::string("a\0b", 3));
  writer.PutString(std::string(100000, 'x'));
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.GetString().value(), "");
  EXPECT_EQ(reader.GetString().value(), std::string("a\0b", 3));
  EXPECT_EQ(reader.GetString().value(), std::string(100000, 'x'));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteCodecTest, TruncatedReadsFailCleanly) {
  ByteWriter writer;
  writer.PutU32(7);
  ByteReader reader(writer.bytes());
  EXPECT_FALSE(reader.GetU64().ok());  // only 4 bytes available

  ByteWriter partial_string;
  partial_string.PutVarint(100);  // length prefix without the body
  ByteReader sreader(partial_string.bytes());
  Result<std::string> read = sreader.GetString();
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kOutOfRange);
}

TEST(ByteCodecTest, OverlongVarintRejected) {
  // 11 continuation bytes cannot be a valid 64-bit varint.
  std::string bad(11, static_cast<char>(0x80));
  ByteReader reader(bad);
  EXPECT_FALSE(reader.GetVarint().ok());
}

TEST(ByteCodecTest, GetVarintAtMostBoundsTheValue) {
  constexpr uint64_t kMax = 300;
  const uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();
  ByteWriter writer;
  writer.PutVarint(kMax);
  writer.PutVarint(kMax + 1);
  writer.PutVarint(kMaxU64);
  writer.PutVarint(kMaxU64);
  ByteReader reader(writer.bytes());
  Result<uint64_t> at_max = reader.GetVarintAtMost(kMax);
  ASSERT_TRUE(at_max.ok()) << at_max.status();
  EXPECT_EQ(*at_max, kMax);
  EXPECT_EQ(reader.GetVarintAtMost(kMax).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reader.GetVarintAtMost(kMax).status().code(),
            StatusCode::kInvalidArgument);
  // The full 64-bit range is a valid bound.
  Result<uint64_t> widest = reader.GetVarintAtMost(kMaxU64);
  ASSERT_TRUE(widest.ok()) << widest.status();
  EXPECT_EQ(*widest, kMaxU64);
  EXPECT_TRUE(reader.AtEnd());
  // Truncation stays OutOfRange.
  EXPECT_EQ(reader.GetVarintAtMost(kMax).status().code(),
            StatusCode::kOutOfRange);
}

TEST(ByteCodecTest, GetCountRejectsCountsTheInputCannotHold) {
  // Three 8-byte elements follow the count: 3 fits exactly, 4 does not.
  for (uint64_t count : {uint64_t{3}, uint64_t{4}}) {
    ByteWriter writer;
    writer.PutVarint(count);
    for (int i = 0; i < 3; ++i) writer.PutDouble(i);
    ByteReader reader(writer.bytes());
    Result<uint64_t> read = reader.GetCount(8);
    if (count == 3) {
      ASSERT_TRUE(read.ok()) << read.status();
      EXPECT_EQ(*read, 3u);
      EXPECT_EQ(reader.remaining(), 24u);
    } else {
      EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
    }
  }
  // count * min_bytes wraps to 0 in 64 bits (2^61 * 8); the check must
  // not be fooled into accepting it.
  ByteWriter overflow;
  overflow.PutVarint(uint64_t{1} << 61);
  overflow.PutDouble(1.0);
  ByteReader overflow_reader(overflow.bytes());
  EXPECT_EQ(overflow_reader.GetCount(8).status().code(),
            StatusCode::kInvalidArgument);
  // An empty sequence at the end of the input is fine.
  ByteWriter empty;
  empty.PutVarint(0);
  ByteReader empty_reader(empty.bytes());
  Result<uint64_t> none = empty_reader.GetCount(8);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_EQ(*none, 0u);
  EXPECT_EQ(ByteReader("").GetCount(1).status().code(),
            StatusCode::kOutOfRange);
}

TEST(Crc32Test, KnownVectorAndSensitivity) {
  // The classic check value of CRC-32/IEEE.
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("fedshap"), Crc32("fedshaq"));
}

TEST(Hasher64Test, DistinguishesOrderAndBoundaries) {
  const uint64_t a = Hasher64().MixString("ab").MixString("c").digest();
  const uint64_t b = Hasher64().MixString("a").MixString("bc").digest();
  EXPECT_NE(a, b);
  const uint64_t x = Hasher64().MixU64(1).MixU64(2).digest();
  const uint64_t y = Hasher64().MixU64(2).MixU64(1).digest();
  EXPECT_NE(x, y);
  EXPECT_NE(Hasher64().MixDouble(0.0).digest(),
            Hasher64().MixDouble(-0.0).digest());
  // Deterministic across instances.
  EXPECT_EQ(Hasher64().MixString("same").digest(),
            Hasher64().MixString("same").digest());
}

uint64_t BulkHashOf(std::string_view bytes) {
  return BulkHash64(bytes.data(), bytes.size());
}

TEST(BulkHash64Test, PublishedXxh64DigestsArePinned) {
  // XXH64 with seed 0: no stripe, a 3-byte tail, and one 32-byte stripe
  // plus a 7-byte tail.
  EXPECT_EQ(BulkHashOf(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(BulkHashOf("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(BulkHashOf("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ULL);
}

TEST(BulkHash64Test, EveryLengthUpTo80IsDistinct) {
  // Zero bytes leave only the length to tell prefixes apart; patterned
  // bytes run every stripe count and every tail shape.
  std::string patterned(80, '\0');
  for (size_t i = 0; i < patterned.size(); ++i) {
    patterned[i] = static_cast<char>(i * 37 + 11);
  }
  for (const std::string& buffer : {std::string(80, '\0'), patterned}) {
    std::set<uint64_t> digests;
    for (size_t length = 0; length <= buffer.size(); ++length) {
      digests.insert(BulkHash64(buffer.data(), length));
    }
    EXPECT_EQ(digests.size(), buffer.size() + 1);
  }
}

TEST(BulkHash64Test, EveryFlippedBitChangesTheDigest) {
  std::string buffer(100, '\0');
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<char>(i * 13 + 5);
  }
  const uint64_t original = BulkHashOf(buffer);
  std::set<uint64_t> digests = {original};
  for (size_t byte = 0; byte < buffer.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = buffer;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      digests.insert(BulkHashOf(flipped));
    }
  }
  EXPECT_EQ(digests.size(), 1 + buffer.size() * 8);
  EXPECT_EQ(BulkHashOf(buffer), original);
}

TEST(FramedTest, RoundTripAndVersionOut) {
  const std::string frame = EncodeFramed(0x1234u, 3, "payload bytes");
  uint32_t version = 0;
  Result<std::string_view> payload = DecodeFramed(0x1234u, 5, frame,
                                                  &version);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, "payload bytes");
  EXPECT_EQ(version, 3u);
}

TEST(FramedTest, RejectsWrongMagicNewerVersionAndCorruption) {
  const std::string frame = EncodeFramed(0x1234u, 2, "payload");
  EXPECT_EQ(DecodeFramed(0x9999u, 2, frame).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeFramed(0x1234u, 1, frame).status().code(),
            StatusCode::kFailedPrecondition);

  std::string corrupted = frame;
  corrupted.back() ^= 0x01;
  EXPECT_EQ(DecodeFramed(0x1234u, 2, corrupted).status().code(),
            StatusCode::kInvalidArgument);

  std::string truncated = frame.substr(0, frame.size() - 2);
  EXPECT_FALSE(DecodeFramed(0x1234u, 2, truncated).ok());
  EXPECT_FALSE(DecodeFramed(0x1234u, 2, "").ok());
}

TEST(AtomicFileTest, WriteReadRoundTrip) {
  const std::string path = TempPath("roundtrip.bin");
  const std::string contents("binary\0data\xff", 12);
  ASSERT_TRUE(WriteFileAtomic(path, contents).ok());
  Result<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, contents);
  std::remove(path.c_str());
}

TEST(AtomicFileTest, OverwriteReplacesAtomically) {
  const std::string path = TempPath("overwrite.bin");
  ASSERT_TRUE(WriteFileAtomic(path, std::string(1000, 'a')).ok());
  ASSERT_TRUE(WriteFileAtomic(path, "short").ok());
  Result<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "short");  // no stale tail from the longer old file
  std::remove(path.c_str());
}

// Regression: the temp file used to be named per process only, so two
// threads writing one path shared it and the slower rename failed.
TEST(AtomicFileTest, ConcurrentWritersOfOnePathAllSucceed) {
  const std::string path = TempPath("contended.bin");
  constexpr int kThreads = 8;
  constexpr int kWrites = 50;
  auto contents_of = [](int thread, int write) {
    return std::to_string(thread) + ":" + std::to_string(write) +
           std::string(64 * (thread + 1), 'x');
  };
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int w = 0; w < kWrites; ++w) {
        if (!WriteFileAtomic(path, contents_of(t, w)).ok()) ++failures[t];
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "writer " << t;
  }
  Result<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  bool matches_a_write = false;
  for (int t = 0; t < kThreads && !matches_a_write; ++t) {
    for (int w = 0; w < kWrites; ++w) {
      if (*read == contents_of(t, w)) matches_a_write = true;
    }
  }
  EXPECT_TRUE(matches_a_write) << "final file is no single write: " << *read;
  std::remove(path.c_str());
}

TEST(AtomicFileTest, TempFilesAreClassifiedByName) {
  const std::string own = std::to_string(::getpid());
  const std::string other = std::to_string(::getpid() + 1);
  EXPECT_EQ(ClassifyTempFile("MANIFEST.tmp." + other + ".0"),
            TempFile::kOrphaned);
  EXPECT_EQ(ClassifyTempFile("job-1.snap.tmp." + other + ".123"),
            TempFile::kOrphaned);
  EXPECT_EQ(ClassifyTempFile("job-1.snap.tmp." + own + ".4"), TempFile::kOwn);
  for (const char* name : {"MANIFEST", "job-1.snap", ".tmp.1.2", "x.tmp.12",
                           "x.tmp.12.", "x.tmp..3", "x.tmp.1.2b",
                           "x.tmp.-1.2", "x.tmp.1.-2"}) {
    EXPECT_EQ(ClassifyTempFile(name), TempFile::kNone) << name;
  }
}

TEST(AtomicFileTest, MissingFileIsNotFound) {
  Result<std::string> read =
      ReadFileToString(TempPath("does_not_exist.bin"));
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace fedshap
