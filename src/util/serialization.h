#ifndef FEDSHAP_UTIL_SERIALIZATION_H_
#define FEDSHAP_UTIL_SERIALIZATION_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace fedshap {

/// \file
/// Versioned binary serialization primitives shared by every on-disk
/// artifact (the persistent UtilityStore, resumable-sweep snapshots,
/// persisted ValuationResults) and every cluster wire payload.
///
///  - **Self-describing frames.** Every file is `magic + version +
///    crc32(payload) + payload`, so a reader can reject foreign files,
///    newer formats, and bit rot before parsing a single field.
///  - **Compactness.** Non-negative integers are LEB128 varints; a small
///    coalition costs a handful of bytes, not a fixed-width word.
///  - **Exactness.** Doubles round-trip bit-for-bit (IEEE-754 bits in
///    little-endian order), which resumable estimators rely on for
///    "resumed run == uninterrupted run" equivalence.
///  - **Crash safety.** WriteFileAtomic writes a temp file in the target
///    directory and renames it into place; a crash leaves either the old
///    file or the new one, never a torn hybrid.
///
/// **Decoding contract.** Decoders read bytes this process did not write
/// (frames from untrusted peers, files from disk), and the bounds policy
/// lives here rather than beside each call site:
///
///  - a count read from the input (a vector length the decoder may
///    reserve) goes through ByteReader::GetCount, which rejects a count
///    the remaining bytes cannot hold;
///  - a field with a range (an index, an int, a 32-bit value, a cursor
///    into known state) goes through ByteReader::GetVarintAtMost;
///  - plain GetVarint is left for values without a bound of their own
///    (seeds, pids, task and segment ids, counters) and for fields
///    checked against other decoded state once read;
///  - every decoder of a whole payload or file ends with CheckAtEnd(),
///    rejecting trailing bytes; a part decoder that reads from its
///    caller's reader (GetCoalition, DecodeScenarioSpec) leaves that
///    check to the caller.
///
/// Bound violations fail with InvalidArgument; truncation fails with
/// OutOfRange.

/// Append-only encoder producing a byte string.
///
/// All multi-byte fixed-width values are written little-endian regardless
/// of host order, so files transfer between machines.
class ByteWriter {
 public:
  /// Appends a single byte.
  void PutU8(uint8_t value);
  /// Appends a fixed-width 32-bit value (little-endian).
  void PutU32(uint32_t value);
  /// Appends a fixed-width 64-bit value (little-endian).
  void PutU64(uint64_t value);
  /// Appends an unsigned LEB128 varint (1 byte for values < 128).
  void PutVarint(uint64_t value);
  /// Appends the IEEE-754 bits of `value`; round-trips exactly, NaNs and
  /// signed zeros included.
  void PutDouble(double value);
  /// Appends a varint length followed by the raw bytes.
  void PutString(std::string_view value);

  /// The bytes written so far.
  const std::string& bytes() const { return bytes_; }
  /// Number of bytes written so far.
  size_t size() const { return bytes_.size(); }

 private:
  std::string bytes_;
};

/// Bounds-checked decoder over a byte string.
///
/// Every getter returns OutOfRange instead of reading past the end, so a
/// truncated file surfaces as a clean error rather than undefined
/// behavior; the bounded reads also return InvalidArgument. The reader
/// does not own the data; the underlying buffer must outlive it.
class ByteReader {
 public:
  /// Wraps `data` without copying it.
  explicit ByteReader(std::string_view data) : data_(data) {}

  /// Reads a single byte.
  Result<uint8_t> GetU8();
  /// Reads a fixed-width little-endian 32-bit value.
  Result<uint32_t> GetU32();
  /// Reads a fixed-width little-endian 64-bit value.
  Result<uint64_t> GetU64();
  /// Reads an unsigned LEB128 varint; rejects encodings longer than 10
  /// bytes (the maximum for 64 bits).
  Result<uint64_t> GetVarint();
  /// Reads a varint for a field whose range the format fixes; fails with
  /// InvalidArgument above `max` instead of letting a caller truncate it
  /// into a plausible value.
  Result<uint64_t> GetVarintAtMost(uint64_t max);
  /// Reads the length of a sequence whose every element takes at least
  /// `min_bytes_per_element` (>= 1) bytes; fails with InvalidArgument
  /// when the remaining bytes cannot hold that many elements. A count
  /// read this way is safe to reserve.
  Result<uint64_t> GetCount(size_t min_bytes_per_element);
  /// Reads a double written by ByteWriter::PutDouble.
  Result<double> GetDouble();
  /// Reads a varint length followed by that many raw bytes.
  Result<std::string> GetString();

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }
  /// True once every byte has been consumed.
  bool AtEnd() const { return pos_ == data_.size(); }
  /// OK once every byte has been consumed; otherwise InvalidArgument
  /// saying `what` has trailing bytes.
  Status CheckAtEnd(std::string_view what) const;

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG one) of `data`.
uint32_t Crc32(std::string_view data);

// Two 64-bit content hashes, neither cryptographic: they guard against
// accidental mixups (wrong dataset, changed config), not adversaries.
//
//  - Hasher64 is incremental FNV-1a. It folds one byte per step, each
//    step waiting on the last, so it suits short structured inputs: the
//    fields of a workload fingerprint, and every resumable sweep's
//    ConfigHash. Sweep snapshots persist ConfigHash, so its bytes must
//    never change: Hasher64 stays FNV-1a.
//  - BulkHash64 digests one contiguous buffer four 8-byte words at a
//    time. Dataset::Fingerprint feeds it each feature column and the
//    targets, then mixes the digests through Hasher64.

/// Incremental 64-bit content hasher (FNV-1a core) used for the
/// content-addressing fingerprints of the UtilityStore and for
/// configuration hashes of resumable sweeps.
class Hasher64 {
 public:
  /// Mixes a 64-bit value.
  Hasher64& MixU64(uint64_t value);
  /// Mixes a 32-bit value.
  Hasher64& MixU32(uint32_t value) { return MixU64(value); }
  /// Mixes the IEEE-754 bits of a double (distinguishes -0.0 from 0.0).
  Hasher64& MixDouble(double value);
  /// Mixes raw bytes.
  Hasher64& MixBytes(const void* data, size_t size);
  /// Mixes a length-prefixed string (so "ab","c" != "a","bc").
  Hasher64& MixString(std::string_view value);

  /// The current digest. Mixing after reading digest() is allowed.
  uint64_t digest() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

/// 64-bit digest of `data[0 .. size)`: XXH64 with seed 0, written from
/// its published specification. Four independent lanes each fold one
/// 8-byte word per step with a multiply-rotate round, so the multiplies
/// of a 32-byte stripe overlap; the up-to-31-byte tail and the length
/// are mixed in at the end. Words are assembled little-endian, so the
/// digest of a byte sequence is the same on every host.
uint64_t BulkHash64(const void* data, size_t size);

/// Wraps `payload` in a self-describing frame:
///
///   [magic u32][version u32][crc32(payload) u32][payload bytes]
///
/// `magic` identifies the artifact kind (e.g. the utility store vs. a
/// sweep snapshot); `version` its format revision.
std::string EncodeFramed(uint32_t magic, uint32_t version,
                         std::string_view payload);

/// Validates and strips the frame produced by EncodeFramed. Fails with
/// InvalidArgument on a wrong magic, FailedPrecondition on a version
/// newer than `max_version`, and with a "corrupted" InvalidArgument when
/// the checksum does not match (truncation, bit flips). On success
/// `*version_out` (when non-null) receives the stored version and the
/// returned view aliases `frame`'s payload bytes.
Result<std::string_view> DecodeFramed(uint32_t magic, uint32_t max_version,
                                      std::string_view frame,
                                      uint32_t* version_out = nullptr);

/// Writes `contents` to `path` crash-safely: the bytes go to a temporary
/// file in the same directory (same filesystem, so the final step is a
/// plain rename) which is fsync'd and renamed over `path`. Every call
/// gets its own temp name (pid plus a per-process counter), so concurrent
/// writers of the same path, threads or processes, never share a temp
/// file: each rename succeeds and the last one wins. A crash at any point
/// leaves either the previous file or the new one intact. A crash
/// *between* write and rename can orphan the `<path>.tmp.<pid>.<n>` file
/// — it is inert (no loader ever reads it) and safe to delete; see
/// ClassifyTempFile.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// What a file is to WriteFileAtomic, judged by its name.
enum class TempFile {
  kNone,      ///< Not a temp file: no `<name>.tmp.<pid>.<n>` shape.
  kOwn,       ///< A temp of this process, whose write may be in flight.
  kOrphaned,  ///< A temp of another process: orphaned, safe to delete.
};

/// Classifies `filename` (a name, not a path). Directory scans that open
/// durable state use it to delete the temps a crash left behind.
TempFile ClassifyTempFile(std::string_view filename);

/// Reads an entire file. NotFound when the file does not exist.
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace fedshap

#endif  // FEDSHAP_UTIL_SERIALIZATION_H_
