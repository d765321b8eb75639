#ifndef FEDSHAP_UTIL_SEGMENT_FILE_H_
#define FEDSHAP_UTIL_SEGMENT_FILE_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "util/mapped_file.h"
#include "util/status.h"

namespace fedshap {

/// \file
/// Append-only segment files with per-record CRC framing.
///
/// A segment is the unit of the segmented UtilityStore: an immutable,
/// individually-checksummed sequence of records that is written once,
/// sealed with an fsync'd footer index, and afterwards only ever read
/// (memory-mapped). The format is designed so a
/// crash at *any* byte leaves the file recoverable:
///
///   header   [magic u32][version u32][meta u64]
///   records  ([payload_len u32][crc32(payload) u32][payload])*
///   footer   [crc32(footer_payload) u32][footer_payload]
///            [footer_payload_len u32][footer_magic u32]      (sealed only)
///
/// Every record is independently CRC-framed, so an unsealed (active)
/// segment that loses its tail mid-write has at most one torn record,
/// which `SegmentReader::Open` detects (bad length/CRC) and reports as a
/// truncation point; all preceding records stay valid. A sealed segment
/// carries a footer whose payload the caller defines (the UtilityStore
/// stores its key->offset index there, so opening a sealed segment never
/// touches the record pages) terminated by a fixed trailer that marks
/// the segment as complete.

/// Magic tag closing a sealed segment's trailer ("FSEG" little-endian).
inline constexpr uint32_t kSegmentFooterMagic = 0x47455346u;
/// Bytes of the fixed segment header (magic + version + meta): the
/// offset of a segment's first record.
inline constexpr uint64_t kSegmentHeaderBytes = 16;

/// Appends CRC-framed records to a segment file.
///
/// Not thread-safe; the owner serializes access (the UtilityStore holds
/// its mutex across appends). Durability is explicit: `Sync` fsyncs what
/// has been appended, `Seal` writes the footer and fsyncs.
class SegmentWriter {
 public:
  /// Creates `path` (truncating any existing file) and writes the
  /// segment header. `meta` is an opaque caller value stored in the
  /// header (the UtilityStore puts the workload fingerprint there).
  static Result<std::unique_ptr<SegmentWriter>> Create(
      const std::string& path, uint32_t magic, uint32_t version,
      uint64_t meta);

  /// Reopens an existing unsealed segment for appending, truncating it
  /// to `resume_at` bytes first (the valid prefix a SegmentReader
  /// reported; this is the torn-tail recovery path).
  static Result<std::unique_ptr<SegmentWriter>> OpenForAppend(
      const std::string& path, uint64_t resume_at);

  /// Closes the file (without sealing or syncing).
  ~SegmentWriter();

  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  /// Appends one framed record; returns the record's absolute file
  /// offset (stable forever: sealed segments are immutable).
  Result<uint64_t> Append(std::string_view payload);

  /// Flushes and fsyncs everything appended so far.
  Status Sync();

  /// Appends the footer (caller-defined `footer_payload` + trailer),
  /// fsyncs and closes: the segment is now complete and immutable.
  /// No further Append/Sync calls are allowed.
  Status Seal(std::string_view footer_payload);

  /// Current file size in bytes (header + appended records).
  uint64_t bytes() const { return bytes_; }
  /// Bytes appended since the last Sync/Create.
  uint64_t unsynced_bytes() const { return unsynced_bytes_; }
  /// The segment's file path.
  const std::string& path() const { return path_; }

 private:
  SegmentWriter(std::string path, std::FILE* file, uint64_t bytes)
      : path_(std::move(path)), file_(file), bytes_(bytes) {}

  Status WriteRaw(std::string_view bytes);

  const std::string path_;
  std::FILE* file_ = nullptr;
  uint64_t bytes_ = 0;
  uint64_t unsynced_bytes_ = 0;
  bool sealed_ = false;
};

/// Read-only view of a segment file (memory-mapped).
///
/// Open validates the header, classifies the segment as sealed (valid
/// footer trailer) or unsealed (an active segment, possibly with a torn
/// tail), and for unsealed segments scans the records to find the valid
/// prefix. Record payload views alias the mapping and live as long as
/// the reader.
class SegmentReader {
 public:
  /// Maps and validates `path`. Fails with InvalidArgument on a wrong
  /// magic / corrupt header and FailedPrecondition on a newer version.
  static Result<std::unique_ptr<SegmentReader>> Open(
      const std::string& path, uint32_t magic, uint32_t max_version);

  /// The opaque header value the writer stored.
  uint64_t meta() const { return meta_; }
  /// True when the segment carries a valid footer (complete, immutable).
  bool sealed() const { return sealed_; }
  /// The caller-defined footer payload; empty for unsealed segments.
  std::string_view footer() const { return footer_; }
  /// Total mapped bytes of the file.
  uint64_t file_bytes() const { return file_->size(); }
  /// End offset of the valid record region. For unsealed segments with a
  /// torn tail this is where the file must be truncated before appending
  /// resumes.
  uint64_t data_end() const { return data_end_; }
  /// True when an unsealed segment had trailing bytes that do not form a
  /// complete, checksum-valid record (the crash signature).
  bool torn_tail() const { return torn_tail_; }
  /// The segment's file path.
  const std::string& path() const { return file_->path(); }

  /// Calls `fn(offset, payload)` for every valid record in file order.
  /// Stops early and returns `fn`'s error if it fails.
  Status ForEachRecord(
      const std::function<Status(uint64_t, std::string_view)>& fn) const;

  /// The payload of the record whose frame starts at `offset`
  /// (as returned by SegmentWriter::Append / ForEachRecord). Validates
  /// the frame bounds and checksum.
  Result<std::string_view> RecordAt(uint64_t offset) const;

 private:
  explicit SegmentReader(std::unique_ptr<MappedFile> file)
      : file_(std::move(file)) {}

  std::unique_ptr<MappedFile> file_;
  uint64_t meta_ = 0;
  uint64_t data_end_ = 0;
  std::string_view footer_;
  bool sealed_ = false;
  bool torn_tail_ = false;
};

}  // namespace fedshap

#endif  // FEDSHAP_UTIL_SEGMENT_FILE_H_
