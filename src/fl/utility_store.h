#ifndef FEDSHAP_FL_UTILITY_STORE_H_
#define FEDSHAP_FL_UTILITY_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fl/utility_cache.h"
#include "util/coalition.h"
#include "util/segment_file.h"
#include "util/serialization.h"
#include "util/status.h"

namespace fedshap {

/// \file
/// On-disk persistence for utility evaluations.
///
/// A full FL training per coalition is the dominant cost of SV-based data
/// valuation — the very observation the paper's IPSS is built on. The
/// in-process UtilityCache already guarantees each coalition is trained
/// once per process; UtilityStore extends that guarantee *across*
/// processes, so a killed table-IV/fig-9 sweep resumes in seconds and
/// repeated bench invocations share a warm cache.

/// Point-in-time counters of a segmented UtilityStore, surfaced by
/// `fedshapd --status` and the service bench.
struct UtilityStoreStats {
  /// Live (indexed) records.
  size_t entries = 0;
  /// Sealed, immutable segments.
  size_t sealed_segments = 0;
  /// Bytes of all sealed segment files on disk.
  uint64_t sealed_bytes = 0;
  /// Bytes of the active (append) segment.
  uint64_t active_bytes = 0;
};

/// Persistent, content-addressed map from coalitions to utility records,
/// stored as a directory of immutable, memory-mapped segments.
///
/// **Content addressing.** A stored utility is only meaningful for the
/// exact workload that produced it: the same client datasets, model
/// architecture and initialization, and training configuration. Each
/// store is therefore bound to a 64-bit workload fingerprint
/// (UtilityFunction::Fingerprint()); opening a store whose fingerprint
/// differs fails with FailedPrecondition instead of silently serving
/// utilities from a different experiment.
///
/// **Layout.** The store path is a directory:
///
///   <store>/MANIFEST        framed list of sealed segment ids + the
///                           active segment id (atomically replaced)
///   <store>/seg-NNNNNN.seg  one segment per file (util/segment_file.h)
///
/// Put appends a CRC-framed record to the *active* segment — O(record),
/// never a rewrite of existing data — and Flush is an fsync of the
/// appended tail. When the active segment reaches the rotation size it
/// is *sealed*: a footer holding the segment's coalition->offset index
/// is appended and fsync'd, the manifest is atomically updated, and the
/// segment becomes immutable. Opening a store maps every sealed segment
/// and reads only the manifest and the sealed footers (never the record
/// pages) plus the active segment's tail, so open cost is O(index), not
/// O(bytes). A segment sealed in-process is mapped at its first lookup.
/// Sealed segments stay mapped read-only until the store closes; their
/// pages are clean file pages, which the kernel reclaims under memory
/// pressure. Records of the active segment are held in memory until
/// sealed, so an unflushed record always has a live copy.
///
/// **Crash safety.** A crash at any point leaves every sealed segment
/// valid and at most one torn record at the active segment's tail, which
/// Open detects by per-record CRC and truncates. A crash between sealing
/// and the manifest update is healed at Open (a sealed segment at the
/// manifest's active id is adopted as sealed). Segment files in neither
/// the manifest nor the active slot are deleted at Open.
///
/// Thread-safe; an instance may back several caches or sessions at once.
class UtilityStore {
 public:
  /// Magic tag of segment files ("FSUS" little-endian).
  static constexpr uint32_t kMagic = 0x53555346u;
  /// Magic tag of the manifest file ("FSUM" little-endian).
  static constexpr uint32_t kManifestMagic = 0x4d555346u;
  /// Current segment/manifest format version.
  static constexpr uint32_t kVersion = 2;
  /// Default rotation size of the active segment.
  static constexpr uint64_t kDefaultSegmentBytes = 256 * 1024;

  /// Opens (or creates) the store at `path` for the workload identified
  /// by `fingerprint`. A missing path yields an empty store; an existing
  /// segment directory is indexed from its manifest and footers. Fails
  /// with FailedPrecondition when the store was written for a different
  /// fingerprint and InvalidArgument when it is corrupt or not a store
  /// (any path that is not a directory, e.g. a regular file).
  static Result<std::unique_ptr<UtilityStore>> Open(const std::string& path,
                                                    uint64_t fingerprint);

  /// Closes the active segment, syncing an unflushed tail best-effort (a
  /// tail lost to a crash is at worst a truncated-at-Open torn record).
  ~UtilityStore();

  /// The conventional per-workload path `<stem>.<fingerprint-hex>.fsus`.
  /// Bench binaries run several workloads per invocation; deriving the
  /// directory name from the fingerprint gives each workload its own
  /// store under one user-supplied stem.
  static std::string StemPath(const std::string& stem, uint64_t fingerprint);

  /// Looks up `coalition`; fills `*record` and returns true when
  /// present. Maps a segment sealed by this process on its first lookup.
  bool Lookup(const Coalition& coalition, UtilityRecord* record);

  /// Appends the record for `coalition` to the active segment and
  /// indexes it (an existing entry is superseded; its older record stays
  /// on disk, unreferenced). Returns the number of bytes
  /// appended — the unit UtilityCache's byte-counted flush interval
  /// accumulates. Call Flush to make the appended tail durable.
  size_t Put(const Coalition& coalition, const UtilityRecord& record);

  /// Fsyncs the active segment's appended tail. O(appended bytes since
  /// the last Flush): never rewrites existing data. No-op when clean.
  Status Flush();

  /// Calls `fn` for every stored entry, grouped by segment (order is
  /// otherwise unspecified). O(all record bytes): prefer Lookup.
  void ForEach(const std::function<void(const Coalition&,
                                        const UtilityRecord&)>& fn);

  /// Number of live entries currently indexed.
  size_t size() const;
  /// Number of entries indexed from disk at Open time.
  size_t loaded_entries() const { return loaded_entries_; }
  /// True when appended records have not yet been fsync'd.
  bool dirty() const;
  /// The store directory path.
  const std::string& path() const { return path_; }
  /// The workload fingerprint this store is bound to.
  uint64_t fingerprint() const { return fingerprint_; }
  /// Current entry/segment/byte counters.
  UtilityStoreStats stats() const;

  /// Overrides the active-segment rotation size (min 4 KiB).
  void set_segment_target_bytes(uint64_t bytes);

 private:
  /// One sealed, immutable segment, mapped until the store closes.
  struct Segment {
    std::string file_path;
    uint64_t file_bytes = 0;
    /// Null until the first lookup when this process sealed it.
    std::unique_ptr<SegmentReader> reader;
  };
  /// Where a coalition's latest record lives.
  struct Location {
    uint64_t segment_id = 0;
    uint64_t offset = 0;
  };

  UtilityStore(std::string path, uint64_t fingerprint)
      : path_(std::move(path)), fingerprint_(fingerprint) {}

  std::string SegmentPath(uint64_t id) const;
  Status LoadManifestLocked(std::string_view contents);
  Status WriteManifestLocked();
  Status OpenDirectoryLocked();
  Status AdoptSealedLocked(uint64_t id,
                           std::unique_ptr<SegmentReader> reader);
  Status EnsureActiveWriterLocked();
  Status SealActiveLocked();
  Result<SegmentReader*> MappedLocked(Segment& segment);

  const std::string path_;
  const uint64_t fingerprint_;
  mutable std::mutex mutex_;

  /// Coalition -> latest record location, over all segments.
  std::unordered_map<Coalition, Location, CoalitionHash> index_;
  /// Sealed segments by id.
  std::map<uint64_t, Segment> sealed_;
  /// Sealed segment ids in age order (the manifest's list): replayed
  /// oldest-first at Open so later duplicates supersede earlier ones.
  std::vector<uint64_t> sealed_order_;

  /// The active (append) segment. Records live in `active_entries_`
  /// until sealed, so unflushed data always has an in-memory copy.
  uint64_t active_id_ = 1;
  uint64_t next_segment_id_ = 2;
  /// Valid byte prefix of an existing active segment file (0 = none);
  /// the lazily created writer resumes — and truncates a torn tail — at
  /// this offset.
  uint64_t active_resume_at_ = 0;
  std::unique_ptr<SegmentWriter> active_writer_;
  std::unordered_map<Coalition, UtilityRecord, CoalitionHash>
      active_entries_;
  std::unordered_map<Coalition, uint64_t, CoalitionHash> active_offsets_;

  uint64_t segment_target_bytes_ = kDefaultSegmentBytes;
  size_t loaded_entries_ = 0;
};

/// The standard way a process binds a cache to persistent storage, shared
/// by the bench harness and the examples: derives the workload's store
/// path (StemPath(stem, fn.Fingerprint())), replaces any existing store
/// unless `resume` is set (fresh measurements are the default; resume is
/// the explicit opt-in to trust a previous process's trainings), opens
/// the store and attaches it to `cache` as its read-through/write-through
/// backing with the given byte-counted flush interval (see
/// UtilityCache::AttachStore). Returns the store, which must outlive
/// `cache`'s use of it; `loaded_entries()` tells how warm the start was.
Result<std::unique_ptr<UtilityStore>> OpenAndAttachStore(
    const std::string& stem, bool resume, const UtilityFunction& fn,
    UtilityCache& cache, size_t flush_bytes = 0);

/// Serializes `coalition` as a varint member count followed by varint
/// member deltas (ascending members encode as first index, then gaps).
void PutCoalition(ByteWriter& writer, const Coalition& coalition);

/// Reads a coalition written by PutCoalition; validates member bounds.
Result<Coalition> GetCoalition(ByteReader& reader);

}  // namespace fedshap

#endif  // FEDSHAP_FL_UTILITY_STORE_H_
