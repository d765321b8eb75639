#ifndef FEDSHAP_FL_UTILITY_STORE_H_
#define FEDSHAP_FL_UTILITY_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
/// `fedshapd --status` and the store-scale benches.
struct UtilityStoreStats {
  /// Live (indexed) records.
  size_t entries = 0;
  /// Sealed, immutable segments.
  size_t sealed_segments = 0;
  /// Sealed segments currently memory-mapped.
  size_t mapped_segments = 0;
  /// Bytes of all sealed segment files on disk.
  uint64_t sealed_bytes = 0;
  /// Bytes of sealed segments currently memory-mapped (<= byte_budget
  /// when a budget is set).
  uint64_t mapped_bytes = 0;
  /// Bytes of the active (append) segment.
  uint64_t active_bytes = 0;
  /// Sealed segments unmapped by the LRU byte-budget eviction.
  size_t evictions = 0;
  /// Sealed segments mapped back in after an eviction.
  size_t remaps = 0;
  /// Background/explicit compactions completed.
  size_t compactions = 0;
  /// The mapped-byte budget in force (0 = unlimited).
  uint64_t byte_budget = 0;
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
/// segment becomes immutable and memory-mapped. Opening a store reads
/// only the manifest and the sealed footers (never the record pages) plus
/// the active segment's tail, so open cost is O(index), not O(bytes).
///
/// **Crash safety.** A crash at any point leaves every sealed segment
/// valid and at most one torn record at the active segment's tail, which
/// Open detects by per-record CRC and truncates. A crash between sealing
/// and the manifest update is healed at Open (a sealed segment at the
/// manifest's active id is adopted as sealed). A compaction killed
/// mid-swap leaves the old manifest in force; its half-written merge
/// segment is deleted as a stray at the next Open.
///
/// **Compaction.** A background thread merges the sealed segments
/// (dropping superseded duplicate records) into one fresh segment and
/// atomically swaps the manifest, bounding segment count and reclaiming
/// dead bytes without ever blocking Put/Lookup for the duration.
///
/// **Eviction.** With a mapped-byte budget (`FEDSHAP_STORE_BYTES`, or
/// set_byte_budget), cold sealed segments are unmapped LRU-wise so the
/// store serves data sets far larger than RAM at bounded RSS; a lookup
/// into an evicted segment transparently remaps it. Records of the
/// active segment are held in memory until sealed and are never evicted,
/// so an unflushed record always has a live copy.
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
  /// Seal->compact trigger: sealed segments before a merge is scheduled.
  static constexpr size_t kCompactMinSegments = 4;

  /// Opens (or creates) the store at `path` for the workload identified
  /// by `fingerprint`. A missing path yields an empty store; an existing
  /// segment directory is indexed from its manifest and footers. Fails
  /// with FailedPrecondition when the store was written for a different
  /// fingerprint and InvalidArgument when it is corrupt or not a store
  /// (any path that is not a directory, e.g. a regular file).
  ///
  /// Environment knobs read here: `FEDSHAP_STORE_BYTES` (mapped-byte
  /// budget; plain bytes or K/M/G suffix; 0/unset = unlimited) and
  /// `FEDSHAP_STORE_SEGMENT_BYTES` (active-segment rotation size).
  static Result<std::unique_ptr<UtilityStore>> Open(const std::string& path,
                                                    uint64_t fingerprint);

  /// Joins the background compactor and closes the active segment (the
  /// appended tail is synced by Flush callers; an unsynced tail is at
  /// worst a truncated-at-Open torn record).
  ~UtilityStore();

  /// The conventional per-workload path `<stem>.<fingerprint-hex>.fsus`.
  /// Bench binaries run several workloads per invocation; deriving the
  /// directory name from the fingerprint gives each workload its own
  /// store under one user-supplied stem.
  static std::string StemPath(const std::string& stem, uint64_t fingerprint);

  /// Looks up `coalition`; fills `*record` and returns true when
  /// present. May transparently remap an evicted segment.
  bool Lookup(const Coalition& coalition, UtilityRecord* record);

  /// Appends the record for `coalition` to the active segment and
  /// indexes it (an existing entry is superseded, its dead bytes
  /// reclaimed by a later compaction). Returns the number of bytes
  /// appended — the unit UtilityCache's byte-counted flush interval
  /// accumulates. Call Flush to make the appended tail durable.
  size_t Put(const Coalition& coalition, const UtilityRecord& record);

  /// Fsyncs the active segment's appended tail. O(appended bytes since
  /// the last Flush): never rewrites existing data. No-op when clean.
  Status Flush();

  /// Seals the active segment (if any) and synchronously merges all
  /// sealed segments into one, dropping superseded records. Mostly for
  /// tests and benches; production stores compact in the background.
  Status CompactNow();

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
  /// Current segment/byte/eviction counters.
  UtilityStoreStats stats() const;

  /// Overrides the mapped-byte budget (0 = unlimited). Evicts
  /// immediately if the new budget is exceeded.
  void set_byte_budget(uint64_t bytes);
  /// Overrides the active-segment rotation size (min 4 KiB).
  void set_segment_target_bytes(uint64_t bytes);

 private:
  /// One sealed, immutable segment: mapped on demand, unmapped by the
  /// byte-budget eviction.
  struct Segment {
    uint64_t id = 0;
    std::string file_path;
    uint64_t file_bytes = 0;
    std::unique_ptr<SegmentReader> reader;  ///< Null while evicted.
    uint64_t last_access = 0;               ///< LRU tick.
    bool ever_evicted = false;              ///< Distinguishes remaps.
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
  Status EnsureActiveWriterLocked();
  Status SealActiveLocked();
  Result<SegmentReader*> MappedLocked(Segment& segment);
  void EvictOverBudgetLocked(uint64_t keep_id);
  void MaybeStartCompactionLocked();
  Status CompactLocked(std::unique_lock<std::mutex>& lock);
  void WaitForCompactorLocked(std::unique_lock<std::mutex>& lock);
  void BackgroundCompact();

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
  uint64_t byte_budget_ = 0;  ///< 0 = unlimited.
  uint64_t mapped_bytes_ = 0;
  uint64_t access_tick_ = 0;
  size_t loaded_entries_ = 0;
  size_t evictions_ = 0;
  size_t remaps_ = 0;
  size_t compactions_ = 0;

  std::thread compactor_;
  bool compaction_running_ = false;
  bool shutting_down_ = false;
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
