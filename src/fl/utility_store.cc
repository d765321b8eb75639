#include "fl/utility_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "util/logging.h"

namespace fedshap {

namespace fs = std::filesystem;

namespace {

/// Parses a byte-size environment variable: plain bytes or a K/M/G
/// suffix (powers of 1024). Unset/empty/garbage yields `fallback`.
uint64_t ParseByteSizeEnv(const char* name, uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw) return fallback;
  uint64_t multiplier = 1;
  if (end != nullptr && *end != '\0') {
    switch (*end) {
      case 'k': case 'K': multiplier = 1024ull; break;
      case 'm': case 'M': multiplier = 1024ull * 1024; break;
      case 'g': case 'G': multiplier = 1024ull * 1024 * 1024; break;
      default: return fallback;
    }
  }
  return static_cast<uint64_t>(value) * multiplier;
}

std::string EncodeRecordPayload(const Coalition& coalition,
                                const UtilityRecord& record) {
  ByteWriter payload;
  PutCoalition(payload, coalition);
  payload.PutDouble(record.utility);
  payload.PutDouble(record.cost_seconds);
  return payload.bytes();
}

Result<std::pair<Coalition, UtilityRecord>> DecodeRecordPayload(
    std::string_view payload) {
  ByteReader reader(payload);
  FEDSHAP_ASSIGN_OR_RETURN(Coalition coalition, GetCoalition(reader));
  UtilityRecord record;
  FEDSHAP_ASSIGN_OR_RETURN(record.utility, reader.GetDouble());
  FEDSHAP_ASSIGN_OR_RETURN(record.cost_seconds, reader.GetDouble());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("utility record has trailing bytes");
  }
  return std::make_pair(coalition, record);
}

/// Builds a sealed segment's footer: its coalition->offset index, in
/// file (offset) order so footers are deterministic.
std::string EncodeFooter(
    std::vector<std::pair<uint64_t, Coalition>> by_offset) {
  std::sort(by_offset.begin(), by_offset.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ByteWriter footer;
  footer.PutVarint(by_offset.size());
  for (const auto& [offset, coalition] : by_offset) {
    PutCoalition(footer, coalition);
    footer.PutVarint(offset);
  }
  return footer.bytes();
}

}  // namespace

void PutCoalition(ByteWriter& writer, const Coalition& coalition) {
  const std::vector<int> members = coalition.Members();
  writer.PutVarint(members.size());
  int previous = -1;
  for (int member : members) {
    writer.PutVarint(static_cast<uint64_t>(member - previous - 1));
    previous = member;
  }
}

Result<Coalition> GetCoalition(ByteReader& reader) {
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t count, reader.GetVarint());
  if (count > static_cast<uint64_t>(Coalition::kMaxClients)) {
    return Status::InvalidArgument("coalition member count out of range");
  }
  Coalition coalition;
  int previous = -1;
  for (uint64_t j = 0; j < count; ++j) {
    FEDSHAP_ASSIGN_OR_RETURN(uint64_t gap, reader.GetVarint());
    const uint64_t member = static_cast<uint64_t>(previous) + 1 + gap;
    if (member >= static_cast<uint64_t>(Coalition::kMaxClients)) {
      return Status::InvalidArgument("coalition member index out of range");
    }
    coalition.Add(static_cast<int>(member));
    previous = static_cast<int>(member);
  }
  return coalition;
}

// ---------------------------------------------------------------------------
// Open

Result<std::unique_ptr<UtilityStore>> UtilityStore::Open(
    const std::string& path, uint64_t fingerprint) {
  std::unique_ptr<UtilityStore> store(new UtilityStore(path, fingerprint));
  store->byte_budget_ = ParseByteSizeEnv("FEDSHAP_STORE_BYTES", 0);
  store->segment_target_bytes_ = std::max<uint64_t>(
      ParseByteSizeEnv("FEDSHAP_STORE_SEGMENT_BYTES", kDefaultSegmentBytes),
      4096);

  std::unique_lock<std::mutex> lock(store->mutex_);
  std::error_code ec;
  fs::file_status status = fs::status(path, ec);
  if (ec || status.type() == fs::file_type::not_found) {
    // Fresh store: the directory and manifest appear on first Put/Flush.
    return store;
  }
  if (status.type() != fs::file_type::directory) {
    return Status::InvalidArgument(path + " is not a utility store");
  }
  FEDSHAP_RETURN_NOT_OK(store->OpenDirectoryLocked());
  return store;
}

Status UtilityStore::LoadManifestLocked(std::string_view contents) {
  FEDSHAP_ASSIGN_OR_RETURN(std::string_view payload,
                           DecodeFramed(kManifestMagic, kVersion, contents));
  ByteReader reader(payload);
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t stored_fingerprint, reader.GetU64());
  if (stored_fingerprint != fingerprint_) {
    return Status::FailedPrecondition(
        path_ + " was written for a different workload fingerprint; "
                "refusing to serve its utilities");
  }
  FEDSHAP_ASSIGN_OR_RETURN(active_id_, reader.GetVarint());
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t count, reader.GetVarint());
  sealed_order_.clear();
  for (uint64_t j = 0; j < count; ++j) {
    FEDSHAP_ASSIGN_OR_RETURN(uint64_t id, reader.GetVarint());
    sealed_order_.push_back(id);
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(path_ + "/MANIFEST has trailing bytes");
  }
  next_segment_id_ = active_id_ + 1;
  for (uint64_t id : sealed_order_) {
    next_segment_id_ = std::max(next_segment_id_, id + 1);
  }
  return Status::OK();
}

Status UtilityStore::OpenDirectoryLocked() {
  Result<std::string> manifest = ReadFileToString(path_ + "/MANIFEST");
  if (!manifest.ok()) {
    if (manifest.status().code() != StatusCode::kNotFound) {
      return manifest.status();
    }
    // A directory without a manifest is only acceptable when it is empty
    // (a crash between mkdir and the first manifest write).
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(path_, ec)) {
      (void)entry;
      return Status::InvalidArgument(path_ +
                                     " has no MANIFEST; not a utility store");
    }
    return WriteManifestLocked();
  }
  FEDSHAP_RETURN_NOT_OK(LoadManifestLocked(*manifest));

  // Index the sealed segments from their footers (never the record
  // pages), oldest first so a later duplicate supersedes an earlier one.
  for (uint64_t id : sealed_order_) {
    const std::string seg_path = SegmentPath(id);
    FEDSHAP_ASSIGN_OR_RETURN(std::unique_ptr<SegmentReader> reader,
                             SegmentReader::Open(seg_path, kMagic, kVersion));
    if (!reader->sealed()) {
      return Status::InvalidArgument(seg_path +
                                     " is in the manifest but not sealed");
    }
    if (reader->meta() != fingerprint_) {
      return Status::FailedPrecondition(
          seg_path + " was written for a different workload fingerprint");
    }
    ByteReader footer(reader->footer());
    FEDSHAP_ASSIGN_OR_RETURN(uint64_t count, footer.GetVarint());
    for (uint64_t j = 0; j < count; ++j) {
      FEDSHAP_ASSIGN_OR_RETURN(Coalition coalition, GetCoalition(footer));
      FEDSHAP_ASSIGN_OR_RETURN(uint64_t offset, footer.GetVarint());
      index_[coalition] = Location{id, offset};
    }
    if (!footer.AtEnd()) {
      return Status::InvalidArgument(seg_path + " has a malformed footer");
    }
    Segment segment;
    segment.id = id;
    segment.file_path = seg_path;
    segment.file_bytes = reader->file_bytes();
    segment.last_access = ++access_tick_;
    segment.reader = std::move(reader);
    mapped_bytes_ += segment.file_bytes;
    sealed_.emplace(id, std::move(segment));
    EvictOverBudgetLocked(id);  // stay under budget even while opening
  }

  // The active segment: replay its records into memory. A torn tail (the
  // crash signature) is truncated when appends resume; a *sealed* file at
  // the active id means the crash hit between Seal and the manifest
  // write — adopt it as sealed and advance.
  const std::string active_path = SegmentPath(active_id_);
  bool healed = false;
  if (fs::exists(active_path)) {
    FEDSHAP_ASSIGN_OR_RETURN(
        std::unique_ptr<SegmentReader> reader,
        SegmentReader::Open(active_path, kMagic, kVersion));
    if (reader->meta() != fingerprint_) {
      return Status::FailedPrecondition(
          active_path + " was written for a different workload fingerprint");
    }
    if (reader->sealed()) {
      ByteReader footer(reader->footer());
      FEDSHAP_ASSIGN_OR_RETURN(uint64_t count, footer.GetVarint());
      for (uint64_t j = 0; j < count; ++j) {
        FEDSHAP_ASSIGN_OR_RETURN(Coalition coalition, GetCoalition(footer));
        FEDSHAP_ASSIGN_OR_RETURN(uint64_t offset, footer.GetVarint());
        index_[coalition] = Location{active_id_, offset};
      }
      Segment segment;
      segment.id = active_id_;
      segment.file_path = active_path;
      segment.file_bytes = reader->file_bytes();
      segment.last_access = ++access_tick_;
      segment.reader = std::move(reader);
      mapped_bytes_ += segment.file_bytes;
      sealed_order_.push_back(active_id_);
      sealed_.emplace(active_id_, std::move(segment));
      active_id_ = next_segment_id_++;
      healed = true;
    } else {
      if (reader->torn_tail()) {
        FEDSHAP_LOG(Warning)
            << "[store] " << active_path << " has a torn tail record ("
            << (reader->file_bytes() - reader->data_end())
            << " bytes); truncating at byte " << reader->data_end();
      }
      Status replay = reader->ForEachRecord(
          [&](uint64_t offset, std::string_view payload) -> Status {
            FEDSHAP_ASSIGN_OR_RETURN(auto entry,
                                     DecodeRecordPayload(payload));
            active_entries_[entry.first] = entry.second;
            active_offsets_[entry.first] = offset;
            return Status::OK();
          });
      FEDSHAP_RETURN_NOT_OK(replay);
      active_resume_at_ = reader->data_end();
    }
  }

  // Strays: segment files in neither the manifest nor the active slot are
  // leftovers of a compaction that died before its manifest swap.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(path_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) != 0) continue;
    uint64_t id = 0;
    if (std::sscanf(name.c_str(), "seg-%llu.seg",
                    reinterpret_cast<unsigned long long*>(&id)) != 1) {
      continue;
    }
    if (id == active_id_ || sealed_.count(id) != 0) continue;
    FEDSHAP_LOG(Warning) << "[store] removing stray segment " << name
                         << " (interrupted compaction)";
    fs::remove(entry.path(), ec);
  }

  size_t entries = index_.size();
  for (const auto& [coalition, record] : active_entries_) {
    (void)record;
    if (index_.count(coalition) == 0) ++entries;
  }
  loaded_entries_ = entries;
  if (healed) FEDSHAP_RETURN_NOT_OK(WriteManifestLocked());
  return Status::OK();
}

UtilityStore::~UtilityStore() {
  std::unique_lock<std::mutex> lock(mutex_);
  shutting_down_ = true;
  WaitForCompactorLocked(lock);
  if (active_writer_ != nullptr && active_writer_->unsynced_bytes() > 0) {
    Status synced = active_writer_->Sync();  // best effort on clean close
    if (!synced.ok()) {
      FEDSHAP_LOG(Warning) << "[store] final sync failed: "
                           << synced.ToString();
    }
  }
}

std::string UtilityStore::StemPath(const std::string& stem,
                                   uint64_t fingerprint) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return stem + "." + hex + ".fsus";
}

std::string UtilityStore::SegmentPath(uint64_t id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06llu.seg",
                static_cast<unsigned long long>(id));
  return path_ + "/" + name;
}

Status UtilityStore::WriteManifestLocked() {
  std::error_code ec;
  fs::create_directories(path_, ec);
  ByteWriter payload;
  payload.PutU64(fingerprint_);
  payload.PutVarint(active_id_);
  payload.PutVarint(sealed_order_.size());
  for (uint64_t id : sealed_order_) payload.PutVarint(id);
  return WriteFileAtomic(path_ + "/MANIFEST",
                         EncodeFramed(kManifestMagic, kVersion,
                                      payload.bytes()));
}

// ---------------------------------------------------------------------------
// Read / write path

bool UtilityStore::Lookup(const Coalition& coalition, UtilityRecord* record) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Active-segment records are always served from memory: they may not be
  // durable yet, so this in-memory copy is the only trustworthy one.
  auto active_it = active_entries_.find(coalition);
  if (active_it != active_entries_.end()) {
    if (record != nullptr) *record = active_it->second;
    return true;
  }
  auto it = index_.find(coalition);
  if (it == index_.end()) return false;
  auto seg_it = sealed_.find(it->second.segment_id);
  FEDSHAP_CHECK(seg_it != sealed_.end());
  Result<SegmentReader*> reader = MappedLocked(seg_it->second);
  if (!reader.ok()) {
    FEDSHAP_LOG(Warning) << "[store] cannot map segment "
                         << seg_it->second.file_path << ": "
                         << reader.status().ToString();
    return false;
  }
  Result<std::string_view> payload = (*reader)->RecordAt(it->second.offset);
  if (!payload.ok()) {
    FEDSHAP_LOG(Warning) << "[store] bad record in "
                         << seg_it->second.file_path << ": "
                         << payload.status().ToString();
    return false;
  }
  Result<std::pair<Coalition, UtilityRecord>> entry =
      DecodeRecordPayload(*payload);
  if (!entry.ok() || entry->first != coalition) {
    FEDSHAP_LOG(Warning) << "[store] record mismatch in "
                         << seg_it->second.file_path;
    return false;
  }
  if (record != nullptr) *record = entry->second;
  return true;
}

Status UtilityStore::EnsureActiveWriterLocked() {
  if (active_writer_ != nullptr) return Status::OK();
  std::error_code ec;
  fs::create_directories(path_, ec);
  if (ec) {
    return Status::Internal("cannot create store directory " + path_ + ": " +
                            ec.message());
  }
  if (!fs::exists(path_ + "/MANIFEST")) {
    FEDSHAP_RETURN_NOT_OK(WriteManifestLocked());
  }
  const std::string seg_path = SegmentPath(active_id_);
  if (active_resume_at_ > 0) {
    FEDSHAP_ASSIGN_OR_RETURN(
        active_writer_,
        SegmentWriter::OpenForAppend(seg_path, active_resume_at_));
  } else {
    FEDSHAP_ASSIGN_OR_RETURN(
        active_writer_,
        SegmentWriter::Create(seg_path, kMagic, kVersion, fingerprint_));
  }
  return Status::OK();
}

size_t UtilityStore::Put(const Coalition& coalition,
                         const UtilityRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  // The in-memory copy goes in first: even if every disk write below
  // fails, the record stays servable for the lifetime of this process.
  active_entries_[coalition] = record;
  size_t appended = 0;
  Status status = EnsureActiveWriterLocked();
  if (status.ok()) {
    Result<uint64_t> offset =
        active_writer_->Append(EncodeRecordPayload(coalition, record));
    if (offset.ok()) {
      active_offsets_[coalition] = *offset;
      appended = static_cast<size_t>(active_writer_->bytes() - *offset);
    } else {
      status = offset.status();
    }
  }
  if (!status.ok()) {
    FEDSHAP_LOG(Warning) << "[store] append to " << path_
                         << " failed: " << status.ToString();
    return 0;
  }
  if (active_writer_->bytes() >= segment_target_bytes_) {
    Status sealed = SealActiveLocked();
    if (!sealed.ok()) {
      FEDSHAP_LOG(Warning) << "[store] seal failed: " << sealed.ToString();
    } else {
      MaybeStartCompactionLocked();
    }
  }
  return appended;
}

Status UtilityStore::SealActiveLocked() {
  if (active_writer_ == nullptr || active_offsets_.empty()) {
    return Status::OK();
  }
  std::vector<std::pair<uint64_t, Coalition>> by_offset;
  by_offset.reserve(active_offsets_.size());
  for (const auto& [coalition, offset] : active_offsets_) {
    by_offset.emplace_back(offset, coalition);
  }
  FEDSHAP_RETURN_NOT_OK(
      active_writer_->Seal(EncodeFooter(std::move(by_offset))));

  Segment segment;
  segment.id = active_id_;
  segment.file_path = active_writer_->path();
  segment.file_bytes = active_writer_->bytes();
  segment.last_access = ++access_tick_;
  for (const auto& [coalition, offset] : active_offsets_) {
    index_[coalition] = Location{active_id_, offset};
  }
  sealed_order_.push_back(active_id_);
  sealed_.emplace(active_id_, std::move(segment));
  active_writer_.reset();
  active_entries_.clear();
  active_offsets_.clear();
  active_id_ = next_segment_id_++;
  active_resume_at_ = 0;
  // Seal-then-manifest: if the manifest write is lost to a crash, Open
  // finds a sealed file at the manifest's active id and adopts it.
  return WriteManifestLocked();
}

Status UtilityStore::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_writer_ == nullptr || active_writer_->unsynced_bytes() == 0) {
    return Status::OK();
  }
  return active_writer_->Sync();
}

// ---------------------------------------------------------------------------
// Mapping / eviction

Result<SegmentReader*> UtilityStore::MappedLocked(Segment& segment) {
  if (segment.reader == nullptr) {
    FEDSHAP_ASSIGN_OR_RETURN(
        segment.reader,
        SegmentReader::Open(segment.file_path, kMagic, kVersion));
    if (!segment.reader->sealed()) {
      segment.reader.reset();
      return Status::InvalidArgument(segment.file_path +
                                     " lost its seal on disk");
    }
    mapped_bytes_ += segment.file_bytes;
    if (segment.ever_evicted) ++remaps_;
    EvictOverBudgetLocked(segment.id);
  }
  segment.last_access = ++access_tick_;
  return segment.reader.get();
}

void UtilityStore::EvictOverBudgetLocked(uint64_t keep_id) {
  while (byte_budget_ > 0 && mapped_bytes_ > byte_budget_) {
    Segment* victim = nullptr;
    for (auto& [id, segment] : sealed_) {
      if (id == keep_id || segment.reader == nullptr) continue;
      if (victim == nullptr || segment.last_access < victim->last_access) {
        victim = &segment;
      }
    }
    if (victim == nullptr) break;  // nothing evictable (keep_id may exceed
                                   // the budget alone; that is the floor)
    mapped_bytes_ -= victim->file_bytes;
    victim->reader.reset();
    victim->ever_evicted = true;
    ++evictions_;
  }
}

// ---------------------------------------------------------------------------
// Compaction

void UtilityStore::MaybeStartCompactionLocked() {
  if (compaction_running_ || shutting_down_) return;
  if (sealed_order_.size() < kCompactMinSegments) return;
  if (compactor_.joinable()) compactor_.join();  // previous run is done
  compaction_running_ = true;
  compactor_ = std::thread([this] { BackgroundCompact(); });
}

void UtilityStore::BackgroundCompact() {
  std::unique_lock<std::mutex> lock(mutex_);
  Status status = CompactLocked(lock);
  if (!status.ok()) {
    FEDSHAP_LOG(Warning) << "[store] compaction of " << path_
                         << " failed: " << status.ToString();
  }
  compaction_running_ = false;
}

void UtilityStore::WaitForCompactorLocked(std::unique_lock<std::mutex>& lock) {
  while (compaction_running_) {
    lock.unlock();
    if (compactor_.joinable()) {
      compactor_.join();
    } else {
      std::this_thread::yield();
    }
    lock.lock();
  }
  if (compactor_.joinable()) {
    lock.unlock();
    compactor_.join();
    lock.lock();
  }
}

Status UtilityStore::CompactLocked(std::unique_lock<std::mutex>& lock) {
  const std::vector<uint64_t> victims = sealed_order_;
  if (victims.size() < 2) return Status::OK();  // nothing worth merging

  // Phase 1 (locked): collect the *live* records of the victim segments —
  // index entries still pointing at them — one victim at a time so the
  // byte budget is respected even while compacting.
  std::map<uint64_t, std::vector<std::pair<Coalition, uint64_t>>> by_segment;
  for (const auto& [coalition, location] : index_) {
    by_segment[location.segment_id].emplace_back(coalition, location.offset);
  }
  std::vector<std::pair<Coalition, std::string>> live;
  for (uint64_t id : victims) {
    auto list_it = by_segment.find(id);
    if (list_it == by_segment.end()) continue;
    auto seg_it = sealed_.find(id);
    FEDSHAP_CHECK(seg_it != sealed_.end());
    FEDSHAP_ASSIGN_OR_RETURN(SegmentReader * reader,
                             MappedLocked(seg_it->second));
    for (const auto& [coalition, offset] : list_it->second) {
      FEDSHAP_ASSIGN_OR_RETURN(std::string_view payload,
                               reader->RecordAt(offset));
      live.emplace_back(coalition, std::string(payload));
    }
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const uint64_t merge_id = next_segment_id_++;
  const std::string merge_path = SegmentPath(merge_id);

  // Phase 2 (unlocked): write the merged segment. Put/Lookup proceed
  // concurrently; they cannot touch seg-<merge_id>.
  lock.unlock();
  auto write_merged = [&]() -> Status {
    FEDSHAP_ASSIGN_OR_RETURN(
        std::unique_ptr<SegmentWriter> writer,
        SegmentWriter::Create(merge_path, kMagic, kVersion, fingerprint_));
    std::vector<std::pair<uint64_t, Coalition>> by_offset;
    by_offset.reserve(live.size());
    for (auto& [coalition, payload] : live) {
      FEDSHAP_ASSIGN_OR_RETURN(uint64_t offset, writer->Append(payload));
      by_offset.emplace_back(offset, coalition);
    }
    return writer->Seal(EncodeFooter(by_offset));
  };
  Status written = write_merged();
  lock.lock();
  if (!written.ok()) {
    std::error_code ec;
    fs::remove(merge_path, ec);
    return written;
  }

  // Phase 3 (locked): swap. Only index entries *still* pointing at a
  // victim move to the merged segment — anything superseded while we were
  // unlocked keeps its newer location. The manifest write is the atomic
  // commit point; a crash before it leaves the old manifest in force and
  // the merged file as a stray the next Open deletes.
  std::error_code ec;
  uint64_t merged_bytes = fs::file_size(merge_path, ec);
  if (ec) {
    return Status::Internal("cannot stat merged segment " + merge_path);
  }
  {
    FEDSHAP_ASSIGN_OR_RETURN(
        std::unique_ptr<SegmentReader> reader,
        SegmentReader::Open(merge_path, kMagic, kVersion));
    ByteReader footer(reader->footer());
    FEDSHAP_ASSIGN_OR_RETURN(uint64_t count, footer.GetVarint());
    for (uint64_t j = 0; j < count; ++j) {
      FEDSHAP_ASSIGN_OR_RETURN(Coalition coalition, GetCoalition(footer));
      FEDSHAP_ASSIGN_OR_RETURN(uint64_t offset, footer.GetVarint());
      auto it = index_.find(coalition);
      if (it == index_.end()) continue;
      bool still_in_victim = false;
      for (uint64_t id : victims) {
        if (it->second.segment_id == id) { still_in_victim = true; break; }
      }
      if (still_in_victim) it->second = Location{merge_id, offset};
    }
    Segment segment;
    segment.id = merge_id;
    segment.file_path = merge_path;
    segment.file_bytes = merged_bytes;
    segment.last_access = ++access_tick_;
    segment.reader = std::move(reader);
    mapped_bytes_ += segment.file_bytes;
    sealed_.emplace(merge_id, std::move(segment));
  }
  std::vector<uint64_t> new_order;
  new_order.push_back(merge_id);  // merged data predates later seals
  for (uint64_t id : sealed_order_) {
    bool is_victim = false;
    for (uint64_t v : victims) {
      if (id == v) { is_victim = true; break; }
    }
    if (!is_victim) new_order.push_back(id);
  }
  sealed_order_ = std::move(new_order);
  FEDSHAP_RETURN_NOT_OK(WriteManifestLocked());
  for (uint64_t id : victims) {
    auto it = sealed_.find(id);
    if (it == sealed_.end()) continue;
    if (it->second.reader != nullptr) mapped_bytes_ -= it->second.file_bytes;
    sealed_.erase(it);
    fs::remove(SegmentPath(id), ec);
  }
  ++compactions_;
  EvictOverBudgetLocked(merge_id);
  return Status::OK();
}

Status UtilityStore::CompactNow() {
  std::unique_lock<std::mutex> lock(mutex_);
  WaitForCompactorLocked(lock);
  FEDSHAP_RETURN_NOT_OK(SealActiveLocked());
  compaction_running_ = true;  // block a concurrent background start
  Status status = CompactLocked(lock);
  compaction_running_ = false;
  return status;
}

// ---------------------------------------------------------------------------
// Iteration / accounting

void UtilityStore::ForEach(
    const std::function<void(const Coalition&, const UtilityRecord&)>& fn) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Grouped by segment so each is mapped once even under a byte budget.
  std::map<uint64_t, std::vector<std::pair<uint64_t, Coalition>>> by_segment;
  for (const auto& [coalition, location] : index_) {
    if (active_entries_.count(coalition) != 0) continue;  // shadowed
    by_segment[location.segment_id].emplace_back(location.offset, coalition);
  }
  for (auto& [id, list] : by_segment) {
    std::sort(list.begin(), list.end());
    auto seg_it = sealed_.find(id);
    FEDSHAP_CHECK(seg_it != sealed_.end());
    Result<SegmentReader*> reader = MappedLocked(seg_it->second);
    if (!reader.ok()) {
      FEDSHAP_LOG(Warning) << "[store] ForEach skipping segment "
                           << seg_it->second.file_path << ": "
                           << reader.status().ToString();
      continue;
    }
    for (const auto& [offset, coalition] : list) {
      Result<std::string_view> payload = (*reader)->RecordAt(offset);
      if (!payload.ok()) continue;
      Result<std::pair<Coalition, UtilityRecord>> entry =
          DecodeRecordPayload(*payload);
      if (!entry.ok()) continue;
      fn(coalition, entry->second);
    }
  }
  std::vector<std::pair<Coalition, UtilityRecord>> active(
      active_entries_.begin(), active_entries_.end());
  std::sort(active.begin(), active.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [coalition, record] : active) {
    fn(coalition, record);
  }
}

size_t UtilityStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t count = index_.size();
  for (const auto& [coalition, record] : active_entries_) {
    (void)record;
    if (index_.count(coalition) == 0) ++count;
  }
  return count;
}

bool UtilityStore::dirty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_writer_ != nullptr && active_writer_->unsynced_bytes() > 0;
}

UtilityStoreStats UtilityStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  UtilityStoreStats stats;
  stats.entries = index_.size();
  for (const auto& [coalition, record] : active_entries_) {
    (void)record;
    if (index_.count(coalition) == 0) ++stats.entries;
  }
  stats.sealed_segments = sealed_.size();
  for (const auto& [id, segment] : sealed_) {
    (void)id;
    stats.sealed_bytes += segment.file_bytes;
    if (segment.reader != nullptr) ++stats.mapped_segments;
  }
  stats.mapped_bytes = mapped_bytes_;
  stats.active_bytes =
      active_writer_ != nullptr ? active_writer_->bytes() : active_resume_at_;
  stats.evictions = evictions_;
  stats.remaps = remaps_;
  stats.compactions = compactions_;
  stats.byte_budget = byte_budget_;
  return stats;
}

void UtilityStore::set_byte_budget(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  byte_budget_ = bytes;
  EvictOverBudgetLocked(/*keep_id=*/0);
}

void UtilityStore::set_segment_target_bytes(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  segment_target_bytes_ = std::max<uint64_t>(bytes, 4096);
}

Result<std::unique_ptr<UtilityStore>> OpenAndAttachStore(
    const std::string& stem, bool resume, const UtilityFunction& fn,
    UtilityCache& cache, size_t flush_bytes) {
  const uint64_t fingerprint = fn.Fingerprint();
  const std::string path = UtilityStore::StemPath(stem, fingerprint);
  if (!resume) {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  FEDSHAP_ASSIGN_OR_RETURN(std::unique_ptr<UtilityStore> store,
                           UtilityStore::Open(path, fingerprint));
  cache.AttachStore(store.get(), flush_bytes);
  return store;
}

}  // namespace fedshap
