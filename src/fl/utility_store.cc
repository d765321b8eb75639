#include "fl/utility_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "util/logging.h"

namespace fedshap {

namespace fs = std::filesystem;

namespace {

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
  FEDSHAP_RETURN_NOT_OK(reader.CheckAtEnd("utility record"));
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
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t count,
                           reader.GetVarintAtMost(Coalition::kMaxClients));
  Coalition coalition;
  int previous = -1;
  for (uint64_t j = 0; j < count; ++j) {
    // A gap below kMaxClients keeps `previous + 1 + gap` far from
    // wrapping; the sum is then checked against the index range.
    FEDSHAP_ASSIGN_OR_RETURN(
        uint64_t gap, reader.GetVarintAtMost(Coalition::kMaxClients - 1));
    const int member = previous + 1 + static_cast<int>(gap);
    if (member >= Coalition::kMaxClients) {
      return Status::InvalidArgument("coalition member index out of range");
    }
    coalition.Add(member);
    previous = member;
  }
  return coalition;
}

// ---------------------------------------------------------------------------
// Open

Result<std::unique_ptr<UtilityStore>> UtilityStore::Open(
    const std::string& path, uint64_t fingerprint) {
  std::unique_ptr<UtilityStore> store(new UtilityStore(path, fingerprint));
  std::lock_guard<std::mutex> lock(store->mutex_);
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
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t count, reader.GetCount(1));
  sealed_order_.clear();
  for (uint64_t j = 0; j < count; ++j) {
    FEDSHAP_ASSIGN_OR_RETURN(uint64_t id, reader.GetVarint());
    sealed_order_.push_back(id);
  }
  FEDSHAP_RETURN_NOT_OK(reader.CheckAtEnd(path_ + "/MANIFEST"));
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
    // A directory without a manifest is only acceptable when it holds
    // nothing but temp files: a crash between mkdir and the rename of
    // the first manifest write. Another process's temps are orphans.
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(path_, ec)) {
      switch (ClassifyTempFile(entry.path().filename().string())) {
        case TempFile::kOrphaned:
          fs::remove(entry.path(), ec);
          break;
        case TempFile::kOwn:
          break;
        case TempFile::kNone:
          return Status::InvalidArgument(
              path_ + " has no MANIFEST; not a utility store");
      }
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
    FEDSHAP_RETURN_NOT_OK(AdoptSealedLocked(id, std::move(reader)));
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
      FEDSHAP_RETURN_NOT_OK(AdoptSealedLocked(active_id_, std::move(reader)));
      sealed_order_.push_back(active_id_);
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

  // Strays: segment files in neither the manifest nor the active slot.
  // Older builds compacted in the background, so a store they wrote can
  // hold the merge segment of a compaction killed before its manifest
  // swap; a later seal would reuse its id. A crash inside a MANIFEST
  // write orphans its temp file, which goes too.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(path_, ec)) {
    const std::string name = entry.path().filename().string();
    if (ClassifyTempFile(name) == TempFile::kOrphaned) {
      fs::remove(entry.path(), ec);
      continue;
    }
    if (name.rfind("seg-", 0) != 0) continue;
    uint64_t id = 0;
    if (std::sscanf(name.c_str(), "seg-%llu.seg",
                    reinterpret_cast<unsigned long long*>(&id)) != 1) {
      continue;
    }
    if (id == active_id_ || sealed_.count(id) != 0) continue;
    FEDSHAP_LOG(Warning) << "[store] removing stray segment " << name
                         << " (not in the manifest)";
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

Status UtilityStore::AdoptSealedLocked(
    uint64_t id, std::unique_ptr<SegmentReader> reader) {
  const std::string seg_path = SegmentPath(id);
  ByteReader footer(reader->footer());
  // Each entry is a coalition and an offset, at least a byte each.
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t count, footer.GetCount(2));
  for (uint64_t j = 0; j < count; ++j) {
    FEDSHAP_ASSIGN_OR_RETURN(Coalition coalition, GetCoalition(footer));
    FEDSHAP_ASSIGN_OR_RETURN(uint64_t offset,
                             footer.GetVarintAtMost(reader->data_end() - 1));
    if (offset < kSegmentHeaderBytes) {
      return Status::InvalidArgument(seg_path + " footer offset in header");
    }
    index_[coalition] = Location{id, offset};
  }
  FEDSHAP_RETURN_NOT_OK(footer.CheckAtEnd(seg_path + " footer"));
  Segment segment;
  segment.file_path = seg_path;
  segment.file_bytes = reader->file_bytes();
  segment.reader = std::move(reader);
  sealed_.emplace(id, std::move(segment));
  return Status::OK();
}

UtilityStore::~UtilityStore() {
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
  segment.file_path = active_writer_->path();
  segment.file_bytes = active_writer_->bytes();
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
// Mapping

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
  }
  return segment.reader.get();
}

// ---------------------------------------------------------------------------
// Iteration / accounting

void UtilityStore::ForEach(
    const std::function<void(const Coalition&, const UtilityRecord&)>& fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Grouped by segment and sorted by offset: each segment is read in
  // file order.
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
  }
  stats.active_bytes =
      active_writer_ != nullptr ? active_writer_->bytes() : active_resume_at_;
  return stats;
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
