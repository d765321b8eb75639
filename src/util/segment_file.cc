#include "util/segment_file.h"

#include <cstring>
#include <filesystem>

#include "util/fault_injector.h"
#include "util/serialization.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define FEDSHAP_HAVE_FSYNC 1
#else
#define FEDSHAP_HAVE_FSYNC 0
#endif

namespace fedshap {

namespace {

/// Bytes of a record frame before its payload: length + CRC.
constexpr uint64_t kRecordFrameBytes = 8;
/// Bytes of the sealed-segment trailer: footer length + footer magic.
constexpr uint64_t kTrailerBytes = 8;

uint32_t ReadU32(const char* p) {
  uint32_t value;
  std::memcpy(&value, p, sizeof(value));
  return value;  // files are little-endian; so are all supported hosts
}

uint64_t ReadU64(const char* p) {
  uint64_t value;
  std::memcpy(&value, p, sizeof(value));
  return value;
}

Status FlushAndFsync(std::FILE* file, const std::string& path) {
  if (std::fflush(file) != 0) {
    return Status::Internal("flush failed for segment " + path);
  }
#if FEDSHAP_HAVE_FSYNC
  if (::fsync(::fileno(file)) != 0) {
    return Status::Internal("fsync failed for segment " + path);
  }
#endif
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// SegmentWriter

Result<std::unique_ptr<SegmentWriter>> SegmentWriter::Create(
    const std::string& path, uint32_t magic, uint32_t version,
    uint64_t meta) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("cannot create segment " + path);
  }
  ByteWriter header;
  header.PutU32(magic);
  header.PutU32(version);
  header.PutU64(meta);
  std::unique_ptr<SegmentWriter> writer(
      new SegmentWriter(path, file, /*bytes=*/0));
  FEDSHAP_RETURN_NOT_OK(writer->WriteRaw(header.bytes()));
  return writer;
}

Result<std::unique_ptr<SegmentWriter>> SegmentWriter::OpenForAppend(
    const std::string& path, uint64_t resume_at) {
  std::error_code ec;
  const uint64_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    return Status::NotFound("cannot reopen segment " + path + ": " +
                            ec.message());
  }
  if (resume_at < kSegmentHeaderBytes || resume_at > size) {
    return Status::InvalidArgument("segment resume offset out of range");
  }
  if (resume_at < size) {
    // Drop the torn tail so the next append starts on a record boundary.
    std::filesystem::resize_file(path, resume_at, ec);
    if (ec) {
      return Status::Internal("cannot truncate segment " + path + ": " +
                              ec.message());
    }
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::Internal("cannot reopen segment " + path);
  }
  return std::unique_ptr<SegmentWriter>(
      new SegmentWriter(path, file, resume_at));
}

SegmentWriter::~SegmentWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SegmentWriter::WriteRaw(std::string_view bytes) {
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    return Status::Internal("short write to segment " + path_);
  }
  bytes_ += bytes.size();
  unsynced_bytes_ += bytes.size();
  return Status::OK();
}

Result<uint64_t> SegmentWriter::Append(std::string_view payload) {
  if (sealed_ || file_ == nullptr) {
    return Status::FailedPrecondition("segment " + path_ + " is sealed");
  }
  const uint64_t offset = bytes_;
  ByteWriter frame;
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(Crc32(payload));
  FaultInjector* faults = FaultInjector::Global();
  if (faults != nullptr && faults->Fire(FaultSite::kTornStoreWrite)) {
    // Scripted torn write: persist the frame header plus a payload prefix
    // — exactly what a crash mid-append leaves behind — then close the
    // file so this writer behaves like the dead process. Reopening the
    // segment must truncate the torn tail back to `offset`.
    FEDSHAP_RETURN_NOT_OK(WriteRaw(frame.bytes()));
    FEDSHAP_RETURN_NOT_OK(WriteRaw(payload.substr(0, payload.size() / 2)));
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
    return Status::Internal("fault injected: torn write to segment " + path_);
  }
  FEDSHAP_RETURN_NOT_OK(WriteRaw(frame.bytes()));
  FEDSHAP_RETURN_NOT_OK(WriteRaw(payload));
  return offset;
}

Status SegmentWriter::Sync() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("segment " + path_ + " is closed");
  }
  FEDSHAP_RETURN_NOT_OK(FlushAndFsync(file_, path_));
  unsynced_bytes_ = 0;
  return Status::OK();
}

Status SegmentWriter::Seal(std::string_view footer_payload) {
  if (sealed_ || file_ == nullptr) {
    return Status::FailedPrecondition("segment " + path_ +
                                      " is already sealed");
  }
  ByteWriter footer;
  footer.PutU32(Crc32(footer_payload));
  FEDSHAP_RETURN_NOT_OK(WriteRaw(footer.bytes()));
  FEDSHAP_RETURN_NOT_OK(WriteRaw(footer_payload));
  ByteWriter trailer;
  trailer.PutU32(static_cast<uint32_t>(footer_payload.size()));
  trailer.PutU32(kSegmentFooterMagic);
  FEDSHAP_RETURN_NOT_OK(WriteRaw(trailer.bytes()));
  FEDSHAP_RETURN_NOT_OK(FlushAndFsync(file_, path_));
  unsynced_bytes_ = 0;
  sealed_ = true;
  std::fclose(file_);
  file_ = nullptr;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SegmentReader

Result<std::unique_ptr<SegmentReader>> SegmentReader::Open(
    const std::string& path, uint32_t magic, uint32_t max_version) {
  FEDSHAP_ASSIGN_OR_RETURN(std::unique_ptr<MappedFile> file,
                           MappedFile::Open(path));
  if (file->size() < kSegmentHeaderBytes) {
    return Status::InvalidArgument("segment " + path + " has no header");
  }
  const char* base = file->data();
  if (ReadU32(base) != magic) {
    return Status::InvalidArgument("segment " + path +
                                   " has the wrong magic");
  }
  const uint32_t version = ReadU32(base + 4);
  if (version > max_version) {
    return Status::FailedPrecondition(
        "segment " + path + " has format version " +
        std::to_string(version) + ", newer than supported " +
        std::to_string(max_version));
  }
  std::unique_ptr<SegmentReader> reader(new SegmentReader(std::move(file)));
  base = reader->file_->data();
  const uint64_t size = reader->file_->size();
  reader->meta_ = ReadU64(base + 8);

  // Sealed? The trailer is self-describing: [footer_len][footer_magic]
  // in the last 8 bytes, with the CRC-framed footer right before it.
  if (size >= kSegmentHeaderBytes + 4 + kTrailerBytes &&
      ReadU32(base + size - 4) == kSegmentFooterMagic) {
    const uint64_t footer_len = ReadU32(base + size - 8);
    if (kSegmentHeaderBytes + 4 + footer_len + kTrailerBytes <= size) {
      const uint64_t footer_start = size - kTrailerBytes - footer_len - 4;
      const std::string_view payload(base + footer_start + 4, footer_len);
      if (Crc32(payload) == ReadU32(base + footer_start)) {
        reader->sealed_ = true;
        reader->footer_ = payload;
        reader->data_end_ = footer_start;
        return reader;
      }
    }
    // The trailer bytes lied (a torn record that happens to end in the
    // footer magic); fall through to the unsealed scan.
  }

  // Unsealed: walk the records; the valid prefix ends at the first
  // incomplete or checksum-failing frame.
  uint64_t pos = kSegmentHeaderBytes;
  while (pos + kRecordFrameBytes <= size) {
    const uint64_t len = ReadU32(base + pos);
    if (pos + kRecordFrameBytes + len > size) break;  // torn length/payload
    const std::string_view payload(base + pos + kRecordFrameBytes, len);
    if (Crc32(payload) != ReadU32(base + pos + 4)) break;  // torn payload
    pos += kRecordFrameBytes + len;
  }
  reader->data_end_ = pos;
  reader->torn_tail_ = pos < size;
  return reader;
}

Status SegmentReader::ForEachRecord(
    const std::function<Status(uint64_t, std::string_view)>& fn) const {
  const char* base = file_->data();
  uint64_t pos = kSegmentHeaderBytes;
  while (pos + kRecordFrameBytes <= data_end_) {
    const uint64_t len = ReadU32(base + pos);
    if (pos + kRecordFrameBytes + len > data_end_) {
      return Status::InvalidArgument("segment " + path() +
                                     " has a record crossing the footer");
    }
    const std::string_view payload(base + pos + kRecordFrameBytes, len);
    if (sealed_ && Crc32(payload) != ReadU32(base + pos + 4)) {
      return Status::InvalidArgument("segment " + path() +
                                     " has a corrupt record");
    }
    FEDSHAP_RETURN_NOT_OK(fn(pos, payload));
    pos += kRecordFrameBytes + len;
  }
  return Status::OK();
}

Result<std::string_view> SegmentReader::RecordAt(uint64_t offset) const {
  const char* base = file_->data();
  // Subtract from data_end_ (>= kSegmentHeaderBytes) rather than add to
  // `offset`: an offset read from a footer may sit anywhere below 2^64.
  if (offset < kSegmentHeaderBytes ||
      offset > data_end_ - kRecordFrameBytes) {
    return Status::OutOfRange("record offset outside segment " + path());
  }
  const uint64_t len = ReadU32(base + offset);
  if (len > data_end_ - offset - kRecordFrameBytes) {
    return Status::OutOfRange("record length outside segment " + path());
  }
  const std::string_view payload(base + offset + kRecordFrameBytes, len);
  if (Crc32(payload) != ReadU32(base + offset + 4)) {
    return Status::InvalidArgument("corrupt record in segment " + path());
  }
  return payload;
}

}  // namespace fedshap
