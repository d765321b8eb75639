#include "util/serialization.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace fedshap {

void ByteWriter::PutU8(uint8_t value) {
  bytes_.push_back(static_cast<char>(value));
}

void ByteWriter::PutU32(uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes_.push_back(static_cast<char>((value >> shift) & 0xffu));
  }
}

void ByteWriter::PutU64(uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes_.push_back(static_cast<char>((value >> shift) & 0xffu));
  }
}

void ByteWriter::PutVarint(uint64_t value) {
  while (value >= 0x80u) {
    bytes_.push_back(static_cast<char>((value & 0x7fu) | 0x80u));
    value >>= 7;
  }
  bytes_.push_back(static_cast<char>(value));
}

void ByteWriter::PutDouble(double value) {
  PutU64(std::bit_cast<uint64_t>(value));
}

void ByteWriter::PutString(std::string_view value) {
  PutVarint(value.size());
  bytes_.append(value.data(), value.size());
}

Result<uint8_t> ByteReader::GetU8() {
  if (remaining() < 1) {
    return Status::OutOfRange("byte stream truncated (u8)");
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> ByteReader::GetU32() {
  if (remaining() < 4) {
    return Status::OutOfRange("byte stream truncated (u32)");
  }
  uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    value |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++]))
             << shift;
  }
  return value;
}

Result<uint64_t> ByteReader::GetU64() {
  if (remaining() < 8) {
    return Status::OutOfRange("byte stream truncated (u64)");
  }
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    value |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++]))
             << shift;
  }
  return value;
}

Result<uint64_t> ByteReader::GetVarint() {
  uint64_t value = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    if (remaining() < 1) {
      return Status::OutOfRange("byte stream truncated (varint)");
    }
    const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    if (shift == 63 && (byte & 0x7fu) > 1) {
      return Status::InvalidArgument("varint overflows 64 bits");
    }
    value |= static_cast<uint64_t>(byte & 0x7fu) << shift;
    if ((byte & 0x80u) == 0) return value;
  }
  return Status::InvalidArgument("varint longer than 10 bytes");
}

Result<uint64_t> ByteReader::GetVarintAtMost(uint64_t max) {
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t value, GetVarint());
  if (value > max) {
    return Status::InvalidArgument("decoded value " + std::to_string(value) +
                                   " exceeds its bound " +
                                   std::to_string(max));
  }
  return value;
}

Result<uint64_t> ByteReader::GetCount(size_t min_bytes_per_element) {
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t count, GetVarint());
  // count * min_bytes > remaining(), without the product overflowing.
  if (count > remaining() / std::max<size_t>(min_bytes_per_element, 1)) {
    return Status::InvalidArgument(
        "decoded count " + std::to_string(count) + " exceeds the " +
        std::to_string(remaining()) + " bytes left");
  }
  return count;
}

Status ByteReader::CheckAtEnd(std::string_view what) const {
  if (AtEnd()) return Status::OK();
  return Status::InvalidArgument(std::string(what) + " has " +
                                 std::to_string(remaining()) +
                                 " trailing bytes");
}

Result<double> ByteReader::GetDouble() {
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  return std::bit_cast<double>(bits);
}

Result<std::string> ByteReader::GetString() {
  FEDSHAP_ASSIGN_OR_RETURN(uint64_t size, GetVarint());
  if (size > remaining()) {
    return Status::OutOfRange("byte stream truncated (string body)");
  }
  std::string value(data_.substr(pos_, size));
  pos_ += size;
  return value;
}

namespace {

/// Table-driven CRC-32; the table is built once, on first use.
const std::array<uint32_t, 256>& Crc32Table() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  const std::array<uint32_t, 256>& table = Crc32Table();
  uint32_t crc = 0xffffffffu;
  for (char c : data) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<uint8_t>(c)) & 0xffu];
  }
  return crc ^ 0xffffffffu;
}

Hasher64& Hasher64::MixU64(uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    state_ ^= (value >> shift) & 0xffu;
    state_ *= 0x100000001b3ULL;  // FNV prime
  }
  return *this;
}

Hasher64& Hasher64::MixDouble(double value) {
  return MixU64(std::bit_cast<uint64_t>(value));
}

Hasher64& Hasher64::MixBytes(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 0x100000001b3ULL;
  }
  return *this;
}

Hasher64& Hasher64::MixString(std::string_view value) {
  MixU64(value.size());
  return MixBytes(value.data(), value.size());
}

namespace {

// XXH64's five primes.
constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ULL;
constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

/// The little-endian 64-bit word at `p` (any alignment).
uint64_t LoadLe64(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

/// The little-endian 32-bit word at `p` (any alignment).
uint64_t LoadLe32(const uint8_t* p) {
  uint32_t word;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap32(word);
  }
  return word;
}

/// One lane step: folds the word `input` into `lane`.
uint64_t Round(uint64_t lane, uint64_t input) {
  lane += input * kPrime2;
  return std::rotl(lane, 31) * kPrime1;
}

/// Folds a finished lane into the converged digest `hash`.
uint64_t MergeLane(uint64_t hash, uint64_t lane) {
  hash ^= Round(0, lane);
  return hash * kPrime1 + kPrime4;
}

}  // namespace

uint64_t BulkHash64(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const uint8_t* const end = p + size;
  uint64_t hash;
  if (size >= 32) {
    uint64_t lane1 = kPrime1 + kPrime2;
    uint64_t lane2 = kPrime2;
    uint64_t lane3 = 0;
    uint64_t lane4 = 0 - kPrime1;
    for (const uint8_t* const last = end - 32; p <= last; p += 32) {
      lane1 = Round(lane1, LoadLe64(p));
      lane2 = Round(lane2, LoadLe64(p + 8));
      lane3 = Round(lane3, LoadLe64(p + 16));
      lane4 = Round(lane4, LoadLe64(p + 24));
    }
    hash = std::rotl(lane1, 1) + std::rotl(lane2, 7) +
           std::rotl(lane3, 12) + std::rotl(lane4, 18);
    hash = MergeLane(hash, lane1);
    hash = MergeLane(hash, lane2);
    hash = MergeLane(hash, lane3);
    hash = MergeLane(hash, lane4);
  } else {
    hash = kPrime5;
  }
  hash += static_cast<uint64_t>(size);
  // The tail: whole words, then one 4-byte half word, then single bytes.
  for (; end - p >= 8; p += 8) {
    hash ^= Round(0, LoadLe64(p));
    hash = std::rotl(hash, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    hash ^= LoadLe32(p) * kPrime1;
    hash = std::rotl(hash, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    hash ^= *p * kPrime5;
    hash = std::rotl(hash, 11) * kPrime1;
  }
  // Avalanche: every input bit reaches every output bit.
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

std::string EncodeFramed(uint32_t magic, uint32_t version,
                         std::string_view payload) {
  ByteWriter header;
  header.PutU32(magic);
  header.PutU32(version);
  header.PutU32(Crc32(payload));
  std::string frame = header.bytes();
  frame.append(payload.data(), payload.size());
  return frame;
}

Result<std::string_view> DecodeFramed(uint32_t magic, uint32_t max_version,
                                      std::string_view frame,
                                      uint32_t* version_out) {
  ByteReader header(frame.substr(0, std::min<size_t>(frame.size(), 12)));
  FEDSHAP_ASSIGN_OR_RETURN(uint32_t stored_magic, header.GetU32());
  if (stored_magic != magic) {
    return Status::InvalidArgument("bad magic: not the expected file kind");
  }
  FEDSHAP_ASSIGN_OR_RETURN(uint32_t version, header.GetU32());
  if (version > max_version) {
    return Status::FailedPrecondition(
        "file format version " + std::to_string(version) +
        " is newer than supported version " + std::to_string(max_version));
  }
  FEDSHAP_ASSIGN_OR_RETURN(uint32_t stored_crc, header.GetU32());
  std::string_view payload = frame.substr(12);
  if (Crc32(payload) != stored_crc) {
    return Status::InvalidArgument(
        "corrupted file: payload checksum mismatch");
  }
  if (version_out != nullptr) *version_out = version;
  return payload;
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  // Temp file in the same directory so the final rename stays within one
  // filesystem (rename(2) is atomic only then). The counter makes the name
  // unique per call: two threads writing one path must not share it.
  static std::atomic<uint64_t> next_temp{0};
  const std::string tmp_path =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(next_temp.fetch_add(1, std::memory_order_relaxed));
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("cannot open temp file " + tmp_path + ": " +
                            std::strerror(errno));
  }
  bool ok = contents.empty() ||
            std::fwrite(contents.data(), 1, contents.size(), file) ==
                contents.size();
  // Flush user-space buffers and reach the disk before the rename makes
  // the new contents visible under `path`.
  ok = (std::fflush(file) == 0) && ok;
  ok = (::fsync(::fileno(file)) == 0) && ok;
  ok = (std::fclose(file) == 0) && ok;
  if (!ok) {
    std::remove(tmp_path.c_str());
    return Status::Internal("write to temp file " + tmp_path + " failed: " +
                            std::strerror(errno));
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const std::string reason = std::strerror(errno);
    std::remove(tmp_path.c_str());
    return Status::Internal("rename " + tmp_path + " -> " + path +
                            " failed: " + reason);
  }
  return Status::OK();
}

TempFile ClassifyTempFile(std::string_view filename) {
  const size_t tag = filename.rfind(".tmp.");
  if (tag == std::string_view::npos || tag == 0) return TempFile::kNone;
  const char* end = filename.data() + filename.size();
  long long pid = -1;
  const auto [pid_end, pid_error] =
      std::from_chars(filename.data() + tag + 5, end, pid);
  if (pid_error != std::errc() || pid < 0 || pid_end == end ||
      *pid_end != '.') {
    return TempFile::kNone;
  }
  uint64_t counter = 0;
  const auto [counter_end, counter_error] =
      std::from_chars(pid_end + 1, end, counter);
  if (counter_error != std::errc() || counter_end != end) {
    return TempFile::kNone;
  }
  return pid == ::getpid() ? TempFile::kOwn : TempFile::kOrphaned;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::Internal("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  std::string contents;
  char buffer[1 << 16];
  size_t read;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, read);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    return Status::Internal("read of " + path + " failed");
  }
  return contents;
}

}  // namespace fedshap
