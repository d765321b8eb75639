#ifndef FEDSHAP_UTIL_MAPPED_FILE_H_
#define FEDSHAP_UTIL_MAPPED_FILE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace fedshap {

/// \file
/// Read-only memory-mapped file access.
///
/// The segmented UtilityStore serves lookups straight from the page
/// cache: sealed segments are mapped, not read, so opening a
/// multi-gigabyte store touches only the pages a lookup actually needs.
/// The mapped pages are clean file pages, so the kernel reclaims cold
/// ones under memory pressure and a store larger than RAM needs no
/// eviction of its own.

/// A read-only file mapped into the address space.
///
/// The mapping is immutable and lives until the object is destroyed;
/// views returned by `view()` must not outlive it. On platforms without
/// mmap the class transparently falls back to reading the file into
/// heap memory (correct, but without the paging benefits).
class MappedFile {
 public:
  /// Maps `path` read-only. NotFound when the file does not exist;
  /// an empty file maps successfully with `size() == 0`.
  static Result<std::unique_ptr<MappedFile>> Open(const std::string& path);

  /// Unmaps (or frees the fallback buffer).
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// First mapped byte (nullptr when `size() == 0`).
  const char* data() const { return data_; }
  /// Mapped length in bytes.
  size_t size() const { return size_; }
  /// The whole mapping as a string_view (aliases the mapping).
  std::string_view view() const { return std::string_view(data_, size_); }
  /// The mapped file's path.
  const std::string& path() const { return path_; }

 private:
  MappedFile(std::string path, const char* data, size_t size, bool mmapped)
      : path_(std::move(path)), data_(data), size_(size),
        mmapped_(mmapped) {}

  const std::string path_;
  const char* data_ = nullptr;
  size_t size_ = 0;
  /// True when `data_` is an mmap'd region; false for the heap fallback.
  bool mmapped_ = false;
};

}  // namespace fedshap

#endif  // FEDSHAP_UTIL_MAPPED_FILE_H_
