#ifndef CLOUDSURV_ARTIFACT_READER_H_
#define CLOUDSURV_ARTIFACT_READER_H_

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "artifact/format.h"
#include "common/status.h"

namespace cloudsurv::artifact {

/// The validated bytes behind an open artifact: either an mmap'ed
/// read-only file (the zero-copy production path — consumers serve
/// straight from the page cache) or a 64-byte-aligned heap buffer (the
/// portable buffered-read fallback, also used for in-memory images in
/// tests). Destroying the last reference unmaps / frees.
class ArtifactBuffer {
 public:
  ~ArtifactBuffer();
  ArtifactBuffer(const ArtifactBuffer&) = delete;
  ArtifactBuffer& operator=(const ArtifactBuffer&) = delete;

  const unsigned char* data() const { return data_; }
  size_t size() const { return size_; }
  /// True for an mmap'ed file, false for the heap fallback.
  bool mapped() const { return mapped_; }

 private:
  friend class ArtifactReader;
  ArtifactBuffer() = default;

  unsigned char* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
};

/// Validating random-access reader over one CSRV container.
///
/// Open() maps (or reads) the file and verifies the full integrity
/// chain before returning: magic, format version, exact file size,
/// header CRC, section-table bounds + CRC, and — unless disabled —
/// every section payload CRC. A reader that opened successfully hands
/// out pointers directly into the backing bytes; nothing is copied.
///
/// The reader is cheaply copyable (shared backing). Consumers that
/// retain section pointers beyond the reader's lifetime must retain
/// backing() alongside them — ml::FlatForest::FromView does exactly
/// that, which is what keeps an mmap'ed model image alive for as long
/// as any published snapshot still references it.
class ArtifactReader {
 public:
  struct Options {
    /// Try mmap first; fall back to a buffered read when mapping is
    /// unavailable (non-POSIX build, exotic filesystem). Set to false
    /// to force the portable path.
    bool prefer_mmap = true;
    /// Verify every section payload CRC at open time. Leave on:
    /// corruption is then rejected before a model can be built, at the
    /// cost of touching each page once (a sequential read-ahead, not a
    /// copy).
    bool verify_section_checksums = true;
  };

  /// Opens and validates `path`.
  static Result<ArtifactReader> Open(const std::string& path,
                                     const Options& options);
  static Result<ArtifactReader> Open(const std::string& path) {
    return Open(path, Options());
  }

  /// Validates an in-memory image (always the buffered path).
  static Result<ArtifactReader> FromBuffer(std::string image,
                                           const Options& options);
  static Result<ArtifactReader> FromBuffer(std::string image) {
    return FromBuffer(std::move(image), Options());
  }

  uint32_t format_version() const { return header_.format_version; }
  PayloadKind payload() const {
    return static_cast<PayloadKind>(header_.payload);
  }
  size_t file_size() const { return buffer_->size(); }
  /// True when the backing bytes are an mmap'ed file (zero-copy path).
  bool mapped() const { return buffer_->mapped(); }

  /// All sections in file order.
  const std::vector<SectionEntry>& sections() const { return sections_; }

  /// Looks up the section (id, index); nullptr when absent.
  const SectionEntry* Find(SectionId id, uint32_t index) const;

  /// Typed in-place view of an array section. Checks presence, element
  /// size, and alignment; the returned pointers alias the backing
  /// bytes (keep backing() alive).
  template <typename T>
  Result<ArraySpan<T>> Array(SectionId id, uint32_t index) const {
    const SectionEntry* entry = Find(id, index);
    if (entry == nullptr) {
      return Status::NotFound(std::string("artifact section ") +
                              SectionIdName(id) + "[" +
                              std::to_string(index) + "] is missing");
    }
    if (entry->elem_size != sizeof(T)) {
      return Status::InvalidArgument(
          std::string("artifact section ") + SectionIdName(id) +
          " has element size " + std::to_string(entry->elem_size) +
          ", expected " + std::to_string(sizeof(T)));
    }
    ArraySpan<T> span;
    span.data = reinterpret_cast<const T*>(buffer_->data() + entry->offset);
    span.size = static_cast<size_t>(entry->count);
    return span;
  }

  /// Copies a single fixed-size struct section out of the file. Struct
  /// sections are one cache line; copying them costs nothing and keeps
  /// the POD usable after the reader goes away.
  template <typename T>
  Result<T> Struct(SectionId id, uint32_t index) const {
    CLOUDSURV_ASSIGN_OR_RETURN(ArraySpan<T> span, Array<T>(id, index));
    if (span.size != 1) {
      return Status::InvalidArgument(
          std::string("artifact section ") + SectionIdName(id) +
          " holds " + std::to_string(span.size) + " structs, expected 1");
    }
    T out;
    std::memcpy(&out, span.data, sizeof(T));
    return out;
  }

  /// Raw payload bytes of `entry` (aliasing the backing buffer).
  const unsigned char* SectionBytes(const SectionEntry& entry) const {
    return buffer_->data() + entry.offset;
  }

  /// Shared ownership of the backing bytes; consumers keeping views
  /// into the file hold this to pin the mapping.
  std::shared_ptr<const ArtifactBuffer> backing() const { return buffer_; }

 private:
  ArtifactReader() = default;

  static Result<std::shared_ptr<ArtifactBuffer>> ReadWholeFile(
      const std::string& path);
  static Result<std::shared_ptr<ArtifactBuffer>> MapFile(
      const std::string& path);
  static Result<ArtifactReader> Validate(
      std::shared_ptr<ArtifactBuffer> buffer, const Options& options);

  FileHeader header_{};
  std::vector<SectionEntry> sections_;
  std::shared_ptr<ArtifactBuffer> buffer_;
};

}  // namespace cloudsurv::artifact

#endif  // CLOUDSURV_ARTIFACT_READER_H_
