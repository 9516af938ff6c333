#include "artifact/reader.h"

#include <bit>
#include <cstdlib>
#include <cstring>
#include <fstream>

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define CLOUDSURV_HAVE_MMAP 1
#endif

namespace cloudsurv::artifact {

namespace {

/// Heap-allocates a kSectionAlignment-aligned buffer so the buffered
/// fallback honours the same alignment guarantees mmap gives (file
/// offsets are 64-byte aligned; the base must be too).
unsigned char* AlignedAlloc(size_t size) {
  const size_t rounded =
      (size + kSectionAlignment - 1) / kSectionAlignment * kSectionAlignment;
  return static_cast<unsigned char*>(
      std::aligned_alloc(kSectionAlignment, rounded == 0 ? kSectionAlignment
                                                         : rounded));
}

}  // namespace

Result<std::shared_ptr<ArtifactBuffer>> ArtifactReader::ReadWholeFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::IOError("cannot open " + path);
  }
  const std::streamoff size = in.tellg();
  if (size < 0) {
    return Status::IOError("cannot stat " + path);
  }
  auto buffer = std::shared_ptr<ArtifactBuffer>(new ArtifactBuffer());
  buffer->size_ = static_cast<size_t>(size);
  buffer->data_ = AlignedAlloc(buffer->size_);
  if (buffer->data_ == nullptr) {
    return Status::Internal("cannot allocate " + std::to_string(size) +
                            " bytes for " + path);
  }
  in.seekg(0);
  in.read(reinterpret_cast<char*>(buffer->data_),
          static_cast<std::streamsize>(buffer->size_));
  if (!in && buffer->size_ > 0) {
    return Status::IOError("short read: " + path);
  }
  return buffer;
}

#ifdef CLOUDSURV_HAVE_MMAP
Result<std::shared_ptr<ArtifactBuffer>> ArtifactReader::MapFile(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::InvalidArgument(path + " is empty");
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  // The fd is not needed once the mapping exists.
  ::close(fd);
  if (base == MAP_FAILED) {
    return Status::IOError("mmap failed: " + path);
  }
  auto buffer = std::shared_ptr<ArtifactBuffer>(new ArtifactBuffer());
  buffer->data_ = static_cast<unsigned char*>(base);
  buffer->size_ = size;
  buffer->mapped_ = true;
  return buffer;
}
#endif

ArtifactBuffer::~ArtifactBuffer() {
  if (data_ == nullptr) return;
#ifdef CLOUDSURV_HAVE_MMAP
  if (mapped_) {
    ::munmap(data_, size_);
    return;
  }
#endif
  std::free(data_);
}

Result<ArtifactReader> ArtifactReader::Open(const std::string& path,
                                            const Options& options) {
  std::shared_ptr<ArtifactBuffer> buffer;
#ifdef CLOUDSURV_HAVE_MMAP
  if (options.prefer_mmap) {
    auto mapped = MapFile(path);
    if (mapped.ok()) {
      buffer = std::move(*mapped);
    } else if (mapped.status().code() == StatusCode::kInvalidArgument) {
      // Empty file: not a mapping problem, a malformed artifact.
      return mapped.status();
    }
  }
#endif
  if (buffer == nullptr) {
    CLOUDSURV_ASSIGN_OR_RETURN(buffer, ReadWholeFile(path));
  }
  auto reader = Validate(std::move(buffer), options);
  if (!reader.ok()) {
    return Status(reader.status().code(),
                  path + ": " + reader.status().message());
  }
  return reader;
}

Result<ArtifactReader> ArtifactReader::FromBuffer(std::string image,
                                                  const Options& options) {
  auto buffer = std::shared_ptr<ArtifactBuffer>(new ArtifactBuffer());
  buffer->size_ = image.size();
  buffer->data_ = AlignedAlloc(image.size());
  if (buffer->data_ == nullptr) {
    return Status::Internal("cannot allocate artifact buffer");
  }
  std::memcpy(buffer->data_, image.data(), image.size());
  return Validate(std::move(buffer), options);
}

Result<ArtifactReader> ArtifactReader::Validate(
    std::shared_ptr<ArtifactBuffer> buffer, const Options& options) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::NotImplemented(
        "CSRV artifacts are little-endian; this host is big-endian and "
        "the reader does not byte-swap");
  }
  const unsigned char* base = buffer->data();
  const size_t size = buffer->size();
  if (size < sizeof(FileHeader)) {
    return Status::InvalidArgument(
        "truncated artifact: " + std::to_string(size) +
        " bytes is smaller than the " +
        std::to_string(sizeof(FileHeader)) + "-byte header");
  }

  ArtifactReader reader;
  std::memcpy(&reader.header_, base, sizeof(FileHeader));
  const FileHeader& header = reader.header_;
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad magic: not a CSRV artifact");
  }
  if (header.format_version != kFormatVersion) {
    return Status::InvalidArgument(
        "unsupported CSRV format version " +
        std::to_string(header.format_version) + " (this reader supports " +
        std::to_string(kFormatVersion) + ")");
  }
  const uint32_t crc =
      Crc32c(base, offsetof(FileHeader, header_crc));
  if (crc != header.header_crc) {
    return Status::InvalidArgument("header CRC mismatch (corrupt header)");
  }
  if (header.file_size != size) {
    return Status::InvalidArgument(
        "file size mismatch: header says " +
        std::to_string(header.file_size) + " bytes, file has " +
        std::to_string(size) + " (truncated or appended-to)");
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(header.section_count) * sizeof(SectionEntry);
  if (header.table_offset > size || table_bytes > size - header.table_offset) {
    return Status::InvalidArgument("section table out of file bounds");
  }
  const uint32_t table_crc =
      Crc32c(base + header.table_offset, static_cast<size_t>(table_bytes));
  if (table_crc != header.table_crc) {
    return Status::InvalidArgument(
        "section table CRC mismatch (corrupt table)");
  }

  reader.sections_.resize(header.section_count);
  std::memcpy(reader.sections_.data(), base + header.table_offset,
              static_cast<size_t>(table_bytes));
  for (const SectionEntry& entry : reader.sections_) {
    const char* name = SectionIdName(static_cast<SectionId>(entry.id));
    const std::string label = std::string(name) + "[" +
                              std::to_string(entry.index) + "]";
    if (entry.offset > size || entry.size > size - entry.offset) {
      return Status::InvalidArgument("section " + label +
                                     " out of file bounds");
    }
    if (entry.alignment == 0 || entry.offset % entry.alignment != 0) {
      return Status::InvalidArgument("section " + label + " misaligned");
    }
    if (entry.elem_size == 0 ||
        entry.count != entry.size / entry.elem_size ||
        entry.size % entry.elem_size != 0) {
      return Status::InvalidArgument("section " + label +
                                     " has inconsistent element sizing");
    }
    if (options.verify_section_checksums) {
      const uint32_t payload_crc =
          Crc32c(base + entry.offset, static_cast<size_t>(entry.size));
      if (payload_crc != entry.crc) {
        return Status::InvalidArgument("section " + label +
                                       " CRC mismatch (corrupt payload)");
      }
    }
  }
  reader.buffer_ = std::move(buffer);
  return reader;
}

const SectionEntry* ArtifactReader::Find(SectionId id,
                                         uint32_t index) const {
  for (const SectionEntry& entry : sections_) {
    if (entry.id == static_cast<uint32_t>(id) && entry.index == index) {
      return &entry;
    }
  }
  return nullptr;
}

}  // namespace cloudsurv::artifact
