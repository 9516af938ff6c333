#ifndef CLOUDSURV_ARTIFACT_WRITER_H_
#define CLOUDSURV_ARTIFACT_WRITER_H_

#include <string>
#include <vector>

#include "artifact/format.h"
#include "common/status.h"

namespace cloudsurv::artifact {

/// Assembles a CSRV container in memory and publishes it atomically.
///
/// Usage:
///   ArtifactWriter writer(PayloadKind::kFlatForest);
///   writer.AddArray(SectionId::kForestNodes, 0, nodes.data(), nodes.size());
///   ...
///   CLOUDSURV_RETURN_NOT_OK(writer.WriteFile("model.csrv"));
///
/// Sections keep their insertion order; offsets, alignment padding, and
/// all three checksum layers (header, table, per-section) are computed
/// in Finish(). WriteFile() writes to `<path>.tmp.<pid>`, flushes, and
/// renames over `path`, so a crash mid-write can never leave a torn
/// file where a reader (or ModelRegistry::PublishFromFile) looks.
class ArtifactWriter {
 public:
  explicit ArtifactWriter(PayloadKind payload) : payload_(payload) {}

  /// Appends `count` elements of `elem_size` bytes each. The bytes are
  /// copied into the writer (callers may free theirs immediately).
  void AddSection(SectionId id, uint32_t index, const void* data,
                  uint64_t count, uint32_t elem_size);

  /// Appends a typed array section.
  template <typename T>
  void AddArray(SectionId id, uint32_t index, const T* data, size_t count) {
    AddSection(id, index, data, count, static_cast<uint32_t>(sizeof(T)));
  }

  /// Appends a single fixed-size struct (ForestMeta, ModelEntry, ...).
  template <typename T>
  void AddStruct(SectionId id, uint32_t index, const T& value) {
    AddSection(id, index, &value, 1, static_cast<uint32_t>(sizeof(T)));
  }

  size_t num_sections() const { return sections_.size(); }

  /// Serializes the complete container image. Fails on a big-endian
  /// host (the format is defined little-endian and this implementation
  /// does not byte-swap) or an empty section list.
  Result<std::string> Finish() const;

  /// Finish() plus atomic tmp-file + rename publication to `path`.
  Status WriteFile(const std::string& path) const;

 private:
  struct Pending {
    SectionId id;
    uint32_t index;
    uint64_t count;
    uint32_t elem_size;
    std::string payload;
  };

  PayloadKind payload_;
  std::vector<Pending> sections_;
};

}  // namespace cloudsurv::artifact

#endif  // CLOUDSURV_ARTIFACT_WRITER_H_
