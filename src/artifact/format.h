#ifndef CLOUDSURV_ARTIFACT_FORMAT_H_
#define CLOUDSURV_ARTIFACT_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace cloudsurv::artifact {

/// The CSRV binary model-artifact container.
///
/// A `.csrv` file is the one persisted form of a trained model: the
/// `cloudsurv train -> serve` split stores compiled `ml::FlatForest`
/// node and tree arrays (plus the service thresholds and feature configuration)
/// in a layout a reader can `mmap` and serve from directly — every
/// array section is 64-byte aligned relative to the file start, so
/// after validation the arrays are used in place with zero per-array
/// copies.
///
/// File layout (all integers little-endian):
///
///   [FileHeader: 64 bytes]
///   [section 0 payload]        <- offset aligned to kSectionAlignment
///   [section 1 payload]
///   ...
///   [section table: section_count x SectionEntry]
///
/// Integrity: the header, the section table, and every section payload
/// carry independent CRC32C checksums; `file_size` in the header pins
/// the exact byte length so truncation is detected before any pointer
/// is formed. Readers reject wrong magic, unknown format versions, a
/// mismatched file size, out-of-range or misaligned sections, and any
/// checksum failure with a precise Status message.
///
/// Versioning policy (docs/artifacts.md): `format_version` is bumped on
/// any incompatible layout change; readers accept exactly the versions
/// they know. Adding new section ids is compatible (readers ignore
/// unknown ids); changing the meaning or encoding of an existing id is
/// not.

/// "CSRV" as the first four file bytes.
inline constexpr char kMagic[4] = {'C', 'S', 'R', 'V'};

/// Current (and only) container format version. Version 1 stored the
/// forest as struct-of-arrays columns plus a multi-class leaf matrix;
/// readers reject it with a message naming the version.
inline constexpr uint32_t kFormatVersion = 2;

/// Every section payload starts at a multiple of this from the file
/// start. Matches a cache line; mmap bases are page-aligned, so
/// in-file alignment carries over to virtual addresses.
inline constexpr uint32_t kSectionAlignment = 64;

/// What the container holds as a whole.
enum class PayloadKind : uint32_t {
  kFlatForest = 1,  ///< One compiled forest (sections with index 0).
  kService = 2,     ///< Full LongevityService snapshot (multi-slot).
};

/// Section identifiers. `SectionEntry::index` distinguishes multiple
/// sections of the same id (the model slot in a service payload).
enum class SectionId : uint32_t {
  // --- compiled ml::FlatForest (one set per model slot) -------------
  kForestMeta = 1,   ///< One ForestMeta struct.
  kForestNodes = 2,  ///< ForestNode[nodes], every tree back to back.
  kForestTrees = 3,  ///< ForestTree[trees]: each tree's root and depth.
  // --- LongevityService snapshot ------------------------------------
  kServiceMeta = 32,  ///< One ServiceMeta struct (index 0).
  kModelEntry = 33,   ///< One ModelEntry per slot (index = slot).
};

/// Stable display name ("node_feature", "service_meta", ...) for
/// `cloudsurv inspect`; "unknown" for ids this build does not know.
const char* SectionIdName(SectionId id);

/// Fixed 64-byte file header at offset 0.
struct FileHeader {
  char magic[4];            ///< kMagic.
  uint32_t format_version;  ///< kFormatVersion.
  uint32_t payload;         ///< PayloadKind.
  uint32_t section_count;   ///< Entries in the section table.
  uint64_t file_size;       ///< Exact total file bytes.
  uint64_t table_offset;    ///< Byte offset of the section table.
  uint32_t table_crc;       ///< CRC32C of the raw section table bytes.
  uint32_t header_crc;      ///< CRC32C of the header up to this field.
  uint8_t reserved[24];     ///< Zero; pads the header to 64 bytes.
};
static_assert(sizeof(FileHeader) == 64, "header must stay 64 bytes");

/// One section-table row.
struct SectionEntry {
  uint32_t id;         ///< SectionId.
  uint32_t index;      ///< Slot ordinal among same-id sections.
  uint64_t offset;     ///< Payload offset from file start.
  uint64_t size;       ///< Payload bytes.
  uint64_t count;      ///< Element count (1 for POD structs).
  uint32_t elem_size;  ///< Bytes per element; size == count * elem_size.
  uint32_t alignment;  ///< Required payload alignment (kSectionAlignment).
  uint32_t crc;        ///< CRC32C of the payload bytes.
  uint32_t reserved;   ///< Zero.
};
static_assert(sizeof(SectionEntry) == 48, "entry must stay 48 bytes");

/// Fixed-size metadata for one compiled forest (SectionId::kForestMeta).
struct ForestMeta {
  uint64_t num_features;  ///< Row width; also the leaf marker feature.
  uint8_t reserved[56];   ///< Zero.
};
static_assert(sizeof(ForestMeta) == 64, "forest meta must stay 64 bytes");

/// One node of a compiled binary forest (SectionId::kForestNodes).
/// A split keeps its threshold in `value`, reads `feature` (below
/// num_features) and sends `x <= value` to `left`, anything else
/// (NaN included) to `left + 1`. A leaf keeps its P(long) in `value`,
/// sets `feature` to num_features — a row column the walk fills with
/// -inf — and `left` to its own index, so it loops on itself.
struct ForestNode {
  double value;
  int32_t feature;
  int32_t left;  ///< Absolute node index.
};
static_assert(sizeof(ForestNode) == 16, "forest node must stay 16 bytes");

/// One tree of a compiled forest (SectionId::kForestTrees). The tree
/// spans nodes [root, next tree's root), the last one up to the end of
/// the node section; `depth` is the longest root-to-leaf path, the
/// exact number of steps a walk takes.
struct ForestTree {
  int32_t root;
  int32_t depth;
};
static_assert(sizeof(ForestTree) == 8, "forest tree must stay 8 bytes");

/// Fixed-size metadata for a service snapshot (SectionId::kServiceMeta).
///
/// The features::FeatureConfig the forests were trained on is stored as
/// its difference from the default config, so the all-zero bytes of
/// files written before it was stored decode to the default:
/// `feature_flags` bit i flips the i-th `include_*` switch in
/// declaration order (creation_time, names, size, slo,
/// subscription_type, subscription_history, name_ngrams; higher bits
/// are rejected), and `ngram_buckets_delta` is added to the default
/// `name_ngram_buckets`.
struct ServiceMeta {
  double observe_days;
  double long_threshold_days;
  uint32_t num_models;   ///< Count of kModelEntry sections.
  uint32_t feature_flags;
  int32_t ngram_buckets_delta;
  uint8_t reserved[36];  ///< Zero.
};
static_assert(sizeof(ServiceMeta) == 64, "service meta must stay 64 bytes");

/// Longest model name storable in a ModelEntry (bytes, excluding NUL).
inline constexpr size_t kMaxModelNameLen = 40;

/// One model slot of a service snapshot (SectionId::kModelEntry).
/// `slot` 0 is the pooled fallback model; slot 1 + e is the dedicated
/// model for edition e.
struct ModelEntry {
  uint32_t slot;
  uint32_t name_len;              ///< Bytes of `name` in use.
  double threshold;               ///< Confidence threshold max(q, 1-q).
  char name[kMaxModelNameLen];    ///< NUL-padded model name.
  uint8_t reserved[8];            ///< Zero.
};
static_assert(sizeof(ModelEntry) == 64, "model entry must stay 64 bytes");

/// A typed, non-owning view of one array section inside a validated
/// artifact. Lifetime is bounded by the reader's backing buffer.
template <typename T>
struct ArraySpan {
  const T* data = nullptr;
  size_t size = 0;
  bool empty() const { return size == 0; }
};

/// CRC32C (Castagnoli) of `size` bytes, seeded with `seed` so chunks
/// can be chained. Software table implementation — artifact files are
/// model-sized (kilobytes to a few hundred MB), not a hot path.
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);

}  // namespace cloudsurv::artifact

#endif  // CLOUDSURV_ARTIFACT_FORMAT_H_
