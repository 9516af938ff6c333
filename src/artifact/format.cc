#include "artifact/format.h"

#include <array>

namespace cloudsurv::artifact {

namespace {

/// 8-table slicing CRC32C lookup, built once on first use.
struct Crc32cTables {
  uint32_t t[8][256];

  Crc32cTables() {
    constexpr uint32_t kPoly = 0x82f63b78u;  // Castagnoli, reflected.
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int s = 1; s < 8; ++s) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xffu];
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
  const auto& tb = Tables();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  while (size >= 8) {
    // Process 8 bytes per step through the sliced tables.
    crc ^= static_cast<uint32_t>(p[0]) |
           (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = tb.t[7][crc & 0xffu] ^ tb.t[6][(crc >> 8) & 0xffu] ^
          tb.t[5][(crc >> 16) & 0xffu] ^ tb.t[4][crc >> 24] ^
          tb.t[3][p[4]] ^ tb.t[2][p[5]] ^ tb.t[1][p[6]] ^ tb.t[0][p[7]];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xffu];
  }
  return ~crc;
}

const char* SectionIdName(SectionId id) {
  switch (id) {
    case SectionId::kForestMeta: return "forest_meta";
    case SectionId::kForestNodes: return "forest_nodes";
    case SectionId::kForestTrees: return "forest_trees";
    case SectionId::kServiceMeta: return "service_meta";
    case SectionId::kModelEntry: return "model_entry";
  }
  return "unknown";
}

}  // namespace cloudsurv::artifact
