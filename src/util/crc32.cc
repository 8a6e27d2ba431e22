#include "util/crc32.h"

#include <array>

namespace xia {

namespace {

// Slice-by-8 tables for the reflected IEEE polynomial 0xEDB88320.
// kTables[0] is the classic byte-at-a-time table; kTables[k][b] is the CRC
// of byte b followed by k zero bytes, so eight table lookups advance the
// CRC over eight input bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

/// Four bytes at `p` as a little-endian word, whatever the host order or
/// the alignment of `p` (compilers fold this into one load on x86).
inline uint32_t LoadLE32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = LoadLE32(p) ^ crc;
    const uint32_t hi = LoadLE32(p + 4);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = kTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Update(0, data, size);
}

uint32_t Crc32(std::string_view data) {
  return Crc32Update(0, data.data(), data.size());
}

}  // namespace xia
