// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) for corruption
// detection in every XIA byte format: net frames, WAL records, snapshot
// sections, catalog files and workload files. Every request and reply
// frame is checksummed twice (encode and decode), so this sits on the
// serving path of each query. Software slice-by-8 (eight 1 KiB tables,
// eight input bytes per step), dependency-free and bit-exact across
// platforms, so the persisted checksums are portable between machines.
// The polynomial is not CRC32C, so the SSE4.2 crc32 instruction does not
// apply.

#ifndef XIA_UTIL_CRC32_H_
#define XIA_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace xia {

/// CRC-32 of `data`, with the conventional init/final XOR (so
/// Crc32("123456789") == 0xCBF43926 and Crc32("") == 0).
uint32_t Crc32(const void* data, size_t size);
uint32_t Crc32(std::string_view data);

/// Incremental form: feed `crc` the running value (start with 0).
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

}  // namespace xia

#endif  // XIA_UTIL_CRC32_H_
