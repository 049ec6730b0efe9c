#ifndef APMBENCH_COMMON_CRC32_H_
#define APMBENCH_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace apmbench {

/// CRC-32C (Castagnoli) used to checksum log records, SSTable blocks, and
/// B+tree pages. The first call picks the implementation once: the SSE4.2
/// `crc32` instruction when the CPU has it, else Crc32cPortable. Both give
/// identical values, so checksums on disk and on the wire do not depend on
/// the machine that wrote them.
uint32_t Crc32c(const char* data, size_t n);

/// Extends `init_crc` (a previous Crc32c result) over `data[0, n)`.
uint32_t Crc32cExtend(uint32_t init_crc, const char* data, size_t n);

/// Byte-at-a-time table implementation of Crc32cExtend. It is the only path
/// on CPUs without SSE4.2 and on non-x86-64 builds, and the reference the
/// tests compare the hardware path against.
uint32_t Crc32cPortable(uint32_t init_crc, const char* data, size_t n);

/// Masked CRC as stored on disk. Storing raw CRCs of data that itself
/// embeds CRCs is error prone, so on-disk checksums are masked.
uint32_t MaskCrc(uint32_t crc);
uint32_t UnmaskCrc(uint32_t masked);

}  // namespace apmbench

#endif  // APMBENCH_COMMON_CRC32_H_
