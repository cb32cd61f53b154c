#ifndef MESA_SNAPSHOT_CRC32C_H_
#define MESA_SNAPSHOT_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace mesa {
namespace snapshot {

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum guarding every snapshot section and the section table
/// itself (docs/snapshot_format.md).
///
/// `Crc32cExtend` picks its path once per process: on an x86-64 CPU with
/// SSE4.2 it runs the `crc32` instruction eight bytes per step; any other
/// CPU runs the slice-by-one table. Both paths return the same value for
/// the same bytes. `Crc32c(data, n)` is shorthand for
/// `Crc32cExtend(0, data, n)`; Extend lets callers checksum discontiguous
/// runs incrementally.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);
uint32_t Crc32c(const void* data, size_t n);

/// The two paths behind `Crc32cExtend`, same contract. The table path runs
/// on every CPU. The hardware path exists on x86-64 builds only and may be
/// called only when `Crc32cHardwareSupported()` is true.
uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t n);
bool Crc32cHardwareSupported();
#if defined(__x86_64__)
uint32_t Crc32cExtendHardware(uint32_t crc, const void* data, size_t n);
#endif

}  // namespace snapshot
}  // namespace mesa

#endif  // MESA_SNAPSHOT_CRC32C_H_
