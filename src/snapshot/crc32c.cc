#include "snapshot/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace mesa {
namespace snapshot {
namespace {

/// 256-entry lookup table for the reflected Castagnoli polynomial,
/// generated once at first use (thread-safe via static-local init).
struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
      }
      entries[i] = crc;
    }
  }
};

}  // namespace

uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t n) {
  static const Crc32cTable table;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = table.entries[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)

bool Crc32cHardwareSupported() { return __builtin_cpu_supports("sse4.2"); }

// The SSE4.2 `crc32` instruction computes exactly the reflected Castagnoli
// step the table performs, one byte or one little-endian word at a time.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendHardware(
    uint32_t crc, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t state = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    state = _mm_crc32_u64(state, word);
  }
  uint32_t tail = static_cast<uint32_t>(state);
  for (; n > 0; --n, ++p) tail = _mm_crc32_u8(tail, *p);
  return ~tail;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  static const bool hardware = Crc32cHardwareSupported();
  return hardware ? Crc32cExtendHardware(crc, data, n)
                  : Crc32cExtendTable(crc, data, n);
}

#else

bool Crc32cHardwareSupported() { return false; }

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  return Crc32cExtendTable(crc, data, n);
}

#endif

uint32_t Crc32c(const void* data, size_t n) { return Crc32cExtend(0, data, n); }

}  // namespace snapshot
}  // namespace mesa
