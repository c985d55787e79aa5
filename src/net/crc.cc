#include "src/net/crc.h"

#include <array>
#include <cstddef>

#include "src/net/byte_order.h"

namespace tcplat {
namespace {

// Both CRCs run slice-by-8: eight tables, where table k maps one byte to its
// contribution after 8 * (k + 1) further bit shifts, so one step folds eight
// input bytes with eight independent lookups instead of a serial chain of
// eight. Bytes past the last multiple of eight go through table 0 one at a
// time.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

// CRC-10 generator x^10 + x^9 + x^5 + x^4 + x + 1; as a 10-bit mask (the
// implicit x^10 term dropped): bits 9, 5, 4, 1, 0 -> 0x233.
constexpr uint16_t kCrc10Poly = 0x233;

// The CRC-10 register is kept left-aligned in a 32-bit word (register bit 9
// at word bit 31). Reducing modulo g(x) * x^22 then works a whole
// big-endian word at a time, and the low 22 bits stay zero throughout.
constexpr int kCrc10Shift = 32 - 10;
constexpr uint32_t kCrc10PolyAligned = uint32_t{kCrc10Poly} << kCrc10Shift;

SliceTables MakeCrc10Tables() {
  SliceTables t{};
  for (uint32_t byte = 0; byte < 256; ++byte) {
    uint32_t crc = byte << 24;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x80000000u) ? (crc << 1) ^ kCrc10PolyAligned : crc << 1;
    }
    t[0][byte] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t byte = 0; byte < 256; ++byte) {
      const uint32_t prev = t[k - 1][byte];
      t[k][byte] = (prev << 8) ^ t[0][prev >> 24];
    }
  }
  return t;
}

// Reflected IEEE 802.3 polynomial.
constexpr uint32_t kCrc32Poly = 0xEDB88320u;

SliceTables MakeCrc32Tables() {
  SliceTables t{};
  for (uint32_t byte = 0; byte < 256; ++byte) {
    uint32_t crc = byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kCrc32Poly : crc >> 1;
    }
    t[0][byte] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t byte = 0; byte < 256; ++byte) {
      const uint32_t prev = t[k - 1][byte];
      t[k][byte] = (prev >> 8) ^ t[0][prev & 0xFF];
    }
  }
  return t;
}

constexpr uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint16_t Crc10(std::span<const uint8_t> data) {
  static const SliceTables t = MakeCrc10Tables();
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint32_t crc = 0;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t hi = crc ^ LoadBe32(p);
    const uint32_t lo = LoadBe32(p + 4);
    crc = t[7][hi >> 24] ^ t[6][(hi >> 16) & 0xFF] ^ t[5][(hi >> 8) & 0xFF] ^ t[4][hi & 0xFF] ^
          t[3][lo >> 24] ^ t[2][(lo >> 16) & 0xFF] ^ t[1][(lo >> 8) & 0xFF] ^ t[0][lo & 0xFF];
  }
  for (; n > 0; --n, ++p) {
    crc = (crc << 8) ^ t[0][(crc >> 24) ^ *p];
  }
  return static_cast<uint16_t>(crc >> kCrc10Shift);
}

uint16_t Crc10Reference(std::span<const uint8_t> data) {
  // Bit-serial: shift each message bit (MSB first) into a 10-bit register.
  uint16_t crc = 0;
  for (uint8_t byte : data) {
    for (int bit = 7; bit >= 0; --bit) {
      const uint16_t in = static_cast<uint16_t>((byte >> bit) & 1);
      const uint16_t top = static_cast<uint16_t>((crc >> 9) & 1);
      crc = static_cast<uint16_t>((crc << 1) & 0x3FF);
      if (top ^ in) {
        crc = static_cast<uint16_t>(crc ^ kCrc10Poly);
      }
    }
  }
  return crc;
}

uint32_t Crc32(std::span<const uint8_t> data) {
  static const SliceTables t = MakeCrc32Tables();
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32Reference(std::span<const uint8_t> data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kCrc32Poly : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace tcplat
