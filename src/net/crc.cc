#include "src/net/crc.h"

#include <array>
#include <cstddef>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "src/base/check.h"
#include "src/net/byte_order.h"

namespace tcplat {
namespace {

// The sliced kernels: eight tables, where table k maps one byte to its
// contribution after 8 * (k + 1) further bit shifts, so one step folds eight
// input bytes with eight independent lookups instead of a serial chain of
// eight. Bytes past the last multiple of eight go through table 0 one at a
// time.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

// CRC-10 generator x^10 + x^9 + x^5 + x^4 + x + 1; as a 10-bit mask (the
// implicit x^10 term dropped): bits 9, 5, 4, 1, 0 -> 0x233.
constexpr uint16_t kCrc10Poly = 0x233;

// The sliced CRC-10 register is kept left-aligned in a 32-bit word
// (register bit 9 at word bit 31). Reducing modulo g(x) * x^22 then works a
// whole big-endian word at a time, and the low 22 bits stay zero throughout.
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

// Runs the sliced CRC-10 over `n` bytes from the left-aligned register `crc`.
uint32_t Crc10SliceUpdate(uint32_t crc, const uint8_t* p, size_t n) {
  static const SliceTables t = MakeCrc10Tables();
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t hi = crc ^ LoadBe32(p);
    const uint32_t lo = LoadBe32(p + 4);
    crc = t[7][hi >> 24] ^ t[6][(hi >> 16) & 0xFF] ^ t[5][(hi >> 8) & 0xFF] ^ t[4][hi & 0xFF] ^
          t[3][lo >> 24] ^ t[2][(lo >> 16) & 0xFF] ^ t[1][(lo >> 8) & 0xFF] ^ t[0][lo & 0xFF];
  }
  for (; n > 0; --n, ++p) {
    crc = (crc << 8) ^ t[0][(crc >> 24) ^ *p];
  }
  return crc;
}

// Runs the sliced CRC-32 over `n` bytes from the (uncomplemented) register
// `crc`.
uint32_t Crc32SliceUpdate(uint32_t crc, const uint8_t* p, size_t n) {
  static const SliceTables t = MakeCrc32Tables();
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
  }
  return crc;
}

#if defined(__x86_64__)

// --- Carry-less multiply (PCLMULQDQ) kernels ---
//
// A CRC is a remainder modulo the generator g(x), so the message can be cut
// into words, each word multiplied by x^(its distance from the end) mod g(x)
// with one carry-less product, and the products XORed: every product is
// independent of the others, unlike the table lookups' serial register.

// CRC-10 with the x^10 term: bits 10, 9, 5, 4, 1, 0.
constexpr uint64_t kCrc10Generator = 0x400 | kCrc10Poly;

// x^n mod g(x), a polynomial of degree < 10.
constexpr uint64_t Crc10XPowMod(int n) {
  uint64_t r = 1;
  for (int i = 0; i < n; ++i) {
    r <<= 1;
    if (r & 0x400) {
      r ^= kCrc10Generator;
    }
  }
  return r;
}

// floor(x^73 / g(x)), degree 63: the Barrett constant for remainders of
// degree <= 72. Long division keeps an 11-bit window of the dividend.
constexpr uint64_t Crc10BarrettMu() {
  uint64_t window = 0x400;  // x^73 at the window's top bit
  uint64_t quotient = 0;
  for (int bit = 63; bit >= 0; --bit) {
    if (window & 0x400) {
      window ^= kCrc10Generator;
      quotient |= uint64_t{1} << bit;
    }
    window = (window << 1) & 0x7FF;
  }
  return quotient;
}

// The CRC-10 kernel folds 48 bytes (six big-endian 64-bit words) at a time.
// Word k of a block (k = 0 first) stands for W_k(x) * x^(64 * (5 - k)) of
// the message polynomial, so the block's CRC, M(x) * x^10 mod g(x), is the
// sum of W_k(x) * kCrc10Fold[5 - k]. Each product has degree <= 72; one
// Barrett reduction brings their sum below degree 10.
constexpr size_t kCrc10BlockBytes = 48;

// kCrc10Fold[j] = x^(64 * j + 10) mod g(x).
constexpr std::array<uint64_t, 6> kCrc10Fold = {
    Crc10XPowMod(10),          Crc10XPowMod(64 + 10),     Crc10XPowMod(2 * 64 + 10),
    Crc10XPowMod(3 * 64 + 10), Crc10XPowMod(4 * 64 + 10), Crc10XPowMod(5 * 64 + 10)};
constexpr uint64_t kCrc10Mu = Crc10BarrettMu();

__m128i Pair(uint64_t lane1, uint64_t lane0) {
  return _mm_set_epi64x(static_cast<long long>(lane1), static_cast<long long>(lane0));
}

__m128i LoadU128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Two big-endian 64-bit words, the first in lane 0, each with its first
// byte in the top bits as the CRC reads it.
__attribute__((target("ssse3"))) inline __m128i LoadBe64Pair(const uint8_t* p) {
  const __m128i reverse_lanes = _mm_set_epi8(8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7);
  return _mm_shuffle_epi8(LoadU128(p), reverse_lanes);
}

// lane0(a) * lane0(k) + lane1(a) * lane1(k), carry-less.
__attribute__((target("pclmul"))) inline __m128i ClmulLanes(__m128i a, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00), _mm_clmulepi64_si128(a, k, 0x11));
}

__attribute__((target("pclmul,ssse3"))) uint16_t Crc10Clmul(const uint8_t* p, size_t n) {
  const __m128i k01 = Pair(kCrc10Fold[4], kCrc10Fold[5]);
  const __m128i k23 = Pair(kCrc10Fold[2], kCrc10Fold[3]);
  const __m128i k45 = Pair(kCrc10Fold[0], kCrc10Fold[1]);
  const __m128i mu = _mm_cvtsi64_si128(static_cast<long long>(kCrc10Mu));
  const __m128i generator = _mm_cvtsi64_si128(static_cast<long long>(kCrc10Generator));
  uint64_t crc = 0;
  for (; n >= kCrc10BlockBytes; n -= kCrc10BlockBytes, p += kCrc10BlockBytes) {
    // The previous block's CRC enters as the top 10 bits of this block.
    const __m128i w01 =
        _mm_xor_si128(LoadBe64Pair(p), _mm_cvtsi64_si128(static_cast<long long>(crc << 54)));
    const __m128i r = _mm_xor_si128(
        _mm_xor_si128(ClmulLanes(w01, k01), ClmulLanes(LoadBe64Pair(p + 16), k23)),
        ClmulLanes(LoadBe64Pair(p + 32), k45));
    // Barrett: q = floor(floor(r / x^10) * mu / x^63), and r mod g = r - q * g.
    const __m128i a =
        _mm_or_si128(_mm_srli_epi64(r, 10), _mm_slli_epi64(_mm_srli_si128(r, 8), 54));
    const __m128i t = _mm_clmulepi64_si128(a, mu, 0x00);
    const __m128i q = _mm_or_si128(_mm_srli_epi64(t, 63), _mm_slli_epi64(_mm_srli_si128(t, 8), 1));
    const __m128i rem = _mm_xor_si128(r, _mm_clmulepi64_si128(q, generator, 0x00));
    crc = static_cast<uint64_t>(_mm_cvtsi128_si64(rem)) & 0x3FF;
  }
  if (n == 0) {
    return static_cast<uint16_t>(crc);
  }
  const uint32_t aligned = static_cast<uint32_t>(crc) << kCrc10Shift;
  return static_cast<uint16_t>(Crc10SliceUpdate(aligned, p, n) >> kCrc10Shift);
}

// The CRC-32 kernel folds 16 bytes at a time with the reflected constants
// of Intel's "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ"
// (also the Linux crc32-pclmul routine). Each is
// reflect32(x^n mod P(x)) << 1 for the n named beside it.
constexpr uint64_t kCrc32K1 = 0x154442BD4;  // x^(4 * 128 + 32): fold by 64 bytes
constexpr uint64_t kCrc32K2 = 0x1C6E41596;  // x^(4 * 128 - 32)
constexpr uint64_t kCrc32K3 = 0x1751997D0;  // x^(128 + 32): fold by 16 bytes
constexpr uint64_t kCrc32K4 = 0x0CCAA009E;  // x^(128 - 32)
constexpr uint64_t kCrc32K5 = 0x163CD6124;  // x^64: 64 -> 32 bits
constexpr uint64_t kCrc32Poly33 = 0x1DB710641;  // P(x), reflected, 33 bits
constexpr uint64_t kCrc32Mu = 0x1F7011641;      // floor(x^64 / P(x)), reflected

// `acc` moved forward by the distance the fold constants `k` span, plus
// the 16 bytes found there.
__attribute__((target("pclmul"))) inline __m128i Crc32Fold(__m128i acc, __m128i k,
                                                            __m128i next) {
  return _mm_xor_si128(ClmulLanes(acc, k), next);
}

__attribute__((target("pclmul"))) uint32_t Crc32Clmul(const uint8_t* p, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  if (n >= 16) {
    const __m128i k1k2 = Pair(kCrc32K2, kCrc32K1);
    const __m128i k3k4 = Pair(kCrc32K4, kCrc32K3);
    __m128i x0 = _mm_xor_si128(LoadU128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
    p += 16;
    n -= 16;
    if (n >= 48) {
      // Four independent 16-byte lanes, each folded 64 bytes forward.
      __m128i x1 = LoadU128(p);
      __m128i x2 = LoadU128(p + 16);
      __m128i x3 = LoadU128(p + 32);
      p += 48;
      n -= 48;
      for (; n >= 64; n -= 64, p += 64) {
        x0 = Crc32Fold(x0, k1k2, LoadU128(p));
        x1 = Crc32Fold(x1, k1k2, LoadU128(p + 16));
        x2 = Crc32Fold(x2, k1k2, LoadU128(p + 32));
        x3 = Crc32Fold(x3, k1k2, LoadU128(p + 48));
      }
      x0 = Crc32Fold(x0, k3k4, x1);
      x0 = Crc32Fold(x0, k3k4, x2);
      x0 = Crc32Fold(x0, k3k4, x3);
    }
    for (; n >= 16; n -= 16, p += 16) {
      x0 = Crc32Fold(x0, k3k4, LoadU128(p));
    }
    // 128 -> 64 bits (appending the CRC's 32 zero bits), then 64 -> 32.
    const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k3k4, 0x10));
    const __m128i k5 = _mm_cvtsi64_si128(static_cast<long long>(kCrc32K5));
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k5, 0x00));
    // Barrett reduction of the remaining 64 bits to the 32-bit register.
    const __m128i poly_mu = Pair(kCrc32Mu, kCrc32Poly33);
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly_mu, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
    crc = static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x0, t), 4)));
  }
  return Crc32SliceUpdate(crc, p, n) ^ 0xFFFFFFFFu;
}

bool CpuHasClmul() {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 && (ecx & bit_PCLMUL) != 0 &&
         (ecx & bit_SSSE3) != 0;
}

#endif  // defined(__x86_64__)

}  // namespace

bool HasCarrylessMultiply() {
#if defined(__x86_64__)
  static const bool has = CpuHasClmul();
  return has;
#else
  return false;
#endif
}

uint16_t Crc10(std::span<const uint8_t> data) {
  return HasCarrylessMultiply() ? Crc10Carryless(data) : Crc10Sliced(data);
}

uint16_t Crc10Sliced(std::span<const uint8_t> data) {
  return static_cast<uint16_t>(Crc10SliceUpdate(0, data.data(), data.size()) >> kCrc10Shift);
}

uint16_t Crc10Carryless(std::span<const uint8_t> data) {
#if defined(__x86_64__)
  return Crc10Clmul(data.data(), data.size());
#else
  CheckFailed(__FILE__, __LINE__, "HasCarrylessMultiply()", "no carry-less CRC-10 kernel");
#endif
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
  return HasCarrylessMultiply() ? Crc32Carryless(data) : Crc32Sliced(data);
}

uint32_t Crc32Sliced(std::span<const uint8_t> data) {
  return Crc32SliceUpdate(0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

uint32_t Crc32Carryless(std::span<const uint8_t> data) {
#if defined(__x86_64__)
  return Crc32Clmul(data.data(), data.size());
#else
  CheckFailed(__FILE__, __LINE__, "HasCarrylessMultiply()", "no carry-less CRC-32 kernel");
#endif
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
