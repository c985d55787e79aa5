#include "src/net/checksum.h"

#include <bit>
#include <cstring>

#include "src/base/check.h"

namespace tcplat {
namespace {

// Folds a wide ones'-complement accumulator to 16 bits with end-around carry.
uint16_t Fold(uint64_t sum) {
  while (sum >> 16) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<uint16_t>(sum);
}

uint16_t Swap16(uint16_t v) { return static_cast<uint16_t>((v << 8) | (v >> 8)); }

// The ones'-complement sum of two 64-bit words: an add whose carry out of
// bit 63 wraps around into bit 0.
inline uint64_t AddEndAround(uint64_t a, uint64_t b) {
  const uint64_t sum = a + b;
  return sum + (sum < b);
}

// Loads a native-order word from a possibly unaligned pointer.
template <typename Word>
inline Word LoadNative(const uint8_t* p) {
  Word v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// The folded (uncomplemented) ones'-complement sum of `data` as big-endian
// 16-bit words, odd trailing byte padded with zero; 0 only for all-zero data.
//
// RFC 1071 §2(B): the sum is byte-order independent, so the loop adds
// 64-bit native-order words and byte-swaps the 16-bit result once at the
// end. Four end-around-carry chains keep the adds independent; since
// 2^64 - 1 is a multiple of 2^16 - 1, folding the 64-bit sum gives the
// 16-bit one.
uint16_t FastRawSum(std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  uint64_t d = 0;
  for (; n >= 32; n -= 32, p += 32) {
    a = AddEndAround(a, LoadNative<uint64_t>(p));
    b = AddEndAround(b, LoadNative<uint64_t>(p + 8));
    c = AddEndAround(c, LoadNative<uint64_t>(p + 16));
    d = AddEndAround(d, LoadNative<uint64_t>(p + 24));
  }
  if (n >= 16) {
    a = AddEndAround(a, LoadNative<uint64_t>(p));
    b = AddEndAround(b, LoadNative<uint64_t>(p + 8));
    p += 16;
    n -= 16;
  }
  if (n >= 8) {
    c = AddEndAround(c, LoadNative<uint64_t>(p));
    p += 8;
    n -= 8;
  }
  // Each piece starts at an even offset, so it still adds whole 16-bit
  // words; only the odd last byte needs its place in one.
  if (n >= 4) {
    d = AddEndAround(d, LoadNative<uint32_t>(p));
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    d = AddEndAround(d, LoadNative<uint16_t>(p));
    p += 2;
    n -= 2;
  }
  if (n == 1) {
    constexpr int kOddByteShift = std::endian::native == std::endian::little ? 0 : 8;
    d = AddEndAround(d, uint64_t{p[0]} << kOddByteShift);
  }
  const uint64_t sum = AddEndAround(AddEndAround(a, b), AddEndAround(c, d));
  // Fold 64 -> 32 -> 16 bits with end-around carry, in a fixed number of
  // steps: Fold's loop costs more than the adds on short segments.
  const uint32_t hi = static_cast<uint32_t>(sum >> 32);
  uint32_t folded = static_cast<uint32_t>(sum) + hi;
  folded += folded < hi;
  folded = (folded & 0xFFFF) + (folded >> 16);
  folded = (folded & 0xFFFF) + (folded >> 16);
  if constexpr (std::endian::native == std::endian::little) {
    return Swap16(static_cast<uint16_t>(folded));
  }
  return static_cast<uint16_t>(folded);
}

}  // namespace

PartialChecksum PartialChecksum::Combine(const PartialChecksum& next) const {
  uint16_t next_folded = Fold(next.sum);
  if (length % 2 == 1) {
    // `next` really starts at an odd byte offset; a one-byte shift of a
    // chunk byte-swaps its ones'-complement sum.
    next_folded = Swap16(next_folded);
  }
  PartialChecksum out;
  out.sum = static_cast<uint32_t>(Fold(static_cast<uint64_t>(Fold(sum)) + next_folded));
  out.length = length + next.length;
  return out;
}

uint16_t PartialChecksum::Finalize() const {
  return static_cast<uint16_t>(~Fold(sum));
}

void ChecksumAccumulator::Add(std::span<const uint8_t> data) {
  AddPartial(ComputePartial(data));
}

void ChecksumAccumulator::AddPartial(const PartialChecksum& partial) {
  partial_ = partial_.Combine(partial);
}

PartialChecksum ComputePartial(std::span<const uint8_t> data) {
  PartialChecksum out;
  out.sum = FastRawSum(data);
  out.length = data.size();
  return out;
}

uint16_t ReferenceChecksum(std::span<const uint8_t> data) {
  // Textbook RFC 1071: accumulate one 16-bit big-endian word at a time into
  // a wide register, fold, complement.
  uint64_t sum = 0;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<uint64_t>((static_cast<uint32_t>(data[i]) << 8) | data[i + 1]);
  }
  if (i < data.size()) {
    sum += static_cast<uint64_t>(data[i]) << 8;
  }
  return static_cast<uint16_t>(~Fold(sum));
}

uint16_t UltrixChecksum(std::span<const uint8_t> data) {
  // Models the ULTRIX 4.2A in_cksum style the paper criticizes: one halfword
  // access per iteration with the carry folded back every step — no
  // unrolling, no word accesses.
  uint32_t sum = 0;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<uint32_t>((static_cast<uint32_t>(data[i]) << 8) | data[i + 1]);
    sum = (sum & 0xFFFF) + (sum >> 16);  // immediate end-around carry
  }
  if (i < data.size()) {
    sum += static_cast<uint32_t>(data[i]) << 8;
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<uint16_t>(~Fold(sum));
}

uint16_t OptimizedChecksum(std::span<const uint8_t> data) {
  // The paper's §4.1 optimization: word accesses + loop unrolling, carries
  // absorbed by a wide accumulator.
  return static_cast<uint16_t>(~FastRawSum(data));
}

uint16_t IntegratedCopyChecksum(std::span<uint8_t> dst, std::span<const uint8_t> src) {
  return static_cast<uint16_t>(~Fold(IntegratedCopyPartial(dst, src).sum));
}

PartialChecksum IntegratedCopyPartial(std::span<uint8_t> dst, std::span<const uint8_t> src) {
  TCPLAT_CHECK_EQ(dst.size(), src.size());
  const uint8_t* s = src.data();
  uint8_t* d = dst.data();
  size_t n = src.size();
  uint64_t sum = 0;

  // One pass: each 32-bit word is loaded once, stored to the destination,
  // and added to the running sum — the data crosses the memory bus once
  // instead of twice (the point of Clark et al.'s combined loop).
  while (n >= 32) {
    for (int k = 0; k < 32; k += 4) {
      uint32_t w;
      std::memcpy(&w, s + k, sizeof(w));
      std::memcpy(d + k, &w, sizeof(w));
      if constexpr (std::endian::native == std::endian::little) {
        w = __builtin_bswap32(w);
      }
      sum += w;
    }
    s += 32;
    d += 32;
    n -= 32;
  }
  while (n >= 4) {
    uint32_t w;
    std::memcpy(&w, s, sizeof(w));
    std::memcpy(d, &w, sizeof(w));
    if constexpr (std::endian::native == std::endian::little) {
      w = __builtin_bswap32(w);
    }
    sum += w;
    s += 4;
    d += 4;
    n -= 4;
  }
  if (n >= 2) {
    d[0] = s[0];
    d[1] = s[1];
    sum += static_cast<uint64_t>((static_cast<uint32_t>(s[0]) << 8) | s[1]);
    s += 2;
    d += 2;
    n -= 2;
  }
  if (n == 1) {
    d[0] = s[0];
    sum += static_cast<uint64_t>(s[0]) << 8;
  }

  PartialChecksum out;
  out.sum = static_cast<uint32_t>(Fold(sum));
  out.length = src.size();
  return out;
}

}  // namespace tcplat
