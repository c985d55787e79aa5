// Cyclic redundancy checks used by the link layers.
//
//  * CRC-10 — the AAL3/4 per-cell payload CRC (ITU I.363: generator
//    x^10 + x^9 + x^5 + x^4 + x + 1). The FORE TCA-100 computes this in
//    hardware per received cell; our device model computes it in (host)
//    software but charges no simulated CPU time for it, matching the
//    hardware implementation.
//  * CRC-32 — IEEE 802.3 frame check sequence for the Ethernet baseline
//    (reflected, polynomial 0xEDB88320, init/final 0xFFFFFFFF).
//
// Each CRC has two kernels that return bit-identical results, and Crc10 and
// Crc32 pick one with a single CPUID check at first use:
//  * carry-less multiply (x86-64 PCLMULQDQ): CRC-10 folds 48-byte blocks
//    (the SAR-PDU) with six independent products and one Barrett reduction;
//    CRC-32 folds 16 bytes at a time with the standard reflected constants.
//    Bytes past the last whole block go through the sliced kernel.
//  * slice-by-8 tables (eight bytes per step, eight independent lookups),
//    generated at first use: the only kernel on CPUs without PCLMULQDQ.
// Tests check both kernels against bit-serial reference implementations and
// known vectors.

#ifndef SRC_NET_CRC_H_
#define SRC_NET_CRC_H_

#include <cstdint>
#include <span>

namespace tcplat {

// Returns the 10-bit CRC of `data` (in the low 10 bits).
uint16_t Crc10(std::span<const uint8_t> data);

// IEEE 802.3 CRC-32 of `data`.
uint32_t Crc32(std::span<const uint8_t> data);

// True when this CPU runs the carry-less kernels (PCLMULQDQ and SSSE3).
bool HasCarrylessMultiply();

// The kernels Crc10 and Crc32 choose between. The carry-less ones require
// HasCarrylessMultiply().
uint16_t Crc10Sliced(std::span<const uint8_t> data);
uint16_t Crc10Carryless(std::span<const uint8_t> data);
uint32_t Crc32Sliced(std::span<const uint8_t> data);
uint32_t Crc32Carryless(std::span<const uint8_t> data);

// Bit-serial CRCs, used as the test oracles.
uint16_t Crc10Reference(std::span<const uint8_t> data);
uint32_t Crc32Reference(std::span<const uint8_t> data);

}  // namespace tcplat

#endif  // SRC_NET_CRC_H_
