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
// Both are slice-by-8 table-driven (eight bytes per step, eight independent
// lookups) with the tables generated at first use; tests verify them against
// bit-serial reference implementations and known vectors.

#ifndef SRC_NET_CRC_H_
#define SRC_NET_CRC_H_

#include <cstdint>
#include <span>

namespace tcplat {

// Returns the 10-bit CRC of `data` (in the low 10 bits).
uint16_t Crc10(std::span<const uint8_t> data);

// Bit-serial CRC-10, used as the test oracle.
uint16_t Crc10Reference(std::span<const uint8_t> data);

// IEEE 802.3 CRC-32 of `data`.
uint32_t Crc32(std::span<const uint8_t> data);

// Bit-serial CRC-32, used as the test oracle.
uint32_t Crc32Reference(std::span<const uint8_t> data);

}  // namespace tcplat

#endif  // SRC_NET_CRC_H_
