// Tests for the CRC-10 (AAL3/4) and CRC-32 (Ethernet FCS) implementations:
// table-driven vs bit-serial agreement, known vectors, and the detection
// properties §4.2.1 leans on.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/net/crc.h"

namespace tcplat {
namespace {

std::vector<uint8_t> RandomBuffer(Rng& rng, size_t n) {
  std::vector<uint8_t> buf(n);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return buf;
}

TEST(Crc32, KnownVector) {
  // The canonical IEEE 802.3 check value.
  const std::vector<uint8_t> data = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(Crc32({}), 0u);
  EXPECT_EQ(Crc32Reference({}), 0u);
}

// One buffer to check: `length` random bytes that start `offset` bytes into
// their allocation, so a non-zero offset makes the sliced kernels load words
// from an unaligned address.
struct CrcInput {
  size_t length;
  size_t offset = 0;
};

class CrcLengthTest : public ::testing::TestWithParam<CrcInput> {};

TEST_P(CrcLengthTest, TableMatchesBitSerialCrc10) {
  const auto [length, offset] = GetParam();
  Rng rng(length + 1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto buf = RandomBuffer(rng, offset + length);
    const auto data = std::span<const uint8_t>(buf).subspan(offset);
    EXPECT_EQ(Crc10(data), Crc10Reference(data));
  }
}

TEST_P(CrcLengthTest, TableMatchesBitSerialCrc32) {
  const auto [length, offset] = GetParam();
  Rng rng(length + 1000);
  for (int trial = 0; trial < 20; ++trial) {
    const auto buf = RandomBuffer(rng, offset + length);
    const auto data = std::span<const uint8_t>(buf).subspan(offset);
    EXPECT_EQ(Crc32(data), Crc32Reference(data));
  }
}

// Every length residue mod 8 (the sliced kernels' byte-at-a-time tail), the
// SAR-PDU and cell sizes, the Ethernet frame, the 9188-byte ATM MTU, and one
// buffer at an odd start address.
INSTANTIATE_TEST_SUITE_P(Lengths, CrcLengthTest,
                         ::testing::ValuesIn(std::vector<CrcInput>{
                             {0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}, {11}, {12},
                             {13}, {14}, {15}, {44}, {48}, {53}, {64}, {100}, {1500}, {9188},
                             {1501, 1}}),
                         [](const auto& inst) {
                           const CrcInput& in = inst.param;
                           return "n" + std::to_string(in.length) +
                                  (in.offset == 0 ? "" : "_at" + std::to_string(in.offset));
                         });

TEST(Crc10, TenBitRange) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const auto buf = RandomBuffer(rng, 48);
    EXPECT_LE(Crc10(buf), 0x3FFu);
  }
}

TEST(Crc10, DetectsEverySingleBitFlipInACell) {
  Rng rng(6);
  auto buf = RandomBuffer(rng, 48);
  const uint16_t want = Crc10(buf);
  for (size_t byte = 0; byte < buf.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] = static_cast<uint8_t>(buf[byte] ^ (1u << bit));
      EXPECT_NE(Crc10(buf), want) << "byte " << byte << " bit " << bit;
      buf[byte] = static_cast<uint8_t>(buf[byte] ^ (1u << bit));
    }
  }
}

TEST(Crc10, DetectsBurstsUpToTenBits) {
  // A CRC of degree 10 detects every burst of length <= 10.
  Rng rng(7);
  auto buf = RandomBuffer(rng, 48);
  const uint16_t want = Crc10(buf);
  for (int burst_len = 2; burst_len <= 10; ++burst_len) {
    for (int start_bit = 0; start_bit + burst_len <= 48 * 8; start_bit += 37) {
      auto corrupted = buf;
      // A burst starts and ends with flipped bits.
      for (int i : {0, burst_len - 1}) {
        const int bit = start_bit + i;
        corrupted[bit / 8] = static_cast<uint8_t>(corrupted[bit / 8] ^ (0x80u >> (bit % 8)));
      }
      EXPECT_NE(Crc10(corrupted), want) << "burst " << burst_len << " at " << start_bit;
    }
  }
}

TEST(Crc10, MissesGeneratorMultiple) {
  // XORing the generator polynomial's bit pattern into the message adds a
  // multiple of g(x), which the CRC cannot detect — the §4.2.1 source-(4)
  // error our fault injector synthesizes.
  constexpr uint32_t kGeneratorBits = 0x633;
  Rng rng(8);
  auto buf = RandomBuffer(rng, 48);
  const uint16_t want = Crc10(buf);
  for (size_t bit_off = 0; bit_off + 11 <= 48 * 8 - 10; bit_off += 53) {
    auto corrupted = buf;
    for (int i = 0; i < 11; ++i) {
      if ((kGeneratorBits >> (10 - i)) & 1) {
        const size_t bit = bit_off + static_cast<size_t>(i);
        corrupted[bit / 8] = static_cast<uint8_t>(corrupted[bit / 8] ^ (0x80u >> (bit % 8)));
      }
    }
    EXPECT_NE(corrupted, buf);
    EXPECT_EQ(Crc10(corrupted), want) << "offset " << bit_off;
  }
}

TEST(Crc32, DetectsRandomMultiBitDamage) {
  Rng rng(9);
  for (int trial = 0; trial < 300; ++trial) {
    auto buf = RandomBuffer(rng, 200);
    const uint32_t want = Crc32(buf);
    const int flips = 1 + static_cast<int>(rng.NextBelow(6));
    for (int i = 0; i < flips; ++i) {
      const size_t byte = rng.NextBelow(buf.size());
      buf[byte] = static_cast<uint8_t>(buf[byte] ^ (1u << rng.NextBelow(8)));
    }
    if (Crc32(buf) == want) {
      // Only acceptable if the flips happened to cancel out exactly.
      EXPECT_EQ(Crc32Reference(buf), want);
    }
  }
}

}  // namespace
}  // namespace tcplat
