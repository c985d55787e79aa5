// Tests for the CRC-10 (AAL3/4) and CRC-32 (Ethernet FCS) implementations:
// each kernel (slice-by-8, carry-less multiply, and the one Crc10/Crc32
// dispatch to) against the bit-serial oracles, known vectors, and the
// detection properties §4.2.1 leans on.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <tuple>
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

// One CRC kernel pair: what Crc10 and Crc32 dispatch to, or one kernel
// called directly.
struct CrcKernel {
  const char* name;
  uint16_t (*crc10)(std::span<const uint8_t>);
  uint32_t (*crc32)(std::span<const uint8_t>);
  bool carryless;
};

const CrcKernel kKernels[] = {
    {"Dispatched", Crc10, Crc32, false},
    {"Sliced", Crc10Sliced, Crc32Sliced, false},
    {"Carryless", Crc10Carryless, Crc32Carryless, true},
};

bool Runnable(const CrcKernel& kernel) { return !kernel.carryless || HasCarrylessMultiply(); }

constexpr char kNoClmul[] = "this CPU has no PCLMULQDQ/SSSE3 for the carry-less kernels";

class CrcKernelTest : public ::testing::TestWithParam<CrcKernel> {
 protected:
  void SetUp() override {
    if (!Runnable(GetParam())) {
      GTEST_SKIP() << kNoClmul;
    }
  }
};

TEST_P(CrcKernelTest, Crc32KnownVector) {
  // The canonical IEEE 802.3 check value.
  const std::vector<uint8_t> data = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(GetParam().crc32(data), 0xCBF43926u);
}

TEST_P(CrcKernelTest, Crc32EmptyIsZero) {
  EXPECT_EQ(GetParam().crc32({}), 0u);
  EXPECT_EQ(Crc32Reference({}), 0u);
}

TEST_P(CrcKernelTest, Crc10TenBitRange) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const auto buf = RandomBuffer(rng, 48);
    EXPECT_LE(GetParam().crc10(buf), 0x3FFu);
  }
}

TEST_P(CrcKernelTest, Crc10DetectsEverySingleBitFlipInACell) {
  const auto crc10 = GetParam().crc10;
  Rng rng(6);
  auto buf = RandomBuffer(rng, 48);
  const uint16_t want = crc10(buf);
  for (size_t byte = 0; byte < buf.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] = static_cast<uint8_t>(buf[byte] ^ (1u << bit));
      EXPECT_NE(crc10(buf), want) << "byte " << byte << " bit " << bit;
      buf[byte] = static_cast<uint8_t>(buf[byte] ^ (1u << bit));
    }
  }
}

TEST_P(CrcKernelTest, Crc10DetectsBurstsUpToTenBits) {
  const auto crc10 = GetParam().crc10;
  // A CRC of degree 10 detects every burst of length <= 10.
  Rng rng(7);
  auto buf = RandomBuffer(rng, 48);
  const uint16_t want = crc10(buf);
  for (int burst_len = 2; burst_len <= 10; ++burst_len) {
    for (int start_bit = 0; start_bit + burst_len <= 48 * 8; start_bit += 37) {
      auto corrupted = buf;
      // A burst starts and ends with flipped bits.
      for (int i : {0, burst_len - 1}) {
        const int bit = start_bit + i;
        corrupted[bit / 8] = static_cast<uint8_t>(corrupted[bit / 8] ^ (0x80u >> (bit % 8)));
      }
      EXPECT_NE(crc10(corrupted), want) << "burst " << burst_len << " at " << start_bit;
    }
  }
}

TEST_P(CrcKernelTest, Crc10MissesGeneratorMultiple) {
  const auto crc10 = GetParam().crc10;
  // XORing the generator polynomial's bit pattern into the message adds a
  // multiple of g(x), which the CRC cannot detect — the §4.2.1 source-(4)
  // error our fault injector synthesizes.
  constexpr uint32_t kGeneratorBits = 0x633;
  Rng rng(8);
  auto buf = RandomBuffer(rng, 48);
  const uint16_t want = crc10(buf);
  for (size_t bit_off = 0; bit_off + 11 <= 48 * 8 - 10; bit_off += 53) {
    auto corrupted = buf;
    for (int i = 0; i < 11; ++i) {
      if ((kGeneratorBits >> (10 - i)) & 1) {
        const size_t bit = bit_off + static_cast<size_t>(i);
        corrupted[bit / 8] = static_cast<uint8_t>(corrupted[bit / 8] ^ (0x80u >> (bit % 8)));
      }
    }
    EXPECT_NE(corrupted, buf);
    EXPECT_EQ(crc10(corrupted), want) << "offset " << bit_off;
  }
}

TEST_P(CrcKernelTest, Crc32DetectsRandomMultiBitDamage) {
  const auto crc32 = GetParam().crc32;
  Rng rng(9);
  for (int trial = 0; trial < 300; ++trial) {
    auto buf = RandomBuffer(rng, 200);
    const uint32_t want = crc32(buf);
    const int flips = 1 + static_cast<int>(rng.NextBelow(6));
    for (int i = 0; i < flips; ++i) {
      const size_t byte = rng.NextBelow(buf.size());
      buf[byte] = static_cast<uint8_t>(buf[byte] ^ (1u << rng.NextBelow(8)));
    }
    if (crc32(buf) == want) {
      // Only acceptable if the flips happened to cancel out exactly.
      EXPECT_EQ(Crc32Reference(buf), want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, CrcKernelTest, ::testing::ValuesIn(kKernels),
                         [](const auto& inst) { return std::string(inst.param.name); });

// One buffer to check: `length` random bytes that start `offset` bytes into
// their allocation, so a non-zero offset makes the kernels load words from
// an unaligned address.
struct CrcInput {
  size_t length;
  size_t offset = 0;
};

class CrcLengthTest : public ::testing::TestWithParam<std::tuple<CrcKernel, CrcInput>> {
 protected:
  void SetUp() override {
    if (!Runnable(std::get<0>(GetParam()))) {
      GTEST_SKIP() << kNoClmul;
    }
  }
};

TEST_P(CrcLengthTest, MatchesBitSerialCrc10) {
  const auto& [kernel, input] = GetParam();
  Rng rng(input.length + 1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto buf = RandomBuffer(rng, input.offset + input.length);
    const auto data = std::span<const uint8_t>(buf).subspan(input.offset);
    EXPECT_EQ(kernel.crc10(data), Crc10Reference(data));
  }
}

TEST_P(CrcLengthTest, MatchesBitSerialCrc32) {
  const auto& [kernel, input] = GetParam();
  Rng rng(input.length + 1000);
  for (int trial = 0; trial < 20; ++trial) {
    const auto buf = RandomBuffer(rng, input.offset + input.length);
    const auto data = std::span<const uint8_t>(buf).subspan(input.offset);
    EXPECT_EQ(kernel.crc32(data), Crc32Reference(data));
  }
}

// Every length residue mod 16 (the kernels' tails), the SAR-PDU and cell
// sizes, the shortest and longest Ethernet frames, the 9188-byte ATM MTU,
// and one buffer at an odd start address. The SAR-PDU also runs at every
// start offset mod 16: SerializeCell hands Crc10 the PDU at byte 5 of the
// cell image.
std::vector<CrcInput> CrcInputs() {
  std::vector<CrcInput> inputs;
  for (size_t n = 0; n < 16; ++n) {
    inputs.push_back({n});
  }
  for (size_t n : {44, 53, 60, 64, 100, 1500, 1514, 9188}) {
    inputs.push_back({n});
  }
  for (size_t offset = 0; offset < 16; ++offset) {
    inputs.push_back({48, offset});
  }
  inputs.push_back({1501, 1});
  return inputs;
}

INSTANTIATE_TEST_SUITE_P(Lengths, CrcLengthTest,
                         ::testing::Combine(::testing::ValuesIn(kKernels),
                                            ::testing::ValuesIn(CrcInputs())),
                         [](const auto& inst) {
                           const CrcKernel& kernel = std::get<0>(inst.param);
                           const CrcInput& in = std::get<1>(inst.param);
                           return std::string(kernel.name) + "_n" + std::to_string(in.length) +
                                  (in.offset == 0 ? "" : "_at" + std::to_string(in.offset));
                         });

}  // namespace
}  // namespace tcplat
