// Tests for the Internet-checksum implementations: bit-exact agreement of
// all four real algorithms, the partial-checksum combination algebra the
// §4.1.1 kernel depends on, and error-detection properties.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/base/random.h"
#include "src/net/checksum.h"

namespace tcplat {
namespace {

std::vector<uint8_t> RandomBuffer(Rng& rng, size_t n) {
  std::vector<uint8_t> buf(n);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return buf;
}

TEST(Checksum, KnownVector) {
  // RFC 1071 worked example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2,
  // checksum ~0xddf2 = 0x220d.
  const std::vector<uint8_t> data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(ReferenceChecksum(data), 0x220d);
}

TEST(Checksum, EmptyBuffer) {
  const std::vector<uint8_t> data;
  EXPECT_EQ(ReferenceChecksum(data), 0xFFFF);
  EXPECT_EQ(UltrixChecksum(data), 0xFFFF);
  EXPECT_EQ(OptimizedChecksum(data), 0xFFFF);
}

TEST(Checksum, AllZeros) {
  const std::vector<uint8_t> data(100, 0);
  EXPECT_EQ(ReferenceChecksum(data), 0xFFFF);
  EXPECT_EQ(OptimizedChecksum(data), 0xFFFF);
}

TEST(Checksum, AllOnesCarryChains) {
  // 0xFF bytes exercise the end-around-carry logic heavily: every 64-bit
  // add carries out.
  for (size_t n : {1u, 2u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u, 65u, 127u, 128u,
                   1000u, 9000u}) {
    const std::vector<uint8_t> data(n, 0xFF);
    const uint16_t want = ReferenceChecksum(data);
    EXPECT_EQ(UltrixChecksum(data), want) << "n=" << n;
    EXPECT_EQ(OptimizedChecksum(data), want) << "n=" << n;
    EXPECT_EQ(ComputePartial(data).Finalize(), want) << "n=" << n;
    std::vector<uint8_t> dst(n);
    EXPECT_EQ(IntegratedCopyChecksum(dst, data), want) << "n=" << n;
  }
}

class ChecksumSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChecksumSizeTest, AllAlgorithmsAgree) {
  Rng rng(GetParam() * 7919 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto buf = RandomBuffer(rng, GetParam());
    const uint16_t want = ReferenceChecksum(buf);
    EXPECT_EQ(UltrixChecksum(buf), want);
    EXPECT_EQ(OptimizedChecksum(buf), want);
    std::vector<uint8_t> dst(buf.size());
    EXPECT_EQ(IntegratedCopyChecksum(dst, buf), want);
    EXPECT_EQ(dst, buf) << "integrated routine must actually copy";
  }
}

TEST_P(ChecksumSizeTest, ComputePartialMatchesReference) {
  // Start offsets 0-7 put the 64-bit loads at every alignment.
  Rng rng(GetParam() * 31 + 5);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t offset = static_cast<size_t>(trial % 8);
    const auto buf = RandomBuffer(rng, offset + GetParam());
    const auto data = std::span<const uint8_t>(buf).subspan(offset);
    EXPECT_EQ(ComputePartial(data).Finalize(), ReferenceChecksum(data)) << "offset " << offset;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChecksumSizeTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 47, 48,
                                           49, 63, 64, 65, 100, 127, 128, 129, 200, 500, 1399,
                                           1400, 4000, 8000, 9000),
                         [](const auto& inst) {
                           return std::string("n").append(std::to_string(inst.param));
                         });

// --- partial-checksum algebra ---

class ChecksumSplitTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChecksumSplitTest, CombineEqualsWholeAtAnySplit) {
  Rng rng(99);
  const size_t n = 257;  // odd total so both parities occur
  const auto buf = RandomBuffer(rng, n);
  const uint16_t want = ReferenceChecksum(buf);

  const size_t split = GetParam();
  PartialChecksum a = ComputePartial(std::span<const uint8_t>(buf).first(split));
  PartialChecksum b = ComputePartial(std::span<const uint8_t>(buf).subspan(split));
  EXPECT_EQ(a.Combine(b).Finalize(), want) << "split=" << split;
}

INSTANTIATE_TEST_SUITE_P(Splits, ChecksumSplitTest,
                         ::testing::Values(0, 1, 2, 3, 50, 107, 108, 128, 200, 255, 256, 257),
                         [](const auto& inst) { return "at" + std::to_string(inst.param); });

TEST(ChecksumAccumulator, ManyChunksAnyParity) {
  Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.NextBelow(3000);
    const auto buf = RandomBuffer(rng, n);
    ChecksumAccumulator acc;
    size_t off = 0;
    while (off < n) {
      const size_t chunk = std::min<size_t>(1 + rng.NextBelow(97), n - off);
      acc.Add(std::span<const uint8_t>(buf).subspan(off, chunk));
      off += chunk;
    }
    EXPECT_EQ(acc.Finalize(), ReferenceChecksum(buf));
    EXPECT_EQ(acc.length(), n);
  }
}

TEST(ChecksumAccumulator, AddPartialMatchesAdd) {
  Rng rng(7);
  const auto buf = RandomBuffer(rng, 777);
  ChecksumAccumulator by_bytes;
  ChecksumAccumulator by_partials;
  size_t off = 0;
  const size_t chunks[] = {101, 3, 400, 273};
  for (size_t c : chunks) {
    const auto piece = std::span<const uint8_t>(buf).subspan(off, c);
    by_bytes.Add(piece);
    by_partials.AddPartial(ComputePartial(piece));
    off += c;
  }
  EXPECT_EQ(by_bytes.Finalize(), by_partials.Finalize());
}

TEST(IntegratedCopyPartial, PartialIsCombinable) {
  Rng rng(8);
  const auto buf = RandomBuffer(rng, 1001);
  std::vector<uint8_t> dst(buf.size());
  // Copy+sum in two pieces with an odd first length.
  std::span<const uint8_t> s(buf);
  std::span<uint8_t> d(dst);
  PartialChecksum a = IntegratedCopyPartial(d.first(333), s.first(333));
  PartialChecksum b = IntegratedCopyPartial(d.subspan(333), s.subspan(333));
  EXPECT_EQ(dst, buf);
  EXPECT_EQ(a.Combine(b).Finalize(), ReferenceChecksum(buf));
}

// --- verification identity: a segment carrying its own checksum sums to
// all-ones (what TCP input checks) ---

TEST(Checksum, SelfVerificationIdentity) {
  Rng rng(55);
  for (int trial = 0; trial < 200; ++trial) {
    auto buf = RandomBuffer(rng, 2 + rng.NextBelow(1500));
    buf[0] = buf[1] = 0;  // checksum field
    const uint16_t ck = ReferenceChecksum(buf);
    buf[0] = static_cast<uint8_t>(ck >> 8);
    buf[1] = static_cast<uint8_t>(ck);
    EXPECT_EQ(ReferenceChecksum(buf), 0);
    EXPECT_EQ(OptimizedChecksum(buf), 0);
  }
}

// --- error detection ---

TEST(Checksum, DetectsEverySingleBitFlipInSmallBuffer) {
  Rng rng(66);
  auto buf = RandomBuffer(rng, 64);
  const uint16_t want = ReferenceChecksum(buf);
  for (size_t byte = 0; byte < buf.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] = static_cast<uint8_t>(buf[byte] ^ (1u << bit));
      EXPECT_NE(ReferenceChecksum(buf), want) << "byte " << byte << " bit " << bit;
      buf[byte] = static_cast<uint8_t>(buf[byte] ^ (1u << bit));
    }
  }
}

TEST(Checksum, MissesReorderedWords) {
  // The classic weakness: the sum is commutative, so swapping two aligned
  // 16-bit words is invisible. (This is why CRCs catch things checksums
  // cannot, §4.2.1.)
  std::vector<uint8_t> buf = {0x12, 0x34, 0x56, 0x78};
  std::vector<uint8_t> swapped = {0x56, 0x78, 0x12, 0x34};
  EXPECT_EQ(ReferenceChecksum(buf), ReferenceChecksum(swapped));
}

}  // namespace
}  // namespace tcplat
