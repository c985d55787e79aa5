// Tests for the AAL3/4 adaptation layer: CPCS framing, SAR segmentation,
// cell wire images, and the receive-side reassembly state machine.

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "src/atm/aal34.h"
#include "src/base/random.h"

namespace tcplat {
namespace {

std::vector<uint8_t> RandomPayload(size_t n, uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<uint8_t> buf(n);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return buf;
}

TEST(Cpcs, BuildParseRoundTrip) {
  const auto payload = RandomPayload(1400);
  const auto pdu = BuildCpcsPdu(payload, 0x42);
  EXPECT_EQ(pdu.size() % 4, 0u);
  std::string err;
  auto parsed = ParseCpcsPdu(pdu, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(*parsed, payload);
}

TEST(Cpcs, PaddingToFourByteMultiple) {
  for (size_t n : {1u, 2u, 3u, 4u, 5u, 44u, 45u}) {
    const auto pdu = BuildCpcsPdu(RandomPayload(n), 1);
    EXPECT_EQ(pdu.size() % 4, 0u);
    EXPECT_GE(pdu.size(), n + kCpcsHeaderBytes + kCpcsTrailerBytes);
  }
}

TEST(Cpcs, DetectsTagMismatch) {
  auto pdu = BuildCpcsPdu(RandomPayload(100), 7);
  pdu[1] ^= 0xFF;  // Btag
  std::string err;
  EXPECT_FALSE(ParseCpcsPdu(pdu, &err).has_value());
  EXPECT_NE(err.find("btag"), std::string::npos);
}

TEST(Cpcs, DetectsLengthCorruption) {
  auto pdu = BuildCpcsPdu(RandomPayload(100), 7);
  pdu[pdu.size() - 1] ^= 0x40;  // Length field low byte
  std::string err;
  EXPECT_FALSE(ParseCpcsPdu(pdu, &err).has_value());
}

TEST(Cpcs, RejectsTooShort) {
  std::string err;
  EXPECT_FALSE(ParseCpcsPdu(std::vector<uint8_t>(4, 0), &err).has_value());
}

class SarSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SarSizeTest, SegmentAndReassembleRoundTrip) {
  const size_t n = GetParam();
  const auto payload = RandomPayload(n, n);
  const auto cpcs = BuildCpcsPdu(payload, static_cast<uint8_t>(n));
  uint8_t sn = 3;
  const auto cells = SegmentCpcsPdu(cpcs, /*vci=*/42, /*mid=*/5, &sn);

  const size_t want_cells = (cpcs.size() + kSarPayloadBytes - 1) / kSarPayloadBytes;
  ASSERT_EQ(cells.size(), want_cells);
  if (cells.size() == 1) {
    EXPECT_EQ(cells[0].st, SegmentType::kSsm);
  } else {
    EXPECT_EQ(cells.front().st, SegmentType::kBom);
    EXPECT_EQ(cells.back().st, SegmentType::kEom);
    for (size_t i = 1; i + 1 < cells.size(); ++i) {
      EXPECT_EQ(cells[i].st, SegmentType::kCom);
    }
  }

  SarReassembler reasm;
  std::optional<std::vector<uint8_t>> done;
  for (const AtmCell& cell : cells) {
    // Through the wire image, so CRC generation/checking is exercised.
    bool crc_ok = false;
    auto parsed = ParseCell(SerializeCell(cell), &crc_ok);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(crc_ok);
    EXPECT_EQ(parsed->vci, 42);
    EXPECT_EQ(parsed->mid, 5);
    auto out = reasm.Feed(*parsed, crc_ok);
    if (out.has_value()) {
      EXPECT_FALSE(done.has_value());
      done = std::move(out);
    }
  }
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done, payload);
  EXPECT_EQ(reasm.stats().pdus_ok, 1u);
  EXPECT_EQ(reasm.stats().pdus_dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SarSizeTest,
                         ::testing::Values(1, 4, 35, 36, 37, 44, 88, 100, 500, 1400, 4000,
                                           8040, 9188),
                         [](const auto& inst) {
                           return std::string("n").append(std::to_string(inst.param));
                         });

TEST(Sar, SequenceNumbersWrapModulo16) {
  const auto cpcs = BuildCpcsPdu(RandomPayload(44 * 20), 1);
  uint8_t sn = 14;
  const auto cells = SegmentCpcsPdu(cpcs, 1, 1, &sn);
  EXPECT_EQ(cells[0].sn, 14);
  EXPECT_EQ(cells[1].sn, 15);
  EXPECT_EQ(cells[2].sn, 0);
  EXPECT_EQ(cells[3].sn, 1);
}

TEST(Sar, LastCellLengthIndicator) {
  const auto payload = RandomPayload(50);  // CPCS = 4+52+4 = 60 -> 44 + 16
  const auto cpcs = BuildCpcsPdu(payload, 1);
  uint8_t sn = 0;
  const auto cells = SegmentCpcsPdu(cpcs, 1, 1, &sn);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].li, kSarPayloadBytes);
  EXPECT_EQ(cells[1].li, cpcs.size() - kSarPayloadBytes);
}

TEST(Reassembler, DroppedMiddleCellDetectedBySequence) {
  const auto cpcs = BuildCpcsPdu(RandomPayload(300), 9);
  uint8_t sn = 0;
  const auto cells = SegmentCpcsPdu(cpcs, 1, 1, &sn);
  ASSERT_GE(cells.size(), 3u);

  SarReassembler reasm;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i == 1) {
      continue;  // lost cell
    }
    auto out = reasm.Feed(cells[i], true);
    EXPECT_FALSE(out.has_value());
  }
  EXPECT_EQ(reasm.stats().sequence_errors, 1u);
  EXPECT_EQ(reasm.stats().pdus_ok, 0u);
  EXPECT_GE(reasm.stats().pdus_dropped, 1u);
}

TEST(Reassembler, CrcErrorPoisonsPdu) {
  const auto cpcs = BuildCpcsPdu(RandomPayload(300), 9);
  uint8_t sn = 0;
  const auto cells = SegmentCpcsPdu(cpcs, 1, 1, &sn);

  SarReassembler reasm;
  for (size_t i = 0; i < cells.size(); ++i) {
    auto out = reasm.Feed(cells[i], /*crc_ok=*/i != 1);
    EXPECT_FALSE(out.has_value());
  }
  EXPECT_EQ(reasm.stats().crc_errors, 1u);
  EXPECT_EQ(reasm.stats().pdus_ok, 0u);
}

TEST(Reassembler, RecoversAfterDamagedPdu) {
  const auto payload = RandomPayload(500);
  const auto cpcs = BuildCpcsPdu(payload, 3);
  uint8_t sn = 0;
  auto bad = SegmentCpcsPdu(cpcs, 1, 1, &sn);
  auto good = SegmentCpcsPdu(cpcs, 1, 1, &sn);

  SarReassembler reasm;
  for (size_t i = 0; i < bad.size(); ++i) {
    reasm.Feed(bad[i], /*crc_ok=*/i != 0);
  }
  std::optional<std::vector<uint8_t>> done;
  for (const auto& cell : good) {
    auto out = reasm.Feed(cell, true);
    if (out.has_value()) {
      done = std::move(out);
    }
  }
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done, payload);
}

TEST(Reassembler, BomWhileInProgressDropsOldPdu) {
  const auto cpcs = BuildCpcsPdu(RandomPayload(300), 9);
  uint8_t sn = 0;
  const auto first = SegmentCpcsPdu(cpcs, 1, 1, &sn);
  const auto payload2 = RandomPayload(100, 2);
  const auto cpcs2 = BuildCpcsPdu(payload2, 10);
  const auto second = SegmentCpcsPdu(cpcs2, 1, 1, &sn);

  SarReassembler reasm;
  reasm.Feed(first[0], true);  // BOM, then the rest never arrives
  std::optional<std::vector<uint8_t>> done;
  for (const auto& cell : second) {
    auto out = reasm.Feed(cell, true);
    if (out.has_value()) {
      done = std::move(out);
    }
  }
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done, payload2);
  EXPECT_EQ(reasm.stats().protocol_errors, 1u);
}

TEST(Reassembler, ComWithoutBomIsProtocolError) {
  const auto cpcs = BuildCpcsPdu(RandomPayload(300), 9);
  uint8_t sn = 0;
  const auto cells = SegmentCpcsPdu(cpcs, 1, 1, &sn);
  SarReassembler reasm;
  EXPECT_FALSE(reasm.Feed(cells[1], true).has_value());
  EXPECT_EQ(reasm.stats().protocol_errors, 1u);
}

// Seeded mutation fuzzing of the receive path: the cell stream of a
// 3000-byte datagram with cells damaged, cut short, dropped, duplicated and
// swapped, fed through ParseCell and one SarReassembler, then followed by
// an intact copy of the stream. Nothing delivered may differ from the
// datagram, and the intact copy must still come through.
//
// AAL3/4 carries no payload CRC. Its guards are the per-cell CRC-10 (which
// catches any error burst of 10 bits or fewer), the 4-bit sequence number
// and the CPCS length, so an edit damages at most one byte of a cell,
// outside its LI/CRC trailer, and moves a cell at most one place: cells
// exchanged a multiple of 16 places apart would pass unseen.
TEST(Reassembler, MutatedCellStreamsNeverDeliverADifferentDatagram) {
  struct WireCell {
    std::vector<uint8_t> wire;
    bool damaged = false;
  };
  const auto payload = RandomPayload(3000, 3000);
  uint8_t sn = 0;
  std::vector<WireCell> clean;
  for (const AtmCell& cell : SegmentCpcsPdu(BuildCpcsPdu(payload, 9), 42, 5, &sn)) {
    const CellBytes wire = SerializeCell(cell);
    clean.push_back({{wire.begin(), wire.end()}});
  }

  Rng rng(20261020);
  int delivered = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    std::vector<WireCell> cells = clean;
    const uint64_t edits = 1 + rng.NextBelow(4);
    for (uint64_t e = 0; e < edits && !cells.empty(); ++e) {
      const size_t i = rng.NextBelow(cells.size());
      switch (rng.NextBelow(5)) {
        case 0:
          if (!cells[i].damaged) {
            const size_t at = rng.NextBelow(kAtmCellBytes - 2);
            cells[i].wire[at] = static_cast<uint8_t>(cells[i].wire[at] ^ (1 + rng.NextBelow(255)));
            cells[i].damaged = true;
          }
          break;
        case 1:
          cells[i].wire.resize(rng.NextBelow(kAtmCellBytes));
          cells[i].damaged = true;
          break;
        case 2:
          cells.erase(cells.begin() + static_cast<ptrdiff_t>(i));
          break;
        case 3: {
          const WireCell copy = cells[i];
          cells.insert(cells.begin() + static_cast<ptrdiff_t>(i), copy);
          break;
        }
        default:
          if (i + 1 < cells.size()) {
            std::swap(cells[i], cells[i + 1]);
          }
          break;
      }
    }

    SarReassembler reasm;
    auto feed = [&reasm](const std::vector<uint8_t>& wire) {
      bool crc_ok = false;
      const std::optional<AtmCell> cell = ParseCell(wire, &crc_ok);
      return cell.has_value() ? reasm.Feed(*cell, crc_ok) : std::nullopt;
    };
    for (const WireCell& cell : cells) {
      if (const auto out = feed(cell.wire)) {
        ASSERT_EQ(*out, payload) << "mutant " << iter;
        ++delivered;
      }
    }
    int intact = 0;
    for (const WireCell& cell : clean) {
      if (const auto out = feed(cell.wire)) {
        ASSERT_EQ(*out, payload) << "mutant " << iter;
        ++intact;
      }
    }
    ASSERT_EQ(intact, 1) << "mutant " << iter;
  }
  EXPECT_GT(delivered, 0);
}

TEST(Cell, WireImageIs53Bytes) {
  const auto cpcs = BuildCpcsPdu(RandomPayload(10), 1);
  uint8_t sn = 0;
  const auto cells = SegmentCpcsPdu(cpcs, 7, 3, &sn);
  const auto wire = SerializeCell(cells[0]);
  EXPECT_EQ(wire.size(), kAtmCellBytes);
}

TEST(Cell, CorruptedPayloadFailsCrc) {
  const auto cpcs = BuildCpcsPdu(RandomPayload(10), 1);
  uint8_t sn = 0;
  const auto cells = SegmentCpcsPdu(cpcs, 7, 3, &sn);
  auto wire = SerializeCell(cells[0]);
  wire[20] ^= 0x10;
  bool crc_ok = true;
  auto parsed = ParseCell(wire, &crc_ok);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(crc_ok);
}

TEST(Cell, RejectsWrongSize) {
  bool crc_ok = false;
  EXPECT_FALSE(ParseCell(std::vector<uint8_t>(52, 0), &crc_ok).has_value());
  EXPECT_FALSE(ParseCell(std::vector<uint8_t>(54, 0), &crc_ok).has_value());
}

}  // namespace
}  // namespace tcplat
