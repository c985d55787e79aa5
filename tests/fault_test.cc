// Tests for the fault-injection module and the §4.2.1 error-detection
// attribution.

#include <gtest/gtest.h>

#include "src/atm/aal34.h"
#include "src/fault/error_experiment.h"
#include "src/fault/injector.h"
#include "src/net/crc.h"

namespace tcplat {
namespace {

std::vector<uint8_t> MakeCellBytes(uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> payload(100);
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const auto cpcs = BuildCpcsPdu(payload, 1);
  uint8_t sn = 0;
  const CellBytes cell = SerializeCell(SegmentCpcsPdu(cpcs, 42, 1, &sn)[0]);
  return {cell.begin(), cell.end()};
}

TEST(Injector, CellBitFlipperRespectsProbability) {
  auto rng = std::make_shared<Rng>(1);
  auto counter = std::make_shared<InjectionCounter>();
  auto corrupt = MakeCellBitFlipper(rng, counter, 0.5);
  int changed = 0;
  for (int i = 0; i < 1000; ++i) {
    auto cell = MakeCellBytes(i);
    const auto orig = cell;
    corrupt(cell);
    changed += cell != orig ? 1 : 0;
  }
  EXPECT_EQ(counter->injected, static_cast<uint64_t>(changed));
  EXPECT_NEAR(changed / 1000.0, 0.5, 0.06);
}

TEST(Injector, CellBitFlipperLeavesCellHeaderAlone) {
  auto rng = std::make_shared<Rng>(2);
  auto counter = std::make_shared<InjectionCounter>();
  auto corrupt = MakeCellBitFlipper(rng, counter, 1.0);
  for (int i = 0; i < 200; ++i) {
    auto cell = MakeCellBytes(i);
    const auto orig = cell;
    corrupt(cell);
    for (size_t b = 0; b < kAtmCellHeaderBytes; ++b) {
      EXPECT_EQ(cell[b], orig[b]) << "HEC-protected header must not be touched";
    }
  }
}

TEST(Injector, BitFlipIsCaughtByCellCrc) {
  auto rng = std::make_shared<Rng>(3);
  auto counter = std::make_shared<InjectionCounter>();
  auto corrupt = MakeCellBitFlipper(rng, counter, 1.0);
  for (int i = 0; i < 100; ++i) {
    auto cell = MakeCellBytes(i);
    corrupt(cell);
    bool crc_ok = true;
    auto parsed = ParseCell(cell, &crc_ok);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(crc_ok) << "single flips are always CRC-visible";
  }
}

TEST(Injector, CrcDefeatingCorruptionPassesCellCrc) {
  auto rng = std::make_shared<Rng>(4);
  auto counter = std::make_shared<InjectionCounter>();
  auto corrupt = MakeCrc10DefeatingCorruptor(rng, counter, 1.0);
  int corrupted = 0;
  for (int i = 0; i < 100; ++i) {
    auto cell = MakeCellBytes(i);
    const auto orig = cell;
    corrupt(cell);
    if (cell == orig) {
      continue;
    }
    ++corrupted;
    bool crc_ok = false;
    auto parsed = ParseCell(cell, &crc_ok);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(crc_ok) << "the whole point: the CRC cannot see this damage";
  }
  EXPECT_EQ(corrupted, 100);
}

TEST(Injector, ControllerCorruptorOnlyTouchesPayload) {
  auto rng = std::make_shared<Rng>(5);
  auto counter = std::make_shared<InjectionCounter>();
  auto corrupt = MakeControllerCorruptor(rng, counter, 1.0);
  for (int i = 0; i < 100; ++i) {
    Rng fill(i);
    std::vector<uint8_t> pdu(200);
    for (auto& b : pdu) {
      b = static_cast<uint8_t>(fill.Next());
    }
    auto orig = pdu;
    corrupt(pdu);
    EXPECT_NE(pdu, orig);
    for (size_t b = 0; b < 40; ++b) {
      EXPECT_EQ(pdu[b], orig[b]) << "IP+TCP headers are spared so the stream survives";
    }
  }
}

TEST(ErrorExperiment, RandomNoiseCaughtByAalCrc) {
  ErrorExperimentConfig cfg;
  cfg.source = ErrorSource::kLinkBitFlip;
  cfg.checksum = ChecksumMode::kStandard;
  cfg.probability = 0.005;
  cfg.iterations = 100;
  const auto r = RunErrorExperiment(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.injected, 0u);
  EXPECT_EQ(r.caught_cell_crc, r.injected);
  EXPECT_EQ(r.caught_tcp_checksum, 0u);
  EXPECT_EQ(r.app_mismatches, 0u);
}

TEST(ErrorExperiment, CrcDefeatingErrorsNeedTheTcpChecksum) {
  ErrorExperimentConfig cfg;
  cfg.source = ErrorSource::kLinkCrcDefeating;
  cfg.checksum = ChecksumMode::kStandard;
  cfg.probability = 0.003;
  cfg.iterations = 100;
  const auto with = RunErrorExperiment(cfg);
  EXPECT_GT(with.injected, 0u);
  EXPECT_EQ(with.caught_cell_crc, 0u);
  EXPECT_GT(with.caught_tcp_checksum, 0u);
  EXPECT_EQ(with.app_mismatches, 0u);

  cfg.checksum = ChecksumMode::kNone;
  const auto without = RunErrorExperiment(cfg);
  EXPECT_GT(without.injected, 0u);
  EXPECT_EQ(without.caught_tcp_checksum, 0u);
  EXPECT_GT(without.app_mismatches, 0u) << "with no checksum the damage reaches the app";
}

TEST(ErrorExperiment, ControllerErrorsInvisibleToIntegratedChecksum) {
  ErrorExperimentConfig cfg;
  cfg.source = ErrorSource::kControllerCopy;
  cfg.probability = 0.05;
  cfg.iterations = 100;

  cfg.checksum = ChecksumMode::kStandard;
  const auto standard = RunErrorExperiment(cfg);
  EXPECT_GT(standard.injected, 0u);
  EXPECT_GT(standard.caught_tcp_checksum, 0u)
      << "in_cksum reads the corrupted kernel memory and notices";
  EXPECT_EQ(standard.app_mismatches, 0u);

  cfg.checksum = ChecksumMode::kCombined;
  const auto combined = RunErrorExperiment(cfg);
  EXPECT_GT(combined.injected, 0u);
  EXPECT_EQ(combined.caught_tcp_checksum, 0u)
      << "the integrated copy sums the words it reads, not what lands in memory";
  EXPECT_GT(combined.app_mismatches, 0u);
}

TEST(ErrorExperiment, SourceNamesAreHuman) {
  EXPECT_EQ(ErrorSourceName(ErrorSource::kLinkBitFlip), "link bit flip");
  EXPECT_FALSE(ErrorSourceName(ErrorSource::kControllerCopy).empty());
}

}  // namespace
}  // namespace tcplat
