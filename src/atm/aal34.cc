#include "src/atm/aal34.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/net/byte_order.h"
#include "src/net/crc.h"

namespace tcplat {
namespace {

constexpr uint8_t kCpi = 0;
constexpr uint8_t kAlignment = 0;

}  // namespace

std::vector<uint8_t> BuildCpcsPdu(std::span<const uint8_t> payload, uint8_t btag) {
  TCPLAT_CHECK_LE(payload.size(), size_t{65535});
  const size_t padded = (payload.size() + 3) & ~size_t{3};
  std::vector<uint8_t> pdu(kCpcsHeaderBytes + padded + kCpcsTrailerBytes, 0);
  pdu[0] = kCpi;
  pdu[1] = btag;
  StoreBe16(&pdu[2], static_cast<uint16_t>(payload.size()));  // BAsize
  std::copy(payload.begin(), payload.end(), pdu.begin() + kCpcsHeaderBytes);
  uint8_t* trailer = pdu.data() + kCpcsHeaderBytes + padded;
  trailer[0] = kAlignment;
  trailer[1] = btag;  // Etag must match Btag
  StoreBe16(&trailer[2], static_cast<uint16_t>(payload.size()));
  return pdu;
}

std::optional<std::vector<uint8_t>> ParseCpcsPdu(std::span<const uint8_t> pdu,
                                                 std::string* error) {
  auto fail = [error](const char* why) -> std::optional<std::vector<uint8_t>> {
    if (error != nullptr) {
      *error = why;
    }
    return std::nullopt;
  };
  if (pdu.size() < kCpcsHeaderBytes + kCpcsTrailerBytes) {
    return fail("pdu too short");
  }
  const uint8_t btag = pdu[1];
  const uint16_t ba_size = LoadBe16(&pdu[2]);
  const uint8_t* trailer = pdu.data() + pdu.size() - kCpcsTrailerBytes;
  const uint8_t etag = trailer[1];
  const uint16_t length = LoadBe16(&trailer[2]);
  if (btag != etag) {
    return fail("btag/etag mismatch");
  }
  const size_t padded = pdu.size() - kCpcsHeaderBytes - kCpcsTrailerBytes;
  if (length > padded || padded - length > 3) {
    return fail("length field inconsistent with pdu size");
  }
  if (ba_size < length) {
    return fail("buffer allocation size below payload length");
  }
  return std::vector<uint8_t>(pdu.begin() + kCpcsHeaderBytes,
                              pdu.begin() + kCpcsHeaderBytes + length);
}

std::vector<AtmCell> SegmentCpcsPdu(std::span<const uint8_t> cpcs, uint16_t vci, uint16_t mid,
                                    uint8_t* sn) {
  TCPLAT_CHECK(sn != nullptr);
  TCPLAT_CHECK(!cpcs.empty());
  std::vector<AtmCell> cells;
  const size_t n_cells = (cpcs.size() + kSarPayloadBytes - 1) / kSarPayloadBytes;
  cells.reserve(n_cells);
  for (size_t i = 0; i < n_cells; ++i) {
    AtmCell cell;
    cell.vci = vci;
    cell.mid = mid & 0x3FF;
    cell.sn = *sn;
    *sn = static_cast<uint8_t>((*sn + 1) & 0xF);
    const size_t off = i * kSarPayloadBytes;
    const size_t take = std::min(kSarPayloadBytes, cpcs.size() - off);
    cell.li = static_cast<uint8_t>(take);
    std::copy(cpcs.begin() + off, cpcs.begin() + off + take, cell.payload.begin());
    if (n_cells == 1) {
      cell.st = SegmentType::kSsm;
    } else if (i == 0) {
      cell.st = SegmentType::kBom;
    } else if (i + 1 == n_cells) {
      cell.st = SegmentType::kEom;
    } else {
      cell.st = SegmentType::kCom;
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

CellBytes SerializeCell(const AtmCell& cell) {
  CellBytes wire{};
  // Cell header: GFC/VPI omitted, VCI in bytes 1-2, PT/CLP zero, HEC unused.
  wire[0] = 0;
  StoreBe16(&wire[1], cell.vci);
  wire[3] = 0;
  wire[4] = 0;
  // SAR header: ST(2) SN(4) MID(10).
  uint8_t* sar = wire.data() + kAtmCellHeaderBytes;
  const uint16_t hdr = static_cast<uint16_t>((static_cast<uint16_t>(cell.st) << 14) |
                                             ((cell.sn & 0xF) << 10) | (cell.mid & 0x3FF));
  StoreBe16(sar, hdr);
  std::copy(cell.payload.begin(), cell.payload.end(), sar + kSarHeaderBytes);
  // SAR trailer: LI(6) CRC10(10), CRC computed with the CRC bits zeroed.
  uint16_t trailer = static_cast<uint16_t>((cell.li & 0x3F) << 10);
  StoreBe16(sar + kSarHeaderBytes + kSarPayloadBytes, trailer);
  const uint16_t crc =
      Crc10(std::span<const uint8_t>(sar, kAtmCellPayloadBytes));
  trailer = static_cast<uint16_t>(trailer | (crc & 0x3FF));
  StoreBe16(sar + kSarHeaderBytes + kSarPayloadBytes, trailer);
  return wire;
}

std::optional<AtmCell> ParseCell(std::span<const uint8_t> wire, bool* crc_ok) {
  TCPLAT_CHECK(crc_ok != nullptr);
  if (wire.size() != kAtmCellBytes) {
    return std::nullopt;
  }
  AtmCell cell;
  cell.vci = LoadBe16(&wire[1]);
  const uint8_t* sar = wire.data() + kAtmCellHeaderBytes;
  const uint16_t hdr = LoadBe16(sar);
  cell.st = static_cast<SegmentType>(hdr >> 14);
  cell.sn = static_cast<uint8_t>((hdr >> 10) & 0xF);
  cell.mid = hdr & 0x3FF;
  std::copy_n(sar + kSarHeaderBytes, kSarPayloadBytes, cell.payload.begin());
  const uint16_t trailer = LoadBe16(sar + kSarHeaderBytes + kSarPayloadBytes);
  cell.li = static_cast<uint8_t>(trailer >> 10);
  const uint16_t got_crc = trailer & 0x3FF;
  // Recompute over the SAR-PDU with the CRC bits zeroed.
  std::array<uint8_t, kAtmCellPayloadBytes> check;
  std::copy_n(sar, kAtmCellPayloadBytes, check.begin());
  check[kAtmCellPayloadBytes - 1] = 0;
  check[kAtmCellPayloadBytes - 2] &= 0xFC;
  *crc_ok = Crc10(check) == got_crc;
  return cell;
}

SarReassemblerStats& SarReassemblerStats::operator+=(const SarReassemblerStats& o) {
  cells += o.cells;
  crc_errors += o.crc_errors;
  sequence_errors += o.sequence_errors;
  protocol_errors += o.protocol_errors;
  cpcs_errors += o.cpcs_errors;
  pdus_ok += o.pdus_ok;
  pdus_dropped += o.pdus_dropped;
  return *this;
}

void SarReassembler::AbortPdu() {
  if (in_progress_) {
    ++stats_.pdus_dropped;
  }
  in_progress_ = false;
  poisoned_ = true;
  buffer_.clear();
}

std::optional<std::vector<uint8_t>> SarReassembler::Feed(const AtmCell& cell, bool crc_ok) {
  ++stats_.cells;
  if (!crc_ok) {
    ++stats_.crc_errors;
    AbortPdu();
    return std::nullopt;
  }

  const bool starts = cell.st == SegmentType::kBom || cell.st == SegmentType::kSsm;
  if (starts) {
    if (in_progress_) {
      // New message while one was open: drop the old one.
      ++stats_.protocol_errors;
      AbortPdu();
    }
    poisoned_ = false;
    in_progress_ = true;
    buffer_.clear();
    expect_sn_ = static_cast<uint8_t>((cell.sn + 1) & 0xF);
  } else {
    if (poisoned_) {
      return std::nullopt;  // discarding the rest of a damaged PDU
    }
    if (!in_progress_) {
      ++stats_.protocol_errors;
      poisoned_ = true;
      return std::nullopt;
    }
    if (cell.sn != expect_sn_) {
      ++stats_.sequence_errors;
      AbortPdu();
      return std::nullopt;
    }
    expect_sn_ = static_cast<uint8_t>((cell.sn + 1) & 0xF);
  }

  if (cell.li > kSarPayloadBytes) {
    ++stats_.protocol_errors;
    AbortPdu();
    return std::nullopt;
  }
  buffer_.insert(buffer_.end(), cell.payload.begin(), cell.payload.begin() + cell.li);

  if (cell.st != SegmentType::kEom && cell.st != SegmentType::kSsm) {
    return std::nullopt;
  }

  in_progress_ = false;
  std::string error;
  auto payload = ParseCpcsPdu(buffer_, &error);
  buffer_.clear();
  if (!payload.has_value()) {
    ++stats_.cpcs_errors;
    ++stats_.pdus_dropped;
    return std::nullopt;
  }
  ++stats_.pdus_ok;
  return payload;
}

}  // namespace tcplat
