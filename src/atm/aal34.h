// ATM Adaptation Layer 3/4 framing (ITU-T I.363 Class 3/4, as implemented by
// the FORE TCA-100 driver/adapter pair in the paper).
//
// Encapsulation of one datagram:
//
//   CPCS-PDU:  [CPI|Btag|BAsize] payload ... pad-to-4 [AL|Etag|Length]
//                 1    1     2                           1    1     2
//   SAR:       the CPCS-PDU is sliced into 44-byte SAR payloads, each
//              wrapped as [ST:2 SN:4 MID:10] payload[44] [LI:6 CRC10:10]
//              = 48 bytes, carried in one 53-byte ATM cell (5-byte header).
//
// Segment types: BOM begins a PDU, COM continues, EOM ends, SSM is a
// single-segment PDU. The per-cell CRC-10 covers the entire 48-byte SAR-PDU
// with the CRC field taken as zero.

#ifndef SRC_ATM_AAL34_H_
#define SRC_ATM_AAL34_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/link/wire.h"  // kAtmCellBytes, CellBytes

namespace tcplat {

inline constexpr size_t kAtmCellHeaderBytes = 5;
inline constexpr size_t kAtmCellPayloadBytes = 48;
inline constexpr size_t kSarHeaderBytes = 2;
inline constexpr size_t kSarTrailerBytes = 2;
inline constexpr size_t kSarPayloadBytes = 44;
inline constexpr size_t kCpcsHeaderBytes = 4;
inline constexpr size_t kCpcsTrailerBytes = 4;

// The FORE interface presents a ~9 KB MTU to IP ("our ATM MTU of 9K").
inline constexpr size_t kAtmMtu = 9188;

enum class SegmentType : uint8_t {
  kCom = 0,  // continuation of message
  kEom = 1,  // end of message
  kBom = 2,  // beginning of message
  kSsm = 3,  // single-segment message
};

struct AtmCell {
  uint16_t vci = 0;
  SegmentType st = SegmentType::kCom;
  uint8_t sn = 0;     // 4-bit sequence number
  uint16_t mid = 0;   // 10-bit multiplexing id
  uint8_t li = 0;     // 6-bit length indicator (valid SAR payload bytes)
  std::array<uint8_t, kSarPayloadBytes> payload{};
};

// Builds the CPCS-PDU envelope around a datagram.
std::vector<uint8_t> BuildCpcsPdu(std::span<const uint8_t> payload, uint8_t btag);

// Validates a CPCS-PDU and extracts the datagram; on failure returns nullopt
// and, if non-null, sets *error to a reason string.
std::optional<std::vector<uint8_t>> ParseCpcsPdu(std::span<const uint8_t> pdu,
                                                 std::string* error);

// Slices a CPCS-PDU into SAR cells. `sn` is the per-VC 4-bit sequence
// counter, advanced in place.
std::vector<AtmCell> SegmentCpcsPdu(std::span<const uint8_t> cpcs, uint16_t vci, uint16_t mid,
                                    uint8_t* sn);

// Serializes one cell to its 53-byte wire image (computes CRC-10).
CellBytes SerializeCell(const AtmCell& cell);

// Parses a 53-byte wire image. `crc_ok` reports the per-cell CRC-10 check
// (the TCA-100 performs this in hardware). Returns nullopt for malformed
// sizes only.
std::optional<AtmCell> ParseCell(std::span<const uint8_t> wire, bool* crc_ok);

struct SarReassemblerStats {
  uint64_t cells = 0;
  uint64_t crc_errors = 0;
  uint64_t sequence_errors = 0;
  uint64_t protocol_errors = 0;  // unexpected BOM/COM/EOM state
  uint64_t cpcs_errors = 0;      // tag/length/checksum trouble at CPCS level
  uint64_t pdus_ok = 0;
  uint64_t pdus_dropped = 0;

  SarReassemblerStats& operator+=(const SarReassemblerStats& o);
};

// Receive-side SAR state machine for one VC. Feed cells in arrival order;
// a completed, validated datagram is returned on the EOM/SSM cell.
class SarReassembler {
 public:
  std::optional<std::vector<uint8_t>> Feed(const AtmCell& cell, bool crc_ok);

  const SarReassemblerStats& stats() const { return stats_; }
  bool mid_assembly_in_progress() const { return in_progress_; }

 private:
  void AbortPdu();

  bool in_progress_ = false;
  bool poisoned_ = false;  // error seen; discard until next BOM
  uint8_t expect_sn_ = 0;
  std::vector<uint8_t> buffer_;
  SarReassemblerStats stats_;
};

}  // namespace tcplat

#endif  // SRC_ATM_AAL34_H_
