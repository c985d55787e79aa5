// Device model of the FORE TCA-100 TURBOchannel ATM interface.
//
// The characteristics the paper calls out (§1.1, §4.1.1) are modeled
// explicitly:
//
//  * A memory-mapped transmit FIFO holding 36 cells. "The transmit engine
//    starts reading from the transmit FIFO as soon as there is one complete
//    cell in the FIFO" — cut-through: each cell begins serializing onto the
//    fiber the moment the driver finishes writing it (if the line is free).
//    When the FIFO is full the driver's copy loop stalls until the oldest
//    cell drains. This is exactly why the checksum cannot be deferred to
//    the driver-level copy on transmit (§4.1.1).
//  * A receive FIFO holding 292 cells; cells overflowing it are dropped.
//    The adapter checks the per-cell AAL3/4 CRC-10 in hardware (no host CPU
//    cost) and interrupts the host when the last cell of a PDU (EOM/SSM)
//    arrives — the paper's "arrival of the last group of ATM cells".
//  * The 140 Mbit/s TAXI fiber is the attached Wire.

#ifndef SRC_ATM_TCA100_H_
#define SRC_ATM_TCA100_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/atm/aal34.h"
#include "src/base/ring_buffer.h"
#include "src/link/wire.h"
#include "src/os/host.h"

namespace tcplat {

inline constexpr size_t kTca100TxFifoCells = 36;
inline constexpr size_t kTca100RxFifoCells = 292;
inline constexpr double kTaxiBitsPerSecond = 140e6;

struct Tca100Stats {
  uint64_t cells_sent = 0;
  uint64_t cells_received = 0;
  uint64_t rx_fifo_drops = 0;
  uint64_t tx_fifo_stalls = 0;
  SimDuration tx_stall_time;
};

class Tca100 : public CellSink {
 public:
  struct RxEntry {
    AtmCell cell;
    bool crc_ok = false;
    SimTime arrival;
  };

  Tca100(Host* host, Wire* tx_wire);

  // Wires the receive side: cells this adapter transmits arrive at `sink`
  // (the peer adapter when the fiber is point-to-point, or a switch port).
  void ConnectSink(CellSink* sink);
  void ConnectPeer(Tca100* peer) { ConnectSink(peer); }

  // CellSink: a cell arrives at this adapter's receive FIFO.
  using CellSink::DeliverCell;
  void DeliverCell(SimTime arrival, const CellBytes& cell) override;

  // Cut-through (the real TCA-100 behavior, default) starts serializing a
  // cell onto the fiber the moment the driver writes it. Store-and-forward
  // — a hypothetical ablation (A2) — holds cells until FlushTx(), as an
  // adapter that DMA-completes whole PDUs would. In that mode the FIFO
  // depth limit is not enforced (the hypothetical adapter buffers a PDU).
  void set_cut_through(bool enabled) { cut_through_ = enabled; }
  bool cut_through() const { return cut_through_; }

  // Releases store-and-forward staged cells to the fiber. No-op when
  // cut-through is enabled.
  void FlushTx();

  // Installed by the driver; invoked (as a hardware interrupt) when an
  // EOM/SSM cell lands in the receive FIFO.
  void set_rx_interrupt(std::function<void()> handler) { rx_interrupt_ = std::move(handler); }

  // Driver transmit path: waits for FIFO space (stalling the CPU), charges
  // the per-cell copy cost, and hands the 53-byte image to the fiber.
  // Must be called during a CPU run on the owning host.
  void TxCell(const AtmCell& cell);

  // Hypothetical DMA transmit (§2.2.3): the adapter fetches the cell from
  // host memory itself — no CPU copy charge, no FIFO stall (the DMA engine
  // is paced by the wire). The caller charges one descriptor setup per PDU.
  void TxCellDma(const AtmCell& cell);

  // Driver receive path: pops the oldest cell out of the receive FIFO.
  // Returns false when the FIFO is empty. No cost charged (the driver
  // charges its own per-cell drain cost).
  bool PopRxCell(RxEntry* out);

  size_t rx_fifo_depth() const { return rx_fifo_.size(); }
  const Tca100Stats& stats() const { return stats_; }
  Host& host() { return *host_; }

 private:
  Host* host_;
  Wire* tx_wire_;
  CellSink* sink_ = nullptr;
  std::function<void()> rx_interrupt_;

  // Completion (serialization-finished) times of cells occupying the TX
  // FIFO; entries older than the CPU cursor have drained. Both FIFOs grow to
  // their high-water mark on first use rather than to the hardware depth up
  // front, so an adapter that only carries small PDUs stays small.
  RingBuffer<SimTime> tx_fifo_drain_;
  RingBuffer<RxEntry> rx_fifo_;
  bool cut_through_ = true;
  std::vector<CellBytes> staged_tx_;  // store-and-forward mode
  Tca100Stats stats_;
};

}  // namespace tcplat

#endif  // SRC_ATM_TCA100_H_
