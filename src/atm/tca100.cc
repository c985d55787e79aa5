#include "src/atm/tca100.h"

#include "src/base/check.h"

namespace tcplat {

Tca100::Tca100(Host* host, Wire* tx_wire) : host_(host), tx_wire_(tx_wire) {
  TCPLAT_CHECK(host != nullptr);
  TCPLAT_CHECK(tx_wire != nullptr);

  MetricsRegistry& m = host_->metrics();
  if (!m.contains("atm.cells_sent")) {
    m.AddCounterView("atm.cells_sent", &stats_.cells_sent);
    m.AddCounterView("atm.cells_received", &stats_.cells_received);
    m.AddCounterView("atm.rx_fifo_drops", &stats_.rx_fifo_drops);
    m.AddCounterView("atm.tx_fifo_stalls", &stats_.tx_fifo_stalls);
  }
}

void Tca100::ConnectSink(CellSink* sink) {
  TCPLAT_CHECK(sink != nullptr);
  sink_ = sink;
}

void Tca100::TxCell(const AtmCell& cell) {
  TCPLAT_CHECK(sink_ != nullptr) << "adapter not connected";
  Cpu& cpu = host_->cpu();

  if (!cut_through_) {
    cpu.Charge(cpu.profile().atm_tx_per_cell);
    staged_tx_.push_back(SerializeCell(cell));
    ++stats_.cells_sent;
    return;
  }

  // Drop entries for cells that have already drained onto the wire.
  while (!tx_fifo_drain_.empty() && tx_fifo_drain_.front() <= cpu.cursor()) {
    tx_fifo_drain_.pop_front();
  }
  // FIFO full: the store to the memory-mapped FIFO stalls the CPU until the
  // transmit engine frees a slot.
  if (tx_fifo_drain_.size() >= kTca100TxFifoCells) {
    const SimTime free_at = tx_fifo_drain_.front();
    ++stats_.tx_fifo_stalls;
    stats_.tx_stall_time += free_at - cpu.cursor();
    host_->TracePacket(TraceLayer::kAtm, TraceEventKind::kTxStall, cell.vci, 0, 0,
                       free_at - cpu.cursor());
    cpu.StallUntil(free_at);
    tx_fifo_drain_.pop_front();
  }

  // The driver builds the SAR envelope and copies 48 payload bytes (plus
  // header words) into the FIFO.
  cpu.Charge(cpu.profile().atm_tx_per_cell);

  const SimTime done = tx_wire_->Transmit(cpu.cursor(), SerializeCell(cell), sink_);
  tx_fifo_drain_.push_back(done);
  ++stats_.cells_sent;
}

void Tca100::TxCellDma(const AtmCell& cell) {
  TCPLAT_CHECK(sink_ != nullptr) << "adapter not connected";
  tx_wire_->Transmit(host_->cpu().cursor(), SerializeCell(cell), sink_);
  ++stats_.cells_sent;
}

void Tca100::FlushTx() {
  if (cut_through_) {
    return;
  }
  const SimTime start = host_->cpu().cursor();
  for (const CellBytes& wire_bytes : staged_tx_) {
    tx_wire_->Transmit(start, wire_bytes, sink_);
  }
  staged_tx_.clear();
}

void Tca100::DeliverCell(SimTime arrival, const CellBytes& cell) {
  ++stats_.cells_received;
  if (rx_fifo_.size() >= kTca100RxFifoCells) {
    ++stats_.rx_fifo_drops;
    host_->TracePacket(TraceLayer::kAtm, TraceEventKind::kCellDrop, 0, 0, cell.size());
    return;
  }
  RxEntry entry;
  entry.arrival = arrival;
  // The adapter validates the cell CRC-10 in hardware as it lands. A
  // CellBytes always has the size ParseCell wants.
  entry.cell = *ParseCell(cell, &entry.crc_ok);
  const bool last_of_pdu =
      entry.cell.st == SegmentType::kEom || entry.cell.st == SegmentType::kSsm;
  rx_fifo_.push_back(std::move(entry));
  if (last_of_pdu && rx_interrupt_) {
    host_->RunAsInterrupt(rx_interrupt_);
  }
}

bool Tca100::PopRxCell(RxEntry* out) {
  TCPLAT_CHECK(out != nullptr);
  if (rx_fifo_.empty()) {
    return false;
  }
  *out = std::move(rx_fifo_.front());
  rx_fifo_.pop_front();
  return true;
}

}  // namespace tcplat
