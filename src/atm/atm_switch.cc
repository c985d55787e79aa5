#include "src/atm/atm_switch.h"

#include <algorithm>
#include <string>

#include "src/atm/aal34.h"
#include "src/base/check.h"
#include "src/net/byte_order.h"

namespace tcplat {

const char* DropPolicyName(DropPolicy p) {
  switch (p) {
    case DropPolicy::kTailDrop:
      return "tail";
    case DropPolicy::kEpd:
      return "epd";
    case DropPolicy::kPpd:
      return "ppd";
  }
  return "?";
}

size_t EpdThreshold(size_t buffer_cells, size_t configured) {
  if (configured != 0) {
    return configured;
  }
  return std::max(buffer_cells / 2,
                  buffer_cells > kFrameHeadroomCells ? buffer_cells - kFrameHeadroomCells : 0);
}

AtmSwitch::AtmSwitch(Simulator* sim, double bits_per_second, SimDuration propagation,
                     SimDuration per_cell_latency)
    : sim_(sim), bits_per_second_(bits_per_second), propagation_(propagation),
      per_cell_latency_(per_cell_latency) {
  TCPLAT_CHECK(sim != nullptr);
}

void AtmSwitch::AttachOutput(int port, CellSink* sink, double bits_per_second) {
  TCPLAT_CHECK(sink != nullptr);
  TCPLAT_CHECK(outputs_.find(port) == outputs_.end()) << "output port in use";
  OutputPort out;
  const double rate = bits_per_second > 0 ? bits_per_second : bits_per_second_;
  out.wire = std::make_unique<Wire>(sim_, rate, propagation_);
  out.wire->set_impairment(output_impairment_);
  out.sink = sink;
  out.release_lane = sim_->NewLane();
  outputs_[port] = std::move(out);
}

void AtmSwitch::set_output_impairment(LinkImpairment* impairment) {
  output_impairment_ = impairment;
  for (auto& [port, out] : outputs_) {
    out.wire->set_impairment(impairment);
  }
}

void AtmSwitch::AddRoute(uint16_t vci, int out_port) {
  TCPLAT_CHECK(outputs_.find(out_port) != outputs_.end()) << "route to unattached port";
  routes_[vci] = out_port;
}

void AtmSwitch::DeliverCell(SimTime arrival, const CellBytes& cell) {
  const uint16_t vci = LoadBe16(&cell[1]);
  auto route = routes_.find(vci);
  if (route == routes_.end()) {
    ++stats_.no_route;
    if (tracer_ != nullptr) {
      tracer_->RecordPacket(trace_id_, TraceLayer::kAtm, TraceEventKind::kDrop, arrival, vci,
                            0, cell.size());
    }
    return;
  }
  OutputPort& out = outputs_.at(route->second);
  const bool buffered = vc_config_.buffer_cells > 0;
  if (buffered && !AdmitCell(vci, arrival, cell)) {
    return;  // discarded by the VC buffer policy
  }
  ++stats_.cells_switched;
  if (tracer_ != nullptr) {
    tracer_->RecordPacket(trace_id_, TraceLayer::kAtm, TraceEventKind::kCellSwitch, arrival,
                          vci, static_cast<uint64_t>(route->second), cell.size());
  }

  // Hardware pipeline: no host CPU involved. The cell re-serializes on the
  // output fiber after the fabric latency (the wire handles head-of-line
  // queueing when cells from several inputs converge on one output). The
  // latency is constant, so handing the cell over now, with its start time,
  // keeps each output's cells in arrival order. A buffered cell holds its
  // VC's occupancy slot until its last bit leaves.
  const SimTime start = arrival + per_cell_latency_;
  SimTime done;
  if (fabric_corrupt_) {
    std::vector<uint8_t> bytes(cell.begin(), cell.end());
    fabric_corrupt_(bytes);
    done = out.wire->Transmit(start, ToCellBytes(bytes), out.sink);
  } else {
    done = out.wire->Transmit(start, cell, out.sink);
  }
  if (buffered) {
    sim_->ScheduleInLane(out.release_lane, done, [this, vci] {
      VcState& vc = vc_states_[vci];
      --vc.occupancy;
      Sample(TsMetric::kVcOccupancy, vci, sim_->Now(), vc.occupancy);
    });
  }
}

AtmSwitch::VcState& AtmSwitch::EnsureVc(uint16_t vci) {
  auto it = vc_states_.find(vci);
  if (it == vc_states_.end()) {
    it = vc_states_.emplace(vci, VcState{}).first;
    const std::string prefix = "switch.vc" + std::to_string(vci);
    metrics_.AddGaugeView(prefix + ".occupancy", &it->second.occupancy);
    metrics_.AddGaugeView(prefix + ".hiwat", &it->second.hiwat);
    metrics_.AddCounterView(prefix + ".cells_forwarded", &it->second.cells_forwarded);
    metrics_.AddCounterView(prefix + ".cells_dropped", &it->second.cells_dropped);
    if (!metrics_.contains("switch.cells_dropped_tail")) {
      metrics_.AddCounterView("switch.cells_dropped_tail", &stats_.cells_dropped_tail);
      metrics_.AddCounterView("switch.cells_dropped_epd", &stats_.cells_dropped_epd);
      metrics_.AddCounterView("switch.cells_dropped_ppd", &stats_.cells_dropped_ppd);
      metrics_.AddCounterView("switch.frames_discarded", &stats_.frames_discarded);
    }
  }
  return it->second;
}

bool AtmSwitch::AdmitCell(uint16_t vci, SimTime arrival, const CellBytes& cell) {
  VcState& vc = EnsureVc(vci);
  // The AAL3/4 segment type rides in the top two bits of the SAR header
  // (wire byte 5); it is what lets the switch see frame boundaries.
  const auto st = static_cast<SegmentType>(cell[5] >> 6);
  const bool frame_start = st == SegmentType::kBom || st == SegmentType::kSsm;
  const bool frame_end = st == SegmentType::kEom || st == SegmentType::kSsm;
  const DropPolicy policy = vc_config_.policy;

  bool drop = false;
  bool epd = false;

  if (frame_start) {
    vc.dropping_frame = false;  // a new frame resets any discard-in-progress
    vc.early_discard = false;
    const size_t threshold = EpdThreshold(vc_config_.buffer_cells, vc_config_.epd_threshold);
    if (policy == DropPolicy::kEpd && vc.occupancy >= static_cast<int64_t>(threshold)) {
      // Early discard: refuse the whole frame while there is still room,
      // rather than truncating one mid-stream later.
      vc.dropping_frame = true;
      vc.early_discard = true;
      ++vc.frames_discarded;
      ++stats_.frames_discarded;
      SampleEdge(TsMetric::kVcEpdRefusal, vci, arrival, vc.occupancy);
    }
  }

  if (vc.dropping_frame) {
    if (!vc.early_discard && frame_end) {
      // Late (overflow-initiated) discard spares the EOM so the reassembler
      // sees the frame boundary; EPD's early discard eats the whole frame.
      vc.dropping_frame = false;
    } else {
      drop = true;
      epd = vc.early_discard;
      if (frame_end) {
        vc.dropping_frame = false;
        vc.early_discard = false;
      }
    }
  }

  if (!drop && vc.occupancy >= static_cast<int64_t>(vc_config_.buffer_cells)) {
    // Overflow. Tail drop loses just this cell; EPD/PPD also give up on the
    // rest of the frame (an incomplete frame is useless to AAL anyway).
    drop = true;
    if (policy != DropPolicy::kTailDrop && !frame_end) {
      vc.dropping_frame = true;
      ++vc.frames_discarded;
      ++stats_.frames_discarded;
    }
  }

  if (drop) {
    ++vc.cells_dropped;
    switch (policy) {
      case DropPolicy::kTailDrop:
        ++stats_.cells_dropped_tail;
        break;
      case DropPolicy::kEpd:
        if (epd) {
          ++stats_.cells_dropped_epd;
        } else {
          ++stats_.cells_dropped_ppd;  // mid-frame overflow: PPD-style tail
        }
        break;
      case DropPolicy::kPpd:
        ++stats_.cells_dropped_ppd;
        break;
    }
    if (tracer_ != nullptr) {
      tracer_->RecordPacket(trace_id_, TraceLayer::kAtm, TraceEventKind::kDrop, arrival, vci,
                            static_cast<uint64_t>(vc.occupancy), cell.size());
    }
    Sample(TsMetric::kVcDropsCum, vci, arrival, static_cast<int64_t>(vc.cells_dropped));
    return false;
  }

  ++vc.occupancy;
  vc.hiwat = std::max(vc.hiwat, vc.occupancy);
  ++vc.cells_forwarded;
  Sample(TsMetric::kVcOccupancy, vci, arrival, vc.occupancy);
  Sample(TsMetric::kVcHiwat, vci, arrival, vc.hiwat);
  return true;
}

}  // namespace tcplat
