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

size_t EpdThreshold(size_t buffer_cells) {
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
  TCPLAT_CHECK_GE(port, 0);
  if (static_cast<size_t>(port) >= outputs_.size()) {
    outputs_.resize(static_cast<size_t>(port) + 1);
  }
  OutputPort& out = outputs_[static_cast<size_t>(port)];
  TCPLAT_CHECK(out.sink == nullptr) << "output port in use";
  const double rate = bits_per_second > 0 ? bits_per_second : bits_per_second_;
  out.wire = std::make_unique<Wire>(sim_, rate, propagation_);
  out.wire->set_impairment(output_impairment_);
  out.sink = sink;
}

void AtmSwitch::set_output_impairment(LinkImpairment* impairment) {
  output_impairment_ = impairment;
  for (OutputPort& out : outputs_) {
    if (out.wire != nullptr) {
      out.wire->set_impairment(impairment);
    }
  }
}

void AtmSwitch::AddRoute(uint16_t vci, int out_port) {
  TCPLAT_CHECK(out_port >= 0 && static_cast<size_t>(out_port) < outputs_.size() &&
               outputs_[static_cast<size_t>(out_port)].sink != nullptr)
      << "route to unattached port";
  if (vci >= vcs_.size()) {
    vcs_.resize(size_t{vci} + 1);
  }
  vcs_[vci].port = out_port;
}

void AtmSwitch::DeliverCell(SimTime arrival, const CellBytes& cell) {
  const uint16_t vci = LoadBe16(&cell[1]);
  const int port = vci < vcs_.size() ? vcs_[vci].port : -1;
  if (port < 0) {
    ++stats_.no_route;
    if (tracer_ != nullptr) {
      tracer_->RecordPacket(trace_id_, TraceLayer::kAtm, TraceEventKind::kDrop, arrival, vci,
                            0, cell.size());
    }
    return;
  }
  OutputPort& out = outputs_[static_cast<size_t>(port)];
  const bool buffered = vc_config_.buffer_cells > 0;
  if (buffered && !AdmitCell(vci, arrival, cell)) {
    return;  // discarded by the VC buffer policy
  }
  ++stats_.cells_switched;
  if (tracer_ != nullptr) {
    tracer_->RecordPacket(trace_id_, TraceLayer::kAtm, TraceEventKind::kCellSwitch, arrival,
                          vci, static_cast<uint64_t>(port), cell.size());
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
    QueueRelease(port, vci, done);
  }
}

void AtmSwitch::QueueRelease(int port, uint16_t vci, SimTime done) {
  OutputPort& out = outputs_[static_cast<size_t>(port)];
  if (out.next_release == out.releases.size()) {
    ports_with_releases_.push_back(port);
  }
  // The sequence number is drawn where the release event used to be
  // scheduled, so it breaks ties against other events as that event did.
  out.releases.push_back({done, sim_->DrawSeq(), vci});
  if (!release_flush_armed_) {
    ArmReleaseFlush();
  }
}

void AtmSwitch::ApplyDueReleases() {
  while (!ports_with_releases_.empty()) {
    // The earliest release across ports: the occupancy samples must go out
    // in the order the release events ran (the timeline's sort is stable).
    size_t first = 0;
    for (size_t i = 1; i < ports_with_releases_.size(); ++i) {
      const OutputPort& a = outputs_[static_cast<size_t>(ports_with_releases_[i])];
      const OutputPort& b = outputs_[static_cast<size_t>(ports_with_releases_[first])];
      const PendingRelease& ra = a.releases[a.next_release];
      const PendingRelease& rb = b.releases[b.next_release];
      if (ra.time < rb.time || (ra.time == rb.time && ra.seq < rb.seq)) {
        first = i;
      }
    }
    OutputPort& out = outputs_[static_cast<size_t>(ports_with_releases_[first])];
    const PendingRelease r = out.releases[out.next_release];
    if (!sim_->KeyPassed(r.time, r.seq)) {
      return;
    }
    if (++out.next_release == out.releases.size()) {
      out.releases.clear();
      out.next_release = 0;
      ports_with_releases_[first] = ports_with_releases_.back();
      ports_with_releases_.pop_back();
    } else if (2 * out.next_release >= out.releases.size() && out.next_release >= 64) {
      // Drop the applied prefix once it is half the vector, so a port
      // that never drains keeps a vector sized to what is pending.
      out.releases.erase(out.releases.begin(),
                         out.releases.begin() + static_cast<ptrdiff_t>(out.next_release));
      out.next_release = 0;
    }
    VcState& vc = *vcs_[r.vci].state;
    --vc.occupancy;
    Sample(TsMetric::kVcOccupancy, r.vci, r.time, vc.occupancy);
  }
}

void AtmSwitch::ArmReleaseFlush() {
  SimTime latest;
  for (const int port : ports_with_releases_) {
    latest = std::max(latest, outputs_[static_cast<size_t>(port)].releases.back().time);
  }
  release_flush_armed_ = true;
  sim_->ScheduleAt(latest, [this] {
    release_flush_armed_ = false;
    ApplyDueReleases();
    if (!ports_with_releases_.empty()) {
      ArmReleaseFlush();  // releases queued after this event was scheduled
    }
  });
}

AtmSwitch::VcState& AtmSwitch::EnsureVc(uint16_t vci) {
  std::unique_ptr<VcState>& state = vcs_[vci].state;
  if (state == nullptr) {
    state = std::make_unique<VcState>();
    const std::string prefix = "switch.vc" + std::to_string(vci);
    metrics_.AddGaugeView(prefix + ".occupancy", &state->occupancy);
    metrics_.AddGaugeView(prefix + ".hiwat", &state->hiwat);
    metrics_.AddCounterView(prefix + ".cells_forwarded", &state->cells_forwarded);
    metrics_.AddCounterView(prefix + ".cells_dropped", &state->cells_dropped);
    if (!metrics_.contains("switch.cells_dropped_tail")) {
      metrics_.AddCounterView("switch.cells_dropped_tail", &stats_.cells_dropped_tail);
      metrics_.AddCounterView("switch.cells_dropped_epd", &stats_.cells_dropped_epd);
      metrics_.AddCounterView("switch.cells_dropped_ppd", &stats_.cells_dropped_ppd);
      metrics_.AddCounterView("switch.frames_discarded", &stats_.frames_discarded);
    }
  }
  return *state;
}

bool AtmSwitch::AdmitCell(uint16_t vci, SimTime arrival, const CellBytes& cell) {
  ApplyDueReleases();
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
    const size_t threshold = EpdThreshold(vc_config_.buffer_cells);
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
