#include "layers.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <span>

#include "spans.h"
#include "src/atm/aal34.h"
#include "src/atm/atm_switch.h"
#include "src/atm/tca100.h"
#include "src/base/random.h"
#include "src/cpu/cost_profile.h"
#include "src/ether/ether_netif.h"
#include "src/link/wire.h"
#include "src/net/byte_order.h"
#include "src/net/checksum.h"
#include "src/net/crc.h"
#include "src/os/host.h"
#include "src/sim/simulator.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using tcplat::SimDuration;
using tcplat::SimTime;
using tcplat::Simulator;

constexpr SimDuration kPropagation = SimDuration::FromNanos(300);

// Defeats dead-code elimination of replayed work whose result is unused.
volatile uint64_t g_sink = 0;

double NsSince(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

struct Batch {
  uint64_t units = 0;
  double ns = 0;  // time charged to this layer for those units
};

// Runs `batch` until `seconds` have passed (at least three times) and
// returns the median of the per-batch ns/unit figures.
template <typename Fn>
double MedianNsPerUnit(Fn&& batch, double seconds) {
  std::vector<double> per_unit;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9));
  while (per_unit.size() < 3 || Clock::now() < deadline) {
    const Batch b = batch();
    if (b.units == 0) return 0.0;
    per_unit.push_back(b.ns / static_cast<double>(b.units));
  }
  std::sort(per_unit.begin(), per_unit.end());
  return per_unit[per_unit.size() / 2];
}

bool IsCell(const std::vector<uint8_t>& unit) { return unit.size() == tcplat::kAtmCellBytes; }

// A delivery callback the size of the simulator's per-cell wire deliveries
// (arrival time, payload vector and DeliverFn), so std::function stores it
// on the heap exactly as those deliveries do.
struct ReplayEvent {
  struct Context {
    Simulator* sim;
    std::array<int64_t, 4096> deltas;
    size_t next = 0;
  };
  Context* ctx;
  std::array<uint64_t, 7> payload{};
  void operator()() const {
    Context* c = ctx;
    g_sink = g_sink + payload[0];
    c->sim->Schedule(SimDuration::FromNanos(c->deltas[c->next++ & 4095]), *this);
  }
};

double MeasureEventNs(double mean_depth, double seconds) {
  const size_t depth = std::max<size_t>(1, static_cast<size_t>(mean_depth + 0.5));
  Simulator sim(1);
  auto ctx = std::make_unique<ReplayEvent::Context>();
  ctx->sim = &sim;
  tcplat::Rng rng(1);
  // Pending timers and deliveries spread over ~one 200-byte round trip.
  for (int64_t& d : ctx->deltas) d = static_cast<int64_t>(rng.NextBelow(400000));
  for (size_t i = 0; i < depth; ++i) {
    sim.Schedule(SimDuration::FromNanos(ctx->deltas[i & 4095]), ReplayEvent{ctx.get()});
  }
  return MedianNsPerUnit(
      [&] {
        constexpr uint64_t kSteps = 20000;
        const Clock::time_point t0 = Clock::now();
        for (uint64_t i = 0; i < kSteps; ++i) sim.Step();
        return Batch{kSteps, NsSince(t0)};
      },
      seconds);
}

// Every recorded byte, for the byte-stream layers (checksum, CRC-32 when
// the workload sent no Ethernet frames).
std::vector<uint8_t> BytePool(const std::vector<std::vector<uint8_t>>& units) {
  std::vector<uint8_t> pool;
  for (const auto& u : units) {
    if (pool.size() >= (1u << 20)) break;
    pool.insert(pool.end(), u.begin(), u.end());
  }
  return pool;
}

double MeasureChunkNs(const std::vector<uint8_t>& pool, size_t chunk, double seconds,
                      uint64_t (*fn)(std::span<const uint8_t>)) {
  if (pool.size() < chunk) return 0.0;
  return MedianNsPerUnit(
      [&] {
        uint64_t acc = 0;
        uint64_t n = 0;
        const Clock::time_point t0 = Clock::now();
        for (size_t off = 0; off + chunk <= pool.size(); off += chunk, ++n) {
          acc += fn(std::span<const uint8_t>(pool.data() + off, chunk));
        }
        const double ns = NsSince(t0);
        g_sink = g_sink + acc;
        return Batch{n, ns};
      },
      seconds);
}

// Host ns of `n` events the size of a wire delivery, each scheduled and
// dispatched on its own on `sim`: the event-queue part of a one-deep replay,
// which sim.share already counts.
double ShallowEventsNs(Simulator& sim, uint64_t n) {
  const std::array<uint64_t, 8> payload{};  // 64 bytes, as ReplayEvent
  const Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; i < n; ++i) {
    sim.Schedule(kPropagation, [payload] { g_sink = g_sink + payload[0]; });
    sim.RunToCompletion();
  }
  return NsSince(t0);
}

struct Replayed {
  double ns = 0;
  uint64_t events = 0;
};

// Puts copies of `units` through `transmit` one at a time, dispatching each
// unit's events before the next so the queue stays one deep.
template <typename Transmit>
Replayed Replay(const std::vector<const std::vector<uint8_t>*>& units, Simulator& sim,
                Transmit&& transmit) {
  std::vector<std::vector<uint8_t>> copies;
  copies.reserve(units.size());
  for (const auto* u : units) copies.push_back(*u);
  const uint64_t events0 = sim.events_dispatched();
  const Clock::time_point t0 = Clock::now();
  for (auto& c : copies) {
    transmit(std::move(c));
    sim.RunToCompletion();
  }
  return {NsSince(t0), sim.events_dispatched() - events0};
}

// A link's self time per unit: the replay minus, timed right after it, the
// same number of bare events.
template <typename Transmit>
double MeasureLinkNs(const std::vector<const std::vector<uint8_t>*>& units, Simulator& sim,
                     Transmit&& transmit, double seconds) {
  if (units.empty()) return 0.0;
  return MedianNsPerUnit(
      [&] {
        const Replayed r = Replay(units, sim, transmit);
        return Batch{units.size(), std::max(0.0, r.ns - ShallowEventsNs(sim, r.events))};
      },
      seconds);
}

class NullSink : public tcplat::CellSink {
 public:
  void DeliverCell(SimTime, std::vector<uint8_t> wire_bytes) override {
    g_sink = g_sink + wire_bytes[0];
  }
};

// The switch's self time per cell: recorded cells fed one at a time into a
// standalone switch with the workload's VC buffering, minus the same cells
// put on a bare output fiber and the switch's extra events, all three timed
// back to back.
double MeasureSwitchNs(const std::vector<const std::vector<uint8_t>*>& cells,
                       size_t buffer_cells, double seconds) {
  if (cells.empty()) return 0.0;
  Simulator sim(1);
  tcplat::AtmSwitch sw(&sim, tcplat::kTaxiBitsPerSecond, kPropagation,
                       SimDuration::FromMicros(10));
  NullSink sink;
  sw.AttachOutput(0, &sink);
  for (const auto* c : cells) sw.AddRoute(tcplat::LoadBe16(c->data() + 1), 0);
  tcplat::VcBufferConfig vc;
  vc.buffer_cells = buffer_cells;
  sw.ConfigureVcBuffers(vc);
  tcplat::CellSink* in = sw.input(0);
  tcplat::Wire fiber(&sim, tcplat::kTaxiBitsPerSecond, kPropagation);
  return MedianNsPerUnit(
      [&] {
        const Replayed switched = Replay(
            cells, sim, [&](std::vector<uint8_t> c) { in->DeliverCell(sim.Now(), std::move(c)); });
        const Replayed fibered = Replay(cells, sim, [&](std::vector<uint8_t> c) {
          fiber.Transmit(sim.Now(), std::move(c), [&](SimTime t, std::vector<uint8_t> d) {
            sink.DeliverCell(t, std::move(d));
          });
        });
        const double extra_events_ns = ShallowEventsNs(
            sim, switched.events > fibered.events ? switched.events - fibered.events : 0);
        return Batch{cells.size(),
                     std::max(0.0, switched.ns - fibered.ns - extra_events_ns)};
      },
      seconds);
}

// SAR receive (ParseCell + per-VC reassembly) and transmit (CPCS envelope,
// segmentation, SerializeCell) for every recorded cell.
double MeasureSarNs(const std::vector<const std::vector<uint8_t>*>& cells, double seconds) {
  if (cells.empty()) return 0.0;
  return MedianNsPerUnit(
      [&] {
        std::map<uint16_t, tcplat::SarReassembler> rx;
        uint8_t sn = 0;
        uint8_t btag = 0;
        uint64_t acc = 0;
        const Clock::time_point t0 = Clock::now();
        for (const auto* wire : cells) {
          bool crc_ok = false;
          std::optional<tcplat::AtmCell> cell = tcplat::ParseCell(*wire, &crc_ok);
          if (!cell.has_value()) continue;
          std::optional<std::vector<uint8_t>> datagram = rx[cell->vci].Feed(*cell, crc_ok);
          if (!datagram.has_value()) continue;
          const std::vector<uint8_t> pdu = tcplat::BuildCpcsPdu(*datagram, btag++);
          for (const tcplat::AtmCell& out : tcplat::SegmentCpcsPdu(pdu, cell->vci, 0, &sn)) {
            acc += tcplat::SerializeCell(out)[tcplat::kAtmCellBytes - 1];
          }
        }
        const double ns = NsSince(t0);
        g_sink = g_sink + acc;
        return Batch{cells.size(), ns};
      },
      seconds);
}

// Takes and frees mbufs in the run's mix of small mbufs, cluster mbufs and
// cluster references on a standalone host, in bursts of 32 (a chain's
// worth) as the socket layer does.
double MeasureMbufNs(const LayerCounts& counts, double seconds) {
  const uint64_t allocs = counts.mbuf_allocs();
  if (allocs == 0) return 0.0;
  Simulator sim(1);
  tcplat::Host host(&sim, "replay", tcplat::CostProfile::Decstation5000_200());
  tcplat::MbufPool& pool = host.pool();
  std::vector<tcplat::MbufPtr> held;
  held.reserve(32);
  return MedianNsPerUnit(
      [&] {
        constexpr uint64_t kAllocs = 4096;
        double ns = 0;
        host.RunAsInterrupt([&] {
          tcplat::MbufPtr page = pool.GetCluster();
          page->Append(1024);
          uint64_t clusters = 0;
          uint64_t refs = 0;
          const Clock::time_point t0 = Clock::now();
          for (uint64_t i = 1; i <= kAllocs; ++i) {
            // Bresenham spread of each kind's share across the burst.
            if (clusters * allocs < i * counts.mbuf_cluster_allocs) {
              held.push_back(pool.GetCluster());
              ++clusters;
            } else if (refs * allocs < i * counts.mbuf_cluster_refs) {
              held.push_back(pool.CopyRange(page.get(), 0, 1024));
              ++refs;
            } else {
              held.push_back(pool.GetHeader());
            }
            if (held.size() == 32) {
              for (auto& m : held) pool.FreeChain(std::move(m));
              held.clear();
            }
          }
          for (auto& m : held) pool.FreeChain(std::move(m));
          held.clear();
          ns = NsSince(t0);
          pool.FreeChain(std::move(page));
        });
        return Batch{kAllocs, ns};
      },
      seconds);
}

uint64_t Crc10Of(std::span<const uint8_t> b) { return tcplat::Crc10(b); }
uint64_t Crc32Of(std::span<const uint8_t> b) { return tcplat::Crc32(b); }
uint64_t CksumOf(std::span<const uint8_t> b) { return tcplat::ComputePartial(b).sum; }

// Host ns the run spent on its links: every unit of LayerCounts::link_units.
double LinkNs(const LayerCounts& k, const UnitCosts& c) {
  return static_cast<double>(k.cells_sent + k.switch_cells) * c.link_cell_ns +
         static_cast<double>(k.frames_sent) * c.link_frame_ns;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

UnitObserver UnitRecording::Observer() {
  auto per_sim = std::make_shared<std::map<const Simulator*, size_t>>();
  return [this, per_sim](Simulator* sim, const std::vector<uint8_t>& unit) {
    ++observed_;
    depth_sum_ += static_cast<double>(sim->pending_events());
    size_t& kept = (*per_sim)[sim];
    if (kept < cap_) {
      ++kept;
      units_.push_back(unit);
    }
  };
}

UnitCosts MeasureUnitCosts(const UnitRecording& recording, const LayerCounts& counts,
                           size_t switch_buffer_cells, double seconds_per_layer,
                           SpanLog* spans) {
  std::vector<const std::vector<uint8_t>*> cells;
  std::vector<const std::vector<uint8_t>*> frames;
  for (const auto& u : recording.units()) (IsCell(u) ? cells : frames).push_back(&u);
  const std::vector<uint8_t> pool = BytePool(recording.units());

  UnitCosts c;
  {
    ScopedSpan span(spans, "replay sim");
    c.ns_per_event = MeasureEventNs(recording.mean_pending_depth(), seconds_per_layer);
  }
  {
    ScopedSpan span(spans, "replay net");
    if (!cells.empty()) {
      std::vector<uint8_t> sar_pdus;
      for (const auto* cell : cells) {
        sar_pdus.insert(sar_pdus.end(), cell->begin() + tcplat::kAtmCellHeaderBytes,
                        cell->end());
      }
      c.ns_per_crc10 = MeasureChunkNs(sar_pdus, tcplat::kAtmCellPayloadBytes,
                                      seconds_per_layer / 3, Crc10Of);
    }
    if (!frames.empty()) {
      c.ns_per_crc32 = MedianNsPerUnit(
          [&] {
            uint64_t acc = 0;
            const Clock::time_point t0 = Clock::now();
            for (const auto* f : frames) acc += tcplat::Crc32({f->data(), f->size() - 4});
            const double ns = NsSince(t0);
            g_sink = g_sink + acc;
            return Batch{frames.size(), ns};
          },
          seconds_per_layer / 3);
    } else {
      // No Ethernet in this workload: time a full-size frame's worth.
      c.ns_per_crc32 = MeasureChunkNs(pool, 1514, seconds_per_layer / 3, Crc32Of);
    }
    c.ns_per_cksum_kb = MeasureChunkNs(pool, 1024, seconds_per_layer / 3, CksumOf);
  }
  {
    ScopedSpan span(spans, "replay link");
    // The host fibers are Wires at the TAXI rate; Ethernet is the shared
    // segment (with no stations attached, so delivery stops at the bus).
    Simulator sim(1);
    tcplat::Wire fiber(&sim, tcplat::kTaxiBitsPerSecond, kPropagation);
    tcplat::EtherSegment segment(&sim, kPropagation);
    c.link_cell_ns = MeasureLinkNs(
        cells, sim,
        [&](std::vector<uint8_t> unit) {
          fiber.Transmit(sim.Now(), std::move(unit), [](SimTime, std::vector<uint8_t> data) {
            g_sink = g_sink + data[0];
          });
        },
        seconds_per_layer / 2);
    c.link_frame_ns = MeasureLinkNs(
        frames, sim,
        [&](std::vector<uint8_t> unit) { segment.Transmit(sim.Now(), std::move(unit)); },
        seconds_per_layer / 2);
  }
  {
    ScopedSpan span(spans, "replay atm");
    c.ns_per_cell = MeasureSarNs(cells, seconds_per_layer / 2);
    c.sar_self_ns = std::max(0.0, c.ns_per_cell - 2 * c.ns_per_crc10);
    if (counts.switch_cells > 0) {
      c.ns_per_switch_cell = MeasureSwitchNs(cells, switch_buffer_cells, seconds_per_layer / 2);
    }
  }
  {
    ScopedSpan span(spans, "replay buf");
    c.ns_per_alloc = MeasureMbufNs(counts, seconds_per_layer);
  }
  return c;
}

std::vector<std::pair<std::string, double>> LayerShares(const LayerCounts& k,
                                                        const UnitCosts& c, double wall_ns) {
  const auto share = [wall_ns](double ns) { return wall_ns > 0 ? ns / wall_ns : 0.0; };
  const double sar_cells = static_cast<double>(k.cells_sent + k.cells_parsed) / 2;
  return {
      {"sim", share(static_cast<double>(k.sim_events) * c.ns_per_event)},
      {"net", share(static_cast<double>(k.crc10_calls()) * c.ns_per_crc10 +
                    static_cast<double>(k.crc32_calls()) * c.ns_per_crc32 +
                    static_cast<double>(k.cksum_bytes()) / 1024 * c.ns_per_cksum_kb)},
      {"atm", share(sar_cells * c.sar_self_ns +
                    static_cast<double>(k.switch_cells) * c.ns_per_switch_cell)},
      {"link", share(LinkNs(k, c))},
      {"buf", share(static_cast<double>(k.mbuf_allocs()) * c.ns_per_alloc)},
  };
}

std::vector<Metric> LayerReport(const LayerCounts& k, const UnitCosts& c, double wall_ns) {
  const auto shares = LayerShares(k, c, wall_ns);
  const auto share_of = [&](const char* layer) {
    for (const auto& [name, s] : shares) {
      if (name == layer) return s;
    }
    return 0.0;
  };
  double stack = 1.0;
  for (const auto& [name, s] : shares) stack -= s;

  const uint64_t link_units = k.link_units();
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"sim.events", d(k.sim_events), "count"},
      {"sim.ns_per_event", c.ns_per_event, "ns"},
      {"sim.share", share_of("sim"), "ratio"},
      {"net.crc10_calls", d(k.crc10_calls()), "count"},
      {"net.crc32_calls", d(k.crc32_calls()), "count"},
      {"net.cksum_bytes", d(k.cksum_bytes()), "B"},
      {"net.ns_per_crc10", c.ns_per_crc10, "ns"},
      {"net.ns_per_crc32", c.ns_per_crc32, "ns"},
      {"net.ns_per_cksum_kb", c.ns_per_cksum_kb, "ns/KiB"},
      {"net.share", share_of("net"), "ratio"},
      {"atm.cells", d(k.cells_sent), "count"},
      {"atm.ns_per_cell", c.ns_per_cell, "ns"},
      {"atm.switch_cells", d(k.switch_cells), "count"},
      {"atm.ns_per_switch_cell", c.ns_per_switch_cell, "ns"},
      {"atm.cells_dropped", d(k.switch_drops + k.rx_fifo_drops), "count"},
      {"atm.frame_ok_ratio", Ratio(k.sar_frames_ok, k.sar_frames_ok + k.sar_frames_dropped),
       "ratio"},
      {"atm.frames_ok", d(k.sar_frames_ok), "count"},
      {"atm.frames", d(k.sar_frames_ok + k.sar_frames_dropped), "count"},
      {"atm.share", share_of("atm"), "ratio"},
      {"link.units", d(link_units), "count"},
      {"link.ns_per_unit", link_units == 0 ? 0.0 : LinkNs(k, c) / d(link_units), "ns"},
      {"link.share", share_of("link"), "ratio"},
      {"buf.allocs", d(k.mbuf_allocs()), "count"},
      {"buf.freelist_hit_ratio", Ratio(k.mbuf_freelist_hits, k.mbuf_allocs()), "ratio"},
      {"buf.freelist_hits", d(k.mbuf_freelist_hits), "count"},
      {"buf.bytes_copied", d(k.mbuf_bytes_copied), "B"},
      {"buf.ns_per_alloc", c.ns_per_alloc, "ns"},
      {"buf.share", share_of("buf"), "ratio"},
      {"tcp.segs", d(k.tcp_segs_sent), "count"},
      {"tcp.fastpath_ratio", Ratio(k.tcp_fastpath_hits, k.tcp_segs_received), "ratio"},
      {"tcp.fastpath_hits", d(k.tcp_fastpath_hits), "count"},
      {"tcp.segs_received", d(k.tcp_segs_received), "count"},
      {"tcp.pcb_examined_per_lookup", Ratio(k.pcb_examined, k.pcb_lookups), "ratio"},
      {"tcp.pcb_examined", d(k.pcb_examined), "count"},
      {"tcp.pcb_lookups", d(k.pcb_lookups), "count"},
      {"tcp.retransmits", d(k.tcp_retransmits), "count"},
      {"tcp.useful_ratio", Ratio(k.app_payload_bytes, k.tcp_bytes_sent), "ratio"},
      {"tcp.payload_once_bytes", d(k.app_payload_bytes), "B"},
      {"tcp.payload_sent_bytes", d(k.tcp_bytes_sent), "B"},
      {"ip.packets", d(k.ip_packets_sent), "count"},
      {"stack.share", stack, "ratio"},
  };
}

}  // namespace perfbench
