// Physical link models.
//
// A Wire serializes transmission units at a fixed bit rate with a fixed
// propagation delay and delivers the actual bytes. It carries two kinds:
//  * ATM cells, as a fixed 53-byte CellBytes value handed to a CellSink.
//    Each delivery is one lane event holding the sink, the arrival time and
//    the cell; it is stored inline in the event queue and allocates nothing.
//  * Ethernet frames, as a std::vector handed to a DeliverFn.
// Optional fate hooks let the fault module corrupt, drop, duplicate or
// delay units in flight (§4.2.1 error-source experiments). They see every
// unit as a vector; a cell is copied into one only while a hook is set.
//
// Two topologies are built from it:
//  * DuplexLink — two independent directions (the point-to-point TAXI
//                 fiber between the FORE adapters).
//  * one Wire shared by every station, with an enforced inter-unit gap
//    (the 10 Mbit/s Ethernet baseline, EtherSegment in src/ether/).

#ifndef SRC_LINK_WIRE_H_
#define SRC_LINK_WIRE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace tcplat {

// One ATM cell as it crosses a fiber: 5 header bytes and the 48-byte SAR-PDU.
// The cell types live here, below src/atm/, because the wire carries them.
inline constexpr size_t kAtmCellBytes = 53;
using CellBytes = std::array<uint8_t, kAtmCellBytes>;

// Copies a cell held as bytes into a CellBytes; CHECKs that it has 53.
CellBytes ToCellBytes(std::span<const uint8_t> bytes);

// Anything that can accept ATM cells off a fiber: an adapter's receive
// FIFO, or a switch input port. A sink overrides one of the two forms; each
// default forwards to the other, so overriding neither recurses.
class CellSink {
 public:
  virtual ~CellSink() = default;
  // The cell path. The default copies the cell into a vector for the
  // vector form.
  virtual void DeliverCell(SimTime arrival, const CellBytes& cell);
  // The same delivery for a caller holding the cell as a vector, which must
  // have 53 bytes (CHECKed by the default, which calls the CellBytes form).
  virtual void DeliverCell(SimTime arrival, std::vector<uint8_t> wire_bytes);
};

// Invoked at arrival time with the (possibly corrupted) unit bytes.
using DeliverFn = std::function<void(SimTime arrival, std::vector<uint8_t> data)>;
// May mutate the bytes of a unit in flight.
using CorruptFn = std::function<void(std::vector<uint8_t>& data)>;
// Pre-delivery fate hook: return true to discard the unit in flight. Runs
// after the corruption hook (corrupt-then-drop), so fault injectors compose
// without hand-rolled plumbing in each owner.
using DropFn = std::function<bool(const std::vector<uint8_t>& data)>;

// Per-link impairment policy: consulted once per transmitted unit, after the
// corrupt/drop hooks, to decide loss, duplication, and added delay. The
// concrete seeded policy lives in src/fault/impairment.h; this interface
// keeps the link layer free of any dependency on the fault module.
class LinkImpairment {
 public:
  struct Verdict {
    bool drop = false;       // discard the unit in flight
    bool duplicate = false;  // deliver a second copy
    SimDuration extra_delay;      // added to this unit's arrival time
    SimDuration duplicate_lag;    // duplicate arrives this much after the original
  };

  virtual ~LinkImpairment() = default;

  // `departure` is the time the last bit leaves the sender.
  virtual Verdict OnTransmit(SimTime departure, const std::vector<uint8_t>& data) = 0;
};

// One direction of a serial medium.
class Wire {
 public:
  // `gap_bytes` is per-unit wire overhead serialized but not delivered
  // (preamble, interframe gap, HEC idle...).
  Wire(Simulator* sim, double bits_per_second, SimDuration propagation, size_t gap_bytes = 0);

  // Queues `data` for transmission no earlier than `earliest` (and not
  // before previously queued units finish). Returns the time the last bit
  // leaves the sender; the receiver callback fires at that time plus the
  // propagation delay. Deliveries go through the wire's own event lane, as
  // their arrival times never decrease unless an impairment delays one; the
  // lane belongs to the simulator, so units in flight still arrive after the
  // wire is destroyed.
  SimTime Transmit(SimTime earliest, std::vector<uint8_t> data, DeliverFn deliver);
  // The same for one ATM cell, delivered to `sink`, which must outlive the
  // cell's arrival. A set fate hook sees the cell as a 53-byte vector and
  // must leave it 53 bytes long (CHECKed).
  SimTime Transmit(SimTime earliest, const CellBytes& cell, CellSink* sink);

  // Time the medium becomes free.
  SimTime free_at() const { return busy_until_; }

  SimDuration SerializationDelay(size_t bytes) const;

  void set_corrupt_hook(CorruptFn hook) { corrupt_ = std::move(hook); }
  void set_drop_hook(DropFn hook) { drop_ = std::move(hook); }

  // `impairment` must outlive the wire (or be detached with nullptr). A null
  // policy costs one pointer test per unit — zero-overhead when off.
  void set_impairment(LinkImpairment* impairment) { impairment_ = impairment; }
  LinkImpairment* impairment() const { return impairment_; }

  uint64_t units_sent() const { return units_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  // Units consumed in flight by the drop hook or the impairment policy.
  uint64_t units_dropped() const { return units_dropped_; }

 private:
  // Occupies the medium for one `bytes`-byte unit from `earliest` (or when
  // it frees up) and counts the unit. Returns its last-bit time.
  SimTime Serialize(SimTime earliest, size_t bytes);
  // Runs the fate hooks on a unit whose last bit leaves at `last_bit_out`:
  // corrupt, then drop, then the impairment policy. Returns false when the
  // unit is lost in flight, else the policy's verdict in `*verdict`.
  bool RunFateHooks(SimTime last_bit_out, std::vector<uint8_t>& data,
                    LinkImpairment::Verdict* verdict);
  bool has_fate_hooks() const { return corrupt_ || drop_ || impairment_ != nullptr; }
  // Schedules one delivery at `arrival` in the wire's lane.
  void ScheduleDelivery(SimTime arrival, std::vector<uint8_t> data, DeliverFn deliver);
  void ScheduleCell(SimTime arrival, const CellBytes& cell, CellSink* sink);

  Simulator* sim_;
  double bits_per_second_;
  SimDuration propagation_;
  size_t gap_bytes_;
  SimTime busy_until_;
  LaneId lane_;
  CorruptFn corrupt_;
  DropFn drop_;
  LinkImpairment* impairment_ = nullptr;
  uint64_t units_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t units_dropped_ = 0;
};

// A full-duplex point-to-point link: direction 0 is a->b, 1 is b->a.
class DuplexLink {
 public:
  DuplexLink(Simulator* sim, double bits_per_second, SimDuration propagation,
             size_t gap_bytes = 0)
      : dirs_{Wire(sim, bits_per_second, propagation, gap_bytes),
              Wire(sim, bits_per_second, propagation, gap_bytes)} {}

  Wire& dir(int d) { return dirs_[d]; }

 private:
  Wire dirs_[2];
};

}  // namespace tcplat

#endif  // SRC_LINK_WIRE_H_
