// The simulated host CPU.
//
// The stack's code executes *functionally* inside event handlers (the real
// bytes move through real data structures immediately), while the *virtual
// time* the work takes is charged against a per-host CPU with a run-to-
// completion execution model:
//
//  * An activity (process resumption, interrupt handler, softint handler)
//    begins a run at max(request time, time the CPU frees up).
//  * Work performed during the run advances a local cursor by the calibrated
//    cost of each primitive.
//  * Side effects (a cell written to a device FIFO, a timer armed) are
//    stamped with the cursor value at the moment they logically occur.
//  * Ending the run publishes the cursor as the time the CPU becomes free.
//
// Preemption is not modeled: an interrupt arriving mid-run is delayed to the
// end of the run. For the paper's workload (two mostly-idle hosts ping-
// ponging one RPC) the error this introduces is small, and it keeps the
// entire simulation sequential and deterministic.

#ifndef SRC_CPU_CPU_H_
#define SRC_CPU_CPU_H_

#include <cstdint>

#include "src/cpu/cost_params.h"
#include "src/cpu/cost_profile.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace tcplat {

// Observes every charge made against a CPU; the trace module attaches one to
// attribute costs to the latency span active at charge time.
class ChargeListener {
 public:
  virtual ~ChargeListener() = default;
  virtual void OnCharge(SimDuration amount) = 0;
};

class Cpu {
 public:
  Cpu(Simulator* sim, CostProfile profile);
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  const CostProfile& profile() const { return profile_; }
  Simulator& sim() { return *sim_; }

  void set_charge_listener(ChargeListener* listener) { listener_ = listener; }
  ChargeListener* charge_listener() const { return listener_; }

  // Starts a run for an activity requested at `request_time`; returns the
  // time the activity actually starts executing. Runs must not nest.
  SimTime BeginRun(SimTime request_time);

  // Finishes the current run; the CPU is busy until the returned time.
  SimTime EndRun();

  bool running() const { return running_; }

  // The activity-local current time. Only valid during a run.
  SimTime cursor() const;

  // First instant the CPU could start new work.
  SimTime available_at() const { return busy_until_; }

  // Charges the cost of one primitive against the current run.
  void Charge(const CostParams& params, size_t bytes = 0, size_t chunks = 0);
  void ChargeDuration(SimDuration amount);

  // Moves the cursor forward to `when` without charging "work" — models the
  // CPU stalling (e.g. busy-waiting on a full device FIFO). No-op if `when`
  // is not ahead of the cursor.
  void StallUntil(SimTime when);

  // Total CPU time charged over the CPU's lifetime (excludes stalls).
  SimDuration total_charged() const { return total_charged_; }
  // Total stall time accumulated over the CPU's lifetime.
  SimDuration total_stalled() const { return total_stalled_; }

 private:
  Simulator* sim_;
  CostProfile profile_;
  ChargeListener* listener_ = nullptr;
  bool running_ = false;
  SimTime cursor_;
  SimTime busy_until_;
  SimDuration total_charged_;
  SimDuration total_stalled_;
};

// RAII bracket for a CPU run inside a plain event handler.
class CpuRun {
 public:
  CpuRun(Cpu& cpu, SimTime request_time) : cpu_(cpu) { start_ = cpu_.BeginRun(request_time); }
  ~CpuRun() { cpu_.EndRun(); }
  CpuRun(const CpuRun&) = delete;
  CpuRun& operator=(const CpuRun&) = delete;

  SimTime start() const { return start_; }

 private:
  Cpu& cpu_;
  SimTime start_;
};

}  // namespace tcplat

#endif  // SRC_CPU_CPU_H_
