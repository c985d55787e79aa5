// The simulated host operating system.
//
// A Host bundles one CPU (with its cost profile and span tracker), an mbuf
// pool, and a small ULTRIX-shaped kernel: user processes with sleep/wakeup,
// a software-interrupt level for network input (netisr), and callout timers.
//
// Execution model (see src/cpu/cpu.h): every activity — process resumption,
// softint, device interrupt handler, callout — runs to completion on the
// host CPU, charging calibrated virtual time. The scheduler's contribution
// to latency is explicit: waking a process costs wakeup_ctx_switch (the
// paper's Wakeup row) and dispatching the netisr costs softint_dispatch
// (the floor of the paper's IPQ row).

#ifndef SRC_OS_HOST_H_
#define SRC_OS_HOST_H_

#include <coroutine>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/buf/mbuf.h"
#include "src/cpu/cpu.h"
#include "src/os/task.h"
#include "src/sim/simulator.h"
#include "src/trace/metrics.h"
#include "src/trace/span.h"
#include "src/trace/tracer.h"

namespace tcplat {

class Host;

// A queue of processes sleeping on some condition (a BSD sleep channel).
class WaitChannel {
 public:
  bool empty() const { return waiters_.empty(); }

 private:
  friend class Host;
  friend struct BlockAwaiter;
  std::vector<class Process*> waiters_;
};

enum class ProcessState { kNew, kRunnable, kRunning, kBlocked, kDone };

class Process {
 public:
  const std::string& name() const { return name_; }
  ProcessState state() const { return state_; }
  Host& host() { return *host_; }

 private:
  friend class Host;
  friend struct BlockAwaiter;
  friend struct SleepAwaiter;
  Process(Host* host, std::string name, SimTask task)
      : host_(host), name_(std::move(name)), task_(std::move(task)) {}

  Host* host_;
  std::string name_;
  SimTask task_;
  std::coroutine_handle<> continuation_;
  ProcessState state_ = ProcessState::kNew;
  SimTime wakeup_issued_at_;
  bool charge_wakeup_ = false;
};

class Host {
 public:
  Host(Simulator* sim, std::string name, CostProfile profile);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  const std::string& name() const { return name_; }
  Simulator& sim() { return *sim_; }
  Cpu& cpu() { return cpu_; }
  MbufPool& pool() { return pool_; }
  SpanTracker& tracker() { return tracker_; }
  MetricsRegistry& metrics() { return metrics_; }

  // --- packet-lifecycle tracing ---

  // Registers this host with `tracer` and mirrors span tracking plus every
  // TracePacket call into it. Pass nullptr to detach.
  void AttachTracer(Tracer* tracer);
  Tracer* tracer() const { return tracer_; }
  uint8_t trace_id() const { return trace_id_; }

  // The one-line hook used by the protocol layers: a single pointer test
  // when no tracer is attached.
  void TracePacket(TraceLayer layer, TraceEventKind kind, uint64_t flow = 0,
                   uint64_t packet = 0, uint64_t bytes = 0, SimDuration dur = SimDuration()) {
    if (Tracer* t = tracer(); t != nullptr) [[unlikely]] {
      t->RecordPacket(trace_id_, layer, kind, CurrentTime(), flow, packet, bytes, dur);
    }
  }

  // Timeseries hooks (src/trace/timeseries.h), same cost model as
  // TracePacket: one pointer test when no tracer is attached, one extra
  // null test when the attached tracer has no timeseries plane.
  void TraceSample(TsMetric metric, uint64_t key, int64_t value) {
    if (Tracer* t = tracer(); t != nullptr) [[unlikely]] {
      t->RecordSample(trace_id_, metric, key, CurrentTime(), value);
    }
  }
  void TraceSampleEdge(TsMetric metric, uint64_t key, int64_t value) {
    if (Tracer* t = tracer(); t != nullptr) [[unlikely]] {
      t->RecordSampleEdge(trace_id_, metric, key, CurrentTime(), value);
    }
  }

  // The current time as visible to code on this host: the CPU cursor during
  // a run, the global simulation clock otherwise.
  SimTime CurrentTime() const;

  // --- processes ---

  // Creates a process around `task` and schedules its first run at the
  // current time. The Host owns the Process.
  Process* Spawn(std::string name, SimTask task);

  // The process currently executing on this host's CPU (null outside
  // process context).
  Process* current_process() const { return current_; }

  // Wakes every process sleeping on `chan` (BSD wakeup()); each will resume
  // after the wakeup_ctx_switch cost. Safe to call from any context.
  void Wakeup(WaitChannel& chan);

  // Awaitable: block the current process on `chan` until Wakeup.
  auto Block(WaitChannel& chan);

  // Awaitable: block the current process for `d` of virtual time.
  auto SleepFor(SimDuration d);

  // --- software interrupts ---

  // Installs the network software-interrupt handler (ipintr).
  void RegisterNetisr(std::function<void()> handler);

  // Requests a netisr dispatch (schednetisr). Idempotent while one is
  // pending.
  void RaiseNetisr();

  // --- callouts ---

  // Runs `fn` (inside a CPU run) after `d` of virtual time. Returns an id
  // that CancelCallout accepts.
  EventId After(SimDuration d, std::function<void()> fn);
  bool CancelCallout(EventId id);

  // Runs `fn` inside a CPU run as a device interrupt handler at the current
  // simulation time, charging interrupt entry cost first. Must be called
  // from event context (not during another run on this host).
  void RunAsInterrupt(const std::function<void()>& fn);

 private:
  friend struct BlockAwaiter;
  friend struct SleepAwaiter;

  void ScheduleResume(Process* p, SimTime at, bool charge_wakeup);
  void ResumeProcess(Process* p, SimTime request_time);

  Simulator* sim_;
  std::string name_;
  Cpu cpu_;
  MbufPool pool_;
  SpanTracker tracker_;
  MetricsRegistry metrics_;
  Tracer* tracer_ = nullptr;
  uint8_t trace_id_ = 0;

  std::vector<std::unique_ptr<Process>> processes_;
  Process* current_ = nullptr;

  std::function<void()> netisr_;
  bool netisr_pending_ = false;
  SimTime netisr_raised_at_;
};

// --- awaitable implementations (must be visible to co_await sites) ---

struct BlockAwaiter {
  Host* host;
  WaitChannel* chan;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}
};

struct SleepAwaiter {
  Host* host;
  SimDuration delay;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}
};

inline auto Host::Block(WaitChannel& chan) { return BlockAwaiter{this, &chan}; }
inline auto Host::SleepFor(SimDuration d) { return SleepAwaiter{this, d}; }

}  // namespace tcplat

#endif  // SRC_OS_HOST_H_
