// The simulator's pending-event set.
//
// A binary heap ordered by (time, sequence number). The sequence number makes
// the order of same-timestamp events deterministic (FIFO in scheduling
// order), which keeps whole-simulation runs byte-for-byte reproducible.
//
// Hot-path design (this queue is popped once per dispatched event, and TCP
// timers cancel far more events than ever fire). No schedule, pop or cancel
// allocates once the arrays have grown to the run's peak:
//  * The heap holds 16-byte keys by value: the time, then the sequence number
//    and a slot index packed into one word. The slot array holds each
//    pending event's callback, and a slot is reused as soon as its event
//    runs or is cancelled.
//  * An EventId is the packed (sequence, slot) word. The sequence number
//    doubles as the slot's generation, so Cancel is an O(1) index-and-compare
//    and a stale id never touches the event that reused its slot.
//  * Cancelled keys stay in the heap and are skipped when they surface; their
//    callbacks are destroyed at once (eager reclamation of captured state).
//    When dead keys outnumber live ones the heap is compacted in place, so
//    memory is bounded by the peak *live* event count, not by cancellation
//    traffic.
//  * Callbacks are stored inline in the slot (see Callback below).
//
// FIFO lanes. A source whose events never go back in time (a wire's
// deliveries) can schedule into a lane instead: a queue-owned ring of
// (key, callback) whose times never decrease. Only the lane's head sits in
// the heap, under the (time, seq) key it got when it was scheduled, so the
// dispatch order is the one the heap would give with every entry in it.
// When the head runs, the lane's next entry replaces the heap root with one
// sift-down. An entry earlier than its lane's tail is scheduled as an
// ordinary event instead. Lane heads carry a slot index from a reserved
// range at the top of the slot space, which is how the heap tells them from
// ordinary events. Lane events cannot be cancelled.
//
// A source that can apply its own updates late (a switch output port's
// VC-buffer releases) needs no event per update: it draws each update's
// sequence number with DrawSeq, keeps the (time, seq) keys itself, and
// applies an update once the running event's key has passed it
// (Simulator::KeyPassed).

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace tcplat {

// Token identifying a scheduled event so it can be cancelled.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Names a FIFO lane of one EventQueue (see EventQueue::NewLane).
using LaneId = uint32_t;

class EventQueue {
 public:
  // A move-only `void()` callable. Captures of up to kInlineBytes live
  // inside the object; larger ones (or ones whose move may throw) go to the
  // heap. std::function cannot do this job: libstdc++ keeps only 16 bytes
  // inline, while a wire's cell delivery captures 72 (its sink, the arrival
  // time and the 53-byte cell), and C++20 has no std::move_only_function.
  // Built implicitly from any callable, including a std::function lvalue
  // (which is copied in); an empty std::function or a null function pointer
  // yields an empty Callback.
  class Callback {
   public:
    static constexpr size_t kInlineBytes = 72;

    // Whether a callable of type Fn is stored inside the Callback, and
    // whether moving the Callback moves it as plain bytes. A heap-stored
    // callable moves as its pointer; an inline trivially copyable one moves
    // as its bytes.
    template <typename Fn>
    static constexpr bool kStoredInline = sizeof(Fn) <= kInlineBytes &&
                                          alignof(Fn) <= alignof(void*) &&
                                          std::is_nothrow_move_constructible_v<Fn>;
    template <typename Fn>
    static constexpr bool kByteRelocatable =
        !kStoredInline<Fn> ||
        (std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>);

    Callback() = default;

    template <typename F, typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<Fn, Callback> &&
                                          std::is_invocable_v<Fn&>>>
    Callback(F&& f) {  // implicit: Schedule(delay, [..] {...}) converts here
      if constexpr (std::is_constructible_v<bool, const Fn&>) {
        if (!static_cast<bool>(f)) {
          return;
        }
      }
      if constexpr (kStoredInline<Fn>) {
        ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      } else {
        ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      }
      ops_ = &kOps<Fn>;
    }

    Callback(Callback&& other) noexcept { TakeFrom(other); }
    Callback& operator=(Callback&& other) noexcept {
      if (this != &other) {
        Reset();
        TakeFrom(other);
      }
      return *this;
    }
    Callback(const Callback&) = delete;
    Callback& operator=(const Callback&) = delete;
    ~Callback() { Reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    // Requires a non-empty callback.
    void operator()() { ops_->invoke(storage_); }

    // Destroys the callable (and what it captured); leaves *this empty.
    void Reset() {
      if (ops_ != nullptr) {
        ops_->destroy(storage_);
        ops_ = nullptr;
      }
    }

   private:
    struct Ops {
      void (*invoke)(void* storage);
      // Move-constructs the callable at `dst` from `src` and destroys the
      // one at `src`. Null when a byte copy does both.
      void (*relocate)(void* dst, void* src);
      void (*destroy)(void* storage);
    };

    template <typename Fn>
    static Fn* Target(void* storage) {
      if constexpr (kStoredInline<Fn>) {
        return std::launder(reinterpret_cast<Fn*>(storage));
      } else {
        return *std::launder(reinterpret_cast<Fn**>(storage));
      }
    }

    template <typename Fn>
    static void Invoke(void* storage) {
      (*Target<Fn>(storage))();
    }
    template <typename Fn>
    static void Relocate(void* dst, void* src) {
      Fn* from = Target<Fn>(src);
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    template <typename Fn>
    static void Destroy(void* storage) {
      if constexpr (kStoredInline<Fn>) {
        Target<Fn>(storage)->~Fn();
      } else {
        delete Target<Fn>(storage);
      }
    }

    template <typename Fn>
    static constexpr Ops kOps = {&Invoke<Fn>, kByteRelocatable<Fn> ? nullptr : &Relocate<Fn>,
                                 &Destroy<Fn>};

    void TakeFrom(Callback& other) {
      ops_ = other.ops_;
      if (ops_ == nullptr) {
        return;
      }
      if (ops_->relocate == nullptr) {
        std::memcpy(storage_, other.storage_, kInlineBytes);
      } else {
        ops_->relocate(storage_, other.storage_);
      }
      other.ops_ = nullptr;
    }

    alignas(void*) unsigned char storage_[kInlineBytes];
    const Ops* ops_ = nullptr;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to run at absolute time `when`. `when` may equal the
  // current dispatch time (the event runs after all earlier-scheduled events
  // at that time) but must never be in the past.
  EventId ScheduleAt(SimTime when, Callback&& fn);

  // Cancels a pending event in O(1). Returns true if the event was still
  // pending. Cancelling an already-run or already-cancelled event returns
  // false.
  bool Cancel(EventId id);

  // Opens a new, empty FIFO lane. Lanes live as long as the queue.
  LaneId NewLane();

  // Schedules `fn` at `when` (same rules as ScheduleAt) behind the earlier
  // entries of `lane`. The event runs exactly when ScheduleAt would have run
  // it; if `when` is earlier than the lane's latest entry it is scheduled as
  // an ordinary event. Lane events cannot be cancelled.
  void ScheduleInLane(LaneId lane, SimTime when, Callback&& fn);

  // Draws the sequence number an event scheduled now would get, without
  // scheduling one. An event scheduled later sorts after it at equal times.
  uint64_t DrawSeq() { return NextSeq(); }
  // The sequence number the next schedule or DrawSeq will take.
  uint64_t next_seq() const { return next_seq_; }

  bool empty() const { return live_ == 0; }
  // Pending entries the heap orders: ordinary events plus one per non-empty
  // lane. Entries behind a lane's head are not counted.
  size_t size() const { return live_; }

  // Time of the earliest pending event. Requires !empty().
  SimTime NextTime();

  // Removes and returns the earliest pending event. Requires !empty().
  struct Dispatched {
    SimTime time;
    uint64_t seq;  // the sequence number it was scheduled under
    Callback fn;
  };
  Dispatched PopNext();

  // --- introspection (tests and the perf self-check) ---

  // Callback slots owned by the queue: pending ordinary events plus free
  // slots kept for reuse (lane entries live in their lanes' rings).
  // Bounded-memory regression tests assert this stays proportional to the
  // peak live count.
  size_t allocated_entries() const { return slots_.size(); }
  // Heap keys: size() plus cancelled keys not yet compacted away.
  size_t heap_entries() const { return heap_.size(); }

 private:
  // The low kSlotBits of a key's second word are the slot; the rest is the
  // sequence number, so ordering by that word orders by sequence number.
  static constexpr int kSlotBits = 20;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  // Slot indices from kFirstLaneSlot up name lanes: a heap key with one is
  // its lane's head. Ordinary events use the slots below.
  static constexpr uint32_t kMaxLanes = uint32_t{1} << 16;
  static constexpr uint32_t kFirstLaneSlot = static_cast<uint32_t>(kSlotMask + 1) - kMaxLanes;

  struct Key {
    int64_t time;
    uint64_t seq_slot;  // == the event's EventId

    uint64_t seq() const { return seq_slot >> kSlotBits; }
    uint32_t slot() const { return static_cast<uint32_t>(seq_slot & kSlotMask); }
  };
  struct KeyGreater {
    // (time, seq) is unique per event, so this is a strict total order and
    // the pop sequence is independent of the heap's internal layout.
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq_slot > b.seq_slot;
    }
  };
  struct Slot {
    Callback fn;
    uint64_t seq = 0;  // sequence number of the pending event; 0 when free
  };
  struct LaneEntry {
    Key key{};  // the key the entry takes in the heap once it is the head
    Callback fn;
  };
  struct Lane {
    std::vector<LaneEntry> ring;  // size is zero or a power of two
    size_t head = 0;
    size_t count = 0;
    int64_t tail_time = 0;  // time of the newest entry, while count > 0
  };

  // Lane heads are always live: only ordinary events can be cancelled.
  bool IsLive(const Key& key) const {
    return key.slot() >= kFirstLaneSlot || slots_[key.slot()].seq == key.seq();
  }
  uint64_t NextSeq();
  void ReleaseSlot(uint32_t slot);
  // Runs the lane head at the heap top: the lane's next entry, if any, takes
  // the root with its own key.
  Dispatched PopLaneHead(const Key& top);
  // Puts `key` at the heap root in place of the current root and sifts it
  // down.
  void ReplaceTop(const Key& key);
  // Pops cancelled keys off the heap top.
  void DropDeadHead();
  // Removes all cancelled keys from the heap and restores the heap property.
  // Called when dead keys outnumber live ones.
  void CompactIfWorthIt();

  std::vector<Key> heap_;  // binary min-heap via std::push_heap/pop_heap
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t live_ = 0;  // pending ordinary events plus non-empty lanes
  size_t dead_in_heap_ = 0;
  uint64_t next_seq_ = 1;
  std::vector<Lane> lanes_;
};

}  // namespace tcplat

#endif  // SRC_SIM_EVENT_QUEUE_H_
