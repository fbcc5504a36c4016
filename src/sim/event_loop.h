// Copyright (c) NetKernel reproduction authors.
// Discrete-event simulation core: a virtual clock and an ordered event queue.
//
// The entire macro-level evaluation (hosts, vCPUs, NICs, TCP stacks, NetKernel
// datapath) runs single-threaded on one EventLoop, which makes every bench
// deterministic. Events fire in (time, schedule order): events scheduled for
// the same instant fire in FIFO order.
//
// Layout. Each pending event's callback lives in a reused slot and is
// identified by its 64-bit schedule sequence number. The event queue is an
// indexed min-heap of 24-byte {at, seq, slot} keys; each slot records its
// key's heap position, so Cancel() removes the key in O(log n) and the heap
// holds only live events.

#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/units.h"

namespace netkernel::sim {

class EventLoop;

// Cancellation handle for a scheduled event. Default-constructed handles are
// inert. Cancelling an already-fired or already-cancelled event is a no-op,
// even after its slot was reused by a later event. A handle must not outlive
// the EventLoop that issued it.
class EventHandle {
 public:
  EventHandle() = default;
  inline void Cancel();
  inline bool Pending() const;

 private:
  friend class EventLoop;
  EventHandle(EventLoop* loop, uint32_t slot, uint64_t seq)
      : loop_(loop), slot_(slot), seq_(seq) {}
  EventLoop* loop_ = nullptr;
  uint32_t slot_ = 0;
  uint64_t seq_ = 0;
};

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` at absolute virtual time `at` (>= Now()).
  EventHandle Schedule(SimTime at, std::function<void()> fn);

  // Schedules `fn` after `delay` nanoseconds of virtual time.
  EventHandle ScheduleAfter(SimTime delay, std::function<void()> fn) {
    return Schedule(now_ + delay, std::move(fn));
  }

  // Runs until no event is pending or the clock would pass `until`. If events
  // remain past `until`, the clock then rests at `until`; it never moves
  // backwards. Returns the number of events executed.
  uint64_t Run(SimTime until = kSimTimeNever);

  // Runs every event scheduled for the current instant, without advancing time.
  void RunUntilIdleAtNow();

  // Stops Run() after the current event completes.
  void Stop() { stopped_ = true; }

  // True when no event is pending; cancelled events do not count.
  bool Empty() const { return heap_.empty(); }
  uint64_t events_executed() const { return events_executed_; }

 private:
  friend class EventHandle;

  // Slot::pos of a slot without a pending event.
  static constexpr uint32_t kFree = UINT32_MAX;

  struct Slot {
    std::function<void()> fn;
    uint64_t seq = 0;
    uint32_t pos = kFree;
  };
  struct Key {
    SimTime at;
    uint64_t seq;
    uint32_t slot;
  };

  static bool Before(const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  bool IsPending(uint32_t slot, uint64_t seq) const {
    return slot < slots_.size() && slots_[slot].seq == seq && slots_[slot].pos != kFree;
  }
  void Cancel(uint32_t slot, uint64_t seq);

  // Pops the next event due at or before `until` (advancing the clock to it)
  // into `*slot`; false when none is due.
  bool PopNext(SimTime until, uint32_t* slot);
  // Releases the slot of a popped event and runs its callback.
  void Fire(uint32_t slot);
  void Release(uint32_t slot);

  void HeapPush(const Key& key);
  void HeapRemove(uint32_t pos);
  void SiftUp(uint32_t pos, Key key);
  void SiftDown(uint32_t pos, Key key);
  void Place(uint32_t pos, const Key& key) {
    heap_[pos] = key;
    slots_[key.slot].pos = pos;
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  bool stopped_ = false;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<Key> heap_;
};

void EventHandle::Cancel() {
  if (loop_ != nullptr) loop_->Cancel(slot_, seq_);
}

bool EventHandle::Pending() const { return loop_ != nullptr && loop_->IsPending(slot_, seq_); }

}  // namespace netkernel::sim

#endif  // SRC_SIM_EVENT_LOOP_H_
