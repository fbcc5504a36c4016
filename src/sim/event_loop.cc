// Copyright (c) NetKernel reproduction authors.

#include "src/sim/event_loop.h"

#include "src/common/check.h"

namespace netkernel::sim {

EventHandle EventLoop::Schedule(SimTime at, std::function<void()> fn) {
  NK_CHECK(at >= now_);
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    NK_CHECK(slot < kFree);
    slots_.emplace_back();
  }
  const uint64_t seq = next_seq_++;
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.seq = seq;
  HeapPush(Key{at, seq, slot});
  return EventHandle{this, slot, seq};
}

void EventLoop::Cancel(uint32_t slot, uint64_t seq) {
  if (!IsPending(slot, seq)) return;
  HeapRemove(slots_[slot].pos);
  // Destroy the callback only after the bookkeeping is consistent: its
  // captures' destructors may cancel or schedule other events.
  std::function<void()> fn = std::move(slots_[slot].fn);
  Release(slot);
}

void EventLoop::Release(uint32_t slot) {
  slots_[slot].pos = kFree;
  free_slots_.push_back(slot);
}

uint64_t EventLoop::Run(SimTime until) {
  stopped_ = false;
  uint64_t executed = 0;
  uint32_t slot;
  while (!stopped_ && PopNext(until, &slot)) {
    Fire(slot);
    ++executed;
  }
  // With nothing pending, or after Stop(), the clock rests where the last
  // event left it.
  if (!heap_.empty() && !stopped_ && until != kSimTimeNever && until > now_) now_ = until;
  return executed;
}

void EventLoop::RunUntilIdleAtNow() {
  uint32_t slot;
  while (PopNext(now_, &slot)) Fire(slot);
}

bool EventLoop::PopNext(SimTime until, uint32_t* slot) {
  if (heap_.empty() || heap_[0].at > until) return false;
  now_ = heap_[0].at;
  *slot = heap_[0].slot;
  HeapRemove(0);
  return true;
}

void EventLoop::Fire(uint32_t slot) {
  // The slot is free (and its handle no longer Pending) while the callback
  // runs, and the callback may reuse it or grow slots_.
  std::function<void()> fn = std::move(slots_[slot].fn);
  Release(slot);
  ++events_executed_;
  fn();
}

// ---------------------------------------------------------------------------
// Indexed binary min-heap over (at, seq). Every move of a key updates its
// slot's recorded position.
// ---------------------------------------------------------------------------

void EventLoop::HeapPush(const Key& key) {
  heap_.push_back(key);
  SiftUp(static_cast<uint32_t>(heap_.size() - 1), key);
}

void EventLoop::HeapRemove(uint32_t pos) {
  const Key last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  if (pos > 0 && Before(last, heap_[(pos - 1) / 2])) {
    SiftUp(pos, last);
  } else {
    SiftDown(pos, last);
  }
}

void EventLoop::SiftUp(uint32_t pos, Key key) {
  while (pos > 0) {
    const uint32_t parent = (pos - 1) / 2;
    if (!Before(key, heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, key);
}

void EventLoop::SiftDown(uint32_t pos, Key key) {
  const uint32_t n = static_cast<uint32_t>(heap_.size());
  while (true) {
    uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
    if (!Before(heap_[child], key)) break;
    Place(pos, heap_[child]);
    pos = child;
  }
  Place(pos, key);
}

}  // namespace netkernel::sim
