// Copyright (c) NetKernel reproduction authors.
// Unit tests for the simulation kernel: event loop, coroutines, CPU cores.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/cpu.h"
#include "src/sim/event_loop.h"
#include "src/sim/task.h"

namespace netkernel::sim {
namespace {

TEST(EventLoop, ExecutesInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(30, [&] { order.push_back(3); });
  loop.Schedule(10, [&] { order.push_back(1); });
  loop.Schedule(20, [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now(), 30);
}

TEST(EventLoop, FifoAtSameInstant) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.Schedule(5, [&order, i] { order.push_back(i); });
  }
  loop.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, RunUntilStopsAtHorizon) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(10, [&] { ++fired; });
  loop.Schedule(100, [&] { ++fired; });
  loop.Run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.Now(), 50);
  loop.Run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, CancelledEventDoesNotFireNorAdvanceClock) {
  EventLoop loop;
  bool fired = false;
  EventHandle h = loop.Schedule(1000, [&] { fired = true; });
  loop.Schedule(10, [&] {});
  EXPECT_TRUE(h.Pending());
  h.Cancel();
  EXPECT_FALSE(h.Pending());
  loop.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop.Now(), 10);  // the cancelled event at t=1000 left no trace
}

TEST(EventLoop, ScheduleFromWithinEvent) {
  EventLoop loop;
  int count = 0;
  loop.Schedule(1, [&] {
    ++count;
    loop.ScheduleAfter(5, [&] { ++count; });
  });
  loop.Run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.Now(), 6);
}

TEST(EventLoop, StopHaltsProcessing) {
  EventLoop loop;
  int count = 0;
  loop.Schedule(1, [&] {
    ++count;
    loop.Stop();
  });
  loop.Schedule(2, [&] { ++count; });
  loop.Run();
  EXPECT_EQ(count, 1);
}

TEST(EventLoop, ClockNeverRunsBackwards) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(100, [&] { ++fired; });
  loop.Run(50);
  EXPECT_EQ(loop.Now(), 50);
  loop.Run(20);
  EXPECT_EQ(loop.Now(), 50);
  // An event due now is still past a horizon behind the clock.
  loop.Schedule(50, [&] { ++fired; });
  EXPECT_EQ(loop.Run(20), 0u);
  EXPECT_EQ(loop.Now(), 50);
  EXPECT_EQ(fired, 0);
  loop.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.Now(), 100);
}

TEST(EventLoop, StaleHandleIgnoresReusedSlot) {
  EventLoop loop;
  int a = 0, b = 0, c = 0;
  EventHandle cancelled = loop.Schedule(10, [&] { ++a; });
  cancelled.Cancel();
  EventHandle live = loop.Schedule(20, [&] { ++b; });  // takes the freed slot
  EXPECT_FALSE(cancelled.Pending());
  EXPECT_TRUE(live.Pending());
  cancelled.Cancel();
  EXPECT_TRUE(live.Pending());
  loop.Run();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);

  EventHandle next = loop.Schedule(30, [&] { ++c; });  // reuses the fired slot
  EXPECT_FALSE(live.Pending());
  live.Cancel();
  EXPECT_TRUE(next.Pending());
  loop.Run();
  EXPECT_EQ(c, 1);
  EXPECT_FALSE(next.Pending());
}

TEST(EventLoop, EarlierScheduledRunsBeforeSameInstantReschedule) {
  EventLoop loop;
  std::vector<char> order;
  loop.Schedule(10, [&] {
    order.push_back('a');
    loop.Schedule(loop.Now(), [&] { order.push_back('c'); });
  });
  // Scheduled at t=5 for t=10, before the clock reached 10 but after 'a'.
  loop.Schedule(5, [&] { loop.Schedule(10, [&] { order.push_back('b'); }); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
}

TEST(EventLoop, CancelSameInstantEventFromAnotherCallback) {
  EventLoop loop;
  std::vector<char> order;
  EventHandle victim;
  loop.Schedule(5, [&] {
    order.push_back('a');
    loop.ScheduleAfter(0, [&] {
      order.push_back('b');
      EXPECT_TRUE(victim.Pending());
      victim.Cancel();
      EXPECT_FALSE(victim.Pending());
    });
    victim = loop.ScheduleAfter(0, [&] { order.push_back('c'); });
    loop.ScheduleAfter(0, [&] { order.push_back('d'); });
  });
  loop.Run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'd'}));
  EXPECT_EQ(loop.events_executed(), 3u);
  EXPECT_TRUE(loop.Empty());
}

TEST(EventLoop, OnlyCancelledEventsPendingActsAsEmpty) {
  EventLoop loop;
  loop.Schedule(10, [] {});
  EventHandle h = loop.Schedule(1000, [] {});
  h.Cancel();
  EXPECT_FALSE(loop.Empty());
  EXPECT_EQ(loop.Run(500), 1u);
  EXPECT_TRUE(loop.Empty());
  EXPECT_EQ(loop.Now(), 10);  // as if the queue had emptied: no park at 500

  loop.Schedule(1000, [] {});  // a live event past the horizon does park it
  loop.Run(500);
  EXPECT_EQ(loop.Now(), 500);
}

// ---------------------------------------------------------------------------
// Differential test: EventLoop against a reference model of its contract.
// ---------------------------------------------------------------------------

// The ordering contract written down directly: pending events in a std::set
// ordered by (at, seq), no heap.
class RefLoop {
 public:
  class Handle {
   public:
    Handle() = default;
    void Cancel() {
      if (loop_ != nullptr && loop_->pending_.erase(seq_) != 0) loop_->queue_.erase({at_, seq_});
    }
    bool Pending() const { return loop_ != nullptr && loop_->pending_.count(seq_) != 0; }

   private:
    friend class RefLoop;
    Handle(RefLoop* loop, SimTime at, uint64_t seq) : loop_(loop), at_(at), seq_(seq) {}
    RefLoop* loop_ = nullptr;
    SimTime at_ = 0;
    uint64_t seq_ = 0;
  };

  SimTime Now() const { return now_; }
  Handle Schedule(SimTime at, std::function<void()> fn) {
    const uint64_t seq = next_seq_++;
    queue_.insert({at, seq});
    pending_[seq] = std::move(fn);
    return Handle{this, at, seq};
  }
  uint64_t Run(SimTime until = kSimTimeNever) {
    stopped_ = false;
    uint64_t executed = 0;
    while (!stopped_ && !queue_.empty() && queue_.begin()->first <= until) {
      FireFirst();
      ++executed;
    }
    if (!queue_.empty() && !stopped_ && until != kSimTimeNever) now_ = std::max(now_, until);
    return executed;
  }
  void RunUntilIdleAtNow() {
    while (!queue_.empty() && queue_.begin()->first <= now_) FireFirst();
  }
  void Stop() { stopped_ = true; }
  bool Empty() const { return queue_.empty(); }
  uint64_t events_executed() const { return events_executed_; }

 private:
  void FireFirst() {
    const auto [at, seq] = *queue_.begin();
    queue_.erase(queue_.begin());
    auto node = pending_.extract(seq);
    now_ = at;
    ++events_executed_;
    node.mapped()();
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  bool stopped_ = false;
  std::set<std::pair<SimTime, uint64_t>> queue_;
  std::map<uint64_t, std::function<void()>> pending_;
};

// A seeded random workload over one loop. Two scripts with the same seed make
// the same calls as long as their loops fire events in the same order: each
// callback draws its actions from an Rng keyed by (seed, event id).
template <typename Loop>
class LoopScript {
 public:
  using Handle = decltype(std::declval<Loop&>().Schedule(0, {}));
  static constexpr size_t kMaxEvents = 400;

  explicit LoopScript(uint64_t seed) : seed_(seed), rng_(seed) {}

  void Step() {
    switch (rng_.NextBounded(9)) {
      case 0:
      case 1:
        Add(loop.Now());
        break;
      case 2:
      case 3:
        Add(loop.Now() + rng_.NextInRange(1, 100));
        break;
      case 4:
        CancelOne(rng_);
        break;
      case 5:
      case 6:
        // The horizon may lie behind the clock.
        last_run = loop.Run(loop.Now() + rng_.NextInRange(-20, 120));
        break;
      case 7:
        loop.RunUntilIdleAtNow();
        break;
      default:
        loop.Stop();  // outside Run(): the next Run() must ignore it
        last_run = loop.Run();
        break;
    }
  }

  Loop loop;
  std::vector<size_t> fired;     // event ids in firing order
  std::vector<Handle> handles;   // indexed by event id
  uint64_t last_run = 0;

 private:
  void Add(SimTime at) {
    const size_t id = handles.size();
    handles.push_back(loop.Schedule(at, [this, id] { OnFire(id); }));
  }
  void CancelOne(Rng& rng) {
    if (!handles.empty()) handles[rng.NextBounded(handles.size())].Cancel();
  }
  void OnFire(size_t id) {
    fired.push_back(id);
    Rng rng(seed_ * 1000003 + id);
    const int children = handles.size() < kMaxEvents ? static_cast<int>(rng.NextBounded(3)) : 0;
    for (int i = 0; i < children; ++i) {
      Add(rng.NextBool(0.5) ? loop.Now() : loop.Now() + rng.NextInRange(1, 50));
    }
    if (rng.NextBool(0.3)) CancelOne(rng);
    if (rng.NextBool(0.05)) loop.Stop();
  }

  uint64_t seed_;
  Rng rng_;
};

// Compares the two scripts after a step; returns a description of the first
// mismatch, or an empty string.
std::string Mismatch(const LoopScript<EventLoop>& real, const LoopScript<RefLoop>& ref) {
  if (real.fired != ref.fired) return "firing order";
  if (real.loop.Now() != ref.loop.Now()) return "Now()";
  if (real.loop.events_executed() != ref.loop.events_executed()) return "events_executed()";
  if (real.last_run != ref.last_run) return "Run() result";
  if (real.loop.Empty() != ref.loop.Empty()) return "Empty()";
  for (size_t id = 0; id < real.handles.size(); ++id) {
    if (real.handles[id].Pending() != ref.handles[id].Pending()) {
      return "Pending() of event " + std::to_string(id);
    }
  }
  return "";
}

TEST(EventLoop, MatchesReferenceModelOnRandomSequences) {
  constexpr uint64_t kFirstSeed = 1;
  constexpr uint64_t kSeeds = 200;
  constexpr int kSteps = 300;
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    LoopScript<EventLoop> real(seed);
    LoopScript<RefLoop> ref(seed);
    for (int step = 0; step < kSteps; ++step) {
      real.Step();
      ref.Step();
      const std::string what = Mismatch(real, ref);
      if (!what.empty()) {
        ADD_FAILURE() << "seed " << seed << ", step " << step << ": " << what
                      << " differs from the reference model";
        break;
      }
    }
    // Drain both; the tail must match too.
    real.loop.Run();
    ref.loop.Run();
    EXPECT_EQ(Mismatch(real, ref), "") << "seed " << seed << " after the final Run()";
  }
}

// ---------------------------------------------------------------------------
// Coroutines
// ---------------------------------------------------------------------------

Task<int> ReturnForty() { co_return 40; }

Task<int> AddTwo() {
  int x = co_await ReturnForty();
  co_return x + 2;
}

TEST(Task, NestedAwaitReturnsValue) {
  EventLoop loop;
  int result = 0;
  auto run = [&]() -> Task<void> {
    result = co_await AddTwo();
  };
  Spawn(run());
  loop.Run();
  EXPECT_EQ(result, 42);
}

TEST(Task, DelayAdvancesVirtualTime) {
  EventLoop loop;
  SimTime when = -1;
  auto run = [&]() -> Task<void> {
    co_await Delay(&loop, 7 * kMicrosecond);
    when = loop.Now();
  };
  Spawn(run());
  loop.Run();
  EXPECT_EQ(when, 7 * kMicrosecond);
}

TEST(Task, ZeroDelayIsImmediate) {
  EventLoop loop;
  bool ran = false;
  auto run = [&]() -> Task<void> {
    co_await Delay(&loop, 0);
    ran = true;
  };
  Spawn(run());
  // Zero delay does not even need the loop.
  EXPECT_TRUE(ran);
}

TEST(SimEvent, NotifyAllWakesEveryWaiter) {
  EventLoop loop;
  SimEvent ev(&loop);
  int woke = 0;
  auto waiter = [&]() -> Task<void> {
    co_await ev.Wait();
    ++woke;
  };
  for (int i = 0; i < 5; ++i) Spawn(waiter());
  loop.Run();
  EXPECT_EQ(woke, 0);
  ev.NotifyAll();
  loop.Run();
  EXPECT_EQ(woke, 5);
}

TEST(SimEvent, NotifyOneWakesOne) {
  EventLoop loop;
  SimEvent ev(&loop);
  int woke = 0;
  auto waiter = [&]() -> Task<void> {
    co_await ev.Wait();
    ++woke;
  };
  Spawn(waiter());
  Spawn(waiter());
  ev.NotifyOne();
  loop.Run();
  EXPECT_EQ(woke, 1);
  ev.NotifyOne();
  loop.Run();
  EXPECT_EQ(woke, 2);
}

TEST(SimEvent, SequentialWaitNotifyCycles) {
  EventLoop loop;
  SimEvent ev(&loop);
  int rounds = 0;
  auto waiter = [&]() -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await ev.Wait();
      ++rounds;
    }
  };
  Spawn(waiter());
  for (int i = 0; i < 3; ++i) {
    ev.NotifyAll();
    loop.Run();
  }
  EXPECT_EQ(rounds, 3);
}

// ---------------------------------------------------------------------------
// CPU cores
// ---------------------------------------------------------------------------

TEST(CpuCore, WorkTakesCycleTime) {
  EventLoop loop;
  CpuCore core(&loop, "c0", 1e9);  // 1 GHz: 1 cycle = 1 ns
  SimTime done = -1;
  auto run = [&]() -> Task<void> {
    co_await core.Work(1000);
    done = loop.Now();
  };
  Spawn(run());
  loop.Run();
  EXPECT_EQ(done, 1000);
  EXPECT_EQ(core.busy_cycles(), 1000u);
}

TEST(CpuCore, SerializesFifo) {
  EventLoop loop;
  CpuCore core(&loop, "c0", 1e9);
  std::vector<std::pair<int, SimTime>> done;
  core.Charge(100, [&] { done.push_back({1, loop.Now()}); });
  core.Charge(50, [&] { done.push_back({2, loop.Now()}); });
  loop.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].first, 1);
  EXPECT_EQ(done[0].second, 100);
  EXPECT_EQ(done[1].first, 2);
  EXPECT_EQ(done[1].second, 150);  // queued behind the first
}

TEST(CpuCore, IdleGapsDoNotAccumulate) {
  EventLoop loop;
  CpuCore core(&loop, "c0", 1e9);
  SimTime end = -1;
  loop.Schedule(1000, [&] { core.Charge(10, [&] { end = loop.Now(); }); });
  loop.Run();
  EXPECT_EQ(end, 1010);
  EXPECT_EQ(core.busy_cycles(), 10u);
}

TEST(CpuCore, UtilizationAccounting) {
  EventLoop loop;
  CpuCore core(&loop, "c0", 1e9);
  core.Charge(500, [] {});
  loop.Run();
  EXPECT_NEAR(core.Utilization(1000), 0.5, 1e-9);
  core.ResetAccounting();
  EXPECT_EQ(core.busy_cycles(), 0u);
}

TEST(CpuCore, ZeroCostChargeRunsAtIdlePoint) {
  EventLoop loop;
  CpuCore core(&loop, "c0", 1e9);
  SimTime when = -1;
  core.Charge(100, [] {});
  core.Charge(0, [&] { when = loop.Now(); });
  loop.Run();
  EXPECT_EQ(when, 100);
}

TEST(SimMutex, SerializesAcrossCores) {
  EventLoop loop;
  CpuCore a(&loop, "a", 1e9), b(&loop, "b", 1e9);
  SimMutex mu(&loop, 1e9);
  // Both cores grab the lock at t=0, each holding 100 cycles.
  SimTime ra = mu.Acquire(&a, 100);
  SimTime rb = mu.Acquire(&b, 100);
  EXPECT_EQ(ra, 100);
  EXPECT_EQ(rb, 200);  // waited for a
  // Core b burned its spin time.
  EXPECT_EQ(b.busy_cycles(), 200u);
}

TEST(SimMutex, UncontendedIsCheap) {
  EventLoop loop;
  CpuCore a(&loop, "a", 1e9);
  SimMutex mu(&loop, 1e9);
  SimTime r1 = mu.Acquire(&a, 50);
  EXPECT_EQ(r1, 50);
  loop.Schedule(1000, [] {});
  loop.Run();
  SimTime r2 = mu.Acquire(&a, 50);
  EXPECT_EQ(r2, 1050);
  EXPECT_EQ(a.busy_cycles(), 100u);
}

// Property: N cores hammering a mutex see Universal-Scalability-style
// serialization: total completion time >= N * hold.
class SimMutexScalingTest : public ::testing::TestWithParam<int> {};

TEST_P(SimMutexScalingTest, TotalHoldTimeSerializes) {
  int n = GetParam();
  EventLoop loop;
  std::vector<std::unique_ptr<CpuCore>> cores;
  for (int i = 0; i < n; ++i) {
    cores.push_back(std::make_unique<CpuCore>(&loop, "c", 1e9));
  }
  SimMutex mu(&loop, 1e9);
  SimTime last = 0;
  for (int i = 0; i < n; ++i) last = mu.Acquire(cores[i].get(), 100);
  EXPECT_EQ(last, static_cast<SimTime>(100) * n);
}

INSTANTIATE_TEST_SUITE_P(Cores, SimMutexScalingTest, ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace netkernel::sim
