// Copyright (c) NetKernel reproduction authors.
// nkbench: the product-level benchmark of the NetKernel reproduction.
//
// Three workloads run on a NetKernel host (guard on, default CoreEngine
// configuration) against a Baseline peer host with the sink cost profile:
//   kv_udp_open        memcached-style UDP KV under open-loop Poisson load
//   http_short_closed  ab-style short TCP connections in a closed loop
//   bulk_txrx          bulk TCP, one VM sending and one receiving
//
// Every run of a workload builds its testbed from scratch and reports two
// kinds of result: virtual metrics (what the modelled tenants and operator
// see, deterministic for a fixed seed) and wall-clock timings of the
// single-threaded discrete-event simulator itself.

#ifndef NKBENCH_NKBENCH_H_
#define NKBENCH_NKBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace nkbench {

using netkernel::SimTime;

enum class Workload { kKv, kHttp, kBulk };

// Parses a workload name; returns false for an unknown one.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

// Benchmark-side spans: name, wall-clock start/end and parent, recorded in
// memory around the benchmark's calls into the system and written out once
// at exit. All spans of one process share the run id.
class SpanLog {
 public:
  int Begin(const std::string& name, int parent = -1);
  void End(int id);
  // Current innermost open span (-1 when none), the default parent.
  int current() const { return open_.empty() ? -1 : open_.back(); }
  bool WriteJson(const std::string& path, const std::string& run_id) const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int parent = -1;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span on construction and closes it on destruction. A null log
// records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name)
      : log_(log), id_(log != nullptr ? log->Begin(name, log->current()) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// Monotonic wall clock in seconds.
inline double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One simulated run of a workload at one load point.
struct RunSpec {
  Workload workload = Workload::kKv;
  uint64_t seed = 1;
  // kv: offered Poisson rate (requests/s). http: closed-loop clients.
  // bulk: aggregate paced rate per direction in Gbit/s (0 = unpaced).
  double load = 0;
  SimTime window = 0;        // measured window of virtual time
  uint32_t trace_every = 0;  // host-A lifecycle tracing, 1-in-N (0 = off)
  SpanLog* spans = nullptr;
};

// What one run measured. `virt` holds virtual metrics only, so two runs of
// one spec compare bit-for-bit; `layer` holds per-layer counters over the
// measured window, and the wall fields time the simulator.
struct RunResult {
  std::map<std::string, double> virt;
  std::map<std::string, double> layer;
  double setup_s = 0;  // wall time to build the testbed
  // Wall time of each slice of the measured window per op completed and per
  // event executed in it, and per op in reference events (see
  // ReferenceNsPerEvent, measured right after the slice).
  std::vector<double> slice_us_per_op;
  std::vector<double> slice_ns_per_event;
  std::vector<double> slice_refev_per_op;
  uint64_t ops = 0;           // ops completed in the measured window
  uint64_t attempted = 0;     // ops attempted in the measured window
  uint64_t failed = 0;        // attempted ops lost, errored, refused or wrong
  std::vector<std::string> errors;  // failed output checks

  bool correct() const { return errors.empty(); }
};

RunResult RunOnce(const RunSpec& spec);

// Fixed operating points, chosen from the knee measured on today's code.
struct Plan {
  double hi = 0;  // main load point (kv: ~80% of the knee)
  double lo = 0;  // light load point (kv: ~40% of the knee)
  SimTime window = 0;     // measured window at hi
  SimTime lo_window = 0;  // measured window at lo
  // kv SLO search: bracket and window of each probe.
  double slo_lo = 0;
  double slo_hi = 0;
  SimTime slo_window = 0;
};
Plan PlanFor(Workload w);

// Highest offered kv rate meeting the SLO (p99 <= 100 us, fail_frac <= 0.1%
// and no growing backlog), by bisection to 1% resolution
// from the bracket [plan.slo_lo, plan.slo_hi], widened first if the SLO edge
// lies outside it. Deterministic for a fixed seed.
double FindSloRate(const Plan& plan, uint64_t seed, SpanLog* spans, int* probes);

// Wall time of one event of a fixed, benchmark-owned discrete-event loop (a
// timer heap of std::function events that allocate and read heap objects),
// measured now. The simulator's wall time per op divided by it gives a cost
// in reference events that cancels most of the slow speed drift of a shared
// machine, which moves raw wall times by 30% or more between runs.
double ReferenceNsPerEvent();

// Micro-probes, timed on standalone objects.
double ProbeRingNsPerNqe();      // SPSC ring enqueue + dequeue, per NQE
double ProbeGuardValidateNs();   // NqeValidator on a valid guest NQE

}  // namespace nkbench

#endif  // NKBENCH_NKBENCH_H_
