// Copyright (c) NetKernel reproduction authors.
// nkbench operating points, the kv SLO search, benchmark-side spans and the
// standalone micro-probes.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "nkbench/nkbench.h"
#include "src/guard/nqe_validator.h"
#include "src/shm/hugepage_pool.h"
#include "src/shm/nk_device.h"

namespace nkbench {

using namespace netkernel;

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kKv, Workload::kHttp, Workload::kBulk}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kKv:
      return "kv_udp_open";
    case Workload::kHttp:
      return "http_short_closed";
    case Workload::kBulk:
      return "bulk_txrx";
  }
  return "?";
}

Plan PlanFor(Workload w) {
  Plan p;
  switch (w) {
    case Workload::kKv:
      // The knee, where the backlog starts to grow, sat near 900k req/s
      // when these points were chosen (SLO edge ~880k).
      p.hi = 720e3;
      p.lo = 360e3;
      p.window = 250 * kMillisecond;
      p.lo_window = p.window;
      p.slo_lo = 750e3;
      p.slo_hi = 1000e3;
      p.slo_window = 40 * kMillisecond;
      break;
    case Workload::kHttp:
      p.hi = 64;
      p.lo = 4;
      p.window = 200 * kMillisecond;
      p.lo_window = p.window;
      break;
    case Workload::kBulk:
      // Unpaced, the NSM core saturates at ~7.3 (tx) + 14.2 (rx) Gbit/s; lo
      // paces both directions at 4 Gbit/s.
      p.hi = 0;
      p.lo = 4;
      p.window = 300 * kMillisecond;
      // Paced streams deliver few messages; a longer lo window gives p99
      // enough samples.
      p.lo_window = 1500 * kMillisecond;
      break;
  }
  return p;
}

namespace {
// The backlog grows when more requests are outstanding at the window's end
// than twice as many as at its middle, plus slack for Poisson bursts.
bool MeetsSlo(const RunResult& r) {
  auto v = [&](const char* k) { return r.virt.at(k); };
  const double backlog_slack = 64;
  return r.correct() && v("p99_us") <= 100.0 && v("fail_frac") <= 0.001 &&
         v("backlog_end") <= 2 * v("backlog_mid") + backlog_slack;
}
}  // namespace

double FindSloRate(const Plan& plan, uint64_t seed, SpanLog* spans, int* probes) {
  ScopedSpan span(spans, "slo_search");
  auto probe = [&](double rate) {
    ++*probes;
    RunSpec s;
    s.workload = Workload::kKv;
    s.seed = seed;
    s.load = rate;
    s.window = plan.slo_window;
    s.spans = spans;
    return MeetsSlo(RunOnce(s));
  };
  // Widen the bracket until it holds the SLO edge, then bisect.
  double ok = plan.slo_lo;
  double bad = plan.slo_hi;
  while (!probe(ok)) {
    bad = ok;
    ok /= 2;
    if (ok < 1e3) return 0;
  }
  while (probe(bad)) {
    ok = bad;
    bad *= 2;
    if (bad > 100e6) return ok;
  }
  while ((bad - ok) / ok > 0.01) {
    double mid = 0.5 * (ok + bad);
    if (probe(mid)) {
      ok = mid;
    } else {
      bad = mid;
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

namespace {
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

int SpanLog::Begin(const std::string& name, int parent) {
  spans_.push_back(Span{name, NowNs(), -1, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it);
}

bool SpanLog::WriteJson(const std::string& path, const std::string& run_id) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"run_id\": \"%s\", \"spans\": [\n", run_id.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"run_id\": \"%s\"}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base), s.parent, run_id.c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

namespace {
volatile uint64_t reference_sink = 0;  // keeps the reference loop's work alive
}  // namespace

double ReferenceNsPerEvent() {
  constexpr int kEvents = 30000;
  struct Event {
    int64_t at;
    uint64_t seq;
    std::function<void()> fn;
  };
  auto later = [](const Event& a, const Event& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  };
  std::priority_queue<Event, std::vector<Event>, decltype(later)> queue(later);
  std::vector<std::unique_ptr<std::vector<uint64_t>>> objects(4096);
  uint64_t x = 0x9e3779b97f4a7c15ULL, seq = 0, acc = 0;
  for (int i = 0; i < 1024; ++i) queue.push(Event{i, seq++, [&acc, i] { acc += i; }});
  const int64_t t0 = NowNs();
  for (int i = 0; i < kEvents; ++i) {
    Event e = queue.top();
    queue.pop();
    e.fn();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    auto& slot = objects[x & 4095];
    slot = std::make_unique<std::vector<uint64_t>>(16 + (x >> 60), x);
    queue.push(Event{e.at + static_cast<int64_t>(x % 1000), seq++,
                     [&acc, &slot] { acc += (*slot)[0]; }});
  }
  const int64_t ns = NowNs() - t0;
  reference_sink = acc;
  return static_cast<double>(ns) / kEvents;
}

// ---------------------------------------------------------------------------
// Micro-probes: each times a fixed batch of work repeatedly and reports the
// median batch, so a preempted batch does not skew the figure.
// ---------------------------------------------------------------------------

namespace {
template <typename Fn>
double MedianBatchNs(int batches, int per_batch, Fn fn) {
  std::vector<double> ns;
  for (int b = 0; b < batches; ++b) {
    int64_t t0 = NowNs();
    fn();
    ns.push_back(static_cast<double>(NowNs() - t0) / per_batch);
  }
  std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
  return ns[ns.size() / 2];
}
}  // namespace

double ProbeRingNsPerNqe() {
  constexpr int kBatch = 256;
  shm::NkDevice dev("probe", 1);
  shm::SpscRing<shm::Nqe>& ring = dev.queue_set(0).send;
  shm::Nqe out[kBatch];
  uint64_t sink = 0;
  double ns = MedianBatchNs(2000, kBatch, [&] {
    for (int i = 0; i < kBatch; ++i) {
      ring.TryEnqueue(shm::MakeNqe(shm::NqeOp::kSendTo, 1, 0, static_cast<uint32_t>(i)));
    }
    size_t n = ring.DequeueBatch(out, kBatch);
    for (size_t i = 0; i < n; ++i) sink += out[i].vm_sock;
  });
  if (sink != 2000ull * (kBatch - 1) * kBatch / 2) return -1;  // lost NQEs
  return ns;
}

double ProbeGuardValidateNs() {
  constexpr int kBatch = 256;
  shm::HugepagePool pool(1 * kMiB);
  guard::NqeValidator validator;
  validator.RegisterVmPool(1, &pool);
  const uint64_t chunk = pool.Alloc(64);
  const shm::Nqe valid = shm::MakeNqe(shm::NqeOp::kSendTo, 1, 0, 7, 0, chunk, 64);
  uint64_t ok = 0;
  double ns = MedianBatchNs(2000, kBatch, [&] {
    for (int i = 0; i < kBatch; ++i) {
      shm::Nqe n = valid;
      ok += validator.ValidateGuestNqe(&n, /*from_send_ring=*/true, 1, 0) == guard::Verdict::kOk;
    }
  });
  if (ok != 2000ull * kBatch) return -1;  // the probe NQE must pass every check
  return ns;
}

}  // namespace nkbench
