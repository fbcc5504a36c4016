// Copyright (c) NetKernel reproduction authors.
// nkbench command line. One process runs one workload:
//
//   nkbench --workload <kv_udp_open|http_short_closed|bulk_txrx> --seed <n>
//           --seconds <s> --trace <0|1> [--spans-dir <dir>]
//
// It runs the light-load point once, the kv SLO search (kv only), then
// repeats the main load point until --seconds of wall time have passed (at
// least three times): every repeat must reproduce the first one's virtual
// metrics bit-for-bit, and the wall-clock metrics are medians over repeats.
// With --trace 1 the repeats alternate untraced and traced (host-A NQE
// lifecycle sampling), and the per-layer metrics are printed instead of the
// end-to-end ones. The last line of stdout is one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "nkbench/nkbench.h"

namespace nkbench {
namespace {

constexpr uint32_t kTraceEvery = 16;  // traced repeats sample 1 in 16 NQEs
constexpr int kMinRepeats = 3;
constexpr int kMaxRepeats = 200;

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"},           {"sim_refev_per_op", "refev"}, {"peak_rss_mb", "MiB"},
    {"cycles_per_op", "cycles"}, {"ok_frac", "ratio"},    {"p50_us", "us"},
    {"p99_us", "us"},           {"p999_us", "us"},        {"p99_us_lo", "us"},
    {"capacity_kops", "kop/s"}, {"tx_gbps", "Gbit/s"},    {"rx_gbps", "Gbit/s"},
};

const Metric kPerLayer[] = {
    {"sim.events_per_op", "count"},
    {"sim.wall_us_per_op", "us"},
    {"sim.wall_ns_per_event", "ns"},
    {"netsim.wire_pkts_per_op", "count"},
    {"netsim.link_util", "ratio"},
    {"netsim.drops", "count"},
    {"shm.pool_allocs_per_op", "count"},
    {"shm.pool_alloc_failures", "count"},
    {"shm.ring_ns_per_nqe", "ns"},
    {"guestlib.nqes_per_op", "count"},
    {"guestlib.busy_cycles_per_op", "cycles"},
    {"ce.busy_cycles_per_op", "cycles"},
    {"ce.util", "ratio"},
    {"ce.nqes_per_round", "count"},
    {"ce.nqes_switched_per_op", "count"},
    {"ce.table_inserts_per_op", "count"},
    {"ce.deferred", "count"},
    {"ce.dropped", "count"},
    {"ce.ring_wait_us.p50", "us"},
    {"ce.ring_wait_us.p99", "us"},
    {"ce.switch_us.p50", "us"},
    {"ce.switch_us.p99", "us"},
    {"ce.traced_nqes", "count"},
    {"nsm.busy_cycles_per_op", "cycles"},
    {"nsm.util", "ratio"},
    {"servicelib.doorbells_per_op", "count"},
    {"servicelib.doorbell_coalesce_ratio", "ratio"},
    {"servicelib.copy_ship_frac", "ratio"},
    {"nsm.service_us.p50", "us"},
    {"nsm.service_us.p99", "us"},
    {"nsm.completion_us.p50", "us"},
    {"nsm.completion_us.p99", "us"},
    {"nsm.traced_nqes", "count"},
    {"tcp.segs_per_op", "count"},
    {"tcp.retransmits", "count"},
    {"tcp.rx_ring_drops", "count"},
    {"udp.drops", "count"},
    {"udp.rx_pool_fallbacks", "count"},
    {"guard.rejects", "count"},
    {"guard.validate_ns", "ns"},
    {"obs.trace_overhead", "ratio"},
    {"gen.late_us.p50", "us"},
    {"gen.late_us.p99", "us"},
    {"fail_frac", "ratio"},
};

// Traced-only metrics: taken from the first traced repeat.
const char* const kTraced[] = {
    "ce.ring_wait_us.p50",   "ce.ring_wait_us.p99", "ce.switch_us.p50",
    "ce.switch_us.p99",      "ce.traced_nqes",      "nsm.service_us.p50",
    "nsm.service_us.p99",    "nsm.completion_us.p50", "nsm.completion_us.p99",
    "nsm.traced_nqes"};

struct Args {
  Workload workload = Workload::kKv;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = ParseWorkload(v, &a->workload);
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && a->seconds > 0;
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "0") == 0 ? 0 : std::strcmp(v, "1") == 0 ? 1 : -1;
    } else if (flag == "--spans-dir") {
      a->spans_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds && a->trace >= 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMiB() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void CheckRun(const char* what, const RunResult& r, std::vector<std::string>* errors) {
  for (const std::string& e : r.errors) errors->push_back(std::string(what) + ": " + e);
  if (r.layer.at("guard.rejects") != 0) {
    errors->push_back(std::string(what) + ": guard rejected NQEs of clean traffic");
  }
  if (r.ops == 0) errors->push_back(std::string(what) + ": no op completed in the window");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nkbench --workload <kv_udp_open|http_short_closed|bulk_txrx> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]\n");
    return 2;
  }
  const Workload w = args.workload;
  const Plan plan = PlanFor(w);
  SpanLog span_log;
  SpanLog* spans = args.trace == 1 ? &span_log : nullptr;
  std::vector<std::string> errors;
  uint64_t attempted = 0, failed = 0;
  auto account = [&](const RunResult& r) {
    attempted += r.attempted;
    failed += r.failed;
  };
  std::vector<double> setups;

  RunSpec spec;
  spec.workload = w;
  spec.seed = args.seed;
  spec.spans = spans;

  // Light-load point.
  RunResult lo;
  {
    ScopedSpan span(spans, "lo_point");
    spec.load = plan.lo;
    spec.window = plan.lo_window;
    lo = RunOnce(spec);
  }
  CheckRun("lo", lo, &errors);
  account(lo);
  setups.push_back(lo.setup_s);

  int slo_probes = 0;
  double slo_rate = 0;
  if (w == Workload::kKv) slo_rate = FindSloRate(plan, args.seed, spans, &slo_probes);

  // Repeats of the main load point.
  spec.load = plan.hi;
  spec.window = plan.window;
  std::vector<RunResult> reps, traced;
  const double t0 = WallSeconds();
  while (static_cast<int>(reps.size()) < kMinRepeats ||
         (WallSeconds() - t0 < args.seconds && static_cast<int>(reps.size()) < kMaxRepeats)) {
    {
      ScopedSpan span(spans, "repeat");
      spec.trace_every = 0;
      reps.push_back(RunOnce(spec));
    }
    CheckRun("repeat", reps.back(), &errors);
    account(reps.back());
    setups.push_back(reps.back().setup_s);
    if (reps.back().virt != reps.front().virt) {
      errors.push_back("repeat " + std::to_string(reps.size()) +
                       ": virtual metrics differ from the first repeat");
    }
    if (args.trace == 1) {
      {
        ScopedSpan span(spans, "traced_repeat");
        spec.trace_every = kTraceEvery;
        traced.push_back(RunOnce(spec));
      }
      CheckRun("traced repeat", traced.back(), &errors);
      account(traced.back());
      setups.push_back(traced.back().setup_s);
      if (traced.back().virt != traced.front().virt) {
        errors.push_back("traced repeat " + std::to_string(traced.size()) +
                         ": virtual metrics differ from the first traced repeat");
      }
    }
  }
  const RunResult& main_run = reps.front();
  // Wall-clock figures: the median over every slice of every repeat.
  auto slice_median = [](const std::vector<RunResult>& runs,
                         std::vector<double> RunResult::*slices) {
    std::vector<double> v;
    for (const RunResult& r : runs) v.insert(v.end(), (r.*slices).begin(), (r.*slices).end());
    return Median(v);
  };
  auto refev_per_op = [&](const std::vector<RunResult>& runs) {
    return slice_median(runs, &RunResult::slice_refev_per_op);
  };

  std::map<std::string, double> values;
  if (args.trace == 0) {
    values["setup_s"] = Median(setups);
    values["sim_refev_per_op"] = refev_per_op(reps);
    values["peak_rss_mb"] = PeakRssMiB();
    values["cycles_per_op"] = main_run.virt.at("cycles_per_op");
    values["ok_frac"] = 1.0 - main_run.virt.at("fail_frac");
    values["p50_us"] = main_run.virt.at("p50_us");
    values["p99_us"] = main_run.virt.at("p99_us");
    values["p999_us"] = main_run.virt.at("p999_us");
    values["p99_us_lo"] = lo.virt.at("p99_us");
    values["capacity_kops"] = w == Workload::kKv ? slo_rate / 1e3 : main_run.virt.at("krps");
    values["tx_gbps"] = main_run.virt.at("tx_gbps");
    values["rx_gbps"] = main_run.virt.at("rx_gbps");
    if (main_run.virt.at("latency_samples") < 10000) {
      errors.push_back("too few latency samples for p99.9");
    }
  } else {
    for (const auto& [name, v] : main_run.layer) values[name] = v;
    for (const char* name : kTraced) values[name] = traced.front().layer.at(name);
    values["sim.wall_us_per_op"] = slice_median(reps, &RunResult::slice_us_per_op);
    values["sim.wall_ns_per_event"] = slice_median(reps, &RunResult::slice_ns_per_event);
    values["obs.trace_overhead"] = refev_per_op(traced) / refev_per_op(reps) - 1.0;
    values["fail_frac"] = main_run.virt.at("fail_frac");
    {
      ScopedSpan span(spans, "probe.ring");
      values["shm.ring_ns_per_nqe"] = ProbeRingNsPerNqe();
    }
    {
      ScopedSpan span(spans, "probe.guard");
      values["guard.validate_ns"] = ProbeGuardValidateNs();
    }
    if (values["shm.ring_ns_per_nqe"] < 0) errors.push_back("ring probe lost NQEs");
    if (values["guard.validate_ns"] < 0) errors.push_back("guard probe rejected a valid NQE");
  }

  // Every CE-switched NQE either came from a guest or goes back to one, so
  // the switch must have moved at least as many NQEs as the guests sent.
  if (main_run.layer.at("run.ce_nqes_switched") < main_run.layer.at("run.guest_nqes_sent")) {
    errors.push_back("CE switched fewer NQEs than GuestLib sent");
  }

  std::printf("nkbench %s seed=%llu trace=%d: %zu repeats%s, %d SLO probes\n", WorkloadName(w),
              static_cast<unsigned long long>(args.seed), args.trace, reps.size(),
              args.trace == 1 ? " (+ as many traced)" : "", slo_probes);
  if (w == Workload::kBulk) {
    // tx/rx_gbps measure the CPU path only while the NSM is saturated and the
    // port is not.
    const double nsm_util = main_run.layer.at("nsm.util");
    const double link_util = main_run.layer.at("netsim.link_util");
    const bool cpu_bound = nsm_util >= 0.95 && link_util <= 0.8;
    std::printf("bottleneck: nsm.util=%.4f netsim.link_util=%.4f %s\n", nsm_util, link_util,
                cpu_bound ? "(NSM-bound)" : "FLAG: bulk is not NSM-bound; tx/rx_gbps do not "
                                            "measure the CPU path");
  }
  const bool correct = errors.empty();
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  if (!correct) failed = attempted;

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const Metric& m) {
    auto it = values.find(m.name);
    double v = it == values.end() ? NAN : it->second;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "metric %s has no finite value\n", m.name);
      std::exit(1);
    }
    std::printf("%-36s %.6g %s\n", m.name, v, m.unit);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, v, m.unit);
    json += buf;
    first = false;
  };
  if (args.trace == 0) {
    for (const Metric& m : kEndToEnd) emit(m);
  } else {
    for (const Metric& m : kPerLayer) emit(m);
  }
  json += "}}";

  if (spans != nullptr && !args.spans_dir.empty()) {
    const std::string run_id = std::string(WorkloadName(w)) + "-seed" +
                               std::to_string(args.seed) + "-" +
                               std::to_string(static_cast<long long>(WallSeconds() * 1e6));
    const std::string path = args.spans_dir + "/" + run_id + ".json";
    if (span_log.WriteJson(path, run_id)) {
      std::printf("spans: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace nkbench

int main(int argc, char** argv) { return nkbench::Main(argc, argv); }
