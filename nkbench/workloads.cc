// Copyright (c) NetKernel reproduction authors.
// The three nkbench workloads. Each RunOnce builds a fresh two-host testbed,
// drives it through setup, warmup, a measured window and a drain, checks the
// outputs it received, and reads every layer's public counters around the
// measured window.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "nkbench/nkbench.h"
#include "src/apps/workloads.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/netkernel.h"

namespace nkbench {

using namespace netkernel;

namespace {

constexpr SimTime kSetupTime = 1 * kMillisecond;

void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// ---------------------------------------------------------------------------
// Testbed: host A (NetKernel, measured) and host B (one Baseline peer VM
// with the sink cost profile, never the bottleneck).
// ---------------------------------------------------------------------------

struct Bed {
  explicit Bed(core::Host::Options a_options)
      : fabric(&loop),
        a(&loop, &fabric, "hostA", a_options),
        b(&loop, &fabric, "hostB", core::Host::Options{a_options.port, {}, {}, {}}) {}

  sim::EventLoop loop;
  netsim::Fabric fabric;
  core::Host a;
  core::Host b;
  std::vector<core::Nsm*> nsms;   // host A
  std::vector<core::Vm*> vms;     // host A NetKernel VMs
  core::Vm* peer = nullptr;       // host B
  std::vector<size_t> nsm_ports;  // fabric host index of each NSM vNIC

  core::Nsm* AddNsm(const std::string& name, int vcpus, SpanLog* spans) {
    ScopedSpan span(spans, "CreateNsm");
    nsm_ports.push_back(nsm_ports.size());  // NSMs are the first fabric ports
    nsms.push_back(a.CreateNsm(name, vcpus, core::NsmKind::kKernel));
    return nsms.back();
  }
  core::Vm* AddVm(const std::string& name, int vcpus, core::Nsm* nsm, SpanLog* spans) {
    ScopedSpan span(spans, "CreateNetkernelVm");
    vms.push_back(a.CreateNetkernelVm(name, vcpus, nsm));
    return vms.back();
  }
  void AddPeer(int vcpus, SpanLog* spans) {
    ScopedSpan span(spans, "CreateBaselineVm");
    tcp::TcpStackConfig cfg;
    cfg.profile = tcp::SinkProfile();
    peer = b.CreateBaselineVm("peer", vcpus, std::move(cfg));
  }
  void RunTo(SimTime t) { loop.Run(t); }
};

// Times a run's set-up: from before the hosts are built until the loop has
// run up to the first request (servers bound, client sockets open).
class SetupClock {
 public:
  explicit SetupClock(SpanLog* spans)
      : spans_(spans),
        t0_(WallSeconds()),
        span_(spans != nullptr ? spans->Begin("setup", spans->current()) : -1) {}

  // Builds the testbed from a clean IP allocator, with host-A lifecycle
  // tracing sampled as the spec asks.
  std::unique_ptr<Bed> MakeBed(core::Host::Options a_options, uint32_t trace_every) {
    ScopedSpan span(spans_, "Host");
    core::Host::ResetIpAllocator();
    auto bed = std::make_unique<Bed>(a_options);
    bed->a.SetTraceSampling(trace_every);
    return bed;
  }

  void Finish(Bed& bed, SimTime first_request, RunResult* r) {
    {
      ScopedSpan span(spans_, "setup.Run");
      bed.RunTo(first_request);
    }
    if (spans_ != nullptr) spans_->End(span_);
    r->setup_s = WallSeconds() - t0_;
  }

 private:
  SpanLog* spans_;
  double t0_;
  int span_;
};

// Counters of every host-A layer, read at the edges of the measured window.
struct Snap {
  uint64_t events = 0;
  Cycles guest_busy = 0;
  std::vector<Cycles> ce_busy;
  std::vector<Cycles> nsm_busy;  // per NSM core
  uint64_t guest_nqes = 0;
  core::CoreEngineStats ce;
  uint64_t doorbells = 0, coalesced = 0;
  uint64_t zc_ships = 0, copy_ships = 0;
  uint64_t tcp_segs = 0, tcp_retx = 0, tcp_ring_drops = 0;
  uint64_t udp_drops = 0, udp_fallbacks = 0;
  uint64_t pool_allocs = 0, pool_failures = 0;
  uint64_t wire_pkts = 0, link_drops = 0;
  std::vector<uint64_t> port_bytes;  // per NSM port: up then down
};

Snap TakeSnap(Bed& bed) {
  Snap s;
  s.events = bed.loop.events_executed();
  for (core::Vm* vm : bed.vms) {
    s.guest_busy += vm->TotalBusyCycles();
    s.guest_nqes += vm->guestlib()->nqes_sent();
    s.pool_allocs += vm->pool()->allocs();
    s.pool_failures += vm->pool()->alloc_failures();
  }
  for (int i = 0; i < bed.a.num_ce_cores(); ++i) {
    s.ce_busy.push_back(bed.a.ce_core(i)->busy_cycles());
  }
  s.ce = bed.a.ce().stats();
  for (core::Nsm* nsm : bed.nsms) {
    for (int i = 0; i < nsm->num_vcpus(); ++i) s.nsm_busy.push_back(nsm->vcpu(i)->busy_cycles());
    core::ServiceLib* sl = nsm->servicelib();
    s.doorbells += sl->doorbells();
    s.coalesced += sl->doorbells_coalesced();
    s.zc_ships += sl->rx_zc_ships() + sl->dgram_zc_ships();
    s.copy_ships += sl->rx_copy_ships() + sl->dgram_copy_ships();
    const tcp::TcpStackStats& ts = nsm->stack()->stats();
    s.tcp_segs += ts.segments_sent + ts.segments_received;
    s.tcp_retx += ts.retransmits;
    s.tcp_ring_drops += ts.rx_ring_drops;
    const udp::UdpStackStats& us = nsm->udp_stack()->stats();
    s.udp_drops += us.rx_queue_drops + us.rx_ring_drops + us.no_socket_drops;
    s.udp_fallbacks += us.rx_pool_fallbacks;
  }
  for (size_t i = 0; i < bed.fabric.num_links(); ++i) s.link_drops += bed.fabric.link(i)->drops();
  for (size_t port : bed.nsm_ports) {
    netsim::Link* up = bed.fabric.up_link(port);
    netsim::Link* down = bed.fabric.down_link(port);
    s.wire_pkts += up->delivered_packets() + down->delivered_packets();
    s.port_bytes.push_back(up->delivered_bytes());
    s.port_bytes.push_back(down->delivered_bytes());
  }
  return s;
}

double PerOp(double v, uint64_t ops) { return ops > 0 ? v / static_cast<double>(ops) : 0; }

// Fills the window's per-layer metrics and cycles_per_op.
void FillLayers(Bed& bed, const Snap& s0, const Snap& s1, SimTime window, RunResult* r) {
  const uint64_t ops = r->ops;
  const double win_cycles = static_cast<double>(TimeToCycles(window));
  auto& L = r->layer;
  // Total busy cycles of a core group over the window, and its busiest core.
  auto busy = [&](const std::vector<Cycles>& c0, const std::vector<Cycles>& c1, double* util) {
    Cycles total = 0;
    *util = 0;
    for (size_t i = 0; i < c1.size(); ++i) {
      total += c1[i] - c0[i];
      *util = std::max(*util, static_cast<double>(c1[i] - c0[i]) / win_cycles);
    }
    return total;
  };
  double ce_util = 0, nsm_util = 0;
  const Cycles ce_busy = busy(s0.ce_busy, s1.ce_busy, &ce_util);
  const Cycles nsm = busy(s0.nsm_busy, s1.nsm_busy, &nsm_util);
  const Cycles guest = s1.guest_busy - s0.guest_busy;
  r->virt["cycles_per_op"] = PerOp(static_cast<double>(guest + ce_busy + nsm), ops);

  L["sim.events_per_op"] = PerOp(static_cast<double>(s1.events - s0.events), ops);
  double link_util = 0;
  for (size_t i = 0; i < s1.port_bytes.size(); ++i) {
    double bits = static_cast<double>(s1.port_bytes[i] - s0.port_bytes[i]) * 8.0;
    double cap = bed.fabric.up_link(0)->config().bandwidth * ToSeconds(window);
    link_util = std::max(link_util, bits / cap);
  }
  L["netsim.wire_pkts_per_op"] = PerOp(static_cast<double>(s1.wire_pkts - s0.wire_pkts), ops);
  L["netsim.link_util"] = link_util;
  L["netsim.drops"] = static_cast<double>(s1.link_drops - s0.link_drops);
  L["shm.pool_allocs_per_op"] = PerOp(static_cast<double>(s1.pool_allocs - s0.pool_allocs), ops);
  L["shm.pool_alloc_failures"] = static_cast<double>(s1.pool_failures - s0.pool_failures);
  L["guestlib.nqes_per_op"] = PerOp(static_cast<double>(s1.guest_nqes - s0.guest_nqes), ops);
  L["guestlib.busy_cycles_per_op"] = PerOp(static_cast<double>(guest), ops);
  L["ce.busy_cycles_per_op"] = PerOp(static_cast<double>(ce_busy), ops);
  L["ce.util"] = ce_util;
  const uint64_t rounds = s1.ce.rounds - s0.ce.rounds;
  const uint64_t switched = s1.ce.nqes_switched - s0.ce.nqes_switched;
  L["ce.nqes_per_round"] =
      rounds > 0 ? static_cast<double>(switched) / static_cast<double>(rounds) : 0;
  L["ce.nqes_switched_per_op"] = PerOp(static_cast<double>(switched), ops);
  L["ce.table_inserts_per_op"] =
      PerOp(static_cast<double>(s1.ce.table_inserts - s0.ce.table_inserts), ops);
  L["ce.deferred"] = static_cast<double>(s1.ce.deliveries_deferred - s0.ce.deliveries_deferred);
  L["ce.dropped"] = static_cast<double>(s1.ce.nqes_dropped - s0.ce.nqes_dropped);
  L["nsm.busy_cycles_per_op"] = PerOp(static_cast<double>(nsm), ops);
  L["nsm.util"] = nsm_util;
  const uint64_t db = s1.doorbells - s0.doorbells;
  const uint64_t co = s1.coalesced - s0.coalesced;
  L["servicelib.doorbells_per_op"] = PerOp(static_cast<double>(db), ops);
  L["servicelib.doorbell_coalesce_ratio"] =
      db + co > 0 ? static_cast<double>(co) / static_cast<double>(db + co) : 0;
  const uint64_t zc = s1.zc_ships - s0.zc_ships;
  const uint64_t cp = s1.copy_ships - s0.copy_ships;
  L["servicelib.copy_ship_frac"] =
      zc + cp > 0 ? static_cast<double>(cp) / static_cast<double>(zc + cp) : 0;
  L["tcp.segs_per_op"] = PerOp(static_cast<double>(s1.tcp_segs - s0.tcp_segs), ops);
  L["tcp.retransmits"] = static_cast<double>(s1.tcp_retx - s0.tcp_retx);
  L["tcp.rx_ring_drops"] = static_cast<double>(s1.tcp_ring_drops - s0.tcp_ring_drops);
  L["udp.drops"] = static_cast<double>(s1.udp_drops - s0.udp_drops);
  L["udp.rx_pool_fallbacks"] = static_cast<double>(s1.udp_fallbacks - s0.udp_fallbacks);
}

// Whole-run counters and the traced stage histograms (zero when untraced).
void FillRunTotals(Bed& bed, RunResult* r) {
  auto& L = r->layer;
  L["guard.rejects"] = static_cast<double>(bed.a.ce().validator().stats().rejects);
  uint64_t guest_nqes = 0;
  for (core::Vm* vm : bed.vms) guest_nqes += vm->guestlib()->nqes_sent();
  L["run.guest_nqes_sent"] = static_cast<double>(guest_nqes);
  L["run.ce_nqes_switched"] = static_cast<double>(bed.a.ce().stats().nqes_switched);

  const obs::Tracer& tr = bed.a.tracer();
  struct Stage {
    const char* name;
    obs::TraceDelta delta;
  };
  const Stage stages[] = {{"ce.ring_wait_us", obs::TraceDelta::kRingQueueing},
                          {"ce.switch_us", obs::TraceDelta::kSwitch},
                          {"nsm.service_us", obs::TraceDelta::kStackService},
                          {"nsm.completion_us", obs::TraceDelta::kCompletion}};
  for (const Stage& st : stages) {
    obs::Histogram merged;
    for (core::Vm* vm : bed.vms) merged.Merge(tr.VmDelta(vm->id(), st.delta));
    L[std::string(st.name) + ".p50"] = merged.Percentile(50) / 1e3;
    L[std::string(st.name) + ".p99"] = merged.Percentile(99) / 1e3;
    if (st.delta == obs::TraceDelta::kSwitch) {
      L["ce.traced_nqes"] = static_cast<double>(merged.Count());
    }
    if (st.delta == obs::TraceDelta::kStackService) {
      L["nsm.traced_nqes"] = static_cast<double>(merged.Count());
    }
  }
}

// Latency percentiles and the sample count they rest on.
void FillLatency(Summary& lat, RunResult* r) {
  r->virt["p50_us"] = lat.Percentile(50);
  r->virt["p99_us"] = lat.Percentile(99);
  r->virt["p999_us"] = lat.Percentile(99.9);
  r->virt["latency_samples"] = static_cast<double>(lat.Count());
}

// Runs the measured window between two counter snapshots. The window runs in
// kSlices equal slices of virtual time, each timed on its own and followed by
// a reference measurement, so the median slice discounts a burst of
// contention from other processes on the machine.
// `ops_done` reads the workload's count of ops completed so far.
constexpr int kSlices = 16;

template <typename OpsDone>
void MeasureWindow(Bed& bed, SimTime w0, SimTime w1, OpsDone ops_done, SpanLog* spans,
                   RunResult* r, Snap* s0, Snap* s1) {
  ScopedSpan span(spans, "measure.Run");
  *s0 = TakeSnap(bed);
  for (int i = 1; i <= kSlices; ++i) {
    const uint64_t ops0 = ops_done();
    const uint64_t ev0 = bed.loop.events_executed();
    const double t = WallSeconds();
    bed.RunTo(w0 + (w1 - w0) * i / kSlices);
    const double wall = WallSeconds() - t;
    const uint64_t ops = ops_done() - ops0;
    const uint64_t events = bed.loop.events_executed() - ev0;
    const double ref_ns = ReferenceNsPerEvent();
    if (ops > 0) {
      r->slice_us_per_op.push_back(wall * 1e6 / static_cast<double>(ops));
      r->slice_refev_per_op.push_back(wall * 1e9 / static_cast<double>(ops) / ref_ns);
    }
    if (events > 0) r->slice_ns_per_event.push_back(wall * 1e9 / static_cast<double>(events));
  }
  *s1 = TakeSnap(bed);
}

// ---------------------------------------------------------------------------
// kv_udp_open: 4 NetKernel VMs (1 vCPU each, one UDP KV server thread) share
// one 2-core kernel NSM through a 2-shard CoreEngine. The peer runs a
// due-time open-loop generator: arrival times are precomputed from the seed
// and every request is timed from when it was due, so a stalled client core
// shows up as latency instead of stretching the arrival process.
// ---------------------------------------------------------------------------

constexpr int kKvVms = 4;
constexpr int kKvClientThreads = 8;
constexpr uint16_t kKvPort = 11211;
constexpr uint32_t kKvValue = 64;
constexpr uint64_t kKvKeys = 10000;
constexpr double kKvSetFraction = 0.1;
constexpr SimTime kKvPreloadGap = 5 * kMicrosecond;  // one SET per key, evenly spaced
constexpr SimTime kKvWarmup = 20 * kMillisecond;
constexpr SimTime kKvDrain = 5 * kMillisecond;

uint8_t KvValueByte(uint64_t key, uint32_t i) {
  return static_cast<uint8_t>(key * 131 + i * 7 + 1);
}

struct KvReq {
  SimTime due = 0;
  SimTime sent = -1;
  SimTime done = -1;
  uint64_t key = 0;
  bool set = false;
  bool measured = false;
  bool bad = false;  // send error or a response that fails the checks
};

struct KvGen {
  std::vector<KvReq> reqs;  // indexed by request id
  std::vector<std::vector<uint32_t>> per_thread;
  std::vector<netsim::IpAddr> server_ips;
  int sockets_ready = 0;
  int64_t outstanding = 0;
  uint64_t unmatched = 0;  // responses with no outstanding request
  uint64_t completed_in_window = 0;
  SimTime w0 = 0, w1 = 0;
};

sim::Task<void> KvReceiver(core::Vm* peer, sim::CpuCore* core, int fd, KvGen* g) {
  core::SocketApi& api = peer->api();
  sim::EventLoop* loop = api.loop();
  std::vector<uint8_t> buf(2048);
  for (;;) {
    int64_t n = co_await api.RecvFrom(core, fd, buf.data(), buf.size(), nullptr, nullptr);
    if (n < 0) co_return;
    if (n < 9) {
      ++g->unmatched;
      continue;
    }
    uint64_t id = GetU64(buf.data() + 1);
    if (id >= g->reqs.size() || g->reqs[id].sent < 0 || g->reqs[id].done >= 0) {
      ++g->unmatched;
      continue;
    }
    KvReq& r = g->reqs[id];
    r.done = loop->Now();
    --g->outstanding;
    if (r.done >= g->w0 && r.done < g->w1) ++g->completed_in_window;
    // A SET is acknowledged with a bare header; every key was preloaded, so a
    // GET must hit and return the key's value.
    bool ok = buf[0] == 0;
    if (r.set) {
      ok = ok && n == 9;
    } else {
      ok = ok && n == 9 + static_cast<int64_t>(kKvValue);
      for (uint32_t i = 0; ok && i < kKvValue; ++i) ok = buf[9 + i] == KvValueByte(r.key, i);
    }
    if (!ok) r.bad = true;
  }
}

sim::Task<void> KvClientThread(core::Vm* peer, int t, KvGen* g) {
  core::SocketApi& api = peer->api();
  sim::EventLoop* loop = api.loop();
  sim::CpuCore* core = peer->vcpu(t % peer->num_vcpus());
  int fd = co_await api.SocketDgram(core);
  if (fd < 0) co_return;
  ++g->sockets_ready;
  sim::Spawn(KvReceiver(peer, core, fd, g));
  std::vector<uint8_t> req(apps::kUdpKvHeader + kKvValue);
  for (uint32_t id : g->per_thread[static_cast<size_t>(t)]) {
    KvReq& r = g->reqs[id];
    if (loop->Now() < r.due) co_await sim::Delay(loop, r.due - loop->Now());
    req[0] = r.set ? 1 : 0;
    PutU64(req.data() + 1, id);
    PutU64(req.data() + 9, r.key);
    uint64_t len = apps::kUdpKvHeader;
    if (r.set) {
      for (uint32_t i = 0; i < kKvValue; ++i) req[apps::kUdpKvHeader + i] = KvValueByte(r.key, i);
      len += kKvValue;
    }
    r.sent = loop->Now();
    ++g->outstanding;
    netsim::IpAddr dst = g->server_ips[r.key % g->server_ips.size()];
    int64_t n = co_await api.SendTo(core, fd, dst, kKvPort, req.data(), len);
    if (n != static_cast<int64_t>(len) && r.done < 0) {
      r.bad = true;
      r.done = loop->Now();
      --g->outstanding;
    }
  }
}

RunResult RunKv(const RunSpec& spec) {
  RunResult r;
  SpanLog* spans = spec.spans;
  SetupClock setup(spans);
  core::Host::Options opt;
  opt.ce.shards = 2;
  std::unique_ptr<Bed> bed = setup.MakeBed(opt, spec.trace_every);
  core::Nsm* nsm = bed->AddNsm("nsm", 2, spans);
  for (int i = 0; i < kKvVms; ++i) bed->AddVm("kv" + std::to_string(i), 1, nsm, spans);
  bed->AddPeer(kKvClientThreads, spans);

  // The schedule: every key SET once (preload), then Poisson arrivals at
  // spec.load through warmup and the measured window.
  KvGen g;
  Rng rng(spec.seed);
  std::vector<uint64_t> keys(kKvKeys);
  for (uint64_t k = 0; k < kKvKeys; ++k) keys[k] = k;
  for (uint64_t k = kKvKeys - 1; k > 0; --k) std::swap(keys[k], keys[rng.NextBounded(k + 1)]);
  SimTime t = kSetupTime;
  for (uint64_t k : keys) {
    g.reqs.push_back(KvReq{t, -1, -1, k, true, false, false});
    t += kKvPreloadGap;
  }
  t += kMillisecond;
  g.w0 = t + kKvWarmup;
  g.w1 = g.w0 + spec.window;
  for (;;) {
    t += FromSeconds(rng.NextExponential(1.0 / spec.load));
    if (t >= g.w1) break;
    KvReq q;
    q.due = t;
    q.set = rng.NextBool(kKvSetFraction);
    q.key = rng.NextBounded(kKvKeys);
    q.measured = t >= g.w0;
    g.reqs.push_back(q);
  }
  g.per_thread.resize(kKvClientThreads);
  for (uint32_t id = 0; id < g.reqs.size(); ++id) g.per_thread[id % kKvClientThreads].push_back(id);
  for (core::Vm* vm : bed->vms) g.server_ips.push_back(vm->ip());

  std::vector<apps::UdpKvStats> server_stats(kKvVms);
  {
    ScopedSpan span(spans, "StartUdpKvServer");
    apps::UdpKvServerConfig scfg;
    scfg.port = kKvPort;
    scfg.threads = 1;
    for (size_t i = 0; i < bed->vms.size(); ++i) {
      apps::StartUdpKvServer(bed->vms[i], scfg, &server_stats[i]);
    }
    for (int c = 0; c < kKvClientThreads; ++c) sim::Spawn(KvClientThread(bed->peer, c, &g));
  }
  setup.Finish(*bed, kSetupTime, &r);
  if (g.sockets_ready != kKvClientThreads) r.errors.push_back("kv: client sockets not ready");
  std::vector<uint64_t> idle_chunks;
  for (core::Vm* vm : bed->vms) idle_chunks.push_back(vm->pool()->chunks_in_use());

  {
    ScopedSpan span(spans, "warmup.Run");
    bed->RunTo(g.w0);
  }
  auto bytes = [&](bool in) {
    uint64_t b = 0;
    for (const auto& s : server_stats) b += in ? s.bytes_in : s.bytes_out;
    return b;
  };
  const uint64_t in0 = bytes(true), out0 = bytes(false);
  Snap s0, s1;
  // Backlog growth: outstanding requests at mid-window versus at its end.
  int64_t outstanding_mid = 0;
  bed->loop.Schedule(g.w0 + spec.window / 2, [&] { outstanding_mid = g.outstanding; });
  MeasureWindow(*bed, g.w0, g.w1, [&] { return g.completed_in_window; }, spans, &r, &s0, &s1);
  const int64_t outstanding_end = g.outstanding;
  const uint64_t in1 = bytes(true), out1 = bytes(false);
  {
    ScopedSpan span(spans, "drain.Run");
    bed->RunTo(g.w1 + kKvDrain);
  }

  // A request is wrong when its send failed or its response failed the
  // checks, lost when it got no response. Both fail a measured request;
  // preload and warmup requests must not fail at all.
  Summary lat;
  Summary late;
  uint64_t attempted = 0, failed = 0, wrong = 0, lost_unmeasured = 0;
  for (const KvReq& q : g.reqs) {
    const bool lost = !q.bad && q.done < 0;
    wrong += q.bad ? 1 : 0;
    if (!q.measured) {
      lost_unmeasured += lost ? 1 : 0;
      continue;
    }
    ++attempted;
    if (q.sent >= 0) late.Add(static_cast<double>(q.sent - q.due) / kMicrosecond);
    if (q.bad || lost) {
      ++failed;
    } else {
      lat.Add(static_cast<double>(q.done - q.due) / kMicrosecond);
    }
  }
  r.attempted = attempted;
  r.failed = failed;
  r.ops = g.completed_in_window;
  FillLatency(lat, &r);
  const double win_s = ToSeconds(spec.window);
  r.virt["fail_frac"] = attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
  r.virt["krps"] = static_cast<double>(attempted - failed) / win_s / 1e3;
  r.virt["rx_gbps"] = static_cast<double>(in1 - in0) * 8 / win_s / 1e9;
  r.virt["tx_gbps"] = static_cast<double>(out1 - out0) * 8 / win_s / 1e9;
  r.virt["backlog_mid"] = static_cast<double>(outstanding_mid);
  r.virt["backlog_end"] = static_cast<double>(outstanding_end);
  r.layer["gen.late_us.p50"] = late.Percentile(50);
  r.layer["gen.late_us.p99"] = late.Percentile(99);
  FillLayers(*bed, s0, s1, spec.window, &r);
  FillRunTotals(*bed, &r);

  if (wrong > 0) {
    r.errors.push_back("kv: " + std::to_string(wrong) + " requests failed or answered wrongly");
  }
  if (lost_unmeasured > 0) {
    r.errors.push_back("kv: " + std::to_string(lost_unmeasured) +
                       " preload or warmup requests lost");
  }
  if (g.unmatched > 0) {
    r.errors.push_back("kv: " + std::to_string(g.unmatched) + " responses matched no request");
  }
  for (size_t i = 0; i < bed->vms.size(); ++i) {
    uint64_t now = bed->vms[i]->pool()->chunks_in_use();
    if (now != idle_chunks[i]) {
      r.errors.push_back("kv: pool of " + bed->vms[i]->name() + " holds " + std::to_string(now) +
                         " chunks after drain, idle was " + std::to_string(idle_chunks[i]));
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// http_short_closed: a pure-echo epoll server on a 2-vCPU NetKernel VM
// (2-core kernel NSM); the peer runs `load` closed-loop clients, each doing
// connect, 64 B request, 1 KiB response, close, over and over.
// ---------------------------------------------------------------------------

constexpr uint16_t kHttpPort = 8080;
constexpr uint32_t kHttpRequest = 64;
constexpr uint32_t kHttpResponse = 1024;
constexpr uint8_t kHttpResponseByte = 0x5a;  // what apps::StartEpollServer sends
constexpr int kHttpPeerCpus = 8;
constexpr SimTime kHttpWarmup = 10 * kMillisecond;
constexpr SimTime kHttpDrain = 10 * kMillisecond;


struct HttpGen {
  netsim::IpAddr server = 0;
  SimTime w0 = 0, w1 = 0;  // connections started in [w0, w1) are measured
  Summary lat;
  uint64_t attempted = 0;  // measured connections started
  uint64_t ok = 0;         // measured connections with a correct response
  uint64_t bad = 0;        // any connection refused, errored or answered wrongly
  uint64_t completed_in_window = 0;
};

sim::Task<void> HttpClient(core::Vm* peer, int c, SimTime start, HttpGen* g) {
  core::SocketApi& api = peer->api();
  sim::EventLoop* loop = api.loop();
  sim::CpuCore* core = peer->vcpu(c % peer->num_vcpus());
  std::vector<uint8_t> req(kHttpRequest, 0xa5);
  std::vector<uint8_t> buf(4 * kHttpResponse);
  if (loop->Now() < start) co_await sim::Delay(loop, start - loop->Now());
  while (loop->Now() < g->w1) {
    const SimTime t0 = loop->Now();
    const bool measured = t0 >= g->w0;
    if (measured) ++g->attempted;
    bool ok = false;
    int fd = co_await api.Socket(core);
    if (fd >= 0) {
      if (co_await api.Connect(core, fd, g->server, kHttpPort) == 0 &&
          co_await api.Send(core, fd, req.data(), req.size()) == kHttpRequest) {
        // Read to EOF: the response must carry exactly the configured bytes.
        uint64_t got = 0;
        bool content_ok = true;
        for (;;) {
          int64_t n = co_await api.Recv(core, fd, buf.data(), buf.size());
          if (n <= 0) break;
          for (int64_t i = 0; i < n; ++i) content_ok = content_ok && buf[i] == kHttpResponseByte;
          got += static_cast<uint64_t>(n);
          if (got >= kHttpResponse) break;
        }
        ok = content_ok && got == kHttpResponse;
      }
      co_await api.Close(core, fd);
    }
    const SimTime t1 = loop->Now();
    if (t1 >= g->w0 && t1 < g->w1 && ok) ++g->completed_in_window;
    if (!ok) {
      ++g->bad;
      co_await sim::Delay(loop, 10 * kMicrosecond);  // back off before retrying
      continue;
    }
    if (measured) {
      ++g->ok;
      g->lat.Add(static_cast<double>(t1 - t0) / kMicrosecond);
    }
  }
}

RunResult RunHttp(const RunSpec& spec) {
  RunResult r;
  SpanLog* spans = spec.spans;
  SetupClock setup(spans);
  std::unique_ptr<Bed> bed = setup.MakeBed(core::Host::Options{}, spec.trace_every);
  core::Nsm* nsm = bed->AddNsm("nsm", 2, spans);
  core::Vm* server = bed->AddVm("web", 2, nsm, spans);
  bed->AddPeer(kHttpPeerCpus, spans);

  HttpGen g;
  g.server = server->ip();
  const SimTime start = kSetupTime;
  g.w0 = start + kHttpWarmup;
  g.w1 = g.w0 + spec.window;
  apps::ServerStats sstat;
  {
    ScopedSpan span(spans, "StartEpollServer");
    apps::EpollServerConfig scfg;
    scfg.port = kHttpPort;
    scfg.request_size = kHttpRequest;
    scfg.response_size = kHttpResponse;
    scfg.app_cycles_per_request = 0;
    apps::StartEpollServer(server, scfg, &sstat);
    // Each client starts at a seeded offset, so the seed shapes how the
    // closed loops interleave.
    Rng rng(spec.seed);
    const int clients = static_cast<int>(spec.load);
    for (int c = 0; c < clients; ++c) {
      SimTime jitter = static_cast<SimTime>(rng.NextBounded(50 * kMicrosecond));
      sim::Spawn(HttpClient(bed->peer, c, start + jitter, &g));
    }
  }
  setup.Finish(*bed, start, &r);

  {
    ScopedSpan span(spans, "warmup.Run");
    bed->RunTo(g.w0);
  }
  const uint64_t in0 = sstat.bytes_in, out0 = sstat.bytes_out;
  Snap s0, s1;
  MeasureWindow(*bed, g.w0, g.w1, [&] { return g.completed_in_window; }, spans, &r, &s0, &s1);
  const uint64_t in1 = sstat.bytes_in, out1 = sstat.bytes_out;
  {
    ScopedSpan span(spans, "drain.Run");
    bed->RunTo(g.w1 + kHttpDrain);
  }

  r.attempted = g.attempted;
  // A measured connection still open after the drain counts as failed.
  r.failed = g.attempted - g.ok;
  r.ops = g.completed_in_window;
  FillLatency(g.lat, &r);
  const double win_s = ToSeconds(spec.window);
  r.virt["fail_frac"] = g.attempted > 0 ? static_cast<double>(r.failed) / g.attempted : 1.0;
  r.virt["krps"] = static_cast<double>(g.completed_in_window) / win_s / 1e3;
  r.virt["rx_gbps"] = static_cast<double>(in1 - in0) * 8 / win_s / 1e9;
  r.virt["tx_gbps"] = static_cast<double>(out1 - out0) * 8 / win_s / 1e9;
  r.layer["gen.late_us.p50"] = 0;
  r.layer["gen.late_us.p99"] = 0;
  FillLayers(*bed, s0, s1, spec.window, &r);
  FillRunTotals(*bed, &r);
  if (g.bad > 0) r.errors.push_back("http: " + std::to_string(g.bad) + " connections failed");
  return r;
}

// ---------------------------------------------------------------------------
// bulk_txrx: two 1-vCPU NetKernel VMs share one 1-core kernel NSM. One VM
// sends 4 streams of 64 KiB messages to the peer while the peer sends 4
// streams to the other VM. Every message carries a header (stream, sequence,
// send time) and a trailer, so the receiver checks order and framing and
// times each message from its Send call to its last byte.
// ---------------------------------------------------------------------------

constexpr uint32_t kBulkMsg = 64 * 1024;
constexpr uint32_t kBulkHeader = 20;   // u32 stream | u64 seq | i64 send time
constexpr uint32_t kBulkTrailer = 8;   // u64 seq ^ kBulkTrailerMask
constexpr uint64_t kBulkTrailerMask = 0x5a5a5a5a5a5a5a5aULL;
constexpr int kBulkStreams = 4;
constexpr uint16_t kBulkTxPort = 9000;  // peer's sink for the sending VM
constexpr uint16_t kBulkRxPort = 9001;  // receiving VM's sink
constexpr int kBulkPeerCpus = 8;
constexpr SimTime kBulkWarmup = 10 * kMillisecond;
constexpr SimTime kBulkDrain = 20 * kMillisecond;

struct BulkDir {
  uint64_t attempted = 0;      // messages whose Send began in the window
  uint64_t delivered = 0;      // of those, delivered intact
  uint64_t window_bytes = 0;   // bytes of messages completed inside the window
  uint64_t window_msgs = 0;
};

struct BulkGen {
  SimTime w0 = 0, w1 = 0;
  double paced_gbps = 0;  // per direction; 0 = unpaced
  BulkDir dir[2];         // 0 = tx (host A -> peer), 1 = rx (peer -> host A)
  Summary lat;
  uint64_t bad = 0;  // framing, order or socket errors
};

// Paced senders draw exponential gaps (Poisson message arrivals), so the
// light-load latency does not hinge on how the seeded start offsets align.
sim::Task<void> BulkSender(core::Vm* vm, int stream, int d, netsim::IpAddr dst, uint16_t port,
                           SimTime start, uint64_t seed, BulkGen* g) {
  core::SocketApi& api = vm->api();
  sim::EventLoop* loop = api.loop();
  sim::CpuCore* core = vm->vcpu(stream % vm->num_vcpus());
  Rng rng(seed);
  std::vector<uint8_t> msg(kBulkMsg, static_cast<uint8_t>(rng.Next()));
  if (loop->Now() < start) co_await sim::Delay(loop, start - loop->Now());
  int fd = co_await api.Socket(core);
  if (fd < 0 || co_await api.Connect(core, fd, dst, port) != 0) {
    ++g->bad;
    co_return;
  }
  const uint32_t id = static_cast<uint32_t>(d * kBulkStreams + stream);
  const double mean_gap_s =
      g->paced_gbps > 0 ? kBulkMsg * 8.0 * kBulkStreams / (g->paced_gbps * 1e9) : 0;
  for (uint64_t seq = 0; loop->Now() < g->w1; ++seq) {
    const SimTime t0 = loop->Now();
    std::memcpy(msg.data(), &id, 4);
    PutU64(msg.data() + 4, seq);
    PutU64(msg.data() + 12, static_cast<uint64_t>(t0));
    PutU64(msg.data() + kBulkMsg - kBulkTrailer, seq ^ kBulkTrailerMask);
    if (t0 >= g->w0) ++g->dir[d].attempted;
    int64_t n = co_await api.Send(core, fd, msg.data(), msg.size());
    if (n != kBulkMsg) {
      ++g->bad;
      break;
    }
    if (mean_gap_s > 0) {
      const SimTime next = t0 + FromSeconds(rng.NextExponential(mean_gap_s));
      if (loop->Now() < next) co_await sim::Delay(loop, next - loop->Now());
    }
  }
  co_await api.Close(core, fd);
}

sim::Task<void> BulkConn(core::Vm* vm, sim::CpuCore* core, int fd, int d, BulkGen* g) {
  core::SocketApi& api = vm->api();
  sim::EventLoop* loop = api.loop();
  std::vector<uint8_t> buf(kBulkMsg);
  uint8_t hdr[kBulkHeader];
  uint8_t trl[kBulkTrailer];
  uint64_t off = 0;  // offset inside the current message
  int64_t stream = -1;
  uint64_t next_seq = 0;
  for (;;) {
    int64_t n = co_await api.Recv(core, fd, buf.data(), buf.size());
    if (n <= 0) break;
    for (uint64_t i = 0; i < static_cast<uint64_t>(n);) {
      const uint64_t take = std::min<uint64_t>(static_cast<uint64_t>(n) - i, kBulkMsg - off);
      if (off < kBulkHeader) {
        std::memcpy(hdr + off, buf.data() + i, std::min<uint64_t>(take, kBulkHeader - off));
      }
      const uint64_t tstart = kBulkMsg - kBulkTrailer;
      if (off + take > tstart) {
        const uint64_t from = std::max(off, tstart);
        std::memcpy(trl + (from - tstart), buf.data() + i + (from - off), off + take - from);
      }
      off += take;
      i += take;
      if (off < kBulkMsg) continue;
      off = 0;
      uint32_t id;
      std::memcpy(&id, hdr, 4);
      const uint64_t seq = GetU64(hdr + 4);
      const SimTime sent = static_cast<SimTime>(GetU64(hdr + 12));
      if (stream < 0) stream = id;
      if (static_cast<int64_t>(id) != stream || seq != next_seq ||
          GetU64(trl) != (seq ^ kBulkTrailerMask)) {
        ++g->bad;
        co_await api.Close(core, fd);
        co_return;
      }
      ++next_seq;
      const SimTime now = loop->Now();
      if (now >= g->w0 && now < g->w1) {
        g->dir[d].window_bytes += kBulkMsg;
        ++g->dir[d].window_msgs;
      }
      if (sent >= g->w0 && sent < g->w1) {
        ++g->dir[d].delivered;
        g->lat.Add(static_cast<double>(now - sent) / kMicrosecond);
      }
    }
  }
  co_await api.Close(core, fd);
}

sim::Task<void> BulkSink(core::Vm* vm, uint16_t port, int d, BulkGen* g) {
  core::SocketApi& api = vm->api();
  sim::CpuCore* core = vm->vcpu(0);
  int lfd = co_await api.Socket(core);
  if (lfd < 0 || co_await api.Bind(core, lfd, 0, port) != 0 ||
      co_await api.Listen(core, lfd, 64, false) != 0) {
    ++g->bad;
    co_return;
  }
  for (int c = 0; c < kBulkStreams; ++c) {
    int cfd = co_await api.Accept(core, lfd);
    if (cfd < 0) {
      ++g->bad;
      co_return;
    }
    sim::Spawn(BulkConn(vm, vm->vcpu(c % vm->num_vcpus()), cfd, d, g));
  }
}

RunResult RunBulk(const RunSpec& spec) {
  RunResult r;
  SpanLog* spans = spec.spans;
  SetupClock setup(spans);
  std::unique_ptr<Bed> bed = setup.MakeBed(core::Host::Options{}, spec.trace_every);
  core::Nsm* nsm = bed->AddNsm("nsm", 1, spans);
  core::Vm* tx_vm = bed->AddVm("tx", 1, nsm, spans);
  core::Vm* rx_vm = bed->AddVm("rx", 1, nsm, spans);
  bed->AddPeer(kBulkPeerCpus, spans);

  BulkGen g;
  g.paced_gbps = spec.load;
  const SimTime start = kSetupTime;
  g.w0 = start + kBulkWarmup;
  g.w1 = g.w0 + spec.window;
  {
    ScopedSpan span(spans, "StartStreams");
    sim::Spawn(BulkSink(bed->peer, kBulkTxPort, 0, &g));
    sim::Spawn(BulkSink(rx_vm, kBulkRxPort, 1, &g));
    // Streams start at seeded offsets; each draws its pacing gaps and
    // payload from its own seeded generator.
    Rng rng(spec.seed);
    for (int s = 0; s < kBulkStreams; ++s) {
      SimTime j0 = static_cast<SimTime>(rng.NextBounded(200 * kMicrosecond));
      SimTime j1 = static_cast<SimTime>(rng.NextBounded(200 * kMicrosecond));
      sim::Spawn(BulkSender(tx_vm, s, 0, bed->peer->ip(), kBulkTxPort, start + j0, rng.Next(), &g));
      sim::Spawn(BulkSender(bed->peer, s, 1, rx_vm->ip(), kBulkRxPort, start + j1, rng.Next(), &g));
    }
  }
  setup.Finish(*bed, start, &r);

  {
    ScopedSpan span(spans, "warmup.Run");
    bed->RunTo(g.w0);
  }
  Snap s0, s1;
  MeasureWindow(*bed, g.w0, g.w1, [&] { return g.dir[0].window_msgs + g.dir[1].window_msgs; },
                spans, &r, &s0, &s1);
  {
    ScopedSpan span(spans, "drain.Run");
    bed->RunTo(g.w1 + kBulkDrain);
  }

  r.attempted = g.dir[0].attempted + g.dir[1].attempted;
  r.failed = r.attempted - (g.dir[0].delivered + g.dir[1].delivered);
  r.ops = g.dir[0].window_msgs + g.dir[1].window_msgs;
  FillLatency(g.lat, &r);
  const double win_s = ToSeconds(spec.window);
  r.virt["fail_frac"] = r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0;
  r.virt["krps"] = static_cast<double>(r.ops) / win_s / 1e3;
  r.virt["tx_gbps"] = static_cast<double>(g.dir[0].window_bytes) * 8 / win_s / 1e9;
  r.virt["rx_gbps"] = static_cast<double>(g.dir[1].window_bytes) * 8 / win_s / 1e9;
  r.layer["gen.late_us.p50"] = 0;
  r.layer["gen.late_us.p99"] = 0;
  FillLayers(*bed, s0, s1, spec.window, &r);
  FillRunTotals(*bed, &r);
  if (g.bad > 0) r.errors.push_back("bulk: " + std::to_string(g.bad) + " stream errors");
  return r;
}

}  // namespace

RunResult RunOnce(const RunSpec& spec) {
  switch (spec.workload) {
    case Workload::kKv:
      return RunKv(spec);
    case Workload::kHttp:
      return RunHttp(spec);
    case Workload::kBulk:
      return RunBulk(spec);
  }
  return RunResult{};
}

}  // namespace nkbench
