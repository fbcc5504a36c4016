// Copyright (c) NetKernel reproduction authors.
// Rolling NSM live upgrade under full load: two stack NSMs (one serving a
// UDP key-value VM, one serving a bulk-stream VM) are drained and replaced
// in sequence by the Host failover controller while both workloads run.
//
// Step 1 is a planned upgrade (the operator calls FailoverNsm directly);
// step 2 is a detected failure (the NSM is wedged — alive but with stalled
// rings — and the heartbeat controller finds and replaces it). The paper has
// no failover story; this bench quantifies what the NQE indirection buys:
// the datagram flows survive an NSM replacement because their state is
// rebuilt statelessly (kNsmRehomed replays socket + bind on the standby),
// while every stream connection either survives or gets a counted error FIN.
//
// Reported metrics:
//   * survival_rate     — min over upgrade steps of answered/issued UDP
//                         requests (losses are the blackout window only);
//   * blackout_p99_us   — p99 of the per-failover dark time (for the wedged
//                         step this is the detection latency);
//   * reconnects_required — stream connections errored with FINs, which must
//                         equal the guest-side count (nothing silently
//                         stalls);
//   * nsm_failovers     — must be exactly one per upgrade step.
//
// --smoke gates: >= 99% datagram survival per step, exact stream-connection
// accounting, chunk conservation (pools empty, allocs == frees) at the end
// of every step, and exactly 2 failovers with 1 wedged detection.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/harness.h"

namespace netkernel::bench {
namespace {

using core::Host;
using core::Nsm;
using core::NsmKind;
using core::SocketApi;
using core::Vm;

constexpr uint16_t kKvPort = 11211;
constexpr uint16_t kSinkPort = 9000;
constexpr int kStreamConns = 4;
constexpr double kOfferedRps = 50e3;
constexpr SimTime kBurst = 40 * kMillisecond;    // offered-load window per step
constexpr SimTime kFailAt = 10 * kMillisecond;   // upgrade instant within the step
constexpr SimTime kSettle = 60 * kMillisecond;   // drain retransmits + teardown

// One long-lived stream connection with exact outcome accounting: it sends
// until the step ends (stop flag) or its socket errors (the NSM-teardown
// FIN). Every connection must land in exactly one bucket — a connection in
// neither stalled silently, which is what the accounting gate catches.
struct StreamOutcome {
  int survived = 0;
  int errored = 0;
  int connect_failed = 0;
  int closed = 0;
};

sim::Task<void> StreamConn(Vm* vm, int vcpu, netsim::IpAddr dst, uint16_t port,
                           std::shared_ptr<bool> stop, StreamOutcome* out) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(vcpu);
  int fd = co_await api.Socket(cpu);
  if (fd < 0) {
    ++out->connect_failed;
    co_return;
  }
  if (0 != co_await api.Connect(cpu, fd, dst, port)) {
    ++out->connect_failed;
    co_await api.Close(cpu, fd);
    ++out->closed;
    co_return;
  }
  std::vector<uint8_t> msg(8192, 0x5a);
  bool errored = false;
  while (!*stop) {
    int64_t n = co_await api.Send(cpu, fd, msg.data(), msg.size());
    if (n <= 0) {
      errored = true;
      break;
    }
  }
  if (errored) {
    ++out->errored;
  } else {
    ++out->survived;
  }
  co_await api.Close(cpu, fd);
  ++out->closed;
}

struct StepResult {
  double survival_rate = 0;
  uint64_t pool_in_use = 0;      // both VM pools, summed after the step
  bool pools_balanced = false;   // allocs == frees on both VM pools
  StreamOutcome streams;
};

struct BenchState {
  sim::EventLoop loop;
  netsim::Fabric fabric;
  Host host_a;
  Host host_b;
  Nsm* nsm_udp = nullptr;
  Nsm* nsm_stream = nullptr;
  Vm* vm_udp = nullptr;
  Vm* vm_stream = nullptr;
  Vm* peer = nullptr;
  apps::UdpKvStats kv_stats;
  apps::StreamStats sink_stats;

  BenchState()
      : fabric(&loop),
        host_a(&loop, &fabric, "hostA"),
        host_b(&loop, &fabric, "hostB") {}
};

// Runs one upgrade step: sustained UDP + stream load, `fail` fired at
// kFailAt, then drain and conservation snapshot.
StepResult RunStep(BenchState& s, const std::function<void()>& fail) {
  StepResult r;

  // Fresh bounded UDP burst: losses can only come from the blackout.
  apps::UdpLoadGenStats lstat;
  apps::UdpLoadGenConfig lcfg;
  lcfg.server_ip = s.vm_udp->ip();
  lcfg.port = kKvPort;
  lcfg.rps = kOfferedRps;
  lcfg.value_size = 100;
  lcfg.threads = 2;
  lcfg.total_requests = static_cast<uint64_t>(kOfferedRps * ToSeconds(kBurst));
  apps::StartUdpLoadGen(s.peer, lcfg, &lstat);

  auto stop = std::make_shared<bool>(false);
  for (int c = 0; c < kStreamConns; ++c) {
    sim::Spawn(StreamConn(s.vm_stream, c % s.vm_stream->num_vcpus(), s.peer->ip(), kSinkPort,
                          stop, &r.streams));
  }

  s.loop.Schedule(s.loop.Now() + kFailAt, fail);
  s.loop.Run(s.loop.Now() + kBurst);
  *stop = true;
  s.loop.Run(s.loop.Now() + kSettle);

  r.survival_rate = lstat.issued > 0
                        ? static_cast<double>(lstat.completed) / static_cast<double>(lstat.issued)
                        : 0.0;
  r.pool_in_use = s.vm_udp->pool()->bytes_in_use() + s.vm_stream->pool()->bytes_in_use();
  r.pools_balanced = s.vm_udp->pool()->allocs() == s.vm_udp->pool()->frees() &&
                     s.vm_stream->pool()->allocs() == s.vm_stream->pool()->frees();
  return r;
}

}  // namespace
}  // namespace netkernel::bench

int main(int argc, char** argv) {
  using namespace netkernel;
  bench::ParseBenchFlags(argc, argv);
  const bool smoke = bench::HasFlag(argc, argv, "--smoke");

  bench::PrintHeader("NSM rolling live upgrade under full load",
                     "robustness extension (no paper figure): heartbeat failover controller");

  core::Host::ResetIpAllocator();
  bench::BenchState s;
  s.nsm_udp = s.host_a.CreateNsm("nsm_udp", 2, core::NsmKind::kKernel);
  s.nsm_stream = s.host_a.CreateNsm("nsm_stream", 2, core::NsmKind::kKernel);
  s.vm_udp = s.host_a.CreateNetkernelVm("vm_udp", 2, s.nsm_udp);
  s.vm_stream = s.host_a.CreateNetkernelVm("vm_stream", 2, s.nsm_stream);
  s.peer = s.host_b.CreateBaselineVm("peer", 8);

  apps::UdpKvServerConfig scfg;
  scfg.port = bench::kKvPort;
  scfg.threads = 1;
  apps::StartUdpKvServer(s.vm_udp, scfg, &s.kv_stats);
  apps::StartStreamSink(s.peer, bench::kSinkPort, &s.sink_stats, 2);

  // Warm up both workload paths before the first upgrade step.
  s.loop.Run(s.loop.Now() + 20 * kMillisecond);

  // ---- Step 1: planned upgrade of the UDP VM's NSM (operator-driven). ----
  core::Nsm* spare0 = s.host_a.CreateNsm("spare0", 2, core::NsmKind::kKernel);
  s.host_a.SetStandbyNsm(spare0);
  bench::StepResult step1 =
      bench::RunStep(s, [&s] { s.host_a.FailoverNsm(s.nsm_udp); });

  // ---- Step 2: the stream VM's NSM wedges; the controller detects it. ----
  core::Nsm* spare1 = s.host_a.CreateNsm("spare1", 2, core::NsmKind::kKernel);
  s.host_a.SetStandbyNsm(spare1);
  s.host_a.StartFailoverController();
  bench::StepResult step2 =
      bench::RunStep(s, [&s] { s.nsm_stream->servicelib()->Wedge(); });
  s.host_a.StopFailoverController();

  const core::Host::FailoverStats& fs = s.host_a.failover_stats();
  const obs::Histogram& blackout = s.host_a.blackout_histogram();
  const uint64_t guest_reconnects = s.vm_stream->guestlib()->reconnects_required() +
                                    s.vm_udp->guestlib()->reconnects_required();
  const double survival_min = std::min(step1.survival_rate, step2.survival_rate);
  const double blackout_p99 = blackout.Percentile(99);

  std::printf("%-28s %12s %12s\n", "metric", "step1(plan)", "step2(wedge)");
  std::printf("%-28s %12.4f %12.4f\n", "udp_survival_rate", step1.survival_rate,
              step2.survival_rate);
  std::printf("%-28s %8d/%-3d %8d/%-3d\n", "streams survived/total", step1.streams.survived,
              bench::kStreamConns, step2.streams.survived, bench::kStreamConns);
  std::printf("%-28s %12d %12d\n", "streams errored (FIN)", step1.streams.errored,
              step2.streams.errored);
  std::printf("%-28s %12llu %12llu\n", "pool bytes in use",
              static_cast<unsigned long long>(step1.pool_in_use),
              static_cast<unsigned long long>(step2.pool_in_use));
  std::printf("failovers=%llu wedged=%llu vms_rehomed=%llu reconnects=%llu (guest %llu) "
              "blackout_p99=%.1fus heartbeat_misses=%llu\n",
              static_cast<unsigned long long>(fs.nsm_failovers),
              static_cast<unsigned long long>(fs.wedged_detections),
              static_cast<unsigned long long>(fs.vms_rehomed),
              static_cast<unsigned long long>(fs.reconnects_required),
              static_cast<unsigned long long>(guest_reconnects), blackout_p99,
              static_cast<unsigned long long>(fs.heartbeat_misses));

  bench::GlobalJson().Add("nsm_failover", "rolling_upgrade", "survival_rate", survival_min);
  bench::GlobalJson().Add("nsm_failover", "rolling_upgrade", "blackout_p99_us", blackout_p99);
  bench::GlobalJson().Add("nsm_failover", "rolling_upgrade", "reconnects_required",
                          static_cast<double>(fs.reconnects_required));
  bench::GlobalJson().Add("nsm_failover", "rolling_upgrade", "nsm_failovers",
                          static_cast<double>(fs.nsm_failovers));

  if (smoke) {
    bool ok = true;
    auto gate = [&ok](bool cond, const char* what) {
      if (!cond) {
        std::fprintf(stderr, "SMOKE FAIL: %s\n", what);
        ok = false;
      }
    };
    // Rolling upgrade of both NSMs actually happened, one of them detected.
    gate(fs.nsm_failovers == 2, "expected exactly 2 failovers");
    gate(fs.wedged_detections == 1, "expected the wedged NSM to be flagged");
    gate(fs.vms_rehomed == 2, "expected both VMs re-homed");
    gate(blackout.Count() == 2, "expected a blackout sample per failover");
    gate(blackout_p99 < 1000.0, "blackout (detection latency) must stay under 1 ms");
    // Datagram flows survive each step (losses bounded by the blackout).
    gate(step1.survival_rate >= 0.99, "step1 datagram survival below 99%");
    gate(step2.survival_rate >= 0.99, "step2 datagram survival below 99%");
    // Every stream connection is accounted for: survived or errored, never
    // silently stalled; the host-side FIN count pairs with the guest-side.
    auto accounted = [](const bench::StreamOutcome& o) {
      return o.connect_failed == 0 &&
             o.survived + o.errored == bench::kStreamConns &&
             o.closed == bench::kStreamConns;
    };
    gate(accounted(step1.streams), "step1 stream connections unaccounted");
    gate(accounted(step2.streams), "step2 stream connections unaccounted");
    gate(step1.streams.errored == 0, "step1 must not error streams (their NSM untouched)");
    gate(step2.streams.errored > 0, "step2 must error the wedged NSM's streams");
    gate(fs.reconnects_required == guest_reconnects,
         "host FIN count must pair with guest-applied FINs");
    gate(static_cast<uint64_t>(step1.streams.errored + step2.streams.errored) <=
             guest_reconnects,
         "app-observed stream errors exceed guest FIN count");
    // Chunk conservation at the end of every upgrade step.
    gate(step1.pool_in_use == 0 && step1.pools_balanced, "step1 chunk conservation broken");
    gate(step2.pool_in_use == 0 && step2.pools_balanced, "step2 chunk conservation broken");
    if (!ok) return 1;
    std::printf("smoke: OK\n");
  }
  return bench::GlobalJson().Write() ? 0 : 2;
}
