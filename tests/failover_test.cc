// Copyright (c) NetKernel reproduction authors.
// NSM failover controller: heartbeat liveness, wedged detection, standby
// re-homing (stack-backed and shared-memory NSMs alike), and the
// NsmService::Shutdown() idempotency/race contract the controller depends on.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "src/core/netkernel.h"

namespace netkernel {
namespace {

using core::Host;
using core::Nsm;
using core::NsmKind;
using core::SocketApi;
using core::Vm;

struct Topo {
  sim::EventLoop loop;
  netsim::Fabric fabric;
  Host host_a;
  Host host_b;
  Nsm* nsm = nullptr;
  Vm* nk = nullptr;
  Vm* peer = nullptr;

  Topo() : fabric(&loop), host_a(&loop, &fabric, "hostA"), host_b(&loop, &fabric, "hostB") {
    Host::ResetIpAllocator();
    nsm = host_a.CreateNsm("nsm", 2, NsmKind::kKernel);
    nk = host_a.CreateNetkernelVm("nk", 2, nsm);
    peer = host_b.CreateBaselineVm("peer", 2);
  }
};

// Sends forever until the socket errors or `*stop` is set; the outcome tells
// apart a survivor, an errored FIN, and a silent stall (neither flag set).
sim::Task<void> StreamPump(Vm* vm, netsim::IpAddr dst, uint16_t port,
                           std::shared_ptr<bool> stop, bool* errored, bool* returned) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.Socket(cpu);
  EXPECT_GE(fd, 0);
  if (fd < 0) co_return;
  int cr = co_await api.Connect(cpu, fd, dst, port);
  EXPECT_EQ(cr, 0);
  if (cr != 0) co_return;
  std::vector<uint8_t> msg(8192, 0x42);
  while (!*stop) {
    if (co_await api.Send(cpu, fd, msg.data(), msg.size()) <= 0) {
      *errored = true;
      break;
    }
  }
  co_await api.Close(cpu, fd);
  *returned = true;
}

// Zero-copy twin of StreamPump: sends pool loans until the socket errors or
// `*stop` is set, then closes.
sim::Task<void> ZcStreamPump(Vm* vm, netsim::IpAddr dst, uint16_t port,
                             std::shared_ptr<bool> stop, bool* returned) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.Socket(cpu);
  EXPECT_GE(fd, 0);
  if (fd < 0) co_return;
  int cr = co_await api.Connect(cpu, fd, dst, port);
  EXPECT_EQ(cr, 0);
  if (cr != 0) co_return;
  while (!*stop) {
    core::NkBuf loan;
    if (0 != co_await api.AcquireTxBuf(cpu, fd, 8192, &loan)) break;
    loan.size = loan.capacity;
    std::memset(loan.data, 0x5a, loan.size);
    if (co_await api.SendBuf(cpu, fd, loan) <= 0) break;
  }
  co_await api.Close(cpu, fd);
  *returned = true;
}

sim::Task<void> DgramEcho(Vm* vm, uint16_t port) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.SocketDgram(cpu);
  EXPECT_GE(fd, 0);
  if (fd < 0) co_return;
  int br = co_await api.Bind(cpu, fd, 0, port);
  EXPECT_EQ(br, 0);
  if (br != 0) co_return;
  std::vector<uint8_t> buf(2048);
  for (;;) {
    netsim::IpAddr ip = 0;
    uint16_t p = 0;
    int64_t r = co_await api.RecvFrom(cpu, fd, buf.data(), buf.size(), &ip, &p);
    if (r < 0) co_return;
    co_await api.SendTo(cpu, fd, ip, p, buf.data(), static_cast<uint64_t>(r));
  }
}

// One ping every millisecond; records the sim time of each answered ping so
// a test can assert the flow worked after a failover instant.
sim::Task<void> DgramPinger(Vm* vm, netsim::IpAddr dst, uint16_t port, int count,
                            std::vector<SimTime>* answered_at) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.SocketDgram(cpu);
  EXPECT_GE(fd, 0);
  if (fd < 0) co_return;
  std::vector<uint8_t> req(64, 0x7e);
  std::vector<uint8_t> resp(2048);
  for (int i = 0; i < count; ++i) {
    SimTime deadline = vm->vcpu(0)->loop()->Now() + kMillisecond;
    if (co_await api.SendTo(cpu, fd, dst, port, req.data(), req.size()) > 0) {
      // Race the echo against the next tick via epoll-free polling: the echo
      // round trip is microseconds, so a blocking RecvFrom would only stall
      // on a genuinely lost datagram — which is exactly the blackout case,
      // so bound the wait with an epoll timeout instead.
      int ep = api.EpollCreate();
      api.EpollCtl(ep, fd, core::kEpollIn);
      auto evs = co_await api.EpollWait(cpu, ep, 4, 900 * kMicrosecond);
      api.EpollClose(ep);
      if (!evs.empty()) {
        int64_t r = co_await api.RecvFrom(cpu, fd, resp.data(), resp.size(), nullptr, nullptr);
        if (r >= 0) answered_at->push_back(vm->vcpu(0)->loop()->Now());
      }
    }
    SimTime now = vm->vcpu(0)->loop()->Now();
    if (now < deadline) co_await sim::Delay(vm->vcpu(0)->loop(), deadline - now);
  }
  co_await api.Close(cpu, fd);
}

// ---------------------------------------------------------------------------
// Heartbeats & detection inputs
// ---------------------------------------------------------------------------

TEST(Failover, HeartbeatsReachCoreEngineAndHealthyNsmIsNeverFlagged) {
  Topo t;
  t.host_a.StartFailoverController();
  t.loop.Run(t.loop.Now() + 5 * kMillisecond);

  EXPECT_GT(t.host_a.ce().NsmHeartbeats(t.nsm->id()), 100u);
  EXPECT_GT(t.nsm->servicelib()->heartbeats_sent(), 100u);
  // Liveness stamp is fresh: within one beacon period of "now".
  EXPECT_GE(t.host_a.ce().NsmLastActivity(t.nsm->id()),
            t.loop.Now() - 2 * Host::kHeartbeatPeriod);
  // A healthy, heartbeating NSM never accrues misses or failovers.
  EXPECT_EQ(t.host_a.failover_stats().heartbeat_misses, 0u);
  EXPECT_EQ(t.host_a.failover_stats().nsm_failovers, 0u);
  t.host_a.StopFailoverController();
}

TEST(Failover, HeartbeatControlOpRejectsUnknownNsm) {
  Topo t;
  core::CeMessage req{static_cast<uint32_t>(core::CeOp::kHeartbeat), 99};
  core::CeMessage resp = t.host_a.ce().HandleControlMessage(req);
  EXPECT_EQ(resp.ce_op, static_cast<uint32_t>(core::CeOp::kError));
}

TEST(Failover, BacklogDistinguishesWedgedFromDead) {
  Topo t;
  // Stall the NSM, then keep the guest sending: CE deliveries pile up in the
  // wedged device's rings, which is the wedged-not-dead signal.
  auto stop = std::make_shared<bool>(false);
  bool errored = false, returned = false;
  sim::Spawn(StreamPump(t.nk, t.peer->ip(), 9000, stop, &errored, &returned));
  apps::StreamStats sink;
  apps::StartStreamSink(t.peer, 9000, &sink, 1);
  t.loop.Run(t.loop.Now() + 5 * kMillisecond);

  EXPECT_EQ(t.host_a.ce().NsmBacklog(t.nsm->id()), 0u) << "healthy NSM drains its rings";
  t.nsm->servicelib()->Wedge();
  t.loop.Run(t.loop.Now() + 5 * kMillisecond);
  EXPECT_GT(t.host_a.ce().NsmBacklog(t.nsm->id()), 0u) << "wedged NSM accumulates backlog";

  *stop = true;
  // Recoverable-accounting teardown so conservation holds at test end.
  t.host_a.ce().DeregisterNsmDevice(t.nsm->id());
  t.nsm->servicelib()->Shutdown();
  t.loop.Run(t.loop.Now() + 50 * kMillisecond);
  EXPECT_TRUE(returned);
  EXPECT_EQ(t.nk->pool()->bytes_in_use(), 0u);
  EXPECT_EQ(t.nk->pool()->allocs(), t.nk->pool()->frees());
}

// ---------------------------------------------------------------------------
// ServiceLib::Shutdown() contract (satellite: idempotent + race-safe)
// ---------------------------------------------------------------------------

TEST(Failover, ShutdownIsIdempotentAndRacesInFlightDispatch) {
  Topo t;
  auto stop = std::make_shared<bool>(false);
  bool errored = false, returned = false;
  sim::Spawn(StreamPump(t.nk, t.peer->ip(), 9000, stop, &errored, &returned));
  apps::StreamStats sink;
  apps::StartStreamSink(t.peer, 9000, &sink, 1);

  // Mid-stream, with dispatch rounds in flight at this very instant (the
  // sender keeps the rings hot), tear the NSM down twice back to back, then
  // once more later. The second and third calls must be no-ops, and any
  // in-flight round's charge callback must unwind its batch instead of
  // dispatching against the cleared connection maps.
  t.loop.Schedule(t.loop.Now() + 10 * kMillisecond, [&t] {
    t.host_a.ce().DeregisterNsmDevice(t.nsm->id());
    t.nsm->servicelib()->Shutdown();
    t.nsm->servicelib()->Shutdown();
  });
  t.loop.Schedule(t.loop.Now() + 12 * kMillisecond, [&t] { t.nsm->servicelib()->Shutdown(); });
  t.loop.Run(t.loop.Now() + 30 * kMillisecond);
  *stop = true;
  t.loop.Run(t.loop.Now() + 50 * kMillisecond);

  EXPECT_TRUE(returned) << "sender must unwind (error FIN), not stall";
  EXPECT_TRUE(errored);
  EXPECT_EQ(t.nk->guestlib()->reconnects_required(), 1u);
  EXPECT_EQ(t.nk->pool()->bytes_in_use(), 0u);
  EXPECT_EQ(t.nk->pool()->allocs(), t.nk->pool()->frees());
}

// ---------------------------------------------------------------------------
// Failover & re-homing
// ---------------------------------------------------------------------------

TEST(Failover, FailoverWithoutStandbyIsRefused) {
  Topo t;
  // Let the NSM beat once so its CE-side activity stamp is nonzero: that lets
  // us probe "still registered" after the refused failover below.
  t.nsm->servicelib()->StartHeartbeat(20 * kMicrosecond);
  t.loop.Run(t.loop.Now() + kMillisecond);
  EXPECT_NE(t.host_a.ce().NsmLastActivity(t.nsm->id()), 0u);

  EXPECT_EQ(t.host_a.FailoverNsm(t.nsm), 0u);
  EXPECT_EQ(t.host_a.failover_stats().nsm_failovers, 0u);
  // The sick NSM was NOT deregistered: killing it with no re-home target
  // would strand the VM.
  t.loop.Run(t.loop.Now() + kMillisecond);
  EXPECT_NE(t.host_a.ce().NsmLastActivity(t.nsm->id()), 0u);
  t.nsm->servicelib()->StopHeartbeat();
}

TEST(Failover, PlannedFailoverRehomesDgramFlowUnderSameAddress) {
  Topo t;
  sim::Spawn(DgramEcho(t.nk, 5353));
  std::vector<SimTime> answered_at;
  sim::Spawn(DgramPinger(t.peer, t.nk->ip(), 5353, 40, &answered_at));
  t.loop.Run(t.loop.Now() + 5 * kMillisecond);

  Nsm* spare = t.host_a.CreateNsm("spare", 2, NsmKind::kKernel);
  t.host_a.SetStandbyNsm(spare);
  const netsim::IpAddr ip_before = t.nk->ip();
  SimTime fail_at = 0;
  t.loop.Schedule(t.loop.Now() + 5 * kMillisecond, [&] {
    fail_at = t.loop.Now();
    EXPECT_EQ(t.host_a.FailoverNsm(t.nsm), 1u);
  });
  t.loop.Run(t.loop.Now() + 45 * kMillisecond);

  // The VM moved to the standby under its ORIGINAL address (no alias): the
  // peer kept pinging the same ip:port across the replacement.
  EXPECT_EQ(t.nk->nsm(), spare);
  EXPECT_EQ(t.nk->ip(), ip_before);
  EXPECT_EQ(t.nk->IpOn(spare), ip_before);
  EXPECT_EQ(t.host_a.standby_nsm(), nullptr) << "standby consumed by promotion";
  EXPECT_EQ(t.nk->guestlib()->nsm_rehomes(), 1u);
  EXPECT_EQ(t.host_a.failover_stats().vms_rehomed, 1u);

  // The dgram flow survived: pings were answered strictly after the failover
  // instant (the guest replayed socket + bind onto the standby).
  size_t after = 0;
  for (SimTime ts : answered_at) {
    if (ts > fail_at) ++after;
  }
  EXPECT_GT(after, 20u) << "dgram flow must keep working on the standby NSM";

  t.loop.Run(t.loop.Now() + 20 * kMillisecond);
  EXPECT_EQ(t.nk->pool()->bytes_in_use(), 0u);
  EXPECT_EQ(t.nk->pool()->allocs(), t.nk->pool()->frees());
}

TEST(Failover, ControllerDetectsWedgedNsmAndFailsOver) {
  Topo t;
  apps::StreamStats sink;
  apps::StartStreamSink(t.peer, 9000, &sink, 1);
  auto stop = std::make_shared<bool>(false);
  bool errored = false, returned = false;
  sim::Spawn(StreamPump(t.nk, t.peer->ip(), 9000, stop, &errored, &returned));

  Nsm* spare = t.host_a.CreateNsm("spare", 2, NsmKind::kKernel);
  t.host_a.SetStandbyNsm(spare);
  t.host_a.StartFailoverController();
  t.loop.Run(t.loop.Now() + 5 * kMillisecond);
  EXPECT_EQ(t.host_a.failover_stats().nsm_failovers, 0u);

  SimTime wedged_at = t.loop.Now();
  t.nsm->servicelib()->Wedge();
  t.loop.Run(t.loop.Now() + 5 * kMillisecond);
  t.host_a.StopFailoverController();

  const Host::FailoverStats& fs = t.host_a.failover_stats();
  EXPECT_EQ(fs.nsm_failovers, 1u);
  EXPECT_EQ(fs.wedged_detections, 1u) << "silent NSM with backlog must be flagged wedged";
  EXPECT_GE(fs.heartbeat_misses, static_cast<uint64_t>(Host::kFailoverMissThreshold));
  EXPECT_EQ(t.nk->nsm(), spare);
  // Detection latency: at least the liveness window, well under a blackout
  // users would notice.
  EXPECT_EQ(t.host_a.blackout_histogram().Count(), 1u);
  EXPECT_GE(t.host_a.blackout_histogram().MaxValue(),
            (Host::kHeartbeatPeriod + Host::kHeartbeatGrace) / kMicrosecond);
  EXPECT_LT(t.host_a.blackout_histogram().MaxValue(), 1000u);
  (void)wedged_at;

  *stop = true;
  t.loop.Run(t.loop.Now() + 50 * kMillisecond);
  EXPECT_TRUE(returned);
  EXPECT_TRUE(errored) << "stream conn on the wedged NSM gets the error FIN";
  EXPECT_EQ(t.nk->guestlib()->reconnects_required(), 1u);
  EXPECT_EQ(fs.reconnects_required, 1u) << "host FIN count pairs with guest count";
  EXPECT_EQ(t.nk->pool()->bytes_in_use(), 0u);
  EXPECT_EQ(t.nk->pool()->allocs(), t.nk->pool()->frees());
}

TEST(Failover, ControllerFailsOverWedgedShmNsmAndReturnsItsChunks) {
  Host::ResetIpAllocator();
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  Host host(&loop, &fabric, "host");
  Nsm* shm_nsm = host.CreateNsm("shm", 2, NsmKind::kShm);
  Vm* a = host.CreateNetkernelVm("a", 2, shm_nsm);
  Vm* b = host.CreateNetkernelVm("b", 2, shm_nsm);

  // Colocated traffic through the shared-memory NSM: one zero-copy and one
  // copying stream, so both chunk paths are in flight at the wedge.
  apps::StreamStats zc_sink, copy_sink;
  apps::StartStreamSink(b, 9000, &zc_sink, 1, 0, /*zerocopy=*/true);
  apps::StartStreamSink(b, 9001, &copy_sink, 1, 1);
  auto stop = std::make_shared<bool>(false);
  bool zc_returned = false, copy_errored = false, copy_returned = false;
  sim::Spawn(ZcStreamPump(a, b->ip(), 9000, stop, &zc_returned));
  sim::Spawn(StreamPump(a, b->ip(), 9001, stop, &copy_errored, &copy_returned));

  Nsm* spare = host.CreateNsm("spare", 2, NsmKind::kKernel);
  host.SetStandbyNsm(spare);
  host.StartFailoverController();
  // The connects race the sinks' listens; the shm NSM retries them 5 ms on.
  loop.Run(loop.Now() + 20 * kMillisecond);
  EXPECT_EQ(host.failover_stats().nsm_failovers, 0u) << "healthy shm NSM must not be flagged";
  EXPECT_GT(shm_nsm->service()->heartbeats_sent(), 100u);
  EXPECT_GT(zc_sink.bytes_received, 0u);
  EXPECT_GT(copy_sink.bytes_received, 0u);
  ASSERT_GT(a->pool()->chunks_in_use(), 0u) << "no chunks in flight at the wedge";

  shm_nsm->service()->Wedge();
  loop.Run(loop.Now() + 5 * kMillisecond);
  host.StopFailoverController();

  const Host::FailoverStats& fs = host.failover_stats();
  EXPECT_EQ(fs.nsm_failovers, 1u);
  EXPECT_EQ(fs.wedged_detections, 1u) << "silent shm NSM with backlog must be flagged wedged";
  EXPECT_EQ(fs.vms_rehomed, 2u);
  EXPECT_EQ(a->nsm(), spare);
  EXPECT_EQ(b->nsm(), spare);

  // Every chunk the dead NSM held (queued copies, ring entries, receive data
  // shipped toward a guest) is back in its pool once the guests close.
  *stop = true;
  loop.Run(loop.Now() + 50 * kMillisecond);
  EXPECT_TRUE(zc_returned);
  EXPECT_TRUE(copy_returned);
  for (Vm* vm : {a, b}) {
    EXPECT_EQ(vm->pool()->chunks_in_use(), 0u) << vm->name() << " leaked chunks";
    EXPECT_EQ(vm->pool()->allocs(), vm->pool()->frees()) << vm->name();
  }
}

TEST(Failover, MetricsAndFlightEventsAreEmitted) {
  Topo t;
  // Keep a stream flowing so the wedged NSM accumulates ring backlog: that is
  // what distinguishes "wedged" from "dead" and drives the NSM_WEDGED event.
  apps::StreamStats sink;
  apps::StartStreamSink(t.peer, 9000, &sink, 1);
  auto stop = std::make_shared<bool>(false);
  bool errored = false, returned = false;
  sim::Spawn(StreamPump(t.nk, t.peer->ip(), 9000, stop, &errored, &returned));

  Nsm* spare = t.host_a.CreateNsm("spare", 2, NsmKind::kKernel);
  t.host_a.SetStandbyNsm(spare);
  t.host_a.StartFailoverController();
  t.loop.Run(t.loop.Now() + 5 * kMillisecond);
  // A wedged NSM's network stack can keep ringing the doorbell for a while
  // (ACK-driven completions, retransmits); give detection time for the RTO
  // backoff to open a silent gap wider than the liveness window.
  t.nsm->servicelib()->Wedge();
  t.loop.Run(t.loop.Now() + 5 * kMillisecond);
  t.host_a.StopFailoverController();
  *stop = true;
  t.loop.Run(t.loop.Now() + 20 * kMillisecond);

  // Prometheus rendering sanitizes '.' to '_' in metric names; JSON keeps the
  // dotted names verbatim. Check both surfaces.
  std::string metrics = t.host_a.DumpMetrics();
  EXPECT_NE(metrics.find("ce_nsm_failovers"), std::string::npos);
  EXPECT_NE(metrics.find("ce_heartbeat_misses"), std::string::npos);
  EXPECT_NE(metrics.find("ce_failover_blackout_us"), std::string::npos);
  EXPECT_NE(metrics.find("reconnects_required"), std::string::npos);
  EXPECT_NE(metrics.find("heartbeats_sent"), std::string::npos);
  std::string json = t.host_a.DumpMetricsJson();
  EXPECT_NE(json.find("ce.nsm_failovers"), std::string::npos);
  EXPECT_NE(json.find("ce.failover_blackout_us"), std::string::npos);

  std::string flight = t.host_a.DumpFlightRecorder(4096);
  EXPECT_NE(flight.find("HB_MISS"), std::string::npos);
  EXPECT_NE(flight.find("NSM_WEDGED"), std::string::npos);
  EXPECT_NE(flight.find("NSM_FAILOVER"), std::string::npos);
}

}  // namespace
}  // namespace netkernel
