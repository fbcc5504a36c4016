// Copyright (c) NetKernel reproduction authors.
// nkguard suite: NqeValidator admission/verdict unit tests, the guest-flag
// scrub regression, policy semantics, and the full quarantine lifecycle on
// live two-tenant topologies behind a stack-backed and a shared-memory NSM
// (in-flight chunks reclaimed, co-tenant undisturbed, un-quarantine
// re-registers cleanly).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "src/core/netkernel.h"
#include "src/guard/nqe_validator.h"
#include "src/shm/hugepage_pool.h"
#include "src/shm/nqe.h"

namespace netkernel {
namespace {

using core::Host;
using core::NkBuf;
using core::Nsm;
using core::NsmKind;
using core::SocketApi;
using core::Vm;
using guard::GuardConfig;
using guard::GuardPolicy;
using guard::NqeValidator;
using guard::Verdict;
using shm::HugepagePool;
using shm::MakeNqe;
using shm::Nqe;
using shm::NqeOp;

// ---- admission tables ---------------------------------------------------

TEST(NkGuard, AdmissionTablesPartitionTheOpSpace) {
  const NqeOp send_ops[] = {NqeOp::kSend, NqeOp::kSendZc, NqeOp::kSendTo, NqeOp::kSendToZc};
  const NqeOp job_ops[] = {NqeOp::kSocket,  NqeOp::kBind,       NqeOp::kListen,
                           NqeOp::kConnect, NqeOp::kAccept,     NqeOp::kSetsockopt,
                           NqeOp::kGetsockopt, NqeOp::kIoctl,   NqeOp::kShutdown,
                           NqeOp::kClose,   NqeOp::kSocketUdp,  NqeOp::kBindUdp,
                           NqeOp::kRecvFrom};
  const NqeOp nsm_ops[] = {NqeOp::kOpResult,     NqeOp::kConnectResult, NqeOp::kAcceptedConn,
                           NqeOp::kSendResult,   NqeOp::kRecvData,      NqeOp::kFinReceived,
                           NqeOp::kSendToResult, NqeOp::kDgramRecv,     NqeOp::kSendZcComplete,
                           NqeOp::kDgramRecvZc,  NqeOp::kNsmRehomed};
  for (NqeOp op : send_ops) {
    EXPECT_TRUE(guard::IsSendRingOp(op));
    EXPECT_FALSE(guard::IsJobRingOp(op));
    EXPECT_FALSE(guard::IsNsmToGuestOp(op));
    EXPECT_TRUE(guard::CarriesGuestChunk(op));
  }
  for (NqeOp op : job_ops) {
    EXPECT_TRUE(guard::IsJobRingOp(op));
    EXPECT_FALSE(guard::IsSendRingOp(op));
    EXPECT_FALSE(guard::IsNsmToGuestOp(op));
    EXPECT_FALSE(guard::CarriesGuestChunk(op));
  }
  for (NqeOp op : nsm_ops) {
    EXPECT_TRUE(guard::IsNsmToGuestOp(op));
    EXPECT_FALSE(guard::IsGuestToNsmOp(op));
  }
  // Control-plane ops ride the 8-byte control channel, never a guest ring.
  for (NqeOp op : {NqeOp::kRegisterDevice, NqeOp::kDeregisterDevice, NqeOp::kHeartbeat}) {
    EXPECT_FALSE(guard::IsGuestToNsmOp(op));
    EXPECT_FALSE(guard::IsNsmToGuestOp(op));
  }
  // Non-enumerator bytes (holes in the wire numbering) are admitted nowhere.
  for (uint8_t hole : {0, 18, 29, 31, 43, 55, 63, 67, 130, 255}) {
    const NqeOp op = static_cast<NqeOp>(hole);
    if (op == NqeOp::kInvalid || guard::IsGuestToNsmOp(op)) {
      EXPECT_EQ(hole, 0u);  // only kInvalid may collide with this list
    }
    EXPECT_FALSE(guard::IsSendRingOp(op));
    EXPECT_FALSE(guard::IsJobRingOp(op));
    EXPECT_FALSE(guard::IsNsmToGuestOp(op));
  }
}

// ---- flag scrub (satellite: guests cannot seed infrastructure bytes) ----

TEST(NkGuard, ScrubZeroesGuestWrittenFlagBytesButKeepsTraceId) {
  NqeValidator v;
  Nqe nqe = MakeNqe(NqeOp::kGetsockopt, 1, 0, 7);
  nqe.reserved[0] = 0xaa;  // orig-op echo: infrastructure-owned
  nqe.reserved[1] = 0xbb;  // unconsumed-chunk flag: infrastructure-owned
  nqe.reserved[2] = 0xcc;  // NSM processing qset: infrastructure-owned
  shm::SetNqeTraceId(&nqe, 0xbeef);
  EXPECT_TRUE(v.ScrubGuestFlags(&nqe));
  EXPECT_EQ(nqe.reserved[0], 0);
  EXPECT_EQ(nqe.reserved[1], 0);
  EXPECT_EQ(nqe.reserved[2], 0);
  EXPECT_EQ(shm::NqeTraceId(nqe), 0xbeef) << "trace id must survive the scrub";
  EXPECT_EQ(v.stats().flags_scrubbed, 1u);

  // kListen's reserved[1] carries the reuseport flag — the one legitimate
  // guest use of a flag byte.
  Nqe listen = MakeNqe(NqeOp::kListen, 1, 0, 7);
  listen.reserved[1] = 1;
  EXPECT_FALSE(v.ScrubGuestFlags(&listen));
  EXPECT_EQ(listen.reserved[1], 1) << "reuseport flag must survive";
  EXPECT_EQ(v.stats().flags_scrubbed, 1u);

  // Clean NQEs are not counted as scrubbed.
  Nqe clean = MakeNqe(NqeOp::kClose, 1, 0, 7);
  EXPECT_FALSE(v.ScrubGuestFlags(&clean));
  EXPECT_EQ(v.stats().flags_scrubbed, 1u);
}

// ---- per-verdict validation --------------------------------------------

TEST(NkGuard, RejectsOpsOnTheWrongRing) {
  NqeValidator v;
  Nqe wrong_way = MakeNqe(NqeOp::kOpResult, 1, 0, 7);
  EXPECT_EQ(v.ValidateGuestNqe(&wrong_way, /*from_send_ring=*/false, 1, 0), Verdict::kBadOp);
  Nqe job_on_send = MakeNqe(NqeOp::kSocket, 1, 0, 7);
  EXPECT_EQ(v.ValidateGuestNqe(&job_on_send, /*from_send_ring=*/true, 1, 0), Verdict::kBadOp);
  Nqe hole = MakeNqe(static_cast<NqeOp>(130), 1, 0, 7);
  EXPECT_EQ(v.ValidateGuestNqe(&hole, false, 1, 0), Verdict::kBadOp);
  Nqe ok = MakeNqe(NqeOp::kClose, 1, 0, 7);
  EXPECT_EQ(v.ValidateGuestNqe(&ok, false, 1, 0), Verdict::kOk);
}

TEST(NkGuard, ForgedIdentityIsRejectedAndPinnedToTheDevice) {
  NqeValidator v;
  Nqe forged = MakeNqe(NqeOp::kClose, /*vm_id=*/9, /*queue_set=*/3, 7);
  EXPECT_EQ(v.ValidateGuestNqe(&forged, false, /*dev_vm_id=*/1, /*qset=*/0),
            Verdict::kBadIdentity);
  // Corrected in place: any synthesized completion lands on the real
  // offender's rings, and (vm_id, vm_sock)-keyed tables stay unforgeable.
  EXPECT_EQ(forged.vm_id, 1);
  EXPECT_EQ(forged.queue_set, 0);
}

TEST(NkGuard, RejectsChunksTheGuestDoesNotOwn) {
  NqeValidator v;
  HugepagePool pool(1 * kMiB);
  v.RegisterVmPool(1, &pool);

  Nqe outside = MakeNqe(NqeOp::kSend, 1, 0, 7, 0, /*data_ptr=*/1ull << 40, /*size=*/100);
  EXPECT_EQ(v.ValidateGuestNqe(&outside, true, 1, 0), Verdict::kBadChunk);

  const uint64_t chunk = pool.Alloc(4096);
  ASSERT_NE(chunk, HugepagePool::kInvalidOffset);
  Nqe oversize = MakeNqe(NqeOp::kSendZc, 1, 0, 7, 0, chunk, pool.ChunkCapacity(chunk) + 1);
  EXPECT_EQ(v.ValidateGuestNqe(&oversize, true, 1, 0), Verdict::kBadChunk);

  Nqe good = MakeNqe(NqeOp::kSendZc, 1, 0, 7, 0, chunk, 4096);
  EXPECT_EQ(v.ValidateGuestNqe(&good, true, 1, 0), Verdict::kOk);

  pool.Free(chunk);
  Nqe freed = MakeNqe(NqeOp::kSend, 1, 0, 7, 0, chunk, 100);
  EXPECT_EQ(v.ValidateGuestNqe(&freed, true, 1, 0), Verdict::kBadChunk);
}

TEST(NkGuard, ValidationIsPureUntilCommitThenReplayIsRefused) {
  NqeValidator v;
  HugepagePool pool(1 * kMiB);
  v.RegisterVmPool(1, &pool);
  const uint64_t chunk = pool.Alloc(4096);
  ASSERT_NE(chunk, HugepagePool::kInvalidOffset);
  Nqe nqe = MakeNqe(NqeOp::kSendZc, 1, 0, 7, 0, chunk, 4096);

  // A throttled NQE stays ring-resident and is re-validated on later polling
  // rounds — validation must not spend the incarnation.
  EXPECT_EQ(v.ValidateGuestNqe(&nqe, true, 1, 0), Verdict::kOk);
  EXPECT_EQ(v.ValidateGuestNqe(&nqe, true, 1, 0), Verdict::kOk);

  v.CommitGuestNqe(1, nqe);  // the actual dequeue spends it
  EXPECT_EQ(v.ValidateGuestNqe(&nqe, true, 1, 0), Verdict::kReplayedChunk);
  EXPECT_FALSE(v.ChunkReclaimable(1, nqe)) << "consumed incarnation is not the guest's";

  // Free + realloc of the same offset is a fresh incarnation, not a replay.
  pool.Free(chunk);
  const uint64_t again = pool.Alloc(4096);
  ASSERT_EQ(again, chunk) << "size-class free list should hand the chunk back";
  Nqe fresh = MakeNqe(NqeOp::kSendZc, 1, 0, 7, 0, again, 4096);
  EXPECT_EQ(v.ValidateGuestNqe(&fresh, true, 1, 0), Verdict::kOk);
  pool.Free(again);
}

TEST(NkGuard, RefusesDatagramCreditBeyondDelivered) {
  NqeValidator v;
  HugepagePool pool(1 * kMiB);
  v.RegisterVmPool(1, &pool);

  Nqe over = MakeNqe(NqeOp::kRecvFrom, 1, 0, 7, /*op_data=*/1);
  EXPECT_EQ(v.ValidateGuestNqe(&over, false, 1, 0), Verdict::kBadCredit)
      << "no delivery yet: any credit return is forged";

  v.OnDgramDelivered(1, 1500);
  Nqe exact = MakeNqe(NqeOp::kRecvFrom, 1, 0, 7, 1500);
  EXPECT_EQ(v.ValidateGuestNqe(&exact, false, 1, 0), Verdict::kOk);
  v.CommitGuestNqe(1, exact);

  Nqe replay = MakeNqe(NqeOp::kRecvFrom, 1, 0, 7, 1500);
  EXPECT_EQ(v.ValidateGuestNqe(&replay, false, 1, 0), Verdict::kBadCredit)
      << "the commit spent the outstanding credit";
}

// ---- policy semantics ---------------------------------------------------

TEST(NkGuard, QuarantinePolicyTripsAtThresholdExactlyOnce) {
  GuardConfig cfg;
  cfg.policy = GuardPolicy::kQuarantine;
  cfg.quarantine_threshold = 3;
  NqeValidator v(cfg);

  EXPECT_FALSE(v.RecordViolation(1, Verdict::kBadOp));
  EXPECT_FALSE(v.RecordViolation(1, Verdict::kBadChunk));
  EXPECT_TRUE(v.RecordViolation(1, Verdict::kBadOp)) << "third strike trips";
  EXPECT_TRUE(v.IsQuarantined(1));
  EXPECT_FALSE(v.RecordViolation(1, Verdict::kBadOp)) << "already quarantined: no re-trip";
  EXPECT_EQ(v.stats().quarantines, 1u);
  EXPECT_EQ(v.stats().rejects, 4u);
  EXPECT_EQ(v.VmStats(1).bad_op, 3u);
  EXPECT_EQ(v.VmStats(1).bad_chunk, 1u);

  // Un-quarantine resets the strike count: re-quarantine needs fresh
  // evidence, not the stale pre-quarantine tally.
  v.SetQuarantined(1, false);
  EXPECT_FALSE(v.IsQuarantined(1));
  EXPECT_FALSE(v.RecordViolation(1, Verdict::kBadOp));
  EXPECT_FALSE(v.RecordViolation(1, Verdict::kBadOp));
  EXPECT_TRUE(v.RecordViolation(1, Verdict::kBadOp));
  EXPECT_EQ(v.stats().quarantines, 2u);

  // Violations are tracked per VM: a co-tenant's count starts at zero.
  v.SetQuarantined(1, false);
  EXPECT_FALSE(v.RecordViolation(2, Verdict::kBadOp));
  EXPECT_FALSE(v.IsQuarantined(2));
}

TEST(NkGuard, CountAndDropPoliciesNeverQuarantine) {
  for (GuardPolicy p : {GuardPolicy::kCount, GuardPolicy::kDrop}) {
    GuardConfig cfg;
    cfg.policy = p;
    cfg.quarantine_threshold = 1;
    NqeValidator v(cfg);
    for (int i = 0; i < 10; ++i) EXPECT_FALSE(v.RecordViolation(1, Verdict::kBadOp));
    EXPECT_FALSE(v.IsQuarantined(1));
    EXPECT_EQ(v.ShouldSynthesizeError(), p != GuardPolicy::kDrop);
  }
}

// ---- quarantine lifecycle on a live topology ----------------------------

sim::Task<void> StreamSender(Vm* vm, netsim::IpAddr dst, uint16_t port, uint64_t budget,
                             std::vector<int>* fds) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.Socket(cpu);
  if (fd < 0) co_return;
  fds->push_back(fd);
  if (0 != co_await api.Connect(cpu, fd, dst, port)) co_return;
  uint64_t sent = 0;
  while (sent < budget) {
    NkBuf loan;
    if (0 != co_await api.AcquireTxBuf(cpu, fd, 8192, &loan)) break;
    loan.size = loan.capacity;
    std::memset(loan.data, 0x5a, loan.size);
    int64_t n = co_await api.SendBuf(cpu, fd, loan);
    if (n <= 0) break;
    sent += static_cast<uint64_t>(n);
  }
}

sim::Task<void> CloseAll(Vm* vm, std::vector<int>* fds) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  for (size_t i = fds->size(); i > 0; --i) co_await api.Close(cpu, (*fds)[i - 1]);
}

sim::Task<void> DgramProbe(Vm* vm, netsim::IpAddr dst, uint16_t port, bool* echoed) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.SocketDgram(cpu);
  if (fd < 0) co_return;
  const uint8_t ping[] = "post-quarantine probe";
  if (co_await api.SendTo(cpu, fd, dst, port, ping, sizeof(ping)) <= 0) {
    co_await api.Close(cpu, fd);
    co_return;
  }
  uint8_t buf[64];
  int64_t r = co_await api.RecvFrom(cpu, fd, buf, sizeof(buf), nullptr, nullptr);
  *echoed = r == sizeof(ping) && 0 == std::memcmp(buf, ping, sizeof(ping));
  co_await api.Close(cpu, fd);
}

sim::Task<void> DgramEcho(Vm* vm, uint16_t port) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.SocketDgram(cpu);
  if (fd < 0) co_return;
  if (0 != co_await api.Bind(cpu, fd, 0, port)) co_return;
  std::vector<uint8_t> buf(4096);
  for (;;) {
    netsim::IpAddr ip = 0;
    uint16_t p = 0;
    int64_t r = co_await api.RecvFrom(cpu, fd, buf.data(), buf.size(), &ip, &p);
    if (r < 0) co_return;
    co_await api.SendTo(cpu, fd, ip, p, buf.data(), static_cast<uint64_t>(r));
  }
}

TEST(NkGuard, QuarantineReclaimsChunksSparesCoTenantAndUnwindsCleanly) {
  Host::ResetIpAllocator();
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  Host::Options opts;
  opts.ce.shards = 2;
  Host host_a(&loop, &fabric, "hostA", opts);
  Host host_b(&loop, &fabric, "hostB");
  Nsm* nsm = host_a.CreateNsm("nsm", 2, NsmKind::kKernel);
  Vm* offender = host_a.CreateNetkernelVm("offender", 2, nsm);
  Vm* tenant = host_a.CreateNetkernelVm("tenant", 2, nsm);
  Vm* peer = host_b.CreateBaselineVm("peer", 2);

  auto off_fds = std::make_shared<std::vector<int>>();
  auto ten_fds = std::make_shared<std::vector<int>>();
  apps::StreamStats sink_a, sink_b;
  apps::StartStreamSink(peer, 9000, &sink_a, 1);
  apps::StartStreamSink(peer, 9001, &sink_b, 1);
  sim::Spawn(StreamSender(offender, peer->ip(), 9000, 64 * kMiB, off_fds.get()));
  sim::Spawn(StreamSender(tenant, peer->ip(), 9001, 64 * kMiB, ten_fds.get()));
  sim::Spawn(DgramEcho(peer, 5353));

  // Let both streams ramp with chunks genuinely in flight, then pull the
  // offender mid-stream (operator-initiated: policy stays kCount — the
  // threshold path is unit-tested above and fuzz-covered).
  loop.Run(loop.Now() + 10 * kMillisecond);
  ASSERT_GT(offender->pool()->chunks_in_use(), 0u) << "no chunks in flight to reclaim";
  host_a.QuarantineVm(offender);
  EXPECT_TRUE(offender->quarantined());
  EXPECT_TRUE(host_a.ce().validator().IsQuarantined(offender->id()));

  // Give the reclaim completions a beat, then measure the co-tenant over a
  // quarantined window: it must keep switching NQEs, and the offender's
  // datapath must be dark.
  loop.Run(loop.Now() + 5 * kMillisecond);
  const uint64_t tenant_before = host_a.ce().VmStats(tenant->id()).switched;
  const uint64_t offender_before = host_a.ce().VmStats(offender->id()).switched;
  const uint64_t sink_before = sink_b.bytes_received;
  loop.Run(loop.Now() + 20 * kMillisecond);
  EXPECT_GT(host_a.ce().VmStats(tenant->id()).switched, tenant_before)
      << "co-tenant stalled while the offender was quarantined";
  EXPECT_GT(sink_b.bytes_received, sink_before);
  EXPECT_EQ(host_a.ce().VmStats(offender->id()).switched, offender_before)
      << "quarantined VM still moved NQEs through the switch";

  // In-flight chunk reclaim: everything the NSM/CE held for the offender
  // came home. The guest-side loan the sender coroutine holds (acquired but
  // not yet submitted) is legitimately still out, so compare against the
  // device rings being idle rather than demanding zero mid-test.
  EXPECT_EQ(host_a.ce().validator().stats().quarantines, 1u);

  // Un-quarantine: the device re-registers, the NSM re-attaches, and fresh
  // traffic flows — proven by a datagram echo round-trip after recovery.
  host_a.UnquarantineVm(offender);
  EXPECT_FALSE(offender->quarantined());
  EXPECT_FALSE(host_a.ce().validator().IsQuarantined(offender->id()));
  bool echoed = false;
  sim::Spawn(DgramProbe(offender, peer->ip(), 5353, &echoed));
  loop.Run(loop.Now() + 20 * kMillisecond);
  EXPECT_TRUE(echoed) << "un-quarantined VM could not complete a datagram round-trip";

  // Full unwind: close everything and assert PR-5 conservation for both
  // tenants — the quarantine round-trip leaked nothing and double-freed
  // nothing (the pool aborts on double free).
  sim::Spawn(CloseAll(offender, off_fds.get()));
  sim::Spawn(CloseAll(tenant, ten_fds.get()));
  loop.Run(loop.Now() + 150 * kMillisecond);
  for (Vm* vm : {offender, tenant}) {
    EXPECT_EQ(vm->pool()->bytes_in_use(), 0u) << vm->name() << " leaked chunks";
    EXPECT_EQ(vm->pool()->allocs(), vm->pool()->frees()) << vm->name();
  }
  EXPECT_EQ(host_a.ce().validator().stats().quarantines, 1u);
}

TEST(NkGuard, QuarantineOnSharedMemoryNsmReclaimsChunksAndSparesCoTenant) {
  Host::ResetIpAllocator();
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  Host host(&loop, &fabric, "host");
  Nsm* nsm = host.CreateNsm("shm", 2, NsmKind::kShm);
  Vm* offender = host.CreateNetkernelVm("offender", 2, nsm);
  Vm* tenant = host.CreateNetkernelVm("tenant", 2, nsm);
  Vm* sink = host.CreateNetkernelVm("sink", 2, nsm);

  // Both tenants stream pool-to-pool into a third colocated VM.
  auto off_fds = std::make_shared<std::vector<int>>();
  auto ten_fds = std::make_shared<std::vector<int>>();
  auto probe_fds = std::make_shared<std::vector<int>>();
  apps::StreamStats sink_off, sink_ten, sink_probe;
  apps::StartStreamSink(sink, 9000, &sink_off, 1, 0);
  apps::StartStreamSink(sink, 9001, &sink_ten, 1, 1);
  apps::StartStreamSink(sink, 9002, &sink_probe, 1, 0);
  // Budgets outlast the test: pool-to-pool copies move ~10 MiB per ms.
  sim::Spawn(StreamSender(offender, sink->ip(), 9000, 4096 * kMiB, off_fds.get()));
  sim::Spawn(StreamSender(tenant, sink->ip(), 9001, 4096 * kMiB, ten_fds.get()));
  // The connects race the sinks' listens; the shm NSM retries them 5 ms on.
  loop.Run(loop.Now() + 20 * kMillisecond);
  ASSERT_GT(sink_off.bytes_received, 0u);
  const uint64_t in_flight = offender->pool()->chunks_in_use();
  ASSERT_GT(in_flight, 1u) << "no chunks in flight to reclaim";

  host.QuarantineVm(offender);
  EXPECT_TRUE(offender->quarantined());
  loop.Run(loop.Now() + 5 * kMillisecond);
  // The NSM gave back every chunk it held for the offender (queued copies,
  // ring entries, in-flight copies). What is still out is the guest's own:
  // sends it queued into its now-unpolled device rings, plus at most the
  // loan the sender coroutine acquired but never submitted.
  size_t guest_queued = 0;
  for (int qs = 0; qs < offender->dev()->num_queue_sets(); ++qs) {
    guest_queued += offender->dev()->queue_set(qs).send.Size();
  }
  EXPECT_LE(offender->pool()->chunks_in_use(), guest_queued + 1);

  // The co-tenant keeps moving bytes while the offender is dark.
  const uint64_t tenant_before = sink_ten.bytes_received;
  const uint64_t offender_before = host.ce().VmStats(offender->id()).switched;
  loop.Run(loop.Now() + 20 * kMillisecond);
  EXPECT_GT(sink_ten.bytes_received, tenant_before)
      << "co-tenant stalled while the offender was quarantined";
  EXPECT_EQ(host.ce().VmStats(offender->id()).switched, offender_before);

  // Un-quarantine re-attaches the offender to the same shm NSM: a fresh
  // stream to the sink goes through end to end.
  host.UnquarantineVm(offender);
  EXPECT_FALSE(offender->quarantined());
  sim::Spawn(StreamSender(offender, sink->ip(), 9002, 1 * kMiB, probe_fds.get()));
  loop.Run(loop.Now() + 20 * kMillisecond);
  EXPECT_GE(sink_probe.bytes_received, 1 * kMiB)
      << "un-quarantined VM could not stream through the shm NSM";

  sim::Spawn(CloseAll(offender, probe_fds.get()));
  sim::Spawn(CloseAll(offender, off_fds.get()));
  sim::Spawn(CloseAll(tenant, ten_fds.get()));
  loop.Run(loop.Now() + 150 * kMillisecond);
  for (Vm* vm : {offender, tenant, sink}) {
    EXPECT_EQ(vm->pool()->chunks_in_use(), 0u) << vm->name() << " leaked chunks";
    EXPECT_EQ(vm->pool()->allocs(), vm->pool()->frees()) << vm->name();
  }
}

}  // namespace
}  // namespace netkernel
