// Copyright (c) NetKernel reproduction authors.
// Zero-copy registered-buffer datapath tests: ByteBuffer external chunks with
// free callbacks, the NkBuf loaning surface on GuestLib and
// BaselineSocketApi (API transparency), the vectored Sendv/Recvv surface,
// and send-credit conservation across connection teardown mid-flight.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/core/netkernel.h"
#include "src/tcpstack/byte_buffer.h"

namespace netkernel {
namespace {

using core::Host;
using core::NkBuf;
using core::NkConstIoVec;
using core::NkIoVec;
using core::Nsm;
using core::NsmKind;
using core::SocketApi;
using core::Vm;

// ---------------------------------------------------------------------------
// ByteBuffer: external (borrowed) chunks with free callbacks
// ---------------------------------------------------------------------------

TEST(ByteBufferZc, ExternalChunkFreesOnlyWhenFullyDropped) {
  tcp::ByteBuffer buf;
  std::vector<uint8_t> ext(100);
  for (size_t i = 0; i < ext.size(); ++i) ext[i] = static_cast<uint8_t>(i);
  int freed = 0;
  buf.AppendExternal(ext.data(), ext.size(), [&] { ++freed; });
  EXPECT_EQ(buf.size(), 100u);

  uint8_t out[100];
  buf.CopyOut(0, 100, out);  // retransmission-style read in place
  EXPECT_EQ(0, std::memcmp(out, ext.data(), 100));

  buf.Drop(40);
  EXPECT_EQ(freed, 0);  // partially consumed: bytes must stay valid
  buf.CopyOut(0, 60, out);
  EXPECT_EQ(out[0], 40);
  buf.Drop(60);
  EXPECT_EQ(freed, 1);  // fully passed: freed exactly once
  EXPECT_TRUE(buf.empty());
}

TEST(ByteBufferZc, MixedOwnedAndExternalFifo) {
  tcp::ByteBuffer buf;
  std::vector<uint8_t> a(10, 0xaa), b(10, 0xbb), c(10, 0xcc);
  int freed = 0;
  buf.Append(a.data(), a.size());
  buf.AppendExternal(b.data(), b.size(), [&] { ++freed; });
  buf.Append(c.data(), c.size());
  uint8_t out[30];
  buf.CopyOut(0, 30, out);
  EXPECT_EQ(out[5], 0xaa);
  EXPECT_EQ(out[15], 0xbb);
  EXPECT_EQ(out[25], 0xcc);
  uint8_t r[30];
  EXPECT_EQ(buf.ReadInto(r, 15), 15u);
  EXPECT_EQ(freed, 0);
  EXPECT_EQ(buf.ReadInto(r, 10), 10u);
  EXPECT_EQ(freed, 1);
  EXPECT_EQ(buf.size(), 5u);
}

TEST(ByteBufferZc, ClearAndDestructionFireCallbacks) {
  std::vector<uint8_t> ext(64, 0x7e);
  int freed = 0;
  {
    tcp::ByteBuffer buf;
    buf.AppendExternal(ext.data(), 64, [&] { ++freed; });
    buf.Clear();
    EXPECT_EQ(freed, 1);
    buf.AppendExternal(ext.data(), 64, [&] { ++freed; });
    // Buffer destroyed with the chunk still queued (socket teardown path).
  }
  EXPECT_EQ(freed, 2);
}

// ---------------------------------------------------------------------------
// End-to-end over the simulated datapath
// ---------------------------------------------------------------------------

class ZcTest : public ::testing::Test {
 protected:
  ZcTest() : fabric_(&loop_) { Host::ResetIpAllocator(); }

  Host& HostA() {
    if (!host_a_) host_a_ = std::make_unique<Host>(&loop_, &fabric_, "hostA");
    return *host_a_;
  }
  Host& HostB() {
    if (!host_b_) host_b_ = std::make_unique<Host>(&loop_, &fabric_, "hostB");
    return *host_b_;
  }

  void Run(SimTime d = 2 * kSecond) { loop_.Run(loop_.Now() + d); }

  sim::EventLoop loop_;
  netsim::Fabric fabric_;
  std::unique_ptr<Host> host_a_, host_b_;
};

// Receives `total` bytes on `port` with plain Recv and checks the rolling
// pattern the zc sender wrote into its loans.
sim::Task<void> PatternSink(Vm* vm, uint16_t port, uint64_t total, uint64_t* got, bool* ok) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int lfd = co_await api.Socket(cpu);
  co_await api.Bind(cpu, lfd, 0, port);
  co_await api.Listen(cpu, lfd, 16, false);
  int fd = co_await api.Accept(cpu, lfd);
  if (fd < 0) co_return;
  std::vector<uint8_t> buf(64 * 1024);
  *ok = true;
  while (*got < total) {
    int64_t n = co_await api.Recv(cpu, fd, buf.data(), buf.size());
    if (n <= 0) break;
    for (int64_t i = 0; i < n; ++i) {
      if (buf[static_cast<size_t>(i)] != static_cast<uint8_t>((*got + static_cast<uint64_t>(i)) & 0xff)) {
        *ok = false;
      }
    }
    *got += static_cast<uint64_t>(n);
  }
  co_await api.Close(cpu, fd);
}

// Sends `total` bytes of a rolling pattern through AcquireTxBuf/SendBuf.
sim::Task<void> ZcPatternSender(Vm* vm, netsim::IpAddr ip, uint16_t port, uint64_t total,
                                uint32_t msg, bool* sent_ok) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.Socket(cpu);
  if (fd < 0) co_return;
  if (0 != co_await api.Connect(cpu, fd, ip, port)) co_return;
  uint64_t sent = 0;
  *sent_ok = true;
  while (sent < total) {
    NkBuf loan;
    int r = co_await api.AcquireTxBuf(cpu, fd, msg, &loan);
    if (r != 0) {
      *sent_ok = false;
      break;
    }
    loan.size = static_cast<uint32_t>(
        std::min<uint64_t>({loan.capacity, static_cast<uint64_t>(msg), total - sent}));
    for (uint32_t i = 0; i < loan.size; ++i) {
      loan.data[i] = static_cast<uint8_t>((sent + i) & 0xff);  // filled in place
    }
    int64_t n = co_await api.SendBuf(cpu, fd, loan);
    if (n != static_cast<int64_t>(loan.size)) {
      *sent_ok = false;
      break;
    }
    sent += static_cast<uint64_t>(n);
  }
  co_await api.Close(cpu, fd);
}

TEST_F(ZcTest, NetkernelZcSendDeliversBytesIntactAndConservesCredit) {
  Nsm* nsm = HostA().CreateNsm("nsm", 2, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 2, nsm);
  Vm* peer = HostB().CreateBaselineVm("peer", 4);

  const uint64_t kTotal = 4 * kMiB;
  uint64_t got = 0;
  bool recv_ok = false, sent_ok = false;
  sim::Spawn(PatternSink(peer, 9000, kTotal, &got, &recv_ok));
  sim::Spawn(ZcPatternSender(nk, peer->ip(), 9000, kTotal, 8192, &sent_ok));
  Run(3 * kSecond);

  EXPECT_TRUE(sent_ok);
  EXPECT_TRUE(recv_ok);
  EXPECT_EQ(got, kTotal);
  // Credit conservation: every zc send completed, and every hugepage chunk
  // went back to the pool (nothing in flight, nothing leaked).
  EXPECT_GT(nk->guestlib()->zc_sends(), 0u);
  EXPECT_EQ(nk->guestlib()->zc_sends(), nk->guestlib()->zc_completions());
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
}

TEST_F(ZcTest, BaselineZcTransparency) {
  // The identical zc application logic runs unmodified on the Baseline API
  // (heap-arena loans): the abstraction boundary holds.
  Vm* base = HostA().CreateBaselineVm("base", 2);
  Vm* peer = HostB().CreateBaselineVm("peer", 4);

  const uint64_t kTotal = 2 * kMiB;
  uint64_t got = 0;
  bool recv_ok = false, sent_ok = false;
  sim::Spawn(PatternSink(peer, 9000, kTotal, &got, &recv_ok));
  sim::Spawn(ZcPatternSender(base, peer->ip(), 9000, kTotal, 8192, &sent_ok));
  Run(3 * kSecond);

  EXPECT_TRUE(sent_ok);
  EXPECT_TRUE(recv_ok);
  EXPECT_EQ(got, kTotal);
}

TEST_F(ZcTest, NetkernelRecvBufLoansAndReleasesChunks) {
  Nsm* nsm = HostA().CreateNsm("nsm", 2, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 2, nsm);
  Vm* peer = HostB().CreateBaselineVm("peer", 4);

  const uint64_t kTotal = 2 * kMiB;
  uint64_t got = 0;
  bool ok = true;
  bool done = false;
  auto server = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int lfd = co_await api.Socket(cpu);
    co_await api.Bind(cpu, lfd, 0, 9000);
    co_await api.Listen(cpu, lfd, 16, false);
    int fd = co_await api.Accept(cpu, lfd);
    while (got < kTotal) {
      NkBuf loan;
      int64_t n = co_await api.RecvBuf(cpu, fd, &loan);
      if (n <= 0) break;
      for (int64_t i = 0; i < n; ++i) {
        if (loan.data[i] != static_cast<uint8_t>((got + static_cast<uint64_t>(i)) & 0xff)) {
          ok = false;
        }
      }
      got += static_cast<uint64_t>(n);
      int r = co_await api.ReleaseBuf(cpu, fd, loan);
      if (r != 0) ok = false;
    }
    co_await api.Close(cpu, fd);
    done = true;
  };
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = peer->api();
    sim::CpuCore* cpu = peer->vcpu(0);
    int fd = co_await api.Socket(cpu);
    if (0 != co_await api.Connect(cpu, fd, nk->ip(), 9000)) co_return;
    std::vector<uint8_t> msg(16384);
    uint64_t sent = 0;
    while (sent < kTotal) {
      uint64_t chunk = std::min<uint64_t>(msg.size(), kTotal - sent);
      for (uint64_t i = 0; i < chunk; ++i) msg[i] = static_cast<uint8_t>((sent + i) & 0xff);
      int64_t n = co_await api.Send(cpu, fd, msg.data(), chunk);
      if (n <= 0) break;
      sent += static_cast<uint64_t>(n);
    }
    co_await api.Close(cpu, fd);
  };
  sim::Spawn(server());
  sim::Spawn(client());
  Run(3 * kSecond);

  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, kTotal);
  // Every loaned RX chunk was released back to the pool.
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
}

TEST_F(ZcTest, VectoredSendvRecvvGatherScatter) {
  Nsm* nsm = HostA().CreateNsm("nsm", 2, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 2, nsm);
  Vm* peer = HostB().CreateBaselineVm("peer", 4);

  // 3-element gather on the NetKernel sender, 2-element scatter on the
  // Baseline receiver: bytes must arrive in order across both shims.
  std::vector<uint8_t> part_a(1000), part_b(5000), part_c(70000);
  Rng rng(7);
  for (auto* v : {&part_a, &part_b, &part_c}) {
    for (auto& b : *v) b = static_cast<uint8_t>(rng.Next());
  }
  const uint64_t kTotal = part_a.size() + part_b.size() + part_c.size();
  std::vector<uint8_t> rx_a(30000), rx_b(kTotal);
  uint64_t got = 0;
  int64_t sendv_result = -1;
  auto server = [&]() -> sim::Task<void> {
    SocketApi& api = peer->api();
    sim::CpuCore* cpu = peer->vcpu(0);
    int lfd = co_await api.Socket(cpu);
    co_await api.Bind(cpu, lfd, 0, 9000);
    co_await api.Listen(cpu, lfd, 16, false);
    int fd = co_await api.Accept(cpu, lfd);
    while (got < kTotal) {
      NkIoVec iov[2] = {{rx_a.data() + (got < rx_a.size() ? got : rx_a.size()), 0},
                        {nullptr, 0}};
      // Scatter: fill what remains of rx_a first, then rx_b.
      uint64_t a_left = got < rx_a.size() ? rx_a.size() - got : 0;
      iov[0] = {rx_a.data() + (rx_a.size() - a_left), a_left};
      uint64_t b_off = got > rx_a.size() ? got - rx_a.size() : 0;
      iov[1] = {rx_b.data() + b_off, rx_b.size() - b_off};
      int64_t n = co_await api.Recvv(cpu, fd, iov, 2);
      if (n <= 0) break;
      got += static_cast<uint64_t>(n);
    }
    co_await api.Close(cpu, fd);
  };
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int fd = co_await api.Socket(cpu);
    if (0 != co_await api.Connect(cpu, fd, peer->ip(), 9000)) co_return;
    NkConstIoVec iov[3] = {{part_a.data(), part_a.size()},
                           {part_b.data(), part_b.size()},
                           {part_c.data(), part_c.size()}};
    sendv_result = co_await api.Sendv(cpu, fd, iov, 3);
    co_await api.Close(cpu, fd);
  };
  sim::Spawn(server());
  sim::Spawn(client());
  Run(3 * kSecond);

  EXPECT_EQ(sendv_result, static_cast<int64_t>(kTotal));
  ASSERT_EQ(got, kTotal);
  std::vector<uint8_t> expect;
  expect.insert(expect.end(), part_a.begin(), part_a.end());
  expect.insert(expect.end(), part_b.begin(), part_b.end());
  expect.insert(expect.end(), part_c.begin(), part_c.end());
  std::vector<uint8_t> received(rx_a.begin(), rx_a.end());
  received.insert(received.end(), rx_b.begin(), rx_b.begin() + (kTotal - rx_a.size()));
  EXPECT_EQ(0, std::memcmp(expect.data(), received.data(), kTotal));
}

TEST_F(ZcTest, CreditConservedAcrossTeardownMidFlight) {
  // The NSM-side connection is aborted (RST) while zc chunks sit unACKed in
  // the stack's send buffer. Teardown must fire every chunk's free callback:
  // chunks return to the pool and every zc send gets its completion (ACK,
  // teardown free, or FailZcTx for chunks that arrive after the abort).
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* peer = HostB().CreateBaselineVm("peer", 1);

  bool sender_done = false;
  apps::StreamStats sink;
  apps::StartStreamSink(peer, 9000, &sink, 1);
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int fd = co_await api.Socket(cpu);
    if (0 != co_await api.Connect(cpu, fd, peer->ip(), 9000)) co_return;
    for (int i = 0; i < 2000; ++i) {
      NkBuf loan;
      int r = co_await api.AcquireTxBuf(cpu, fd, 32768, &loan);
      if (r != 0) break;
      loan.size = loan.capacity;
      std::memset(loan.data, 0x5a, loan.size);
      int64_t n = co_await api.SendBuf(cpu, fd, loan);
      if (n <= 0) break;
    }
    co_await api.Close(cpu, fd);
    sender_done = true;
  };
  sim::Spawn(client());
  // Mid-flight, with the send pipeline full, RST every NSM-side socket.
  loop_.Schedule(30 * kMillisecond, [&] {
    for (tcp::SocketId sid = 1; sid <= 8; ++sid) {
      if (nsm->stack()->Exists(sid)) nsm->stack()->Abort(sid);
    }
  });
  Run(5 * kSecond);

  EXPECT_TRUE(sender_done);
  EXPECT_GT(nk->guestlib()->zc_sends(), 0u);
  // Conservation: every chunk freed (pool drained), every send completed —
  // whether by ACK, by the teardown firing its free callback, or by an
  // error completion reclaiming guest-held state.
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
  EXPECT_EQ(nk->guestlib()->zc_sends(),
            nk->guestlib()->zc_completions() + nk->guestlib()->send_credit_reclaims());
}

TEST_F(ZcTest, PoolDrainsAfterNsmDeathMidFlight) {
  // Harsher teardown: the NSM is deregistered from CoreEngine mid-stream.
  // Queued kSendZc NQEs get flagged error completions (guest frees + credit
  // reclaim); chunks already inside the NSM drain through ACKs. Either way
  // the shared pool must end empty — no chunk leaks across the death. The
  // still-running NSM's completions for those ACKs never reach the guest (no
  // shard polls its rings), so the teardown FIN settles them: every zc send
  // ends as a completion or a reclaim.
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* peer = HostB().CreateBaselineVm("peer", 1);

  apps::StreamStats sink;
  apps::StartStreamSink(peer, 9000, &sink, 1);
  bool sender_done = false;
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int fd = co_await api.Socket(cpu);
    if (0 != co_await api.Connect(cpu, fd, peer->ip(), 9000)) co_return;
    for (int i = 0; i < 2000; ++i) {
      NkBuf loan;
      int r = co_await api.AcquireTxBuf(cpu, fd, 32768, &loan);
      if (r != 0) break;
      loan.size = loan.capacity;
      std::memset(loan.data, 0x5a, loan.size);
      int64_t n = co_await api.SendBuf(cpu, fd, loan);
      if (n <= 0) break;
    }
    co_await api.Close(cpu, fd);
    sender_done = true;
  };
  sim::Spawn(client());
  loop_.Schedule(30 * kMillisecond, [&] { HostA().ce().DeregisterNsmDevice(nsm->id()); });
  Run(5 * kSecond);

  EXPECT_TRUE(sender_done);
  EXPECT_GT(nk->guestlib()->zc_sends(), 0u);
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
  EXPECT_EQ(nk->guestlib()->zc_sends(),
            nk->guestlib()->zc_completions() + nk->guestlib()->send_credit_reclaims());
}

TEST_F(ZcTest, ShmNsmCarriesZcSends) {
  // The shared-memory NSM speaks the same NQE protocol: kSendZc rides it and
  // completes with kSendZcComplete when the pool-to-pool copy lands.
  Nsm* nsm = HostA().CreateNsm("shm", 2, NsmKind::kShm);
  Vm* a = HostA().CreateNetkernelVm("vmA", 1, nsm);
  Vm* b = HostA().CreateNetkernelVm("vmB", 1, nsm);

  const uint64_t kTotal = 1 * kMiB;
  uint64_t got = 0;
  bool recv_ok = false, sent_ok = false;
  sim::Spawn(PatternSink(b, 9000, kTotal, &got, &recv_ok));
  sim::Spawn(ZcPatternSender(a, b->ip(), 9000, kTotal, 8192, &sent_ok));
  Run(3 * kSecond);

  EXPECT_TRUE(sent_ok);
  EXPECT_TRUE(recv_ok);
  EXPECT_EQ(got, kTotal);
  EXPECT_EQ(a->guestlib()->zc_sends(), a->guestlib()->zc_completions());
  EXPECT_EQ(a->pool()->bytes_in_use(), 0u);
}

TEST_F(ZcTest, ReleaseUnsentTxLoanReturnsCredit) {
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* peer = HostB().CreateBaselineVm("peer", 1);

  bool ok = false;
  auto server = [&]() -> sim::Task<void> {
    SocketApi& api = peer->api();
    sim::CpuCore* cpu = peer->vcpu(0);
    int lfd = co_await api.Socket(cpu);
    co_await api.Bind(cpu, lfd, 0, 9000);
    co_await api.Listen(cpu, lfd, 16, false);
    co_await api.Accept(cpu, lfd);
  };
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int fd = co_await api.Socket(cpu);
    if (0 != co_await api.Connect(cpu, fd, peer->ip(), 9000)) co_return;
    NkBuf loan;
    if (0 != co_await api.AcquireTxBuf(cpu, fd, 4096, &loan)) co_return;
    // Changed our mind: release without sending. Credit and chunk return.
    if (0 != co_await api.ReleaseBuf(cpu, fd, loan)) co_return;
    // Double release of the same handle must fail.
    if (tcp::kInvalidArg != co_await api.ReleaseBuf(cpu, fd, loan)) co_return;
    ok = true;
    co_await api.Close(cpu, fd);
  };
  sim::Spawn(server());
  sim::Spawn(client());
  Run();

  EXPECT_TRUE(ok);
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
}

TEST_F(ZcTest, RxZcShipsDetachedChunksEndToEnd) {
  // The tentpole: inbound TCP segments land in the VM's pool inside the
  // stack, and ShipRecv forwards detached chunks — the copy ship stays idle
  // while the bytes still arrive intact (checked by PatternSink semantics on
  // the RecvBuf side elsewhere; here the plain Recv consumer also works).
  Nsm* nsm = HostA().CreateNsm("nsm", 2, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 2, nsm);
  Vm* peer = HostB().CreateBaselineVm("peer", 4);

  const uint64_t kTotal = 2 * kMiB;
  uint64_t got = 0;
  bool recv_ok = false, sent_ok = false;
  sim::Spawn(PatternSink(nk, 9000, kTotal, &got, &recv_ok));
  sim::Spawn(ZcPatternSender(peer, nk->ip(), 9000, kTotal, 16384, &sent_ok));
  Run(3 * kSecond);

  EXPECT_TRUE(sent_ok);
  EXPECT_TRUE(recv_ok);
  EXPECT_EQ(got, kTotal);
  EXPECT_GT(nsm->servicelib()->rx_zc_ships(), 0u);
  EXPECT_EQ(nsm->servicelib()->rx_copy_ships(), 0u);
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
}

TEST_F(ZcTest, RxZcDisabledFallsBackToCopyShip) {
  // The rx_zerocopy=false knob restores the staging-copy receive path (the
  // Table 6 RX baseline): same bytes, zero detached ships.
  core::Host::Options opts;
  opts.servicelib.rx_zerocopy = false;
  host_a_ = std::make_unique<Host>(&loop_, &fabric_, "hostA", opts);
  Nsm* nsm = HostA().CreateNsm("nsm", 2, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 2, nsm);
  Vm* peer = HostB().CreateBaselineVm("peer", 4);

  const uint64_t kTotal = 1 * kMiB;
  uint64_t got = 0;
  bool recv_ok = false, sent_ok = false;
  sim::Spawn(PatternSink(nk, 9000, kTotal, &got, &recv_ok));
  sim::Spawn(ZcPatternSender(peer, nk->ip(), 9000, kTotal, 16384, &sent_ok));
  Run(3 * kSecond);

  EXPECT_TRUE(recv_ok);
  EXPECT_EQ(got, kTotal);
  EXPECT_EQ(nsm->servicelib()->rx_zc_ships(), 0u);
  EXPECT_GT(nsm->servicelib()->rx_copy_ships(), 0u);
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
}

TEST_F(ZcTest, DgramZcSendRecvConservesPool) {
  // Zero-copy datagrams end to end: SendToBuf transfers the chunk, the NSM's
  // UDP stack transmits from it, inbound datagrams ship as detached chunks and
  // are drained through RecvFromBuf loans. Sends and completions pair up and
  // the pool conserves.
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* peer = HostB().CreateBaselineVm("peer", 1);

  constexpr int kCount = 25;
  constexpr uint32_t kSize = 2000;
  int echoed = 0;
  auto echo = [&]() -> sim::Task<void> {
    SocketApi& api = peer->api();
    sim::CpuCore* cpu = peer->vcpu(0);
    int fd = co_await api.SocketDgram(cpu);
    co_await api.Bind(cpu, fd, 0, 5353);
    std::vector<uint8_t> buf(8192);
    for (int i = 0; i < kCount; ++i) {
      netsim::IpAddr ip = 0;
      uint16_t port = 0;
      int64_t r = co_await api.RecvFrom(cpu, fd, buf.data(), buf.size(), &ip, &port);
      if (r < 0) break;
      co_await api.SendTo(cpu, fd, ip, port, buf.data(), static_cast<uint64_t>(r));
      ++echoed;
    }
    co_await api.Close(cpu, fd);
  };
  int got = 0;
  bool payload_ok = true;
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int fd = co_await api.SocketDgram(cpu);
    for (int i = 0; i < kCount; ++i) {
      NkBuf loan;
      if (0 != co_await api.AcquireTxBuf(cpu, fd, kSize, &loan)) break;
      loan.size = std::min(loan.capacity, kSize);
      std::memset(loan.data, static_cast<int>(0x50 + i % 10), loan.size);
      if (co_await api.SendToBuf(cpu, fd, peer->ip(), 5353, loan) !=
          static_cast<int64_t>(loan.size)) {
        break;
      }
      NkBuf back;
      int64_t r = co_await api.RecvFromBuf(cpu, fd, &back, nullptr, nullptr);
      if (r != kSize) break;
      for (int64_t b = 0; b < r; ++b) {
        if (back.data[b] != static_cast<uint8_t>(0x50 + i % 10)) payload_ok = false;
      }
      if (0 != co_await api.ReleaseBuf(cpu, fd, back)) break;
      ++got;
    }
    co_await api.Close(cpu, fd);
  };
  sim::Spawn(echo());
  sim::Spawn(client());
  Run(5 * kSecond);

  EXPECT_EQ(echoed, kCount);
  EXPECT_EQ(got, kCount);
  EXPECT_TRUE(payload_ok);
  EXPECT_GT(nk->guestlib()->dgram_zc_sends(), 0u);
  EXPECT_EQ(nk->guestlib()->dgram_zc_sends(), nk->guestlib()->dgram_zc_completions());
  EXPECT_GT(nk->guestlib()->dgram_recvs(), 0u);
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
}

// ---------------------------------------------------------------------------
// Loan-API misuse regressions
// ---------------------------------------------------------------------------

TEST_F(ZcTest, RxLoanDoubleReleaseAndReleaseAfterCloseError) {
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* peer = HostB().CreateBaselineVm("peer", 1);

  bool ok = false;
  uint64_t pool_in_use_after_first_release = 1;
  auto server = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int lfd = co_await api.Socket(cpu);
    co_await api.Bind(cpu, lfd, 0, 9000);
    co_await api.Listen(cpu, lfd, 16, false);
    int fd = co_await api.Accept(cpu, lfd);
    NkBuf loan;
    int64_t n = co_await api.RecvBuf(cpu, fd, &loan);
    if (n <= 0) co_return;
    if (0 != co_await api.ReleaseBuf(cpu, fd, loan)) co_return;
    pool_in_use_after_first_release = nk->pool()->bytes_in_use();
    // Double release: must error, not free (or corrupt) the pool again.
    if (tcp::kInvalidArg != co_await api.ReleaseBuf(cpu, fd, loan)) co_return;
    // Release after close: the fd (and every loan) is gone.
    NkBuf loan2;
    int64_t n2 = co_await api.RecvBuf(cpu, fd, &loan2);
    if (n2 <= 0) co_return;
    co_await api.Close(cpu, fd);
    if (tcp::kNotConnected != co_await api.ReleaseBuf(cpu, fd, loan2)) co_return;
    ok = true;
  };
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = peer->api();
    sim::CpuCore* cpu = peer->vcpu(0);
    int fd = co_await api.Socket(cpu);
    if (0 != co_await api.Connect(cpu, fd, nk->ip(), 9000)) co_return;
    std::vector<uint8_t> msg(4096, 0x99);
    co_await api.Send(cpu, fd, msg.data(), msg.size());
    co_await sim::Delay(api.loop(), 200 * kMillisecond);
    co_await api.Send(cpu, fd, msg.data(), msg.size());
    co_await sim::Delay(api.loop(), 500 * kMillisecond);
    co_await api.Close(cpu, fd);
  };
  sim::Spawn(server());
  sim::Spawn(client());
  Run(3 * kSecond);

  EXPECT_TRUE(ok);
  EXPECT_EQ(pool_in_use_after_first_release, 0u);
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
}

// Once SendBuf transfers ownership, the handle is dead to the app: a second
// SendBuf or a ReleaseBuf must error instead of double-freeing a chunk the
// stack may still be transmitting (and retransmitting) from. Same contract on
// both implementations — the Baseline's heap arena used to accept the second
// SendBuf and free the block under the stack's feet. Each placement gets its
// own event loop so the forever-running sink tasks die with it.
void RunTxLoanMisuse(bool netkernel) {
  Host::ResetIpAllocator();
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  Host host_a(&loop, &fabric, "hostA");
  Host host_b(&loop, &fabric, "hostB");
  Vm* vm;
  if (netkernel) {
    Nsm* nsm = host_a.CreateNsm("nsm", 1, NsmKind::kKernel);
    vm = host_a.CreateNetkernelVm("nk", 1, nsm);
  } else {
    vm = host_a.CreateBaselineVm("base", 1);
  }
  Vm* peer = host_b.CreateBaselineVm("peer", 1);

  apps::StreamStats sink;
  apps::StartStreamSink(peer, 9000, &sink, 1);
  bool ok = false;
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = vm->api();
    sim::CpuCore* cpu = vm->vcpu(0);
    int fd = co_await api.Socket(cpu);
    if (0 != co_await api.Connect(cpu, fd, peer->ip(), 9000)) co_return;
    NkBuf loan;
    if (0 != co_await api.AcquireTxBuf(cpu, fd, 8192, &loan)) co_return;
    loan.size = loan.capacity;
    std::memset(loan.data, 0x5a, loan.size);
    if (co_await api.SendBuf(cpu, fd, loan) != static_cast<int64_t>(loan.size)) co_return;
    // The handle now belongs to the stack: every further use must error.
    if (tcp::kInvalidArg != co_await api.SendBuf(cpu, fd, loan)) co_return;
    if (tcp::kInvalidArg != co_await api.ReleaseBuf(cpu, fd, loan)) co_return;
    ok = true;
    co_await api.Close(cpu, fd);
  };
  sim::Spawn(client());
  loop.Run(loop.Now() + 3 * kSecond);
  EXPECT_TRUE(ok) << (netkernel ? "netkernel" : "baseline");
  if (netkernel) EXPECT_EQ(vm->pool()->bytes_in_use(), 0u);
}

TEST(ZcLoanMisuse, TxLoanReuseAfterSendErrorsNetkernel) { RunTxLoanMisuse(true); }
TEST(ZcLoanMisuse, TxLoanReuseAfterSendErrorsBaseline) { RunTxLoanMisuse(false); }

TEST_F(ZcTest, ListenerCloseClosesPendingAcceptedConnections) {
  // Accepted-but-unclaimed NSM connections must be torn down when the guest
  // closes the listener: the peer sees EOF/reset instead of a half-open
  // connection leaking in the NSM forever.
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* peer = HostB().CreateBaselineVm("peer", 1);

  int listener_closed = -1;
  auto server = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int lfd = co_await api.Socket(cpu);
    co_await api.Bind(cpu, lfd, 0, 9000);
    co_await api.Listen(cpu, lfd, 16, false);
    // Never accept; close after the client has established.
    co_await sim::Delay(api.loop(), 100 * kMillisecond);
    listener_closed = co_await api.Close(cpu, lfd);
  };
  int64_t peer_read = -2;
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = peer->api();
    sim::CpuCore* cpu = peer->vcpu(0);
    int fd = co_await api.Socket(cpu);
    if (0 != co_await api.Connect(cpu, fd, nk->ip(), 9000)) co_return;
    // Blocks until the NSM-side socket is closed by the listener teardown.
    std::vector<uint8_t> buf(256);
    peer_read = co_await api.Recv(cpu, fd, buf.data(), buf.size());
    co_await api.Close(cpu, fd);
  };
  sim::Spawn(server());
  sim::Spawn(client());
  Run(5 * kSecond);

  EXPECT_EQ(listener_closed, 0);
  // EOF (0) or reset (negative): either proves the connection was torn down
  // rather than leaked half-open.
  EXPECT_LE(peer_read, 0);
  EXPECT_NE(peer_read, -2);
  // The NSM holds no connection state for the dead listener's children.
  EXPECT_EQ(HostA().ce().SocketTableSize(), 0u);
}

// A peer that never reads and then resets its end: the NetKernel sender's NSM
// still holds queued sends when the RST arrives. Copy sends wait in the NSM's
// pending-transmit queue (their credit came back when the stack took earlier
// bytes); zc sends sit in the stack's send buffer. Either way, once the guest
// closes, every chunk must be back in the VM's pool.
void RunSendIntoResetPeer(bool zc) {
  Host::ResetIpAllocator();
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  Host host_a(&loop, &fabric, "hostA");
  Host host_b(&loop, &fabric, "hostB");
  Nsm* nsm = host_a.CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = host_a.CreateNetkernelVm("nk", 1, nsm);
  Vm* peer = host_b.CreateBaselineVm("peer", 1);

  auto server = [&]() -> sim::Task<void> {
    SocketApi& api = peer->api();
    sim::CpuCore* cpu = peer->vcpu(0);
    int lfd = co_await api.Socket(cpu);
    co_await api.Bind(cpu, lfd, 0, 9000);
    co_await api.Listen(cpu, lfd, 16, false);
    co_await api.Accept(cpu, lfd);  // accepted, never read
  };
  bool sender_closed = false;
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int fd = co_await api.Socket(cpu);
    if (0 != co_await api.Connect(cpu, fd, peer->ip(), 9000)) co_return;
    std::vector<uint8_t> msg(64 * 1024, 0x5a);
    for (int i = 0; i < 1024; ++i) {
      int64_t n;
      if (zc) {
        NkBuf loan;
        if (0 != co_await api.AcquireTxBuf(cpu, fd, 64 * 1024, &loan)) break;
        loan.size = loan.capacity;
        n = co_await api.SendBuf(cpu, fd, loan);
      } else {
        n = co_await api.Send(cpu, fd, msg.data(), msg.size());
      }
      if (n <= 0) break;
    }
    co_await api.Close(cpu, fd);
    sender_closed = true;
  };
  sim::Spawn(server());
  sim::Spawn(client());
  // Once the peer's window is shut and the sender is stalled, RST the peer's
  // established connection.
  loop.Schedule(200 * kMillisecond, [&] {
    tcp::TcpStack* stack = peer->guest_stack();
    for (tcp::SocketId sid = 1; sid <= 8; ++sid) {
      if (stack->Exists(sid) && stack->State(sid) == tcp::TcpState::kEstablished) {
        stack->Abort(sid);
      }
    }
  });
  loop.Run(loop.Now() + 2 * kSecond);

  const char* kind = zc ? "SendBuf" : "Send";
  EXPECT_TRUE(sender_closed) << kind;
  EXPECT_EQ(nk->pool()->chunks_in_use(), 0u) << kind << " leaked chunks";
}

TEST(PeerResetTest, QueuedCopySendsFreeAfterPeerReset) { RunSendIntoResetPeer(false); }
TEST(PeerResetTest, QueuedZcSendsFreeAfterPeerReset) { RunSendIntoResetPeer(true); }

}  // namespace
}  // namespace netkernel
