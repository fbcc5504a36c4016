// Copyright (c) NetKernel reproduction authors.

#include "src/core/guestlib.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/check.h"
#include "src/udpstack/udp_types.h"

namespace netkernel::core {

using shm::MakeNqe;
using shm::Nqe;
using shm::NqeOp;

namespace {

// What a datagram or stream verb returns for an fd it cannot use.
int BadFd(bool dgram) {
  return dgram ? static_cast<int>(udp::kBadSocket) : static_cast<int>(tcp::kNotConnected);
}

}  // namespace

GuestLib::GuestLib(sim::EventLoop* loop, uint8_t vm_id, CoreEngine* ce, shm::NkDevice* dev,
                   shm::HugepagePool* pool, std::vector<sim::CpuCore*> vcpus, Config config)
    : loop_(loop),
      vm_id_(vm_id),
      ce_(ce),
      dev_(dev),
      pool_(pool),
      vcpus_(std::move(vcpus)),
      config_(config),
      epolls_(loop, [this](int fd) { return Readiness(fd); }),
      drain_scheduled_(static_cast<size_t>(dev->num_queue_sets()), false),
      poll_until_(static_cast<size_t>(dev->num_queue_sets()), 0),
      overflow_(static_cast<size_t>(dev->num_queue_sets())) {
  NK_CHECK(static_cast<int>(vcpus_.size()) == dev->num_queue_sets());
  dev_->SetWakeCallback([this] { OnDeviceWake(); });
}

GuestLib::GSock* GuestLib::FindByFd(int fd) {
  auto it = fd_to_handle_.find(fd);
  if (it == fd_to_handle_.end()) return nullptr;
  return FindByHandle(it->second);
}

GuestLib::GSock* GuestLib::FindByHandle(uint32_t handle) {
  auto it = socks_.find(handle);
  return it == socks_.end() ? nullptr : it->second.get();
}

int GuestLib::QueueSetOf(sim::CpuCore* core) const {
  for (size_t i = 0; i < vcpus_.size(); ++i) {
    if (vcpus_[i] == core) return static_cast<int>(i);
  }
  return 0;
}

GuestLib::GSock& GuestLib::NewSock(sim::CpuCore* core) {
  auto g = std::make_unique<GSock>();
  g->handle = next_handle_++;
  g->fd = next_fd_++;
  g->qset = QueueSetOf(core);
  g->ev = std::make_unique<sim::SimEvent>(loop_);
  GSock& ref = *g;
  fd_to_handle_[ref.fd] = ref.handle;
  socks_[ref.handle] = std::move(g);
  return ref;
}

uint32_t GuestLib::Readiness(int fd) {
  GSock* g = FindByFd(fd);
  if (g == nullptr) return kEpollErr | kEpollHup;
  uint32_t r = 0;
  if (g->error) r |= kEpollErr;
  if (g->dgram) {
    if (!g->rx.empty()) r |= kEpollIn;
    if (g->send_usage < kSendCredit) r |= kEpollOut;
    return r;
  }
  if (!g->pending_conns.empty()) r |= kEpollIn;
  if (g->rx_bytes > 0 || g->fin) r |= kEpollIn;
  if (g->connected && g->send_usage < kSendCredit) r |= kEpollOut;
  return r;
}

void GuestLib::EnqueueRing(bool send_ring, GSock& g, Nqe nqe) {
  const int qset = g.qset;
  nqe.vm_id = vm_id_;
  nqe.queue_set = static_cast<uint8_t>(qset);
  // T0: stamp before the ring/park decision so the trace id rides the NQE
  // even when it sits in the overflow park first.
  if (tracer_ != nullptr) {
    Cycles tc = tracer_->OnGuestEnqueue(&nqe);
    if (tc != 0) vcpus_[static_cast<size_t>(qset)]->AccountOnly(tc);
  }
  Overflow& ov = overflow_[static_cast<size_t>(qset)];
  shm::QueueSet& q = dev_->queue_set(qset);
  shm::SpscRing<Nqe>& ring = send_ring ? q.send : q.job;
  // Preserve FIFO: once anything is parked, everything goes through the park.
  if (ov.nqes.empty() && ring.TryEnqueue(nqe)) {
    ++nqes_sent_;
    ce_->NotifyVmOutbound(vm_id_, qset);  // wake only the owning shard
    return;
  }
  ov.nqes.emplace_back(send_ring, nqe);
  if (!ov.flush_scheduled) {
    ov.flush_scheduled = true;
    loop_->ScheduleAfter(20 * kMicrosecond, [this, qset] { FlushOverflow(qset); });
  }
}

void GuestLib::FlushOverflow(int qset) {
  Overflow& ov = overflow_[static_cast<size_t>(qset)];
  ov.flush_scheduled = false;
  shm::QueueSet& q = dev_->queue_set(qset);
  bool progressed = false;
  while (!ov.nqes.empty()) {
    auto& [send_ring, nqe] = ov.nqes.front();
    shm::SpscRing<Nqe>& ring = send_ring ? q.send : q.job;
    if (!ring.TryEnqueue(nqe)) break;
    ++nqes_sent_;
    progressed = true;
    ov.nqes.pop_front();
  }
  if (progressed) ce_->NotifyVmOutbound(vm_id_, qset);
  if (!ov.nqes.empty() && !ov.flush_scheduled) {
    ov.flush_scheduled = true;
    loop_->ScheduleAfter(20 * kMicrosecond, [this, qset] { FlushOverflow(qset); });
  }
}

sim::Task<int> GuestLib::DoControlOp(sim::CpuCore* core, GSock& g, Nqe nqe) {
  co_await core->Work(kSyscall + config_.costs.guestlib_translate);
  g.op_done = false;
  uint32_t handle = g.handle;
  EnqueueJob(g, nqe);
  for (;;) {
    GSock* g2 = FindByHandle(handle);
    if (g2 == nullptr) co_return tcp::kConnReset;
    if (g2->op_done) co_return g2->op_result;
    if (g2->error) co_return g2->err;
    co_await g2->ev->Wait();
  }
}

// The one TX reservation, shared by every send verb.
sim::Task<int> GuestLib::ReserveTx(uint32_t handle, uint32_t size, bool need_conn, int gone_err,
                                   uint64_t* off) {
  for (;;) {
    GSock* g = FindByHandle(handle);
    if (g == nullptr) co_return gone_err;
    if (g->error) co_return g->err;
    if (need_conn && !g->connected) co_return tcp::kNotConnected;
    // Send-buffer credit for all of it (completions return credit).
    if (g->send_usage + size > kSendCredit) {
      co_await g->ev->Wait();
      continue;
    }
    // Even an empty datagram rides in a minimal allocation.
    *off = pool_->Alloc(size > 0 ? size : 1);
    if (*off == shm::HugepagePool::kInvalidOffset) {
      // Hugepage region exhausted: wait for in-flight sends to drain.
      if (g->send_usage > 0) {
        co_await g->ev->Wait();
      } else {
        co_await sim::Delay(loop_, 50 * kMicrosecond);
      }
      continue;
    }
    co_return 0;
  }
}

void GuestLib::ReturnSendCredit(GSock& g, uint64_t bytes) {
  g.send_usage = g.send_usage > bytes ? g.send_usage - bytes : 0;
  g.ev->NotifyAll();
  epolls_.NotifyFd(g.fd);
}

void GuestLib::ReturnRecvCredit(GSock& g, uint32_t size) {
  if (g.dgram) {
    // Datagram receive credit returns through the NQE channel (the kRecvFrom
    // verb) so the NSM resumes shipping.
    EnqueueJob(g, MakeNqe(NqeOp::kRecvFrom, vm_id_, 0, g.handle, size));
  } else if (recv_credit_cb_) {
    // Stream credit returns through shared memory (the NSM observes the freed
    // chunk and resumes shipping).
    recv_credit_cb_(g.handle, size);
  }
}

// ---------------------------------------------------------------------------
// SocketApi
// ---------------------------------------------------------------------------

sim::Task<int> GuestLib::CreateSocket(sim::CpuCore* core, bool dgram) {
  // The guest kernel rewrites SOCK_STREAM and SOCK_DGRAM to SOCK_NETKERNEL
  // (§5): socket creation becomes a kSocket or kSocketUdp NQE answered by
  // the NSM, which learns from the verb which transport to create.
  GSock& g = NewSock(core);
  g.dgram = dgram;
  const int fd = g.fd;
  const uint32_t handle = g.handle;
  int r = co_await DoControlOp(
      core, g, MakeNqe(dgram ? NqeOp::kSocketUdp : NqeOp::kSocket, vm_id_, 0, handle));
  if (r != 0) {
    // Refused (no NSM, or a shared-memory NSM has no datagram transport):
    // the app never sees the fd, so reclaim it here.
    if (FindByHandle(handle) != nullptr) {
      fd_to_handle_.erase(fd);
      socks_.erase(handle);
    }
    co_return r;
  }
  co_return fd;
}

sim::Task<int> GuestLib::Bind(sim::CpuCore* core, int fd, netsim::IpAddr ip, uint16_t port) {
  GSock* g = FindByFd(fd);
  if (g == nullptr) co_return tcp::kNotConnected;
  NqeOp op = g->dgram ? NqeOp::kBindUdp : NqeOp::kBind;
  const uint32_t handle = g->handle;
  int r = co_await DoControlOp(core, *g,
                               MakeNqe(op, vm_id_, 0, g->handle, shm::PackAddr(ip, port)));
  if (r == 0) {
    // Remember the datagram bind so it can be replayed to a standby NSM.
    GSock* g2 = FindByHandle(handle);
    if (g2 != nullptr && g2->dgram) {
      g2->dgram_bound = true;
      g2->dgram_bound_addr = shm::PackAddr(ip, port);
    }
  }
  co_return r;
}

sim::Task<int> GuestLib::Listen(sim::CpuCore* core, int fd, int backlog, bool reuseport) {
  GSock* g = FindByFd(fd);
  if (g == nullptr) co_return tcp::kNotConnected;
  g->listening = true;
  Nqe nqe = MakeNqe(NqeOp::kListen, vm_id_, 0, g->handle, static_cast<uint64_t>(backlog));
  nqe.reserved[1] = reuseport ? 1 : 0;
  co_return co_await DoControlOp(core, *g, nqe);
}

sim::Task<int> GuestLib::Connect(sim::CpuCore* core, int fd, netsim::IpAddr ip, uint16_t port) {
  GSock* g = FindByFd(fd);
  if (g == nullptr) co_return tcp::kNotConnected;
  co_await core->Work(kSyscall + config_.costs.guestlib_translate);
  uint32_t handle = g->handle;
  EnqueueJob(*g, MakeNqe(NqeOp::kConnect, vm_id_, 0, g->handle, shm::PackAddr(ip, port)));
  for (;;) {
    GSock* g2 = FindByHandle(handle);
    if (g2 == nullptr) co_return tcp::kConnReset;
    if (g2->connect_done) {
      if (g2->connect_result == 0) g2->connected = true;
      co_return g2->connect_result;
    }
    co_await g2->ev->Wait();
  }
}

sim::Task<int> GuestLib::Accept(sim::CpuCore* core, int fd) {
  co_await core->Work(kSyscall);
  for (;;) {
    GSock* g = FindByFd(fd);
    if (g == nullptr) co_return tcp::kNotConnected;
    if (g->error) co_return g->err;
    if (!g->pending_conns.empty()) {
      uint64_t nsm_sock = g->pending_conns.front();
      g->pending_conns.pop_front();
      // Create the guest-side socket for the accepted connection and announce
      // its handle so CoreEngine can complete the connection-table entry.
      GSock& child = NewSock(core);
      child.connected = true;
      child.connect_done = true;
      co_await core->Work(config_.costs.guestlib_translate);
      EnqueueJob(child, MakeNqe(NqeOp::kAccept, vm_id_, 0, child.handle, nsm_sock));
      co_return child.fd;
    }
    co_await g->ev->Wait();
  }
}

// Legacy copy shim: one gather element through the vectored path.
sim::Task<int64_t> GuestLib::Send(sim::CpuCore* core, int fd, const uint8_t* data,
                                  uint64_t len) {
  NkConstIoVec iov{data, len};
  co_return co_await Sendv(core, fd, &iov, 1);
}

sim::Task<int64_t> GuestLib::Sendv(sim::CpuCore* core, int fd, const NkConstIoVec* iov,
                                   int iovcnt) {
  co_await core->Work(kSyscall + config_.costs.guestlib_translate);
  uint64_t total = 0;
  for (int i = 0; i < iovcnt; ++i) total += iov[i].len;
  uint64_t sent = 0;
  int vi = 0;
  uint64_t voff = 0;
  uint32_t handle;
  {
    GSock* g = FindByFd(fd);
    if (g == nullptr) co_return tcp::kNotConnected;
    handle = g->handle;
  }
  while (sent < total) {
    const uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(shm::HugepagePool::kMaxChunk, total - sent));
    uint64_t off = 0;
    int r = co_await ReserveTx(handle, chunk, true, tcp::kConnReset, &off);
    if (r != 0) co_return r;
    // Copy payload from userspace into the shared hugepages (§4.5), gathering
    // across the iovecs. This is the copy the zero-copy path (AcquireTxBuf +
    // SendBuf) eliminates by having the app fill the chunk in place.
    co_await core->Work(
        static_cast<Cycles>(config_.costs.hugepage_copy_per_byte * chunk));
    GSock* g = FindByHandle(handle);
    if (g == nullptr) {
      pool_->Free(off);
      co_return tcp::kConnReset;
    }
    uint8_t* dst = pool_->Data(off);
    uint32_t filled = 0;
    while (filled < chunk) {
      while (voff >= iov[vi].len) {
        ++vi;
        voff = 0;
      }
      uint32_t take = static_cast<uint32_t>(
          std::min<uint64_t>(chunk - filled, iov[vi].len - voff));
      std::memcpy(dst + filled, iov[vi].data + voff, take);
      filled += take;
      voff += take;
    }
    g->send_usage += chunk;
    EnqueueSend(*g, MakeNqe(NqeOp::kSend, vm_id_, 0, handle, 0, off, chunk));
    sent += chunk;
  }
  co_return static_cast<int64_t>(sent);
}

// ---------------------------------------------------------------------------
// Zero-copy registered-buffer datapath
// ---------------------------------------------------------------------------

sim::Task<int> GuestLib::AcquireTxBuf(sim::CpuCore* core, int fd, uint32_t len, NkBuf* out) {
  co_await core->Work(kSyscall);
  uint32_t handle;
  bool dgram;
  {
    GSock* g = FindByFd(fd);
    if (g == nullptr) co_return tcp::kNotConnected;
    handle = g->handle;
    dgram = g->dgram;
  }
  const uint32_t want =
      std::max<uint32_t>(1, std::min<uint32_t>(len, shm::HugepagePool::kMaxChunk));
  // A datagram loan needs no connection; a stream loan does.
  uint64_t off = 0;
  int r = co_await ReserveTx(handle, want, !dgram, tcp::kConnReset, &off);
  if (r != 0) co_return r;
  // The credit is reserved at acquire time: an application sitting on a
  // loan holds send-buffer space, exactly like bytes it had written.
  GSock* g = FindByHandle(handle);
  g->send_usage += want;
  g->tx_loans[off] = want;
  out->handle = off;
  out->data = pool_->Data(off);
  out->capacity = want;
  out->size = 0;
  co_return 0;
}

// The one loan submit: SendBuf (dgram = false) and SendToBuf (dgram = true).
sim::Task<int64_t> GuestLib::SubmitLoan(sim::CpuCore* core, int fd, NkBuf buf, bool dgram,
                                        uint64_t dst) {
  co_await core->Work(kSyscall + config_.costs.guestlib_translate);
  GSock* g = FindByFd(fd);
  // Close() revoked the loan.
  if (g == nullptr) co_return BadFd(dgram);
  auto it = g->tx_loans.find(buf.handle);
  if (it == g->tx_loans.end()) co_return tcp::kInvalidArg;
  const uint32_t reserved = it->second;
  const uint32_t n = std::min(buf.size, reserved);
  g->tx_loans.erase(it);
  // A loan that cannot go out (wrong socket kind, dead socket, or empty)
  // returns its chunk and its whole credit now.
  bool revoke = n == 0;
  int err = 0;
  if (dgram && !g->dgram) {
    revoke = true;
    err = udp::kBadSocket;
  } else if (g->error) {
    revoke = true;
    err = g->err;
  } else if (!dgram && !g->connected) {
    revoke = true;
    err = tcp::kNotConnected;
  }
  if (revoke) {
    pool_->Free(buf.handle);
    ReturnSendCredit(*g, reserved);
    co_return err;
  }
  // No copy: ownership of the filled chunk transfers as-is. The reserved
  // credit for unfilled capacity returns now; the rest returns when the byte
  // range is ACKed (kSendZcComplete) or the NSM commits the wire datagram
  // (kSendToResult with orig kSendToZc).
  if (n < reserved) ReturnSendCredit(*g, reserved - n);
  NqeOp op = NqeOp::kSendZc;
  if (dgram) {
    op = NqeOp::kSendToZc;
    ++dgram_zc_sends_;
  } else {
    ++zc_sends_;
    ++g->zc_inflight;
    g->zc_inflight_bytes += n;
  }
  EnqueueSend(*g, MakeNqe(op, vm_id_, 0, g->handle, dst, buf.handle, n));
  co_return static_cast<int64_t>(n);
}

// The one loan receive: RecvBuf (dgram = false) and RecvFromBuf (dgram = true).
sim::Task<int64_t> GuestLib::LoanRecv(sim::CpuCore* core, int fd, NkBuf* out, bool dgram,
                                      netsim::IpAddr* src_ip, uint16_t* src_port) {
  co_await core->Work(kSyscall);
  uint32_t handle;
  {
    GSock* g = FindByFd(fd);
    if (g == nullptr || g->dgram != dgram) co_return BadFd(dgram);
    handle = g->handle;
  }
  for (;;) {
    GSock* g = FindByHandle(handle);
    if (g == nullptr) co_return dgram ? udp::kBadSocket : 0;
    if (dgram ? !g->rx.empty() : g->rx_bytes > 0) {
      // Loan the front chunk to the application as-is — no hugepage->app
      // copy. The receive credit (the full chunk) returns at ReleaseBuf.
      RxChunk c = g->rx.front();
      g->rx.pop_front();
      const uint32_t avail = c.size - c.consumed;
      g->rx_bytes -= avail;
      g->rx_loans[c.ptr] = c.size;
      out->handle = c.ptr;
      out->data = pool_->Data(c.ptr + c.consumed);
      out->capacity = avail;
      out->size = avail;
      if (src_ip != nullptr) *src_ip = shm::AddrIp(c.src);
      if (src_port != nullptr) *src_port = shm::AddrPort(c.src);
      co_return static_cast<int64_t>(avail);
    }
    if (!dgram && g->fin) co_return 0;
    if (g->error) co_return g->err;
    co_await g->ev->Wait();
  }
}

sim::Task<int> GuestLib::ReleaseBuf(sim::CpuCore* core, int fd, NkBuf buf) {
  co_await core->Work(kSyscall);
  GSock* g = FindByFd(fd);
  if (g == nullptr) co_return tcp::kNotConnected;  // Close() revoked the loan
  auto rit = g->rx_loans.find(buf.handle);
  if (rit != g->rx_loans.end()) {
    const uint32_t size = rit->second;
    g->rx_loans.erase(rit);
    pool_->Free(buf.handle);
    ReturnRecvCredit(*g, size);
    co_return 0;
  }
  auto tit = g->tx_loans.find(buf.handle);
  if (tit != g->tx_loans.end()) {
    const uint32_t reserved = tit->second;
    g->tx_loans.erase(tit);
    pool_->Free(buf.handle);
    ReturnSendCredit(*g, reserved);
    co_return 0;
  }
  co_return tcp::kInvalidArg;
}

sim::Task<int64_t> GuestLib::SendTo(sim::CpuCore* core, int fd, netsim::IpAddr dst_ip,
                                    uint16_t dst_port, const uint8_t* data, uint64_t len) {
  co_await core->Work(kSyscall + config_.costs.guestlib_translate);
  uint32_t handle;
  {
    GSock* g = FindByFd(fd);
    if (g == nullptr || !g->dgram) co_return udp::kBadSocket;
    handle = g->handle;
  }
  if (len > udp::kMaxDatagram || len > shm::HugepagePool::kMaxChunk) {
    co_return udp::kMsgSize;
  }
  const uint32_t size = static_cast<uint32_t>(len);
  // A datagram is sent whole or not at all: the reservation waits for
  // credit for all of it (kSendToResult returns credits as the NSM transmits).
  uint64_t off = 0;
  int r = co_await ReserveTx(handle, size, false, udp::kBadSocket, &off);
  if (r != 0) co_return r;
  // Copy payload from userspace into the shared hugepages (§4.5).
  co_await core->Work(static_cast<Cycles>(config_.costs.hugepage_copy_per_byte * size));
  GSock* g = FindByHandle(handle);
  if (g == nullptr) {
    pool_->Free(off);
    co_return udp::kBadSocket;
  }
  if (size > 0) std::memcpy(pool_->Data(off), data, size);
  g->send_usage += size;
  EnqueueSend(*g, MakeNqe(NqeOp::kSendTo, vm_id_, 0, handle, shm::PackAddr(dst_ip, dst_port),
                          off, size));
  co_return static_cast<int64_t>(size);
}

sim::Task<int64_t> GuestLib::RecvFrom(sim::CpuCore* core, int fd, uint8_t* out, uint64_t max,
                                      netsim::IpAddr* src_ip, uint16_t* src_port) {
  co_await core->Work(kSyscall);
  uint32_t handle;
  {
    GSock* g = FindByFd(fd);
    if (g == nullptr || !g->dgram) co_return udp::kBadSocket;
    handle = g->handle;
  }
  for (;;) {
    GSock* g = FindByHandle(handle);
    if (g == nullptr) co_return udp::kBadSocket;
    if (!g->rx.empty()) {
      RxChunk c = g->rx.front();
      g->rx.pop_front();
      g->rx_bytes -= c.size;
      uint32_t n = static_cast<uint32_t>(std::min<uint64_t>(c.size, max));
      co_await core->Work(static_cast<Cycles>(config_.costs.hugepage_copy_per_byte * n));
      if (n > 0 && out != nullptr) std::memcpy(out, pool_->Data(c.ptr), n);
      pool_->Free(c.ptr);
      if (src_ip != nullptr) *src_ip = shm::AddrIp(c.src);
      if (src_port != nullptr) *src_port = shm::AddrPort(c.src);
      GSock* g2 = FindByHandle(handle);
      if (g2 != nullptr) ReturnRecvCredit(*g2, c.size);
      co_return static_cast<int64_t>(n);
    }
    if (g->error) co_return g->err;
    co_await g->ev->Wait();
  }
}

// Legacy copy shim: one scatter element through the vectored path.
sim::Task<int64_t> GuestLib::Recv(sim::CpuCore* core, int fd, uint8_t* out, uint64_t max) {
  NkIoVec iov{out, max};
  co_return co_await Recvv(core, fd, &iov, 1);
}

sim::Task<int64_t> GuestLib::Recvv(sim::CpuCore* core, int fd, const NkIoVec* iov,
                                   int iovcnt) {
  co_await core->Work(kSyscall);
  uint64_t total = 0;
  for (int i = 0; i < iovcnt; ++i) total += iov[i].len;
  if (total == 0) co_return 0;  // zero-capacity read never blocks
  uint32_t handle;
  {
    GSock* g = FindByFd(fd);
    if (g == nullptr) co_return tcp::kNotConnected;
    handle = g->handle;
  }
  for (;;) {
    GSock* g = FindByHandle(handle);
    if (g == nullptr) co_return 0;
    // Datagrams are read whole by RecvFrom, never as a byte stream.
    if (!g->dgram && g->rx_bytes > 0) {
      uint64_t target = std::min(g->rx_bytes, total);
      // Copy from hugepages to the application buffers (§4.5) — the copy the
      // zero-copy path (RecvBuf/ReleaseBuf) eliminates by loaning the chunk.
      co_await core->Work(static_cast<Cycles>(config_.costs.hugepage_copy_per_byte * target));
      g = FindByHandle(handle);
      if (g == nullptr) co_return 0;
      target = std::min(target, g->rx_bytes);  // consumed concurrently?
      uint64_t copied = 0;
      int vi = 0;
      uint64_t voff = 0;
      while (copied < target && !g->rx.empty()) {
        RxChunk& c = g->rx.front();
        while (voff >= iov[vi].len) {
          ++vi;
          voff = 0;
        }
        uint32_t take = static_cast<uint32_t>(std::min<uint64_t>(
            {static_cast<uint64_t>(c.size - c.consumed), iov[vi].len - voff,
             target - copied}));
        std::memcpy(iov[vi].data + voff, pool_->Data(c.ptr + c.consumed), take);
        c.consumed += take;
        voff += take;
        copied += take;
        g->rx_bytes -= take;
        if (c.consumed == c.size) {
          pool_->Free(c.ptr);
          uint32_t sz = c.size;
          g->rx.pop_front();
          ReturnRecvCredit(*g, sz);
          g = FindByHandle(handle);  // the credit callback may close sockets
          if (g == nullptr) co_return static_cast<int64_t>(copied);
        }
      }
      if (copied > 0) co_return static_cast<int64_t>(copied);
    }
    if (g->fin) co_return 0;
    if (g->error) co_return g->err;
    co_await g->ev->Wait();
  }
}

sim::Task<int> GuestLib::Close(sim::CpuCore* core, int fd) {
  co_await core->Work(kSyscall + config_.costs.guestlib_translate);
  GSock* g = FindByFd(fd);
  if (g == nullptr) co_return tcp::kNotConnected;
  // A listening socket may hold accepted-but-unclaimed connections: link each
  // one to a throwaway guest handle, then close it, so the NSM side tears the
  // established connection down (FIN to the peer) instead of leaking it. The
  // job-ring FIFO guarantees the link lands before its close.
  if (g->listening) {
    for (uint64_t nsm_sock : g->pending_conns) {
      uint32_t h = next_handle_++;
      EnqueueJob(*g, MakeNqe(NqeOp::kAccept, vm_id_, 0, h, nsm_sock));
      EnqueueJob(*g, MakeNqe(NqeOp::kClose, vm_id_, 0, h));
    }
    g->pending_conns.clear();
  }
  // Pipelined close (§4.6): fire the NQE and return without waiting.
  EnqueueJob(*g, MakeNqe(NqeOp::kClose, vm_id_, 0, g->handle));
  for (RxChunk& c : g->rx) pool_->Free(c.ptr);
  g->rx.clear();
  // Revoke outstanding zero-copy loans: the app's pointers die with the fd.
  for (const auto& [off, sz] : g->tx_loans) pool_->Free(off);
  g->tx_loans.clear();
  for (const auto& [off, sz] : g->rx_loans) pool_->Free(off);
  g->rx_loans.clear();
  epolls_.RemoveFd(fd);
  fd_to_handle_.erase(fd);
  socks_.erase(g->handle);
  co_return 0;
}

sim::Task<std::vector<EpollEvent>> GuestLib::EpollWait(sim::CpuCore* core, int epfd,
                                                       size_t max_events, SimTime timeout) {
  co_await core->Work(kSyscall);
  std::vector<EpollEvent> evs = co_await epolls_.Wait(epfd, max_events, timeout);
  co_await core->Work(kEpollWakeup + kEpollFetch * evs.size());
  co_return evs;
}

// ---------------------------------------------------------------------------
// Inbound NQE processing (completion + receive queues)
// ---------------------------------------------------------------------------

void GuestLib::OnDeviceWake() {
  for (int qs = 0; qs < dev_->num_queue_sets(); ++qs) {
    shm::QueueSet& q = dev_->queue_set(qs);
    if (!q.completion.Empty() || !q.receive.Empty()) ProcessInbound(qs);
  }
}

void GuestLib::ProcessInbound(int qs) {
  if (drain_scheduled_[qs]) return;
  drain_scheduled_[qs] = true;

  shm::QueueSet& q = dev_->queue_set(qs);
  Nqe buf[128];
  size_t n = q.completion.DequeueBatch(buf, 64);
  n += q.receive.DequeueBatch(buf + n, 64);
  if (n == 0) {
    drain_scheduled_[qs] = false;
    return;
  }
  nqes_received_ += n;

  // Interrupt-driven polling (§4.6): within the polling window the NQEs are
  // picked up by the poll loop; outside it CoreEngine's wakeup interrupt
  // costs device_wakeup cycles.
  const SimTime now = loop_->Now();
  Cycles cost = kNqeParse * static_cast<Cycles>(n);
  if (now >= poll_until_[qs]) cost += config_.costs.device_wakeup;

  std::vector<Nqe> nqes(buf, buf + n);
  vcpus_[qs]->Charge(cost, [this, qs, nqes = std::move(nqes)] {
    poll_until_[qs] = loop_->Now() + config_.costs.guest_poll_period;
    for (const Nqe& nqe : nqes) {
      // T4: completion reached the guest; closes out the traced sample.
      if (tracer_ != nullptr) {
        Cycles tc = tracer_->OnGuestReap(nqe);
        if (tc != 0) vcpus_[qs]->AccountOnly(tc);
      }
      ApplyInbound(nqe);
    }
    drain_scheduled_[qs] = false;
    shm::QueueSet& q2 = dev_->queue_set(qs);
    if (!q2.completion.Empty() || !q2.receive.Empty()) ProcessInbound(qs);
  });
}

bool GuestLib::FreeInboundChunk(uint64_t off) {
  // The offset comes off a shared ring: free only what the pool actually has
  // allocated, or a forged completion aborts the whole guest.
  if (pool_->IsAllocated(off)) {
    pool_->Free(off);
    return true;
  }
  ++guard_bad_frees_;
  return false;
}

void GuestLib::ApplyInbound(const Nqe& nqe) {
  const NqeOp op = nqe.Op();
  if (op == NqeOp::kNsmRehomed) {
    // Per-VM notification (vm_sock = 0): handled before the socket lookup.
    OnNsmRehomed(static_cast<uint8_t>(nqe.op_data));
    return;
  }
  // Send completions count, and reclaim their chunk, whether or not the
  // socket is still open. One flagged unconsumed is a send CoreEngine could
  // not deliver (no NSM, or switch overload beyond the pending bound): the
  // untouched payload chunk still belongs to this guest.
  const bool unconsumed =
      (op == NqeOp::kSendResult || op == NqeOp::kSendToResult || op == NqeOp::kSendZcComplete) &&
      nqe.reserved[1] == shm::kNqeFlagChunkUnconsumed;
  GSock* g = FindByHandle(nqe.vm_sock);
  if (op == NqeOp::kSendZcComplete && g != nullptr && g->zc_reclaimed > 0) {
    // The teardown FIN already counted this send and returned its credit.
    --g->zc_reclaimed;
    if (unconsumed) FreeInboundChunk(nqe.data_ptr);
    return;
  }
  if (unconsumed && FreeInboundChunk(nqe.data_ptr)) ++send_credit_reclaims_;
  if (op == NqeOp::kSendZcComplete) ++zc_completions_;
  if (op == NqeOp::kSendToResult && static_cast<NqeOp>(nqe.reserved[0]) == NqeOp::kSendToZc) {
    ++dgram_zc_completions_;
  }
  if (g == nullptr) {
    // Socket already closed; free any received chunk. A datagram NQE always
    // references a chunk — even a zero-length datagram rides in a minimal
    // allocation.
    if (op == NqeOp::kDgramRecv || (op == NqeOp::kRecvData && nqe.size > 0)) {
      FreeInboundChunk(nqe.data_ptr);
    }
    return;
  }
  switch (op) {
    case NqeOp::kOpResult:
      g->op_done = true;
      g->op_result = static_cast<int32_t>(nqe.size);
      break;
    case NqeOp::kConnectResult:
      g->connect_done = true;
      g->connect_result = static_cast<int32_t>(nqe.size);
      if (g->connect_result == 0) g->connected = true;
      break;
    case NqeOp::kAcceptedConn:
      g->pending_conns.push_back(nqe.op_data);
      break;
    case NqeOp::kSendResult:
    case NqeOp::kSendToResult:
    case NqeOp::kSendZcComplete:
      // Credit returns once a copy send's bytes reached the NSM stack, a
      // zero-copy stream send's range is ACKed (the NSM freed the chunk into
      // the shared pool) or a zero-copy datagram hit the wire.
      ReturnSendCredit(*g, nqe.op_data);
      if (op == NqeOp::kSendZcComplete && g->zc_inflight > 0) {
        --g->zc_inflight;
        g->zc_inflight_bytes -= std::min<uint64_t>(g->zc_inflight_bytes, nqe.op_data);
      }
      // A lost stream write breaks the byte stream, so the TCP socket is
      // errored, as is a zero-copy stream send retired with an error status;
      // a lost datagram is ordinary UDP loss.
      if (op != NqeOp::kSendToResult &&
          (unconsumed || (op == NqeOp::kSendZcComplete && static_cast<int32_t>(nqe.size) != 0))) {
        g->error = true;
        g->err = static_cast<int32_t>(nqe.size);
      }
      break;
    case NqeOp::kDgramRecv:
      ++dgram_recvs_;
      [[fallthrough]];
    case NqeOp::kRecvData:
      g->rx.push_back(RxChunk{nqe.data_ptr, nqe.size, 0, nqe.op_data});
      g->rx_bytes += nqe.size;
      break;
    case NqeOp::kFinReceived:
      g->fin = true;
      if (nqe.size != 0) {
        g->error = true;
        g->err = static_cast<int32_t>(nqe.size);
        // An errored FIN (connection torn down under the app, e.g. its NSM
        // was failed over): the stream is dead and the app owes a reconnect.
        if (!g->dgram) ++reconnects_required_;
        // CoreEngine sends kCeNetUnreach only when it deregisters the NSM:
        // nothing more of that NSM reaches this guest, so the zero-copy sends
        // it still held are settled here.
        if (static_cast<int32_t>(nqe.size) == kCeNetUnreach && g->zc_inflight > 0) {
          send_credit_reclaims_ += g->zc_inflight;
          g->zc_reclaimed += g->zc_inflight;
          g->zc_inflight = 0;
          ReturnSendCredit(*g, std::exchange(g->zc_inflight_bytes, 0));
        }
      }
      break;
    case NqeOp::kNsmRehomed:
      // Normally consumed above before the socket lookup (vm_sock = 0); kept
      // as a routed case so a handle collision still applies it.
      OnNsmRehomed(static_cast<uint8_t>(nqe.op_data));
      break;
    case NqeOp::kInvalid:
    case NqeOp::kSocket:
    case NqeOp::kBind:
    case NqeOp::kListen:
    case NqeOp::kConnect:
    case NqeOp::kAccept:
    case NqeOp::kClose:
    case NqeOp::kSend:
    case NqeOp::kSocketUdp:
    case NqeOp::kBindUdp:
    case NqeOp::kSendTo:
    case NqeOp::kRecvFrom:
    case NqeOp::kSendZc:
    case NqeOp::kSendToZc:
    case NqeOp::kHeartbeat:
      // Request-direction and control ops never arrive on completion/receive
      // rings; a buggy or hostile NSM-side writer is ignored, not UB.
      break;
  }
  g->ev->NotifyAll();
  epolls_.NotifyFd(g->fd);
}

void GuestLib::OnNsmRehomed(uint8_t new_nsm_id) {
  (void)new_nsm_id;  // routing already re-pointed; the id is informational
  ++nsm_rehomes_;
  // The standby NSM starts with an empty socket table. Replay creation (and
  // the remembered bind) for every SOCK_DGRAM handle so bound server sockets
  // keep receiving under the same guest fds — datagram state is small enough
  // to rebuild statelessly, which is why dgram flows survive a failover.
  // Stream sockets are NOT replayed: their connections died with the old NSM
  // and arrive here separately as errored FINs (counted reconnects).
  for (auto& [handle, sock] : socks_) {
    GSock* g = sock.get();
    if (!g->dgram) continue;
    EnqueueJob(*g, MakeNqe(NqeOp::kSocketUdp, vm_id_, 0, g->handle));
    if (g->dgram_bound) {
      EnqueueJob(*g, MakeNqe(NqeOp::kBindUdp, vm_id_, 0, g->handle, g->dgram_bound_addr));
    }
    g->ev->NotifyAll();
    epolls_.NotifyFd(g->fd);
  }
}

}  // namespace netkernel::core
