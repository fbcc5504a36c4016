// Copyright (c) NetKernel reproduction authors.

#include "src/core/servicelib.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"

namespace netkernel::core {

using shm::MakeNqe;
using shm::Nqe;
using shm::NqeOp;

namespace {

// NQE translation runs on the stack's own cores (queue set qs on core qs % n).
std::vector<sim::CpuCore*> StackCores(tcp::TcpStack* stack) {
  std::vector<sim::CpuCore*> cores;
  for (int i = 0; i < stack->num_cores(); ++i) cores.push_back(stack->core(i));
  return cores;
}

// Per-socket ops that name one stack. A stream op on a datagram socket (or
// the reverse) would address whatever socket of the other stack happens to
// carry the same id, so Dispatch refuses it.
bool StreamOnlyOp(NqeOp op) {
  return op == NqeOp::kBind || op == NqeOp::kListen || op == NqeOp::kConnect ||
         op == NqeOp::kSend || op == NqeOp::kSendZc;
}
bool DgramOnlyOp(NqeOp op) {
  return op == NqeOp::kBindUdp || op == NqeOp::kSendTo || op == NqeOp::kSendToZc ||
         op == NqeOp::kRecvFrom;
}

}  // namespace

ServiceLib::ServiceLib(sim::EventLoop* loop, uint8_t nsm_id, CoreEngine* ce, shm::NkDevice* dev,
                       tcp::TcpStack* stack, udp::UdpStack* udp_stack, Config config)
    : NsmService(loop, nsm_id, ce, dev, StackCores(stack), config.costs.servicelib_translate),
      stack_(stack),
      udp_stack_(udp_stack),
      config_(config) {}

ServiceLib::~ServiceLib() { *alive_ = false; }

void ServiceLib::AttachVm(uint8_t vm_id, shm::HugepagePool* pool, netsim::IpAddr vm_ip) {
  NsmService::AttachVm(vm_id, pool, vm_ip);
  VmStack info;
  // RX zero-copy: the stacks draw this VM's receive storage straight from its
  // hugepage pool, so ShipRecv/ShipDgrams can detach and forward the chunk
  // the stack already owns. The callbacks outlive arbitrary teardown orders
  // (they sit inside TcpStack receive buffers), hence the liveness token and
  // the re-resolution of the pool through vms_.
  info.rx_allocator = std::make_shared<tcp::ChunkAllocator>();
  info.rx_allocator->alloc = [this, alive = alive_, vm_id](uint32_t size, uint64_t* handle,
                                                           uint8_t** data, uint32_t* cap) {
    if (!*alive) return false;
    // An evicted (quarantined) VM must not grow its footprint: refusing the
    // alloc makes the stack fall back to its own buffering, and the eviction
    // sweep has already reclaimed what the pool held.
    if (vms_[vm_id].evicted) return false;
    shm::HugepagePool* p = vms_[vm_id].pool;
    uint32_t want = std::min<uint32_t>(size > 0 ? size : 1, shm::HugepagePool::kMaxChunk);
    uint64_t off = p->Alloc(want);
    if (off == shm::HugepagePool::kInvalidOffset) return false;
    *handle = off;
    *data = p->Data(off);
    *cap = p->ChunkCapacity(off);
    return true;
  };
  info.rx_allocator->free = [this, alive = alive_, vm_id](uint64_t handle) {
    if (!*alive) return;
    vms_[vm_id].pool->Free(handle);
  };
  vm_stacks_[vm_id] = std::move(info);
}

void ServiceLib::SetVmCcFactory(uint8_t vm_id, tcp::CcFactory factory) {
  NK_CHECK(vms_[vm_id].pool != nullptr);
  vm_stacks_[vm_id].cc_factory = std::move(factory);
}

ServiceLib::Conn* ServiceLib::Find(Kind kind, uint32_t sid) {
  auto it = conns_.find(Key(kind, sid));
  return it == conns_.end() ? nullptr : it->second.get();
}

ServiceLib::Conn& ServiceLib::NewConn(Kind kind, uint32_t sid, uint8_t vm_id, uint8_t vm_qset,
                                      uint32_t vm_sock) {
  auto c = std::make_unique<Conn>();
  c->kind = kind;
  c->sid = sid;
  c->vm_id = vm_id;
  c->vm_qset = vm_qset;
  c->vm_sock = vm_sock;
  Conn& ref = *c;
  conns_[Key(kind, sid)] = std::move(c);
  return ref;
}

// ---------------------------------------------------------------------------
// Inbound dispatch
// ---------------------------------------------------------------------------

void ServiceLib::Dispatch(const Nqe& nqe) {
  switch (nqe.Op()) {
    case NqeOp::kSocket:
    case NqeOp::kSocketUdp:
      DoSocket(nqe);
      return;
    case NqeOp::kAccept:
      DoAcceptLink(nqe);
      return;
    case NqeOp::kBind:
    case NqeOp::kBindUdp:
    case NqeOp::kListen:
    case NqeOp::kConnect:
    case NqeOp::kSend:
    case NqeOp::kSendZc:
    case NqeOp::kSendTo:
    case NqeOp::kSendToZc:
    case NqeOp::kRecvFrom:
    case NqeOp::kClose:
      break;  // per-socket verbs: resolved against the conn table below
    case NqeOp::kInvalid:
    case NqeOp::kOpResult:
    case NqeOp::kConnectResult:
    case NqeOp::kAcceptedConn:
    case NqeOp::kSendResult:
    case NqeOp::kRecvData:
    case NqeOp::kFinReceived:
    case NqeOp::kSendToResult:
    case NqeOp::kDgramRecv:
    case NqeOp::kSendZcComplete:
    case NqeOp::kNsmRehomed:
    case NqeOp::kHeartbeat:
      return;  // excluded by the NsmService::Admit prefilter
  }
  Conn* c = FindByVm(nqe.vm_id, nqe.vm_sock);
  if (c == nullptr) {
    OnUnknownSocket(nqe);
    return;
  }
  if (c->kind == Kind::kDgram ? StreamOnlyOp(nqe.Op()) : DgramOnlyOp(nqe.Op())) {
    FreeNqeChunk(nqe);
    Respond(*c, NqeOp::kOpResult, nqe.Op(), udp::kBadSocket);
    return;
  }
  switch (nqe.Op()) {
    case NqeOp::kBind:
    case NqeOp::kBindUdp:
      DoBind(nqe, *c);
      break;
    case NqeOp::kListen:
      DoListen(nqe, *c);
      break;
    case NqeOp::kConnect:
      DoConnect(nqe, *c);
      break;
    case NqeOp::kSend:
    case NqeOp::kSendZc:
      DoSend(nqe, *c);
      break;
    case NqeOp::kSendTo:
    case NqeOp::kSendToZc:
      DoSendTo(nqe, *c);
      break;
    case NqeOp::kRecvFrom:
      // Datagram receive credit: the guest consumed op_data bytes.
      c->rx_outstanding = c->rx_outstanding > nqe.op_data ? c->rx_outstanding - nqe.op_data : 0;
      ShipDgrams(c->sid);
      break;
    case NqeOp::kClose:
      DoClose(*c);
      break;
    case NqeOp::kSocket:
    case NqeOp::kSocketUdp:
    case NqeOp::kAccept:
    case NqeOp::kInvalid:
    case NqeOp::kOpResult:
    case NqeOp::kConnectResult:
    case NqeOp::kAcceptedConn:
    case NqeOp::kSendResult:
    case NqeOp::kRecvData:
    case NqeOp::kFinReceived:
    case NqeOp::kSendToResult:
    case NqeOp::kDgramRecv:
    case NqeOp::kSendZcComplete:
    case NqeOp::kNsmRehomed:
    case NqeOp::kHeartbeat:
      break;  // handled or excluded before the conn lookup
  }
}

void ServiceLib::DoSocket(const Nqe& nqe) {
  const VmInfo& vm = vms_[nqe.vm_id];
  if (vm.pool == nullptr) return;
  const VmStack& vs = vm_stacks_[nqe.vm_id];
  // Sockets of this VM use the VM's address (the NSM's vNIC answers for
  // every address of the VMs it serves), and with RX zero-copy their inbound
  // payload lands in the VM's pool.
  const Kind kind = nqe.Op() == NqeOp::kSocketUdp ? Kind::kDgram : Kind::kStream;
  uint32_t sid = 0;
  if (kind == Kind::kStream) {
    sid = stack_->CreateSocket();
    if (vs.cc_factory) stack_->SetCongestionControl(sid, vs.cc_factory());
    // Listeners pass the allocator on to accepted children inside the stack.
    if (config_.rx_zerocopy) stack_->SetRxChunkAllocator(sid, vs.rx_allocator);
    stack_->Bind(sid, vm.ip, 0);
  } else {
    if (udp_stack_ == nullptr) {
      Respond(ReplyTo(nqe), NqeOp::kOpResult, NqeOp::kSocketUdp, udp::kBadSocket);
      return;
    }
    sid = udp_stack_->CreateSocket();
    // The ephemeral port bound now gives an unbound sendto a routable source.
    udp_stack_->Bind(sid, vm.ip, 0);
    if (config_.rx_zerocopy) udp_stack_->SetRxChunkAllocator(sid, vs.rx_allocator);
    udp::UdpSocketCallbacks cbs;
    cbs.on_readable = [this, sid] { ShipDgrams(sid); };
    udp_stack_->SetCallbacks(sid, std::move(cbs));
  }
  Conn& c = NewConn(kind, sid, nqe.vm_id, nqe.queue_set, nqe.vm_sock);
  c.linked = true;
  c.nsm_qset = nqe.reserved[2];
  IndexSocket(&c);
  Respond(c, NqeOp::kOpResult, nqe.Op(), 0, sid);
}

void ServiceLib::DoBind(const Nqe& nqe, Conn& c) {
  if (vms_[c.vm_id].pool == nullptr) return;
  const netsim::IpAddr ip = vms_[c.vm_id].ip;
  const uint16_t port = shm::AddrPort(nqe.op_data);
  int r = c.kind == Kind::kStream ? stack_->Bind(c.sid, ip, port)
                                   : udp_stack_->Bind(c.sid, ip, port);
  Respond(c, NqeOp::kOpResult, nqe.Op(), r);
}

void ServiceLib::DoListen(const Nqe& nqe, Conn& c) {
  int backlog = static_cast<int>(nqe.op_data);
  bool reuseport = nqe.reserved[1] != 0;
  int r = stack_->Listen(c.sid, backlog, reuseport);
  if (r == 0) {
    c.listener = true;
    tcp::SocketId lsid = c.sid;
    tcp::SocketCallbacks cbs;
    cbs.on_acceptable = [this, lsid] { AutoAccept(lsid); };
    stack_->SetCallbacks(lsid, std::move(cbs));
  }
  Respond(c, NqeOp::kOpResult, NqeOp::kListen, r);
}

void ServiceLib::DoConnect(const Nqe& nqe, Conn& c) {
  tcp::SocketId sid = c.sid;
  tcp::SocketCallbacks cbs;
  cbs.on_connect = [this, sid](int err) {
    Conn* c2 = Find(Kind::kStream, sid);
    if (c2 == nullptr) return;
    Respond(*c2, NqeOp::kConnectResult, NqeOp::kConnect, err);
    if (err == 0) InstallDataCallbacks(*c2);
  };
  cbs.on_error = [this, sid](int err) {
    Conn* c2 = Find(Kind::kStream, sid);
    if (c2 == nullptr || c2->fin_sent_to_vm) return;
    c2->fin_sent_to_vm = true;
    Nqe fin = MakeNqe(NqeOp::kFinReceived, 0, 0, 0, 0, 0, static_cast<uint32_t>(err));
    EnqueueToVm(*c2, fin, true);
  };
  stack_->SetCallbacks(sid, std::move(cbs));
  stack_->Connect(sid, shm::AddrIp(nqe.op_data), shm::AddrPort(nqe.op_data));
}

void ServiceLib::AutoAccept(tcp::SocketId listener_sid) {
  Conn* l = Find(Kind::kStream, listener_sid);
  if (l == nullptr) return;
  for (;;) {
    tcp::SocketId cid = stack_->Accept(listener_sid);
    if (cid == tcp::kInvalidSocket) break;
    Conn& c = NewConn(Kind::kStream, cid, l->vm_id, l->vm_qset, 0);
    c.nsm_qset = l->nsm_qset;
    if (const tcp::CcFactory& cc = vm_stacks_[l->vm_id].cc_factory) {
      stack_->SetCongestionControl(cid, cc());
    }
    // Tell GuestLib about the new connection; the NSM socket id rides in
    // op_data and the guest answers with a kAccept link NQE (Fig 6).
    Nqe nqe = MakeNqe(NqeOp::kAcceptedConn, l->vm_id, l->vm_qset, l->vm_sock, cid);
    EnqueueToVm(*l, nqe, false);
  }
}

void ServiceLib::DoAcceptLink(const Nqe& nqe) {
  tcp::SocketId sid = static_cast<tcp::SocketId>(nqe.op_data);
  Conn* c = Find(Kind::kStream, sid);
  if (c == nullptr || !stack_->Exists(sid)) {
    // Connection reset before the guest accepted it: signal EOF.
    Nqe fin = MakeNqe(NqeOp::kFinReceived, 0, 0, 0, 0, 0,
                      static_cast<uint32_t>(tcp::kConnReset));
    EnqueueToVm(ReplyTo(nqe), fin, true);
    return;
  }
  c->vm_id = nqe.vm_id;
  c->vm_qset = nqe.queue_set;
  c->vm_sock = nqe.vm_sock;
  c->linked = true;
  IndexSocket(c);
  InstallDataCallbacks(*c);
  // Replay any sends that overtook this link NQE.
  for (const Nqe& send_nqe : TakeOrphans(c->vm_id, c->vm_sock)) DoSend(send_nqe, *c);
  ShipRecv(sid);  // data may have arrived before the link
}

void ServiceLib::InstallDataCallbacks(Conn& c) {
  tcp::SocketId sid = c.sid;
  tcp::SocketCallbacks cbs;
  cbs.on_readable = [this, sid] { ShipRecv(sid); };
  cbs.on_writable = [this, sid] {
    Conn* c2 = Find(Kind::kStream, sid);
    if (c2 != nullptr) DrainPendingTx(*c2);
  };
  cbs.on_error = [this, sid](int err) {
    Conn* c2 = Find(Kind::kStream, sid);
    if (c2 == nullptr) return;
    // The stack socket is gone (peer RST, RTO give-up): unwind sends still
    // queued for it, or they leak and a later kClose waits on them forever.
    // Draining may finish a pending close and drop the Conn.
    DrainPendingTx(*c2);
    c2 = Find(Kind::kStream, sid);
    if (c2 == nullptr || c2->fin_sent_to_vm) return;
    c2->fin_sent_to_vm = true;
    Nqe fin = MakeNqe(NqeOp::kFinReceived, 0, 0, 0, 0, 0, static_cast<uint32_t>(err));
    EnqueueToVm(*c2, fin, true);
  };
  stack_->SetCallbacks(sid, std::move(cbs));
}

// ---------------------------------------------------------------------------
// Send path: hugepages -> stack
// ---------------------------------------------------------------------------

// kSend and kSendZc. A copy send pays the hugepage->socket-buffer copy on the
// connection's stack core (the overhead Table 6 quantifies); a zero-copy send
// only takes a zero-cycle trip through that core, which keeps it in FIFO
// order with copies still in flight there. Either way the chunk joins the
// pending-transmit queue, whose drain unwinds it per kind if the socket died.
void ServiceLib::DoSend(const Nqe& nqe, Conn& c) {
  shm::HugepagePool* pool = vms_[c.vm_id].pool;
  if (pool == nullptr) return;
  tcp::SocketId sid = c.sid;
  uint64_t ptr = nqe.data_ptr;
  uint32_t size = nqe.size;
  const bool zc = nqe.Op() == NqeOp::kSendZc;
  Cycles copy = zc ? 0 : static_cast<Cycles>(config_.costs.hugepage_copy_per_byte * size);
  ++c.sends_in_flight;
  stack_->ChargeOnSocketCore(sid, copy, [this, sid, ptr, size, zc, pool] {
    Conn* c2 = Find(Kind::kStream, sid);
    if (c2 == nullptr) {
      // Conn gone (guest already closed): the chunk goes back to the pool.
      pool->Free(ptr);
      return;
    }
    --c2->sends_in_flight;
    c2->pending_tx.push_back(PendingTx{ptr, size, 0, zc});
    DrainPendingTx(*c2);
  });
}

// ---------------------------------------------------------------------------
// Zero-copy send path: the stack transmits straight from the hugepage chunk
// ---------------------------------------------------------------------------

std::function<void()> ServiceLib::MakeZcFreeCallback(const Conn& c, NqeOp done, NqeOp orig,
                                                     uint64_t ptr, uint32_t size) {
  // The callback lives inside a stack's send buffer (TcpStack until ACK,
  // UdpStack until the wire datagram is committed) and can also fire on
  // socket teardown or during stack destruction — potentially after this
  // ServiceLib, the Conn, or the VM's pool are gone. It therefore carries
  // the liveness token, a copy of the reply target, and re-resolves the pool
  // through vms_.
  return [this, alive = alive_, to = NsmSocket(c), done, orig, ptr, size] {
    if (!*alive) return;
    vms_[to.vm_id].pool->Free(ptr);
    recorder_.Record(obs::FlightEventType::kZcChunkFree, to.vm_id, to.vm_qset,
                     static_cast<uint8_t>(orig), to.vm_sock, size);
    // Return the send credit. Status 0 covers both outcomes — on a stream
    // teardown with unacked bytes the guest also receives the error FIN,
    // which is what reports the broken stream.
    Nqe nqe = MakeNqe(done, to.vm_id, to.vm_qset, to.vm_sock, size);
    nqe.reserved[0] = static_cast<uint8_t>(orig);
    EnqueueToVm(to, nqe, false);
  };
}

void ServiceLib::FailZcTx(const Conn& c, uint64_t ptr, uint32_t size) {
  if (shm::HugepagePool* pool = vms_[c.vm_id].pool) pool->Free(ptr);
  Nqe nqe = MakeNqe(NqeOp::kSendZcComplete, c.vm_id, c.vm_qset, c.vm_sock, size, 0,
                    static_cast<uint32_t>(tcp::kConnReset));
  nqe.reserved[0] = static_cast<uint8_t>(NqeOp::kSendZc);
  EnqueueToVm(c, nqe, false);
}

void ServiceLib::DrainPendingTx(Conn& c) {
  shm::HugepagePool* pool = vms_[c.vm_id].pool;
  if (pool == nullptr) return;
  while (!c.pending_tx.empty()) {
    PendingTx& tx = c.pending_tx.front();
    if (!stack_->Exists(c.sid)) {
      if (tx.zc) {
        FailZcTx(c, tx.ptr, tx.size);
      } else {
        pool->Free(tx.ptr);
      }
      c.pending_tx.pop_front();
      continue;
    }
    if (tx.zc) {
      // A chunk the stack's send buffer can never hold would wedge the
      // connection (on_writable cannot fire with nothing queued): fail it
      // back to the guest instead of waiting forever.
      if (tx.size > stack_->config().sndbuf_bytes) {
        FailZcTx(c, tx.ptr, tx.size);
        c.pending_tx.pop_front();
        continue;
      }
      // Zero-copy: append the chunk to the send buffer by reference
      // (all-or-nothing). The chunk frees — and the guest's send credit
      // returns — only when the byte range is ACKed.
      if (!stack_->SendZc(c.sid, pool->Data(tx.ptr), tx.size,
                          MakeZcFreeCallback(c, NqeOp::kSendZcComplete, NqeOp::kSendZc, tx.ptr,
                                             tx.size))) {
        break;  // stack sndbuf full; resume on writable
      }
      c.pending_tx.pop_front();
      continue;
    }
    uint64_t q = stack_->Send(c.sid, pool->Data(tx.ptr + tx.consumed), tx.size - tx.consumed);
    tx.consumed += static_cast<uint32_t>(q);
    if (tx.consumed < tx.size) break;  // stack sndbuf full; resume on writable
    // Fully handed to the stack: free the chunk and return the send credit
    // so GuestLib can decrease the socket's send-buffer usage (§4.5).
    pool->Free(tx.ptr);
    Respond(c, NqeOp::kSendResult, NqeOp::kSend, 0, tx.size);
    c.pending_tx.pop_front();
  }
  MaybeFinishClose(Kind::kStream, c.sid);
}

// ---------------------------------------------------------------------------
// Receive path: stack -> hugepages -> kRecvData
// ---------------------------------------------------------------------------

void ServiceLib::ShipRecv(tcp::SocketId sid) {
  Conn* c = Find(Kind::kStream, sid);
  if (c == nullptr || !c->linked || c->ship_pending) return;
  shm::HugepagePool* pool = vms_[c->vm_id].pool;
  if (pool == nullptr) return;

  uint64_t avail = stack_->RecvAvailable(sid);
  if (avail > 0 && c->rx_outstanding < config_.rx_outstanding_cap) {
    // Zero-copy ship: the front of the stack's receive buffer already IS a
    // chunk of this VM's pool (landed there at segment arrival) — detach it
    // and forward the handle. No rcvbuf->hugepage copy, no fresh allocation;
    // the last per-byte touch on the RX path is gone (§7.8). The chunk may
    // overshoot the outstanding cap by at most one chunk (64 KB).
    if (stack_->RxDetachable(sid)) {
      c->ship_pending = true;
      stack_->ChargeOnSocketCore(sid, 0, [this, sid, pool] {
        Conn* c2 = Find(Kind::kStream, sid);
        if (c2 == nullptr) return;  // rcvbuf teardown frees its own chunks
        c2->ship_pending = false;
        tcp::DetachedChunk chunk;
        if (!stack_->Exists(sid) || !stack_->RecvZcDetach(sid, &chunk)) {
          ShipRecv(sid);
          return;
        }
        ++rx_zc_ships_;
        Nqe nqe = MakeNqe(NqeOp::kRecvData, c2->vm_id, c2->vm_qset, c2->vm_sock, 0,
                          chunk.handle, chunk.size);
        if (EnqueueToVm(*c2, nqe, true)) {
          c2->rx_outstanding += chunk.size;
        } else {
          // Ring full at the final hop: the detached bytes cannot be
          // re-queued, so the stream is broken (same as the copy path).
          pool->Free(chunk.handle);
          if (!c2->fin_sent_to_vm) {
            c2->fin_sent_to_vm = true;
            DeliverErrorFin(sid);
          }
          return;
        }
        ShipRecv(sid);
      });
      return;
    }
    // Copy fallback: the front chunk is heap-backed (the pool was exhausted
    // when the segment landed) or partially consumed — stage it through a
    // fresh pool chunk with the classic per-byte copy.
    uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(
        {shm::HugepagePool::kMaxChunk, avail, config_.rx_outstanding_cap - c->rx_outstanding}));
    uint64_t off = pool->Alloc(chunk);
    if (off == shm::HugepagePool::kInvalidOffset) return;  // resumes on credit
    c->ship_pending = true;
    Cycles copy = static_cast<Cycles>(config_.costs.hugepage_copy_per_byte * chunk);
    stack_->ChargeOnSocketCore(sid, copy, [this, sid, off, chunk, pool] {
      Conn* c2 = Find(Kind::kStream, sid);
      if (c2 == nullptr) {
        pool->Free(off);
        return;
      }
      c2->ship_pending = false;
      uint64_t n = stack_->Recv(sid, pool->Data(off), chunk);
      if (n == 0) {
        pool->Free(off);
      } else {
        ++rx_copy_ships_;
        Nqe nqe = MakeNqe(NqeOp::kRecvData, c2->vm_id, c2->vm_qset, c2->vm_sock, 0, off,
                          static_cast<uint32_t>(n));
        if (EnqueueToVm(*c2, nqe, true)) {
          c2->rx_outstanding += n;
        } else {
          // Receive ring full at the final hop. The bytes already left the
          // stack and cannot be re-queued, so the stream is broken: free the
          // chunk (no leak, no phantom rx_outstanding) and error the
          // connection instead of silently losing payload.
          pool->Free(off);
          if (!c2->fin_sent_to_vm) {
            c2->fin_sent_to_vm = true;
            DeliverErrorFin(sid);
          }
          return;
        }
      }
      ShipRecv(sid);
    });
    return;
  }

  // All buffered data shipped: propagate EOF once.
  if (stack_->FinReceived(sid) && !c->fin_sent_to_vm) {
    c->fin_sent_to_vm = true;
    Nqe fin = MakeNqe(NqeOp::kFinReceived, c->vm_id, c->vm_qset, c->vm_sock, 0, 0, 0);
    EnqueueToVm(*c, fin, true);
  }
}

// Delivers the stream-broken error FIN for a connection whose kRecvData was
// lost to a full ring, retrying until the ring drains enough to carry it.
void ServiceLib::DeliverErrorFin(tcp::SocketId sid) {
  Conn* c = Find(Kind::kStream, sid);
  if (c == nullptr) return;
  Nqe fin = MakeNqe(NqeOp::kFinReceived, 0, 0, 0, 0, 0,
                    static_cast<uint32_t>(tcp::kConnReset));
  if (!EnqueueToVm(*c, fin, true)) {
    loop_->ScheduleAfter(50 * kMicrosecond, [this, sid] { DeliverErrorFin(sid); });
  }
}

void ServiceLib::OnRecvCredit(uint8_t vm_id, uint32_t vm_sock, uint32_t bytes) {
  Conn* c = FindByVm(vm_id, vm_sock);
  if (c == nullptr) return;
  c->rx_outstanding = c->rx_outstanding > bytes ? c->rx_outstanding - bytes : 0;
  ShipRecv(c->sid);
}

// ---------------------------------------------------------------------------
// Datagram send path: hugepages -> UDP stack
// ---------------------------------------------------------------------------

// kSendTo and kSendToZc. A copy send pays the hugepage->stack copy on the
// socket's core (Table 6's overhead); a zero-copy send takes a zero-cycle
// trip through that core, which keeps it in FIFO order with copy sends, and
// the UDP stack builds the wire datagram straight from the chunk. UDP never
// parks data: the credit returns as soon as the datagram is handed over, or
// — zero-copy — once the stack committed it to the wire.
void ServiceLib::DoSendTo(const Nqe& nqe, Conn& c) {
  shm::HugepagePool* pool = vms_[c.vm_id].pool;
  if (pool == nullptr) return;
  udp::SocketId sid = c.sid;
  uint64_t ptr = nqe.data_ptr;
  uint32_t size = nqe.size;
  uint64_t dst = nqe.op_data;
  const NqeOp op = nqe.Op();
  Cycles copy =
      op == NqeOp::kSendToZc ? 0 : static_cast<Cycles>(config_.costs.hugepage_copy_per_byte * size);
  ++c.sends_in_flight;
  udp_stack_->ChargeOnSocketCore(sid, copy, [this, sid, ptr, size, dst, pool, op] {
    Conn* c2 = Find(Kind::kDgram, sid);
    if (c2 == nullptr) {
      pool->Free(ptr);
      return;
    }
    --c2->sends_in_flight;
    bool loaned = false;  // the stack holds the chunk until its free callback
    if (udp_stack_->Exists(sid)) {
      if (op == NqeOp::kSendToZc) {
        loaned = udp_stack_->SendToZc(sid, shm::AddrIp(dst), shm::AddrPort(dst), pool->Data(ptr),
                                      size, MakeZcFreeCallback(*c2, NqeOp::kSendToResult, op, ptr,
                                                               size)) >= 0;
      } else {
        udp_stack_->SendTo(sid, shm::AddrIp(dst), shm::AddrPort(dst), pool->Data(ptr), size);
      }
    }
    if (!loaned) {
      // Copied out, or lost locally (socket closed / bad destination —
      // ordinary UDP loss): the chunk and the send credit unwind now.
      pool->Free(ptr);
      Respond(*c2, NqeOp::kSendToResult, op, 0, size);
    }
    MaybeFinishClose(Kind::kDgram, sid);
  });
}

// ---------------------------------------------------------------------------
// Close
// ---------------------------------------------------------------------------

// close() must flush: queued kSend payloads (and in-flight hugepage copies)
// are handed to the stack before the FIN, exactly like a kernel close() after
// buffered writes.
void ServiceLib::DoClose(Conn& c) {
  c.close_pending = true;
  MaybeFinishClose(c.kind, c.sid);
}

void ServiceLib::MaybeFinishClose(Kind kind, uint32_t sid) {
  Conn* c = Find(kind, sid);
  if (c == nullptr || !c->close_pending) return;
  if (c->sends_in_flight > 0 || !c->pending_tx.empty()) return;
  // A stream ship still charged to the core finds the Conn gone and unwinds
  // on its own, so only a datagram close waits for one.
  if (kind == Kind::kDgram && c->ship_pending) return;
  UnindexSocket(*c);
  if (kind == Kind::kStream) {
    stack_->SetCallbacks(sid, {});
    stack_->Close(sid);
  } else {
    udp_stack_->Close(sid);
  }
  conns_.erase(Key(kind, sid));
}

// ---------------------------------------------------------------------------
// Datagram receive path: UDP stack -> hugepages -> kDgramRecv
// ---------------------------------------------------------------------------

void ServiceLib::ShipDgrams(udp::SocketId sid) {
  Conn* c = Find(Kind::kDgram, sid);
  if (c == nullptr || c->ship_pending) return;
  if (c->close_pending) {
    // Stop delivering to a closing guest socket; let the close complete.
    MaybeFinishClose(Kind::kDgram, sid);
    return;
  }
  shm::HugepagePool* pool = vms_[c->vm_id].pool;
  if (pool == nullptr) return;

  uint32_t next = udp_stack_->NextDatagramSize(sid);
  if (udp_stack_->RxQueuedDatagrams(sid) == 0 || c->rx_outstanding >= config_.rx_outstanding_cap) {
    return;
  }
  // Zero-copy ship: the front datagram already sits in a chunk of this VM's
  // pool — detach it and forward the handle as kDgramRecv.
  if (udp_stack_->FrontDgramPooled(sid)) {
    c->ship_pending = true;
    udp_stack_->ChargeOnSocketCore(sid, 0, [this, sid, pool] {
      Conn* c2 = Find(Kind::kDgram, sid);
      if (c2 == nullptr) return;  // UdpStack::Close freed the queued chunks
      c2->ship_pending = false;
      uint64_t handle = 0;
      uint32_t len = 0;
      netsim::IpAddr src_ip = 0;
      uint16_t src_port = 0;
      if (!udp_stack_->Exists(sid) ||
          !udp_stack_->DetachFrontDgram(sid, &handle, &len, &src_ip, &src_port)) {
        ShipDgrams(sid);
        return;
      }
      ++dgram_zc_ships_;
      Nqe nqe = MakeNqe(NqeOp::kDgramRecv, c2->vm_id, c2->vm_qset, c2->vm_sock,
                        shm::PackAddr(src_ip, src_port), handle, len);
      if (EnqueueToVm(*c2, nqe, true)) {
        c2->rx_outstanding += len;
      } else {
        // Ring full: the datagram is dropped (UDP applies no backpressure);
        // the chunk goes straight back to the pool.
        pool->Free(handle);
      }
      ShipDgrams(sid);
    });
    return;
  }
  uint64_t off = pool->Alloc(next > 0 ? next : 1);
  if (off == shm::HugepagePool::kInvalidOffset) {
    // Pool exhausted. A returning credit re-invokes us, but with no credit
    // outstanding none would come — poll until space frees up.
    if (c->rx_outstanding == 0) {
      loop_->ScheduleAfter(50 * kMicrosecond, [this, sid] { ShipDgrams(sid); });
    }
    return;
  }
  c->ship_pending = true;
  Cycles copy = static_cast<Cycles>(config_.costs.hugepage_copy_per_byte * next);
  udp_stack_->ChargeOnSocketCore(sid, copy, [this, sid, off, next, pool] {
    Conn* c2 = Find(Kind::kDgram, sid);
    if (c2 == nullptr) {
      pool->Free(off);
      return;
    }
    c2->ship_pending = false;
    netsim::IpAddr src_ip = 0;
    uint16_t src_port = 0;
    int64_t n = udp_stack_->RecvFrom(sid, pool->Data(off), next, &src_ip, &src_port);
    bool shipped = false;
    if (n >= 0) {
      ++dgram_copy_ships_;
      Nqe nqe = MakeNqe(NqeOp::kDgramRecv, c2->vm_id, c2->vm_qset, c2->vm_sock,
                        shm::PackAddr(src_ip, src_port), off, static_cast<uint32_t>(n));
      shipped = EnqueueToVm(*c2, nqe, true);
      if (shipped) c2->rx_outstanding += static_cast<uint64_t>(n);
    }
    // NSM-side receive-ring full means the datagram is dropped (UDP applies
    // no backpressure) — the chunk goes straight back to the pool and no
    // credit accrues. (A drop at CoreEngine's final CE->VM hop can still
    // strand credit, as with TCP kRecvData; both rings are 4K deep, so that
    // needs sustained severe overload.)
    if (!shipped) pool->Free(off);
    ShipDgrams(sid);
  });
}

// ---------------------------------------------------------------------------
// Per-VM teardown (NsmService::EvictVm / Shutdown)
// ---------------------------------------------------------------------------

size_t ServiceLib::ReleaseVmState(uint8_t vm_id, shm::HugepagePool* pool) {
  // Streams before datagrams, then ascending stack id (Key() sorts so): the
  // order of the teardown's RSTs and frees does not hang on hash layout.
  std::vector<uint64_t> keys;
  for (auto& [key, conn] : conns_) {
    if (conn->vm_id == vm_id) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  for (uint64_t key : keys) {
    auto it = conns_.find(key);
    if (it == conns_.end()) continue;
    Conn& c = *it->second;
    // Queued-but-unadmitted TX chunks free here, a zero-copy one with its
    // completion like any other failed zc send. Abort tears a stream down
    // synchronously: zc chunks still in its send buffer fire their
    // exactly-once free callbacks, and pool-backed receive chunks free on
    // rcvbuf destruction; UdpStack::Close frees pool-landed queued datagrams
    // through the rx allocator's free hook.
    for (const PendingTx& tx : c.pending_tx) {
      if (tx.zc) {
        FailZcTx(c, tx.ptr, tx.size);
      } else {
        pool->Free(tx.ptr);
      }
    }
    c.pending_tx.clear();
    if (c.kind == Kind::kDgram) {
      udp_stack_->Close(c.sid);
    } else {
      stack_->SetCallbacks(c.sid, {});
      if (stack_->Exists(c.sid)) {
        // Close() unlinks a listener from the port table (and aborts its
        // unclaimed children); Abort() RSTs a live connection.
        if (c.listener) {
          stack_->Close(c.sid);
        } else {
          stack_->Abort(c.sid);
        }
      }
    }
    UnindexSocket(c);
    conns_.erase(key);
  }
  return keys.size();
}

}  // namespace netkernel::core
