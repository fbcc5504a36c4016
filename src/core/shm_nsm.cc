// Copyright (c) NetKernel reproduction authors.

#include "src/core/shm_nsm.h"

#include <cstring>

#include "src/udpstack/udp_types.h"

namespace netkernel::core {

using shm::MakeNqe;
using shm::Nqe;
using shm::NqeOp;

ShmServiceLib::ShmServiceLib(sim::EventLoop* loop, uint8_t nsm_id, CoreEngine* ce,
                             shm::NkDevice* dev, std::vector<sim::CpuCore*> cores)
    : NsmService(loop, nsm_id, ce, dev, std::move(cores),
                 tcp::NetkernelCosts().servicelib_translate) {}

ShmServiceLib::Endpoint* ShmServiceLib::FindByEp(uint64_t ep_id) {
  auto it = eps_.find(ep_id);
  return it == eps_.end() ? nullptr : it->second.get();
}

void ShmServiceLib::Dispatch(const Nqe& nqe) {
  switch (nqe.Op()) {
    case NqeOp::kSocket: {
      auto ep = std::make_unique<Endpoint>();
      ep->ep_id = next_ep_++;
      ep->vm_id = nqe.vm_id;
      ep->vm_qset = nqe.queue_set;
      ep->vm_sock = nqe.vm_sock;
      ep->nsm_qset = nqe.reserved[2];
      ep->linked = true;
      Endpoint& ref = *ep;
      eps_[ref.ep_id] = std::move(ep);
      IndexSocket(&ref);
      Respond(ref, NqeOp::kOpResult, NqeOp::kSocket, 0, ref.ep_id);
      return;
    }
    case NqeOp::kSocketUdp: {
      // The shared-memory NSM carries no datagram transport; fail the socket
      // creation so the guest's SocketDgram returns an error instead of
      // blocking on a completion that would never come.
      Respond(ReplyTo(nqe), NqeOp::kOpResult, NqeOp::kSocketUdp, udp::kBadSocket);
      return;
    }
    case NqeOp::kAccept: {
      Endpoint* child = FindByEp(nqe.op_data);
      if (child == nullptr) return;
      child->vm_id = nqe.vm_id;
      child->vm_qset = nqe.queue_set;
      child->vm_sock = nqe.vm_sock;
      child->linked = true;
      IndexSocket(child);
      std::vector<Nqe> orphans = TakeOrphans(child->vm_id, child->vm_sock);
      if (!orphans.empty()) {
        for (const Nqe& send_nqe : orphans) {
          child->pending.push_back(PendingChunk{send_nqe.data_ptr, send_nqe.size,
                                                send_nqe.Op() == NqeOp::kSendZc});
        }
        PumpCopy(child->ep_id);
      }
      Endpoint* peer = FindByEp(child->peer);
      if (peer != nullptr) PumpCopy(peer->ep_id);  // peer may have queued data
      return;
    }
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
      break;  // per-socket verbs: resolved against the endpoint table below
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

  Endpoint* ep = FindByVm(nqe.vm_id, nqe.vm_sock);
  if (ep == nullptr) {
    OnUnknownSocket(nqe);
    return;
  }
  switch (nqe.Op()) {
    case NqeOp::kBind: {
      ep->bound_ip = shm::AddrIp(nqe.op_data);
      if (ep->bound_ip == 0) ep->bound_ip = vms_[ep->vm_id].ip;
      ep->bound_port = shm::AddrPort(nqe.op_data);
      Respond(*ep, NqeOp::kOpResult, NqeOp::kBind, 0);
      return;
    }
    case NqeOp::kListen: {
      ep->listening = true;
      uint64_t key = (static_cast<uint64_t>(ep->bound_ip) << 16) | ep->bound_port;
      listeners_[key] = ep->ep_id;
      Respond(*ep, NqeOp::kOpResult, NqeOp::kListen, 0);
      return;
    }
    case NqeOp::kConnect: {
      TryConnect(ep->ep_id, nqe.op_data, 0);
      return;
    }
    case NqeOp::kSend:
    case NqeOp::kSendZc: {
      ep->pending.push_back(
          PendingChunk{nqe.data_ptr, nqe.size, nqe.Op() == NqeOp::kSendZc});
      PumpCopy(ep->ep_id);
      return;
    }
    case NqeOp::kClose: {
      // Flush-aware close: queued chunks are copied to the peer first.
      ep->close_pending = true;
      MaybeFinishClose(ep->ep_id);
      return;
    }
    case NqeOp::kSendTo:
    case NqeOp::kSendToZc: {
      // No datagram transport here (kSocketUdp fails), so a stray datagram
      // send cannot be delivered — but its payload chunk must not strand.
      shm::HugepagePool* pool = vms_[ep->vm_id].pool;
      if (pool != nullptr && pool->IsAllocated(nqe.data_ptr)) pool->Free(nqe.data_ptr);
      Respond(*ep, NqeOp::kOpResult, nqe.Op(), udp::kBadSocket);
      return;
    }
    case NqeOp::kBindUdp:
    case NqeOp::kRecvFrom:
      // Datagram verbs with no transport behind them get a benign kOpResult.
      Respond(*ep, NqeOp::kOpResult, nqe.Op(), 0);
      return;
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
      return;  // handled or excluded before the endpoint lookup
  }
}

// Resolves a connect against the listener table, retrying for a grace period
// (the TCP path tolerates connect-before-listen via SYN retransmission; the
// shared-memory path must offer the same semantics).
void ShmServiceLib::TryConnect(uint64_t ep_id, uint64_t addr, int attempt) {
  Endpoint* ep = FindByEp(ep_id);
  if (ep == nullptr) return;
  uint64_t key =
      (static_cast<uint64_t>(shm::AddrIp(addr)) << 16) | shm::AddrPort(addr);
  auto lit = listeners_.find(key);
  Endpoint* listener = lit == listeners_.end() ? nullptr : FindByEp(lit->second);
  if (listener == nullptr) {
    if (attempt < 6) {
      loop_->ScheduleAfter((1 + attempt) * 5 * kMillisecond,
                           [this, ep_id, addr, attempt] { TryConnect(ep_id, addr, attempt + 1); });
    } else {
      Respond(*ep, NqeOp::kConnectResult, NqeOp::kConnect, tcp::kConnRefused);
    }
    return;
  }
  // Create the server-side endpoint and hand it to the listener's VM.
  auto child = std::make_unique<Endpoint>();
  child->ep_id = next_ep_++;
  child->vm_id = listener->vm_id;
  child->vm_qset = listener->vm_qset;
  child->nsm_qset = listener->nsm_qset;
  child->peer = ep->ep_id;
  ep->peer = child->ep_id;
  uint64_t child_id = child->ep_id;
  eps_[child_id] = std::move(child);
  Nqe acc = MakeNqe(NqeOp::kAcceptedConn, listener->vm_id, listener->vm_qset,
                    listener->vm_sock, child_id);
  EnqueueToVm(*listener, acc, false);
  Respond(*ep, NqeOp::kConnectResult, NqeOp::kConnect, 0);
  PumpCopy(ep->ep_id);  // data may already be queued
}

// Copies queued chunks from `src` endpoint's VM pool into the peer VM's pool
// and raises kRecvData events — the whole "network stack" of this NSM.
void ShmServiceLib::PumpCopy(uint64_t src_ep_id) {
  Endpoint* src = FindByEp(src_ep_id);
  if (src == nullptr || src->copy_pending || src->pending.empty()) return;
  Endpoint* dst = FindByEp(src->peer);
  if (dst == nullptr || !dst->linked) return;
  if (dst->rx_outstanding >= kRxOutstandingCap) return;  // credit wait

  shm::HugepagePool* spool = vms_[src->vm_id].pool;
  shm::HugepagePool* dpool = vms_[dst->vm_id].pool;
  if (spool == nullptr || dpool == nullptr) return;

  PendingChunk chunk = src->pending.front();
  uint64_t doff = dpool->Alloc(chunk.size);
  if (doff == shm::HugepagePool::kInvalidOffset) return;  // retried on credit
  src->pending.pop_front();
  src->copy_pending = true;

  sim::CpuCore* core = cores_[src->ep_id % cores_.size()];
  Cycles copy = static_cast<Cycles>(costs_.hugepage_copy_per_byte * chunk.size);
  core->Charge(copy, [this, src_ep_id, chunk, doff, spool, dpool] {
    Endpoint* src2 = FindByEp(src_ep_id);
    if (src2 == nullptr) {
      // Endpoint torn down mid-copy (EvictVm/Shutdown): unwind both sides — the
      // destination landing chunk and the still-allocated source chunk.
      dpool->Free(doff);
      if (spool->IsAllocated(chunk.ptr)) spool->Free(chunk.ptr);
      return;
    }
    src2->copy_pending = false;
    Endpoint* dst2 = FindByEp(src2->peer);
    if (dst2 == nullptr) {
      dpool->Free(doff);
      spool->Free(chunk.ptr);
      return;
    }
    std::memcpy(dpool->Data(doff), spool->Data(chunk.ptr), chunk.size);
    bytes_copied_ += chunk.size;
    spool->Free(chunk.ptr);
    if (chunk.zc) {
      // Zero-copy credit return: op_data carries the freed bytes; the status
      // rides in `size` (0 here — the chunk was delivered).
      Respond(*src2, NqeOp::kSendZcComplete, NqeOp::kSendZc, 0, chunk.size);
    } else {
      Respond(*src2, NqeOp::kSendResult, NqeOp::kSend, 0, chunk.size);
    }
    Nqe rx = MakeNqe(NqeOp::kRecvData, dst2->vm_id, dst2->vm_qset, dst2->vm_sock, 0, doff,
                     chunk.size);
    EnqueueToVm(*dst2, rx, true);
    dst2->rx_outstanding += chunk.size;
    PumpCopy(src_ep_id);
    MaybeFinishClose(src_ep_id);
  });
}

void ShmServiceLib::MaybeFinishClose(uint64_t ep_id) {
  Endpoint* ep = FindByEp(ep_id);
  if (ep == nullptr || !ep->close_pending) return;
  if (ep->copy_pending || !ep->pending.empty()) return;
  uint64_t peer_id = ep->peer;
  uint64_t key = (static_cast<uint64_t>(ep->bound_ip) << 16) | ep->bound_port;
  if (ep->listening) listeners_.erase(key);
  UnindexSocket(*ep);
  eps_.erase(ep_id);
  if (peer_id != 0) DeliverFin(peer_id, 0);
}

size_t ShmServiceLib::ReleaseVmState(uint8_t vm_id, shm::HugepagePool* pool) {
  // Close the VM's endpoints: queued copy chunks return to its pool,
  // listener entries unlink, peers get a reset-FIN. In-flight copies unwind
  // in their completion lambda (src endpoint gone -> both chunks free
  // through the captured pool pointers).
  std::vector<uint64_t> victims;
  for (auto& [id, ep] : eps_) {
    if (ep->vm_id == vm_id) victims.push_back(id);
  }
  for (uint64_t id : victims) {
    Endpoint* ep = FindByEp(id);
    if (ep == nullptr) continue;
    for (const PendingChunk& chunk : ep->pending) {
      if (pool->IsAllocated(chunk.ptr)) pool->Free(chunk.ptr);
    }
    ep->pending.clear();
    if (ep->listening) {
      listeners_.erase((static_cast<uint64_t>(ep->bound_ip) << 16) | ep->bound_port);
    }
    uint64_t peer_id = ep->peer;
    UnindexSocket(*ep);
    eps_.erase(id);
    if (peer_id != 0) DeliverFin(peer_id, tcp::kConnReset);
  }
  return victims.size();
}

void ShmServiceLib::OnRecvCredit(uint8_t vm_id, uint32_t vm_sock, uint32_t bytes) {
  Endpoint* ep = FindByVm(vm_id, vm_sock);
  if (ep == nullptr) return;
  ep->rx_outstanding = ep->rx_outstanding > bytes ? ep->rx_outstanding - bytes : 0;
  if (ep->peer != 0) PumpCopy(ep->peer);
}

void ShmServiceLib::DeliverFin(uint64_t ep_id, int32_t err) {
  Endpoint* ep = FindByEp(ep_id);
  if (ep == nullptr || ep->fin_sent_to_vm) return;
  ep->peer = 0;
  ep->fin_sent_to_vm = true;
  if (!ep->linked) return;
  Nqe fin = MakeNqe(NqeOp::kFinReceived, ep->vm_id, ep->vm_qset, ep->vm_sock, 0, 0,
                    static_cast<uint32_t>(err));
  EnqueueToVm(*ep, fin, true);
}

}  // namespace netkernel::core
