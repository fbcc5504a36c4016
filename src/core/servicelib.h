// Copyright (c) NetKernel reproduction authors.
// ServiceLib: the stack-backed transport behind the shared NSM front-end
// (NsmService, paper §4.5).
//
// NsmService drains the NK device's job/send rings, applies the nkguard
// prefilter and emits completion/receive NQEs; ServiceLib's Dispatch turns
// each admitted NQE into calls on the NSM's network stack (kernel-profile or
// mTCP-profile TcpStack, plus a UdpStack) and streams results and data back.
// It runs in the same space as the stack (kernel-space ServiceLib for the
// kernel NSM; the per-core mTCP application thread for the mTCP NSM), so
// stack calls are direct function calls. The other transport is
// ShmServiceLib (src/core/shm_nsm.h), which copies between colocated VMs'
// hugepage pools instead.
//
// One ServiceLib serves many VMs (multiplexing, §6.1): each VM attaches with
// its own hugepage pool and IP address, and the FairShare NSM (§6.2) installs
// a per-VM shared congestion window through SetVmCcFactory.

#ifndef SRC_CORE_SERVICELIB_H_
#define SRC_CORE_SERVICELIB_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/nsm_service.h"
#include "src/tcpstack/stack.h"
#include "src/udpstack/stack.h"

namespace netkernel::core {

class ServiceLib : public NsmService {
 public:
  struct Config {
    tcp::NetkernelCosts costs;
    // Per-connection cap on bytes shipped to the VM but not yet consumed.
    uint64_t rx_outstanding_cap = 1 * kMiB;
    // RX zero-copy: land inbound payload directly in the VM's hugepage pool
    // and ship detached chunks (no rcvbuf->hugepage copy). Off = the pre-zc
    // staging-copy receive path — the Table 6 RX baseline.
    bool rx_zerocopy = true;
  };

  // `udp_stack` may be null: SOCK_DGRAM NQEs then fail with an error result.
  ServiceLib(sim::EventLoop* loop, uint8_t nsm_id, CoreEngine* ce, shm::NkDevice* dev,
             tcp::TcpStack* stack, udp::UdpStack* udp_stack, Config config);
  ServiceLib(sim::EventLoop* loop, uint8_t nsm_id, CoreEngine* ce, shm::NkDevice* dev,
             tcp::TcpStack* stack, udp::UdpStack* udp_stack = nullptr);
  ~ServiceLib() override;

  void AttachVm(uint8_t vm_id, shm::HugepagePool* pool, netsim::IpAddr vm_ip) override;
  void OnRecvCredit(uint8_t vm_id, uint32_t vm_sock, uint32_t bytes) override;

  // Overrides congestion control for all (future) connections of a VM —
  // the hook the FairShare NSM uses (§6.2).
  void SetVmCcFactory(uint8_t vm_id, tcp::CcFactory factory);

  tcp::TcpStack* stack() { return stack_; }
  udp::UdpStack* udp_stack() { return udp_stack_; }
  // RX zero-copy accounting: kRecvData ships that detached the stack's own
  // pool chunk (no rcvbuf->hugepage copy) vs ships that had to copy because
  // the pool was exhausted when the segment landed (heap fallback chunk) or
  // the front chunk was partially consumed.
  uint64_t rx_zc_ships() const { return rx_zc_ships_; }
  uint64_t rx_copy_ships() const { return rx_copy_ships_; }
  // Same split for datagrams (kDgramRecvZc vs copied kDgramRecv).
  uint64_t dgram_zc_ships() const { return dgram_zc_ships_; }
  uint64_t dgram_copy_ships() const { return dgram_copy_ships_; }

 private:
  // Per-VM stack plumbing, reset by every AttachVm.
  struct VmStack {
    tcp::CcFactory cc_factory;  // optional override
    // Chunk allocator handed to the stacks so inbound bytes land directly in
    // this VM's hugepage pool (the RX zero-copy datapath). Shared by every
    // socket of the VM; guarded by alive_ against stack-teardown-after-death.
    std::shared_ptr<tcp::ChunkAllocator> rx_allocator;
  };
  struct PendingTx {
    uint64_t ptr = 0;
    uint32_t size = 0;
    uint32_t consumed = 0;
    // Zero-copy chunk: handed to the stack by reference (all-or-nothing) and
    // freed only when the byte range is ACKed (kSendZcComplete).
    bool zc = false;
  };
  struct Conn : NsmSocket {
    tcp::SocketId sid = tcp::kInvalidSocket;
    // Datagram sockets live in the UDP stack; sid stays invalid for them.
    bool dgram = false;
    udp::SocketId usid = udp::kInvalidSocket;
    bool linked = false;    // guest handle known (post-accept link)
    bool listener = false;
    bool fin_sent_to_vm = false;
    bool ship_pending = false;
    bool close_pending = false;
    int sends_in_flight = 0;  // kSend copies charged but not yet queued
    uint64_t rx_outstanding = 0;
    std::deque<PendingTx> pending_tx;
  };

  void Dispatch(const shm::Nqe& nqe) override;
  size_t ReleaseVmState(uint8_t vm_id, shm::HugepagePool* pool) override;

  Conn* FindByVm(uint8_t vm_id, uint32_t vm_sock) {
    return static_cast<Conn*>(FindSocket(vm_id, vm_sock));
  }
  Conn* FindBySid(tcp::SocketId sid);
  Conn* FindByUsid(udp::SocketId usid);
  Conn& NewConn(uint8_t vm_id, uint8_t vm_qset, uint32_t vm_sock);
  void InstallDataCallbacks(Conn& c);

  // NQE handlers.
  void DoSocket(const shm::Nqe& nqe);
  void DoBind(const shm::Nqe& nqe, Conn& c);
  void DoListen(const shm::Nqe& nqe, Conn& c);
  void DoConnect(const shm::Nqe& nqe, Conn& c);
  void DoAcceptLink(const shm::Nqe& nqe);
  void DoSend(const shm::Nqe& nqe, Conn& c);  // kSend and kSendZc
  void DoClose(Conn& c);
  void MaybeFinishClose(tcp::SocketId sid);
  void DrainPendingTx(Conn& c);
  // Builds the on-ACK free callback for a zero-copy chunk: frees it into the
  // VM's pool and returns the send credit via kSendZcComplete. Safe to fire
  // from TcpStack teardown after this ServiceLib or the VM is gone.
  std::function<void()> MakeZcFreeCallback(const Conn& c, uint64_t ptr, uint32_t size);
  // A zero-copy chunk that can no longer reach the stack: free it and return
  // the credit with an error status.
  void FailZcTx(const Conn& c, uint64_t ptr, uint32_t size);

  // Datagram (SOCK_DGRAM) handlers.
  void DoSocketUdp(const shm::Nqe& nqe);
  void DoBindUdp(const shm::Nqe& nqe, Conn& c);
  void DoSendTo(const shm::Nqe& nqe, Conn& c);
  void DoSendToZc(const shm::Nqe& nqe, Conn& c);
  void DoCloseDgram(Conn& c);
  void MaybeFinishCloseDgram(udp::SocketId usid);
  // Datagram receive shipping (udp stack -> hugepages -> kDgramRecv NQEs).
  void ShipDgrams(udp::SocketId usid);
  // On-commit free callback for a zero-copy datagram chunk: frees it into the
  // VM's pool and returns the send credit via kSendToResult (orig kSendToZc).
  std::function<void()> MakeDgramZcFreeCallback(const Conn& c, uint64_t ptr, uint32_t size);

  // Receive shipping (stack -> hugepages -> kRecvData NQEs).
  void ShipRecv(tcp::SocketId sid);
  // A kRecvData died at a full ring after its bytes left the stack: the
  // stream is broken — error the connection (retries until the FIN fits).
  void DeliverErrorFin(tcp::SocketId sid);
  void AutoAccept(tcp::SocketId listener_sid);

  tcp::TcpStack* stack_;
  udp::UdpStack* udp_stack_;
  Config config_;

  std::unordered_map<uint8_t, VmStack> vm_stacks_;
  std::unordered_map<tcp::SocketId, std::unique_ptr<Conn>> by_sid_;  // owner
  std::unordered_map<udp::SocketId, std::unique_ptr<Conn>> by_usid_;  // owner (dgram)
  std::unique_ptr<Conn> pending_owner_;  // freshly built Conn awaiting indexing
  uint64_t rx_zc_ships_ = 0;
  uint64_t rx_copy_ships_ = 0;
  uint64_t dgram_zc_ships_ = 0;
  uint64_t dgram_copy_ships_ = 0;
  // Liveness token captured by zero-copy free callbacks held inside TcpStack
  // send buffers: the stack outlives this ServiceLib in the owning Nsm, so a
  // callback firing during stack teardown must become a no-op.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace netkernel::core

#endif  // SRC_CORE_SERVICELIB_H_
