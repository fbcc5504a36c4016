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
//
// Stream and datagram sockets share one datapath: one owner table keyed by
// (socket kind, stack socket id) and one handler per job for socket
// creation, bind, send-to, zero-copy chunk frees, close and per-VM teardown.
// Only receive shipping stays per kind (ShipRecv/ShipDgrams): a receive NQE
// lost to a full ring breaks a byte stream (error FIN) but merely drops a
// datagram, so a merged shipper would branch on the kind at every step.

#ifndef SRC_CORE_SERVICELIB_H_
#define SRC_CORE_SERVICELIB_H_

#include <array>
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
  // Per-VM stack plumbing, one per VM id, reset by every AttachVm.
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
  // Which stack a socket lives in. Part of the owner-table key: stream and
  // datagram stack ids are both uint32_t counters and collide.
  enum class Kind : uint8_t { kStream, kDgram };
  struct Conn : NsmSocket {
    Kind kind = Kind::kStream;
    uint32_t sid = 0;       // tcp::SocketId or udp::SocketId, by kind
    bool linked = false;    // guest handle known (post-accept link)
    bool listener = false;
    bool fin_sent_to_vm = false;
    bool ship_pending = false;
    bool close_pending = false;
    int sends_in_flight = 0;  // send copies charged but not yet handed over
    uint64_t rx_outstanding = 0;
    std::deque<PendingTx> pending_tx;  // streams only
  };

  void Dispatch(const shm::Nqe& nqe) override;
  size_t ReleaseVmState(uint8_t vm_id, shm::HugepagePool* pool) override;

  static uint64_t Key(Kind kind, uint32_t sid) {
    return (static_cast<uint64_t>(kind) << 32) | sid;
  }
  Conn* FindByVm(uint8_t vm_id, uint32_t vm_sock) {
    return static_cast<Conn*>(FindSocket(vm_id, vm_sock));
  }
  Conn* Find(Kind kind, uint32_t sid);
  // Builds a Conn for stack socket (kind, sid) and makes the table own it.
  Conn& NewConn(Kind kind, uint32_t sid, uint8_t vm_id, uint8_t vm_qset, uint32_t vm_sock);
  void InstallDataCallbacks(Conn& c);

  // NQE handlers. The socket kind follows from the op (kSocket/kSocketUdp)
  // or from the Conn; Dispatch refuses ops of the other kind.
  void DoSocket(const shm::Nqe& nqe);          // kSocket and kSocketUdp
  void DoBind(const shm::Nqe& nqe, Conn& c);   // kBind and kBindUdp
  void DoListen(const shm::Nqe& nqe, Conn& c);
  void DoConnect(const shm::Nqe& nqe, Conn& c);
  void DoAcceptLink(const shm::Nqe& nqe);
  void DoSend(const shm::Nqe& nqe, Conn& c);    // kSend and kSendZc
  void DoSendTo(const shm::Nqe& nqe, Conn& c);  // kSendTo and kSendToZc
  void DoClose(Conn& c);
  // Finishes a pending close once nothing the socket owes is in flight: a
  // stream flushes its queued sends first, a datagram socket also waits for
  // a receive ship already charged to its core.
  void MaybeFinishClose(Kind kind, uint32_t sid);
  void DrainPendingTx(Conn& c);
  // Builds the free callback for a zero-copy chunk (`orig` = kSendZc or
  // kSendToZc): frees it into the VM's pool and returns the send credit as
  // `done` (kSendZcComplete on ACK, kSendToResult once the datagram is on
  // the wire). Safe to fire from stack teardown after this ServiceLib or the
  // VM is gone.
  std::function<void()> MakeZcFreeCallback(const Conn& c, shm::NqeOp done, shm::NqeOp orig,
                                           uint64_t ptr, uint32_t size);
  // A zero-copy stream chunk that can no longer reach the stack: free it and
  // return the credit with an error status.
  void FailZcTx(const Conn& c, uint64_t ptr, uint32_t size);

  // Receive shipping (stack -> hugepages -> kRecvData / kDgramRecv NQEs).
  void ShipRecv(tcp::SocketId sid);
  void ShipDgrams(udp::SocketId sid);
  // A kRecvData died at a full ring after its bytes left the stack: the
  // stream is broken — error the connection (retries until the FIN fits).
  void DeliverErrorFin(tcp::SocketId sid);
  void AutoAccept(tcp::SocketId listener_sid);

  tcp::TcpStack* stack_;
  udp::UdpStack* udp_stack_;
  Config config_;

  std::array<VmStack, shm::kNumIds> vm_stacks_;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;  // owner, by Key()
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
