// Copyright (c) NetKernel reproduction authors.
// ShmServiceLib: the shared-memory transport behind the shared NSM front-end
// (NsmService, paper §6.4). When two colocated VMs of the same user talk to
// each other, this NSM bypasses TCP entirely and copies message chunks
// between the two VMs' hugepage regions. The ring driver, guard prefilter,
// NQE emission, heartbeat, eviction and shutdown are NsmService's, so it
// speaks exactly the NQE protocol of the stack-backed ServiceLib and every
// NSM feature (failover, quarantine, tracing, metrics) applies unchanged;
// applications are oblivious. This file holds only the endpoint model: the
// Dispatch switch, the pool-to-pool copy pump and per-VM endpoint teardown.

#ifndef SRC_CORE_SHM_NSM_H_
#define SRC_CORE_SHM_NSM_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/nsm_service.h"
#include "src/tcpstack/cost_model.h"
#include "src/tcpstack/tcp_types.h"

namespace netkernel::core {

class ShmServiceLib : public NsmService {
 public:
  struct Config {
    tcp::NetkernelCosts costs;
    uint64_t rx_outstanding_cap = 1 * kMiB;
  };

  ShmServiceLib(sim::EventLoop* loop, uint8_t nsm_id, CoreEngine* ce, shm::NkDevice* dev,
                std::vector<sim::CpuCore*> cores, Config config);
  ShmServiceLib(sim::EventLoop* loop, uint8_t nsm_id, CoreEngine* ce, shm::NkDevice* dev,
                std::vector<sim::CpuCore*> cores);

  void OnRecvCredit(uint8_t vm_id, uint32_t vm_sock, uint32_t bytes) override;

  // Hugepage-to-hugepage payload bytes copied.
  uint64_t bytes_copied() const { return bytes_copied_; }

 private:
  struct PendingChunk {
    uint64_t ptr = 0;   // in the sender's pool
    uint32_t size = 0;
    // Arrived as kSendZc: answer with kSendZcComplete when the chunk frees
    // (for this NSM that is when the pool-to-pool copy lands — its transport
    // IS the copy, so "transmit complete" and "delivered" coincide).
    bool zc = false;
  };
  struct Endpoint : NsmSocket {
    uint64_t ep_id = 0;
    bool linked = false;
    uint64_t peer = 0;  // peer ep id (0 = none)
    netsim::IpAddr bound_ip = 0;
    uint16_t bound_port = 0;
    bool listening = false;
    uint64_t rx_outstanding = 0;  // bytes in peer->this direction not consumed
    std::deque<PendingChunk> pending;  // waiting for peer pool space / link
    bool copy_pending = false;
    bool fin_sent_to_vm = false;
    bool close_pending = false;
  };

  void Dispatch(const shm::Nqe& nqe) override;
  size_t ReleaseVmState(uint8_t vm_id, shm::HugepagePool* pool) override;

  Endpoint* FindByVm(uint8_t vm_id, uint32_t vm_sock) {
    return static_cast<Endpoint*>(FindSocket(vm_id, vm_sock));
  }
  Endpoint* FindByEp(uint64_t ep_id);
  void TryConnect(uint64_t ep_id, uint64_t addr, int attempt);
  void PumpCopy(uint64_t src_ep_id);
  void MaybeFinishClose(uint64_t ep_id);
  void DeliverFin(uint64_t ep_id, int32_t err);

  Config config_;
  std::unordered_map<uint64_t, std::unique_ptr<Endpoint>> eps_;
  std::unordered_map<uint64_t, uint64_t> listeners_;  // (ip<<16|port) -> ep id
  uint64_t next_ep_ = 1;
  uint64_t bytes_copied_ = 0;
};

}  // namespace netkernel::core

#endif  // SRC_CORE_SHM_NSM_H_
