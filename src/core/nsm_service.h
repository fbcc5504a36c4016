// Copyright (c) NetKernel reproduction authors.
// NsmService: the NQE front-end every Network Stack Module shares (paper
// §4.5, §6.4). Every NSM speaks one NQE protocol to CoreEngine; only the
// transport behind it differs. This base owns everything that does not depend
// on that transport:
//
//   * the ring driver: device wakeups, the send-before-job queue-set drain,
//     the servicelib_translate charge on cores[qs % n], and the unwind of
//     stragglers that race a Shutdown, a Wedge or a VM eviction;
//   * the nkguard IsGuestToNsmOp prefilter in front of every Dispatch;
//   * NSM->VM emission (EnqueueToVm/Respond) with drop counting, flight
//     events, coalesced CoreEngine doorbells and the T2/T3 tracer stamps;
//   * the VM table, the (vm_id, vm_sock) socket index and orphan-send parking;
//   * liveness (heartbeat, Wedge) and recoverable teardown: EvictVm (one VM)
//     and Shutdown (every VM), both of which sweep the device rings and
//     return every referenced chunk to its owning pool.
//
// Two transports derive from it: ServiceLib (a TCP/UDP stack) and
// ShmServiceLib (hugepage-to-hugepage copies between colocated VMs). Each
// keeps only its Dispatch switch, its per-VM state teardown and OnRecvCredit.

#ifndef SRC_CORE_NSM_SERVICE_H_
#define SRC_CORE_NSM_SERVICE_H_

#include <array>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/core/coreengine.h"
#include "src/netsim/packet.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/shm/hugepage_pool.h"
#include "src/shm/nk_device.h"
#include "src/sim/cpu.h"

namespace netkernel::core {

class NsmService {
 public:
  virtual ~NsmService() = default;
  NsmService(const NsmService&) = delete;
  NsmService& operator=(const NsmService&) = delete;
  NsmService(NsmService&&) = delete;
  NsmService& operator=(NsmService&&) = delete;

  // Registers a VM served by this NSM. `pool` is the hugepage region shared
  // with that VM; `vm_ip` is the address its connections use. Re-attaching
  // an evicted VM reinstates it with fresh state.
  virtual void AttachVm(uint8_t vm_id, shm::HugepagePool* pool, netsim::IpAddr vm_ip);

  // Per-VM teardown for nkguard quarantine: exactly one VM's transport state
  // is torn down (stream connections aborted, zc frees fired, endpoints
  // closed), its NQEs are swept out of the shared device rings with payload
  // chunks returned to its pool, and its orphan sends are freed, while every
  // co-tenant's state and ring entries stay untouched. The VM table entry is
  // kept (marked evicted) so stragglers already charged to a core unwind
  // their chunks into the pool instead of leaking; a later AttachVm
  // reinstates the VM cleanly.
  //
  // Returns the send completions the guest is still owed: those the
  // teardown produced (zero-copy chunks freed by the abort) or found queued
  // toward the VM, plus error completions for sends swept out of the
  // inbound rings. The switch no longer routes toward an evicted VM, so the
  // caller delivers them on the guest's own device.
  std::vector<shm::Nqe> EvictVm(uint8_t vm_id);

  // Kills this NSM with recoverable accounting: call after the device was
  // deregistered from CoreEngine. Runs the EvictVm teardown for every
  // attached VM, then drains the now-unreachable device rings. Afterwards
  // every hugepage chunk this NSM ever touched is either back in its pool or
  // owned by the guest — nothing strands in dead rings. Idempotent, and safe
  // to race with an in-flight dispatch round: NQEs already charged to a core
  // when the teardown runs are unwound (chunks freed) instead of dispatched
  // against dead state.
  void Shutdown();

  // Shared-memory receive credit: GuestLib freed `bytes` of a chunk.
  virtual void OnRecvCredit(uint8_t vm_id, uint32_t vm_sock, uint32_t bytes) = 0;

  // ---- Liveness (failover detection inputs) ----
  // Periodically reports this NSM alive to CoreEngine (CeOp::kHeartbeat).
  // The beat self-cancels on Shutdown or Wedge — a dead or stalled NSM goes
  // silent, which is exactly what the failover controller watches for.
  void StartHeartbeat(SimTime period);
  void StopHeartbeat();
  // Chaos hook: the NSM stays registered but stops consuming its rings and
  // stops heartbeating — the "alive process, stalled datapath" failure mode.
  // Backlog piles up in the device's job/send rings until the controller
  // declares it wedged and fails it over.
  void Wedge();
  bool wedged() const { return wedged_; }
  uint64_t heartbeats_sent() const { return heartbeats_sent_; }

  uint8_t nsm_id() const { return nsm_id_; }
  uint64_t nqes_processed() const { return nqes_processed_; }
  // NSM->VM NQEs lost to a full NSM-side ring (severe overload).
  uint64_t nqes_dropped() const { return nqes_dropped_; }
  // Inbound NQEs refused by the guest->nsm prefilter (defense in depth
  // behind nkguard — nonzero means something got past the CoreEngine) or
  // unwound because their VM was evicted mid-flight.
  uint64_t guard_drops() const { return guard_drops_; }
  // Wakeup coalescing: CoreEngine doorbells actually rung, and enqueues that
  // piggybacked on an already-pending doorbell (the saved wakeups). All
  // NSM->VM NQEs produced within one event-loop instant — a batched dispatch
  // round, across queue sets and across the VMs multiplexed onto this NSM —
  // ride a single NotifyNsmOutbound (paper Fig 8/Table 4).
  uint64_t doorbells() const { return doorbells_; }
  uint64_t doorbells_coalesced() const { return doorbells_coalesced_; }

  // ---- Observability (nkobs) ----
  // Attaches the sampled lifecycle tracer: T2 (NSM-dispatch) stamps when a
  // traced NQE enters Dispatch, T3 (completion-enqueue) when its synchronous
  // completion rings back toward the VM.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  // This NSM's datapath flight recorder (zc chunk frees, ring-full drops,
  // shutdown and eviction drains).
  const obs::FlightRecorder& recorder() const { return recorder_; }

 protected:
  // The guest socket an NSM->VM NQE answers, and the NSM queue set serving
  // it. ServiceLib's connections and ShmServiceLib's endpoints extend it.
  struct NsmSocket {
    uint8_t vm_id = 0;
    uint8_t vm_qset = 0;
    uint32_t vm_sock = 0;
    uint8_t nsm_qset = 0;
  };
  // One per VM id; a null pool means the VM never attached.
  struct VmInfo {
    shm::HugepagePool* pool = nullptr;
    netsim::IpAddr ip = 0;
    // Evicted (quarantined or shut down) VM: the entry stays so in-flight
    // stragglers can still unwind chunks into the pool, but no new state is
    // built.
    bool evicted = false;
  };

  // `cores` are the NSM cores the per-NQE `translate_cost` is charged on
  // (queue set qs on cores[qs % cores.size()]).
  NsmService(sim::EventLoop* loop, uint8_t nsm_id, CoreEngine* ce, shm::NkDevice* dev,
             std::vector<sim::CpuCore*> cores, Cycles translate_cost);

  // Handles one admitted guest->NSM NQE: the prefilter and the evicted-VM
  // check already ran, and reserved[2] carries the processing queue set.
  virtual void Dispatch(const shm::Nqe& nqe) = 0;
  // Tears down every socket/endpoint of `vm_id`, returning chunks it still
  // holds to `pool`. Ring entries and orphan sends are the base's job.
  // Returns the number of sockets torn down.
  virtual size_t ReleaseVmState(uint8_t vm_id, shm::HugepagePool* pool) = 0;

  // Reply target for an NQE that has no socket state (yet).
  static NsmSocket ReplyTo(const shm::Nqe& nqe);

  NsmSocket* FindSocket(uint8_t vm_id, uint32_t vm_sock);
  void IndexSocket(NsmSocket* s);
  void UnindexSocket(const NsmSocket& s);

  // A per-socket NQE whose socket is unknown. A send can overtake its
  // socket's accept-link NQE (they travel on different rings): park it until
  // TakeOrphans. A datagram send whose socket already closed (a kClose
  // overtook it through the job ring) is lost — UDP loses datagrams — but
  // its payload chunk goes back to the pool. A close of an unknown socket
  // fails the sends parked for it.
  void OnUnknownSocket(const shm::Nqe& nqe);
  std::vector<shm::Nqe> TakeOrphans(uint8_t vm_id, uint32_t vm_sock);
  // Returns the payload chunk of a send-family NQE to the owning VM's pool
  // (teardown unwinding).
  void FreeNqeChunk(const shm::Nqe& nqe);

  // NSM -> VM NQEs. EnqueueToVm returns false when the destination ring is
  // full and the NQE was dropped (the caller owns any referenced chunk).
  bool EnqueueToVm(const NsmSocket& s, shm::Nqe nqe, bool receive_ring);
  void Respond(const NsmSocket& s, shm::NqeOp op, shm::NqeOp orig, int32_t result,
               uint64_t op_data = 0);

  sim::EventLoop* loop_;
  std::vector<sim::CpuCore*> cores_;
  std::array<VmInfo, shm::kNumIds> vms_{};
  obs::FlightRecorder recorder_;

 private:
  void OnDeviceWake();
  void ProcessQueueSet(int qs);
  // The prefilter and evicted-VM unwind in front of Dispatch.
  void Admit(const shm::Nqe& nqe);
  void RingDoorbell();
  void ScheduleHeartbeat();
  // Marks the VM evicted, tears down its transport state and orphan sends.
  size_t ReleaseVm(uint8_t vm_id, VmInfo& vm);
  // A parked orphan send whose accept-link will never come: its chunk goes
  // back to the pool and its send credit back to the guest, error status.
  void FailOrphan(const shm::Nqe& send);
  // Drains every device ring, re-enqueueing in order the NQEs `match` does
  // not select. Selected sends and received data free their chunks; the
  // send completions the guest is owed (queued ones, and an error
  // completion per swept send) are returned.
  std::vector<shm::Nqe> SweepRings(const std::function<bool(const shm::Nqe&)>& match);

  uint8_t nsm_id_;
  CoreEngine* ce_;
  shm::NkDevice* dev_;
  Cycles translate_cost_;
  std::unordered_map<uint64_t, NsmSocket*> by_vm_;
  // Sends that arrived before their socket's accept-link NQE.
  std::unordered_map<uint64_t, std::vector<shm::Nqe>> orphan_sends_;
  std::vector<bool> drain_scheduled_;
  obs::Tracer* tracer_ = nullptr;
  uint64_t nqes_processed_ = 0;
  uint64_t nqes_dropped_ = 0;
  uint64_t guard_drops_ = 0;
  bool doorbell_pending_ = false;
  uint64_t doorbells_ = 0;
  uint64_t doorbells_coalesced_ = 0;
  bool shutdown_ = false;
  bool wedged_ = false;
  SimTime heartbeat_period_ = 0;  // 0 = heartbeat not running
  sim::EventHandle heartbeat_timer_;
  uint64_t heartbeats_sent_ = 0;
};

}  // namespace netkernel::core

#endif  // SRC_CORE_NSM_SERVICE_H_
