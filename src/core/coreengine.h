// Copyright (c) NetKernel reproduction authors.
// CoreEngine: the software switch on the hypervisor that moves NQEs between
// VM and NSM NK devices (paper §4.3-§4.4).
//
// Responsibilities reproduced here:
//   * NQE switching through one socket table per shard, keyed by the guest
//     socket <VM id, socket id> and mapping it to <NSM id, NSM queue set>;
//     stream and datagram sockets share the table and differ only in how an
//     NSM's death unwinds them (an error FIN vs. a silent re-home);
//   * flexible VM -> NSM mapping (multiplexing several VMs onto one NSM and
//     switching a VM's NSM on the fly);
//   * weighted deficit-round-robin polling over the VM queue sets (per-VM
//     weights via SetVmWeight, cursor rotated across rounds so no registrant
//     keeps a head-of-line advantage), plus optional per-VM token buckets
//     (bytes/s and ops/s) for isolation (§7.6);
//   * per-destination backpressure: a delivery that finds its ring full is
//     parked in a bounded per-device pending queue and retried on later
//     rounds; beyond the bound the NQE is dropped with an error completion
//     returned to the guest so send credits and hugepage chunks never leak;
//   * batched polling (cycles per switched NQE shrink with batch size,
//     calibrated against Fig 11);
//   * the control plane: NK device (de)registration via 8-byte
//     <ce_op, ce_data> messages (§5);
//   * per-VM observability (PerVmStats) so fairness and isolation are
//     assertable rather than eyeballed.
//
// The table keeps no NSM socket id. The paper's Fig 6 completes each entry
// with the id the NSM returns for a new socket (step 4), but nothing on the
// switch ever reads it: the NSM front-end (NsmService) finds its socket by the
// same <VM id, socket id> key the NQE already carries, and responses route
// toward the VM by the VM id and queue set they name. So an entry is final
// the moment it is inserted, and the NSM response path never writes a table.
//
// Multi-core switching (Fig 11's single-core wall): CoreEngine is an N-shard
// switch. Each CoreEngineShard busy-polls on its own dedicated hypervisor
// core and owns a *disjoint* set of VM queue sets and NSM queue sets, plus
// the socket-table entries, parked deliveries, and DRR state routed through
// them. No mutex is charged to a switched NQE: every queue set has exactly
// one owning shard, and a shard's socket table is written only by that
// shard's own routing and teardown (single-writer state, in the spirit of
// wait-free handoff constructions). Ownership moves only via explicit
// handoff events executed at a shard's round boundary — work-stealing
// rebalance migrates a queue set from an overloaded shard to an idle one,
// carrying its table entries and parked deliveries so NQE conservation and
// per-connection ordering survive the move. Placement defaults to a hash of
// the <vm, queue set> id and can be pinned with AssignQueueSetToShard.
//
// In this single-threaded DES the shards share the event loop, so cross-shard
// interactions that a real implementation would carry on MPSC handoff rings
// (a completion arriving on a queue set owned by a different shard than the
// connection's VM side, or two shards draining parked deliveries for the same
// contended destination) are modeled as direct calls through the CoreEngine
// facade. The facade arbitrates contended destinations by draining the
// per-shard parked FIFOs in weighted round-robin, so DRR weights keep their
// meaning even when competing VMs live on different shards.
//
// Every piece of per-VM and per-NSM state is indexed by the one-byte id the
// NQE already carries (Fig 3), never hashed. The facade keeps one VmReg and
// one NsmReg record per id: the device, the queue set -> shard placement, the
// park-drain cursor, and for VMs the NSM assignment, DRR weight and token
// buckets, for NSMs the liveness stamp. A record whose device is null is
// unregistered, so deregistration resets exactly one record. Each shard keeps
// its DRR state, owned NSM queue sets and per-VM stats in id-indexed arrays,
// and parks deliveries per destination slot (the VM id, or kNumIds + the NSM
// id). The park drain visits slots in ascending order, so which destination
// retries first never depends on heap addresses.

#ifndef SRC_CORE_COREENGINE_H_
#define SRC_CORE_COREENGINE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/token_bucket.h"
#include "src/guard/nqe_validator.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/shm/nk_device.h"
#include "src/sim/cpu.h"
#include "src/sim/event_loop.h"
#include "src/tcpstack/cost_model.h"

namespace netkernel::core {

// Control-plane operations (8-byte network messages, paper §5). Devices
// register and deregister through the direct CoreEngine API (a device is a
// pointer, which an 8-byte message cannot carry); the channel carries only
// placement, the per-VM counter read and NSM liveness.
enum class CeOp : uint32_t {
  kAssignVmToNsm = 5,
  // ce_data = vm_id << 16 | queue_set << 8 | shard. Pins a VM queue set to a
  // switching shard (overrides hash placement and work-stealing moves it
  // back only if that shard overloads again).
  kAssignQsetToShard = 6,
  // Per-VM isolation counter read over the 8-byte channel: ce_data =
  // vm_id << 16 | VmStatField << 8 | word, where word selects the low (0) or
  // high (1) 32 bits of the raw 64-bit counter. Two reads assemble the full
  // value (WideVmStat), so no counter ever saturates.
  kQueryVmStatWide = 8,
  // ce_data = nsm_id. Periodic NSM liveness beacon (the CeMessage twin of the
  // reserved NqeOp::kHeartbeat wire number): refreshes the NSM's health entry
  // so the failover controller can tell a quiet-but-alive NSM from a dead one.
  kHeartbeat = 9,
  kOk = 100,
  kError = 101,
};

// Assembles the two kQueryVmStatWide response words into the raw counter.
constexpr uint64_t WideVmStat(uint32_t lo, uint32_t hi) {
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

// Selector for kQueryVmStatWide and QueryVmStat.
enum class VmStatField : uint8_t {
  kSwitched = 0,
  kDropped = 1,
  kThrottled = 2,
  kBytes = 3,
  kDeferred = 4,
};

struct CeMessage {
  uint32_t ce_op = 0;
  uint32_t ce_data = 0;
};
static_assert(sizeof(CeMessage) == 8, "control messages are 8 bytes (paper §5)");

// Error result CoreEngine stamps into synthesized completions when it cannot
// route or deliver an NQE (no NSM assigned, NSM deregistered, or the pending
// delivery bound was exceeded). Mirrors -ENETUNREACH.
constexpr int32_t kCeNetUnreach = -101;

struct CoreEngineConfig {
  // NQEs drained per NSM ring per polling round; also the DRR quantum (NQEs
  // a weight-1 VM may switch per round), so tuning batch (the ablation knob)
  // scales both sides.
  int batch = 16;
  // Deliveries parked per destination device (per shard) before backpressure
  // reaches the source rings (routing defers, NQEs stay queued guest-side).
  // Deliveries already planned when the bound trips are dropped with error
  // completions back to the guest. Must be >= 1.
  size_t pending_bound = 1024;
  // Number of switching shards (dedicated CE cores). Host reads this to size
  // its CE core pool; when constructing CoreEngine directly, the number of
  // cores passed to the constructor wins.
  int shards = 1;
  // Work-stealing rebalance: at a round boundary, a shard whose owned VM
  // queue sets hold >= steal_backlog queued NQEs sheds its most backlogged
  // queue set to a shard with no VM backlog at all. steal_cooldown_rounds
  // throttles how often one shard may shed.
  uint64_t steal_backlog = 64;
  uint64_t steal_cooldown_rounds = 8;
  // nkguard: adversarial-guest NQE validation at ring-consume time (see
  // src/guard/nqe_validator.h for the threat model and checks). Enabled by
  // default; the bench harness turns it off for the guard-off column.
  guard::GuardConfig guard;
  tcp::NetkernelCosts costs;
};

// Per-VM slice of the switch's work, keyed by VM id. `switched` counts NQEs
// actually delivered into a destination ring (both directions), so fairness
// tests can assert shares of real service rather than of polling attempts.
// nklint: stats
struct PerVmStats {
  uint64_t switched = 0;   // NQEs delivered (VM->NSM and NSM->VM)
  uint64_t dropped = 0;    // NQEs dropped (no route, or pending bound hit)
  uint64_t throttled = 0;  // NQEs deferred by this VM's token buckets
  uint64_t bytes = 0;      // payload bytes delivered (send + receive data)
  uint64_t deferred = 0;   // deliveries parked on a full destination ring
};

// Sums one VM's per-shard slices (CoreEngine::stats() and VmStats()).
inline PerVmStats& operator+=(PerVmStats& a, const PerVmStats& b) {
  a.switched += b.switched;
  a.dropped += b.dropped;
  a.throttled += b.throttled;
  a.bytes += b.bytes;
  a.deferred += b.deferred;
  return a;
}

// nklint: stats
struct CoreEngineStats {
  uint64_t nqes_switched = 0;
  uint64_t rounds = 0;
  uint64_t table_inserts = 0;
  uint64_t throttled_nqes = 0;  // deferred by a token bucket
  uint64_t send_bytes_switched = 0;
  uint64_t dgram_nqes_switched = 0;  // connectionless (UDP) NQEs
  uint64_t nqes_dropped = 0;         // every drop, anywhere in the switch
  uint64_t deliveries_deferred = 0;  // parked on a full destination ring
  uint64_t qset_migrations = 0;      // queue sets handed off between shards
  std::array<PerVmStats, shm::kNumIds> per_vm{};  // indexed by VM id
};

class CoreEngine;

// One switching core of the N-shard CoreEngine. Owns a disjoint set of VM
// queue sets (polled with weighted DRR against the engine-wide per-VM
// weights) and NSM queue sets, the socket-table entries routed through them,
// and per-destination parked-delivery FIFOs. All datapath state here is
// single-writer: only this shard touches it, except during an explicit
// queue-set handoff executed at this shard's round boundary.
class CoreEngineShard {
 public:
  CoreEngineShard(CoreEngine* engine, int index, sim::CpuCore* core);

  sim::CpuCore* core() { return core_; }
  int index() const { return index_; }
  // This shard's slice of the switch counters (aggregate via CoreEngine).
  const CoreEngineStats& stats() const { return stats_; }
  size_t ParkedDeliveries() const { return parked_total_; }
  // This shard's datapath flight recorder (drops, parks, migrations, ...).
  const obs::FlightRecorder& recorder() const { return recorder_; }

 private:
  friend class CoreEngine;

  // Where one guest socket's NQEs go. vm_qset records which VM queue set the
  // socket lives on, so the entry migrates with its queue set on a shard
  // handoff and an NSM-death FIN lands where the guest reaps it.
  struct SocketEntry {
    uint8_t nsm_id = 0;
    uint8_t nsm_qset = 0;
    uint8_t vm_qset = 0;
    // Connectionless socket: counts toward dgram_nqes_switched, and an NSM's
    // death erases it silently (the next datagram op re-homes) instead of
    // sending the guest an error FIN.
    bool dgram = false;
  };
  // Per-VM deficit-round-robin state over the queue sets this shard owns.
  struct VmSched {
    std::vector<uint8_t> qsets;  // owned queue sets of this VM
    // Deficit accrues quantum * weight per round and is spent one NQE at a
    // time, so service converges on the weight ratio no matter the
    // registration order.
    uint64_t deficit = 0;
    // Rotates per polling chunk so a backlogged queue set cannot consume
    // the whole deficit and starve the VM's other owned queue sets.
    int cursor = 0;
  };
  // Destination slots: a VM device is slot vm_id, an NSM device is slot
  // kNumIds + nsm_id, so per-destination state is one array.
  static constexpr size_t kNumSlots = 2 * shm::kNumIds;
  static uint16_t VmSlot(uint8_t vm_id) { return vm_id; }
  static uint16_t NsmSlot(uint8_t nsm_id) {
    return static_cast<uint16_t>(shm::kNumIds + nsm_id);
  }
  struct Delivery {
    shm::NkDevice* dst = nullptr;
    uint16_t slot = 0;  // dst's destination slot
    int qset = 0;
    shm::RingKind ring = shm::RingKind::kJob;
    shm::Nqe nqe;
    // NSM->VM (or CE-synthesized completion).
    bool toward_vm() const { return slot < shm::kNumIds; }
  };

  void AddVmQset(uint8_t vm_id, uint8_t qset);
  void RemoveVmQset(uint8_t vm_id, uint8_t qset);
  void AddNsmQset(uint8_t nsm_id, uint8_t qset);
  // Deregistration teardown of everything this shard holds for the device.
  void RemoveVm(uint8_t vm_id);
  // Returns how many established stream connections were errored with FINs.
  size_t RemoveNsm(uint8_t nsm_id, bool was_registered);
  // Executes queue-set handoffs that were requested while a delivery plan
  // was in flight (runs at the round boundary, when in_flight_total_ == 0).
  void ExecutePendingHandoffs();
  // Queued NQEs in this shard's owned VM queue sets (the overload signal).
  uint64_t VmBacklog() const;
  uint64_t VmQsetBacklog(uint8_t vm_id, uint8_t qset) const;
  bool OwnedVmHasOutbound(uint8_t vm_id, const VmSched& vs) const;

  void ScheduleRound();
  void ProcessRound();
  // Routes up to `limit` NQEs from `vm`'s owned queue sets (send ring before
  // job ring per set; a kClose waits while its queue set's send ring still
  // holds NQEs). A throttled/backpressured ring sets the matching blocked
  // flag so later passes of the same round skip it.
  uint64_t PollVm(uint8_t vm_id, VmSched& vs, uint64_t limit, std::vector<Delivery>& plan,
                  Cycles& cost, SimTime* retry_at, bool* send_blocked, bool* job_blocked);
  // nkguard admission at ring-consume time: scrubs guest-written flag bytes,
  // validates the NQE against the protocol contract, and on violation
  // consumes it from `ring` and handles the reject (error completion per
  // policy, counters, flight event, quarantine trip). Returns true when the
  // NQE was admitted and may be routed; false when it was consumed here.
  bool GuardAdmit(shm::Nqe* nqe, shm::SpscRing<shm::Nqe>* ring, bool from_send_ring,
                  uint8_t vm_id, uint8_t qset, std::vector<Delivery>& plan, Cycles& cost);
  // Routes one VM->NSM NQE through the socket table; returns false if it
  // must stay queued (throttled, or its destination is backpressured).
  bool RouteVmNqe(const shm::Nqe& nqe, bool from_send_ring, std::vector<Delivery>& plan,
                  Cycles& cost, SimTime* retry_at);
  // Routes one NSM->VM NQE; returns false if it must stay queued (the VM
  // device's pending queue is at the bound — backpressure toward the NSM).
  bool RouteNsmNqe(const shm::Nqe& nqe, std::vector<Delivery>& plan);

  // Picks the NSM queue set for a new socket: prefer a queue set of that NSM
  // owned by *this* shard, so the response path stays core-local; fall back
  // to a global hash when this shard owns none (the responses are then
  // polled by another shard, which routes them by VM id alone).
  uint8_t ChooseNsmQset(uint8_t nsm_id, const shm::NkDevice* ndev, uint64_t key) const;

  // The switch could not route `orig`: count the drop and, for ops whose
  // guest holds state (a waiting control op, a send credit, a hugepage
  // chunk), append the error completion to `plan`. Always returns true so
  // routing callers can `return FailVmNqe(...)` to consume the NQE.
  bool FailVmNqe(const shm::Nqe& orig, std::vector<Delivery>& plan);
  // True when the outstanding deliveries (parked + planned-but-not-yet-
  // delivered) toward destination `slot` are at this shard's bound: routing
  // toward it must defer at the source ring (backpressure) instead of
  // planning a delivery that would be dropped.
  bool Backpressured(uint16_t slot) const;
  // Appends `d` to the round's plan, counting it outstanding for its
  // destination until the delivery phase processes it.
  void PlanDelivery(const Delivery& d, std::vector<Delivery>& plan);
  // Builds the guest-facing error completion for `orig`; false if the op
  // needs none (kClose/kAccept/kRecvFrom carry no reclaimable guest state).
  bool BuildErrorCompletion(const shm::Nqe& orig, Delivery* out);

  // Delivery phase: parked deliveries retry first (per-device FIFO drained
  // through the facade so contended destinations are shared by weight),
  // then the round's plan. Returns how many NQEs landed in rings.
  size_t DeliverPlan(const std::vector<Delivery>& plan);
  bool TryDeliver(const Delivery& d, std::vector<shm::NkDevice*>& to_wake);
  void ParkOrDrop(const Delivery& d, std::vector<Delivery>& errors);
  void DropDelivery(const Delivery& d, std::vector<Delivery>& errors);
  // Deliveries parked toward `slot` (0 if none).
  size_t ParkedFor(uint16_t slot) const { return parked_[slot] ? parked_[slot]->size() : 0; }
  // The FIFO for `slot`, created on its first park and kept afterwards.
  std::deque<Delivery>& ParkFifo(uint16_t slot);
  // Facade hooks for the cross-shard weighted park drain.
  bool PeekParkedVm(uint16_t slot, uint8_t* vm_id) const;
  bool TryDeliverParkedFront(uint16_t slot, std::vector<shm::NkDevice*>& to_wake);
  // Discards parked deliveries destined for a deregistering device.
  void PurgePark(uint16_t slot, bool synthesize_errors);
  void ArmParkRetry();

  CoreEngine* engine_;
  int index_;
  sim::CpuCore* core_;

  std::vector<uint8_t> vm_rr_order_;  // VMs with owned queue sets, DRR order
  std::array<VmSched, shm::kNumIds> sched_;  // by VM id; empty qsets = none owned
  std::vector<uint8_t> nsm_rr_order_;
  std::array<std::vector<uint8_t>, shm::kNumIds> nsm_qsets_;  // owned sets, by NSM id
  size_t vm_rr_cursor_ = 0;  // rotated every round: who gets polled first
  size_t nsm_rr_cursor_ = 0;

  // Keyed by CoreEngine::SocketKey(vm_id, vm_sock); written only by this
  // shard (routing, teardown) and by a queue-set handoff at a round boundary.
  std::unordered_map<uint64_t, SocketEntry> socket_table_;

  bool round_scheduled_ = false;
  sim::EventHandle retry_timer_;
  sim::EventHandle park_timer_;
  // Backpressure: deliveries that found their destination ring full, FIFO
  // per destination slot, bounded by config.pending_bound (a per-shard quota;
  // the facade drains competing shards' FIFOs for one device by VM weight).
  // A FIFO is allocated on its slot's first park: a deque allocates even
  // when empty, and most slots never park.
  std::array<std::unique_ptr<std::deque<Delivery>>, kNumSlots> parked_;
  size_t parked_total_ = 0;
  // Deliveries planned this/earlier rounds whose delivery phase has not run
  // yet, per destination slot; counted against the pending bound so a round
  // cannot overshoot it.
  std::array<uint32_t, kNumSlots> in_flight_{};
  size_t in_flight_total_ = 0;
  uint64_t rounds_since_rebalance_ = 0;
  // Explicit handoffs (AssignQueueSetToShard) requested mid-round; executed
  // at the next round boundary so in-flight deliveries land first.
  struct PendingHandoff {
    uint8_t vm_id = 0;
    uint8_t qset = 0;
    int to = 0;
  };
  std::vector<PendingHandoff> pending_handoffs_;
  CoreEngineStats stats_;
  obs::FlightRecorder recorder_;
};

// The N-shard switch facade. Owns the shards, the per-id VM and NSM records
// shared across them (devices, VM->NSM assignment, weights, token buckets,
// queue-set placement, NSM liveness), and the control plane. The public surface is unchanged
// from the single-core switch; with one shard the datapath is byte-for-byte
// the old single-core behavior.
class CoreEngine {
 public:
  // Single-core construction (one shard regardless of config.shards).
  CoreEngine(sim::EventLoop* loop, sim::CpuCore* core, CoreEngineConfig config = {});
  // One shard per core; cores.size() wins over config.shards.
  CoreEngine(sim::EventLoop* loop, std::vector<sim::CpuCore*> cores,
             CoreEngineConfig config = {});

  // ---- Control plane ----
  CeMessage HandleControlMessage(CeMessage req);
  void RegisterVmDevice(uint8_t vm_id, shm::NkDevice* dev);
  void RegisterNsmDevice(uint8_t nsm_id, shm::NkDevice* dev);
  void DeregisterVmDevice(uint8_t vm_id);
  // Tears the NSM out of the switch. Returns the number of established
  // stream connections that were errored with FINs toward their guests —
  // the failover controller's `reconnects_required` surface.
  size_t DeregisterNsmDevice(uint8_t nsm_id);
  // Maps a VM to an NSM. May be called again later ("switch NSM on the fly"):
  // established connections stay on their old NSM via the socket table;
  // new sockets go to the new NSM.
  void AssignVmToNsm(uint8_t vm_id, uint8_t nsm_id);
  // Pins a VM queue set to a shard (overrides hash placement). The handoff
  // is conservation-safe: table entries and parked deliveries move with the
  // queue set, deferred to the owning shard's round boundary if a delivery
  // plan is in flight. Returns false for an unknown VM/queue set/shard.
  bool AssignQueueSetToShard(uint8_t vm_id, uint8_t qset, int shard);
  // One per-VM counter, as kQueryVmStatWide reads it. Unknown VMs read as
  // zero, like VmStats().
  uint64_t QueryVmStat(uint8_t vm_id, VmStatField field) const;
  // Test hook: inflates one per-VM counter on shard 0 so the two-word read
  // past 2^32 is testable without switching four billion NQEs.
  void AddVmStatForTest(uint8_t vm_id, VmStatField field, uint64_t delta);

  // ---- nkguard (adversarial-guest NQE validation) ----
  // The validator shared by every shard (single-threaded DES; a real
  // multi-core switch would shard its per-VM state with the queue sets).
  guard::NqeValidator& validator() { return validator_; }
  const guard::NqeValidator& validator() const { return validator_; }
  // Invoked (deferred to a fresh event-loop instant, never mid-round) when a
  // VM's violations trip the kQuarantine policy threshold. The host side
  // owns deregistration and NSM-state teardown.
  void SetQuarantineCallback(std::function<void(uint8_t)> cb) {
    quarantine_cb_ = std::move(cb);
  }

  // ---- Observability (nkobs) ----
  // Attaches the sampled NQE lifecycle tracer; shards take the T1 CE-dequeue
  // stamp on traced NQEs and fold the stamp cost into the round's CPU charge.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }
  // Per-shard flight recorders and their merged human-readable tail.
  std::vector<const obs::FlightRecorder*> FlightRecorders() const;
  std::string DumpFlightRecorder(size_t last_k = 32) const;

  // ---- Isolation (per-VM egress policing, §4.4/§7.6) ----
  void SetVmByteRate(uint8_t vm_id, double bytes_per_sec, double burst_bytes);
  void SetVmOpRate(uint8_t vm_id, double nqes_per_sec, double burst_nqes);
  // DRR weight: a weight-w VM receives w/sum(weights) of the switch's NQE
  // service under contention. Default 1; must be >= 1.
  void SetVmWeight(uint8_t vm_id, uint32_t weight);
  uint32_t VmWeight(uint8_t vm_id) const;

  // ---- Datapath notifications (producers ring the doorbell) ----
  // qset >= 0 wakes only the shard owning that queue set; -1 wakes every
  // shard owning any of the device's queue sets.
  void NotifyVmOutbound(uint8_t vm_id, int qset = -1);
  void NotifyNsmOutbound(uint8_t nsm_id, int qset = -1);

  // ---- NSM health (failover detection inputs) ----
  // Liveness is derived from two signals: explicit CeOp::kHeartbeat beacons
  // and doorbell activity (a producing NSM is alive even if its heartbeat
  // timer is starved). The Host failover controller polls these.
  void RecordNsmHeartbeat(uint8_t nsm_id);
  // Instant of the last heartbeat or outbound doorbell (0 = never / unknown).
  SimTime NsmLastActivity(uint8_t nsm_id) const;
  uint64_t NsmHeartbeats(uint8_t nsm_id) const;
  // NQEs sitting unconsumed in the NSM device's inbound (job + send) rings:
  // a silent NSM with nonzero backlog is wedged, not merely idle.
  uint64_t NsmBacklog(uint8_t nsm_id) const;

  // Aggregated across shards (a fresh snapshot per call).
  CoreEngineStats stats() const;
  // Per-VM slice; zero-initialized if the VM never moved an NQE.
  PerVmStats VmStats(uint8_t vm_id) const;
  // Socket-table entries (stream and datagram) across every shard.
  size_t SocketTableSize() const;
  size_t ParkedDeliveries() const;
  int num_shards() const { return static_cast<int>(shards_.size()); }
  CoreEngineShard& shard(int i) { return *shards_[static_cast<size_t>(i)]; }
  const CoreEngineShard& shard(int i) const { return *shards_[static_cast<size_t>(i)]; }
  // Shard currently owning a queue set (-1 if unknown).
  int ShardOfVmQset(uint8_t vm_id, uint8_t qset) const;
  int ShardOfNsmQset(uint8_t nsm_id, uint8_t qset) const;
  sim::CpuCore* core() { return shards_[0]->core(); }

 private:
  friend class CoreEngineShard;

  // Weighted cross-shard park drain: continuation state per destination, so
  // the delivery stream interleaves shards exactly by VM weight no matter
  // where a sweep was cut off by a full ring.
  struct ParkCursor {
    size_t shard = 0;     // global shard index being visited
    uint64_t spent = 0;   // deliveries taken from it in the current visit
  };
  // Engine-wide per-VM record, shared by all shards (read-mostly; the token
  // buckets are the one piece of cross-shard mutable state, matching the
  // per-VM policers a real multi-core switch shares via atomics). Null dev =
  // unregistered; deregistration resets the whole record, so a re-registered
  // id starts with a fresh weight, buckets and placement.
  struct VmReg {
    shm::NkDevice* dev = nullptr;
    uint8_t nsm_id = 0;
    bool has_nsm = false;
    TokenBucket byte_bucket;
    TokenBucket op_bucket;
    uint32_t weight = 1;
    std::vector<int> qset_shard;  // queue set -> owning shard
    ParkCursor park;
  };
  // Per-NSM record. last_activity is refreshed by registration, heartbeats
  // and doorbells.
  struct NsmReg {
    shm::NkDevice* dev = nullptr;
    SimTime last_activity = 0;
    uint64_t heartbeats = 0;
    std::vector<int> qset_shard;  // queue set -> owning shard
    ParkCursor park;
  };

  static uint64_t SocketKey(uint8_t vm_id, uint32_t vm_sock) {
    return (static_cast<uint64_t>(vm_id) << 32) | vm_sock;
  }
  static uint16_t QsetKey(uint8_t id, uint8_t qset) {
    return static_cast<uint16_t>((static_cast<uint16_t>(id) << 8) | qset);
  }
  // Golden-ratio spread of a key over `n` buckets.
  static size_t HashSpread(uint64_t key, size_t n) {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL >> 32) % n);
  }

  VmReg* FindVm(uint8_t vm_id) { return vms_[vm_id].dev ? &vms_[vm_id] : nullptr; }
  shm::NkDevice* FindNsm(uint8_t nsm_id) { return nsms_[nsm_id].dev; }
  // An unregistered record holds the default weight 1.
  uint32_t VmWeightOrDefault(uint8_t vm_id) const { return vms_[vm_id].weight; }

  // Drains every shard's parked FIFO for destination `slot`. With one holder
  // this is the plain FIFO retry; with several, entries are taken in weighted
  // round-robin by the front NQE's VM so DRR weights hold across shards.
  size_t DrainParked(uint16_t slot, std::vector<shm::NkDevice*>& to_wake);

  // Work-stealing rebalance, called by `victim` at its round boundary (its
  // delivery plan has just landed, so the handoff is conservation-safe).
  void MaybeRebalance(CoreEngineShard* victim);
  // Moves one VM queue set between shards: ownership, socket-table entries,
  // and parked deliveries travel together, preserving per-device FIFO order.
  void MigrateVmQset(uint8_t vm_id, uint8_t qset, CoreEngineShard* from, CoreEngineShard* to);

  sim::EventLoop* loop_;
  CoreEngineConfig config_;
  guard::NqeValidator validator_;
  std::function<void(uint8_t)> quarantine_cb_;
  obs::Tracer* tracer_ = nullptr;
  std::vector<std::unique_ptr<CoreEngineShard>> shards_;
  std::array<VmReg, shm::kNumIds> vms_;    // by VM id
  std::array<NsmReg, shm::kNumIds> nsms_;  // by NSM id
};

}  // namespace netkernel::core

#endif  // SRC_CORE_COREENGINE_H_
