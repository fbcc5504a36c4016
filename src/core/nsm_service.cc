// Copyright (c) NetKernel reproduction authors.

#include "src/core/nsm_service.h"

#include <string>

#include "src/common/check.h"
#include "src/guard/nqe_validator.h"

namespace netkernel::core {

using shm::MakeNqe;
using shm::Nqe;
using shm::NqeOp;

namespace {

uint64_t VmKey(uint8_t vm_id, uint32_t vm_sock) {
  return (static_cast<uint64_t>(vm_id) << 32) | vm_sock;
}

bool IsSendCompletion(NqeOp op) {
  return op == NqeOp::kSendResult || op == NqeOp::kSendZcComplete || op == NqeOp::kSendToResult;
}

}  // namespace

NsmService::NsmService(sim::EventLoop* loop, uint8_t nsm_id, CoreEngine* ce, shm::NkDevice* dev,
                       std::vector<sim::CpuCore*> cores, Cycles translate_cost)
    : loop_(loop),
      cores_(std::move(cores)),
      recorder_(loop, "nsm" + std::to_string(nsm_id) + ".svc"),
      nsm_id_(nsm_id),
      ce_(ce),
      dev_(dev),
      translate_cost_(translate_cost),
      drain_scheduled_(static_cast<size_t>(dev->num_queue_sets()), false) {
  NK_CHECK(!cores_.empty());
  dev_->SetWakeCallback([this] { OnDeviceWake(); });
}

void NsmService::AttachVm(uint8_t vm_id, shm::HugepagePool* pool, netsim::IpAddr vm_ip) {
  NK_CHECK(pool != nullptr);
  vms_[vm_id] = VmInfo{pool, vm_ip, false};
}

NsmService::NsmSocket NsmService::ReplyTo(const Nqe& nqe) {
  NsmSocket s;
  s.vm_id = nqe.vm_id;
  s.vm_qset = nqe.queue_set;
  s.vm_sock = nqe.vm_sock;
  s.nsm_qset = nqe.reserved[2];
  return s;
}

NsmService::NsmSocket* NsmService::FindSocket(uint8_t vm_id, uint32_t vm_sock) {
  auto it = by_vm_.find(VmKey(vm_id, vm_sock));
  return it == by_vm_.end() ? nullptr : it->second;
}

void NsmService::IndexSocket(NsmSocket* s) { by_vm_[VmKey(s->vm_id, s->vm_sock)] = s; }

void NsmService::UnindexSocket(const NsmSocket& s) { by_vm_.erase(VmKey(s.vm_id, s.vm_sock)); }

void NsmService::OnUnknownSocket(const Nqe& nqe) {
  if (nqe.Op() == NqeOp::kSend || nqe.Op() == NqeOp::kSendZc) {
    orphan_sends_[VmKey(nqe.vm_id, nqe.vm_sock)].push_back(nqe);
  }
  if (nqe.Op() == NqeOp::kSendTo || nqe.Op() == NqeOp::kSendToZc) {
    if (shm::HugepagePool* pool = vms_[nqe.vm_id].pool) pool->Free(nqe.data_ptr);
  }
  if (nqe.Op() == NqeOp::kClose) {
    // The accept-link rides the job ring ahead of the close, so sends still
    // parked for a socket closing unknown belong to state an eviction or
    // shutdown already tore down: their link will never come.
    for (const Nqe& orphan : TakeOrphans(nqe.vm_id, nqe.vm_sock)) FailOrphan(orphan);
  }
}

std::vector<Nqe> NsmService::TakeOrphans(uint8_t vm_id, uint32_t vm_sock) {
  auto it = orphan_sends_.find(VmKey(vm_id, vm_sock));
  if (it == orphan_sends_.end()) return {};
  std::vector<Nqe> orphans = std::move(it->second);
  orphan_sends_.erase(it);
  return orphans;
}

void NsmService::FailOrphan(const Nqe& send) {
  FreeNqeChunk(send);
  Respond(ReplyTo(send), guard::ReclaimOp(send.Op()), send.Op(), kCeNetUnreach, send.size);
}

void NsmService::FreeNqeChunk(const Nqe& nqe) {
  const NqeOp op = nqe.Op();
  if (op != NqeOp::kSend && op != NqeOp::kSendZc && op != NqeOp::kSendTo &&
      op != NqeOp::kSendToZc) {
    return;
  }
  shm::HugepagePool* pool = vms_[nqe.vm_id].pool;
  if (pool != nullptr && pool->IsAllocated(nqe.data_ptr)) {
    pool->Free(nqe.data_ptr);
    recorder_.Record(obs::FlightEventType::kShutdownDrain, nqe.vm_id, nqe.queue_set, nqe.op,
                     nqe.vm_sock, nqe.size);
  }
}

// ---------------------------------------------------------------------------
// NSM -> VM NQE emission
// ---------------------------------------------------------------------------

bool NsmService::EnqueueToVm(const NsmSocket& s, Nqe nqe, bool receive_ring) {
  nqe.vm_id = s.vm_id;
  nqe.queue_set = s.vm_qset;
  nqe.vm_sock = s.vm_sock;
  int qs = s.nsm_qset < dev_->num_queue_sets() ? s.nsm_qset : 0;
  // T3 lifecycle stamp: a completion produced synchronously inside a traced
  // dispatch inherits the request's trace id before it hits the ring.
  if (tracer_ != nullptr && !receive_ring) {
    Cycles tc = tracer_->TagCompletion(&nqe);
    if (tc != 0) cores_[static_cast<size_t>(qs) % cores_.size()]->AccountOnly(tc);
  }
  shm::QueueSet& q = dev_->queue_set(qs);
  bool ok = (receive_ring ? q.receive : q.completion).TryEnqueue(nqe);
  if (!ok) {
    // Severe overload: the NSM-side ring (4K deep) is full. The caller owns
    // any referenced chunk; the loss itself must never be silent.
    ++nqes_dropped_;
    recorder_.Record(obs::FlightEventType::kRingFullDrop, nqe.vm_id, nqe.queue_set, nqe.op,
                     nqe.vm_sock, receive_ring ? 1 : 0);
    return false;
  }
  RingDoorbell();
  return true;
}

void NsmService::Respond(const NsmSocket& s, NqeOp op, NqeOp orig, int32_t result,
                         uint64_t op_data) {
  Nqe nqe = MakeNqe(op, s.vm_id, s.vm_qset, s.vm_sock, op_data, 0, static_cast<uint32_t>(result));
  nqe.reserved[0] = static_cast<uint8_t>(orig);
  EnqueueToVm(s, nqe, false);
}

void NsmService::RingDoorbell() {
  if (doorbell_pending_) {
    ++doorbells_coalesced_;
    return;
  }
  doorbell_pending_ = true;
  loop_->ScheduleAfter(0, [this] {
    doorbell_pending_ = false;
    ++doorbells_;
    ce_->NotifyNsmOutbound(nsm_id_);
  });
}

// ---------------------------------------------------------------------------
// Liveness heartbeat
// ---------------------------------------------------------------------------

void NsmService::StartHeartbeat(SimTime period) {
  NK_CHECK(period > 0);
  heartbeat_period_ = period;
  heartbeat_timer_.Cancel();
  ScheduleHeartbeat();
}

void NsmService::StopHeartbeat() {
  heartbeat_period_ = 0;
  heartbeat_timer_.Cancel();
}

void NsmService::ScheduleHeartbeat() {
  if (shutdown_ || wedged_ || heartbeat_period_ == 0) return;
  heartbeat_timer_ = loop_->ScheduleAfter(heartbeat_period_, [this] {
    if (shutdown_ || wedged_ || heartbeat_period_ == 0) return;
    ce_->HandleControlMessage({static_cast<uint32_t>(CeOp::kHeartbeat), nsm_id_});
    ++heartbeats_sent_;
    ScheduleHeartbeat();
  });
}

void NsmService::Wedge() {
  wedged_ = true;
  heartbeat_timer_.Cancel();
}

// ---------------------------------------------------------------------------
// Inbound ring driver
// ---------------------------------------------------------------------------

void NsmService::OnDeviceWake() {
  if (shutdown_ || wedged_) return;
  for (int qs = 0; qs < dev_->num_queue_sets(); ++qs) {
    shm::QueueSet& q = dev_->queue_set(qs);
    if (!q.job.Empty() || !q.send.Empty()) ProcessQueueSet(qs);
  }
}

void NsmService::ProcessQueueSet(int qs) {
  if (shutdown_ || wedged_ || drain_scheduled_[qs]) return;
  drain_scheduled_[qs] = true;

  shm::QueueSet& q = dev_->queue_set(qs);
  // The send ring drains before the job ring so a close() issued right after
  // a send() cannot overtake the data (the guest wrote them in that order).
  Nqe buf[128];
  size_t n = q.send.DequeueBatch(buf, 64);
  n += q.job.DequeueBatch(buf + n, 64);
  if (n == 0) {
    drain_scheduled_[qs] = false;
    return;
  }
  nqes_processed_ += n;

  std::vector<Nqe> nqes(buf, buf + n);
  sim::CpuCore* core = cores_[static_cast<size_t>(qs) % cores_.size()];
  Cycles cost = translate_cost_ * static_cast<Cycles>(n);
  core->Charge(cost, [this, qs, core, nqes = std::move(nqes)]() mutable {
    for (Nqe& nqe : nqes) {
      if (shutdown_) {
        // Shutdown raced this in-flight batch (before it, or triggered by an
        // NQE dispatched earlier in it): the NQEs were already pulled off the
        // rings, so the ring drain missed them — unwind their chunks here
        // instead of dispatching against cleared state.
        FreeNqeChunk(nqe);
        continue;
      }
      nqe.reserved[2] = static_cast<uint8_t>(qs);  // processing queue set
      if (tracer_ != nullptr) {
        // T2 lifecycle stamp; the dispatch scope lets a synchronous
        // completion inherit the trace id in EnqueueToVm (T3).
        Cycles tc = tracer_->BeginDispatch(nqe);
        if (tc != 0) core->AccountOnly(tc);
        Admit(nqe);
        tracer_->EndDispatch();
      } else {
        Admit(nqe);
      }
    }
    drain_scheduled_[qs] = false;
    shm::QueueSet& q2 = dev_->queue_set(qs);
    if (!q2.job.Empty() || !q2.send.Empty()) ProcessQueueSet(qs);
  });
}

void NsmService::Admit(const Nqe& nqe) {
  // nkguard boundary: only guest->NSM request verbs may dispatch. The
  // CoreEngine validator already refuses everything else at ring-consume
  // time, so anything that still lands here (a harness bypassing the switch,
  // a rehome race) is dropped and counted rather than poking transport state.
  if (!guard::IsGuestToNsmOp(nqe.Op())) {
    ++guard_drops_;
    return;
  }
  // An evicted VM's in-flight stragglers unwind their payload chunks into
  // its still-reachable pool instead of dispatching against torn-down state.
  if (vms_[nqe.vm_id].evicted) {
    ++guard_drops_;
    FreeNqeChunk(nqe);
    return;
  }
  Dispatch(nqe);
}

// ---------------------------------------------------------------------------
// Recoverable teardown: one VM (quarantine) or all of them (NSM death)
// ---------------------------------------------------------------------------

size_t NsmService::ReleaseVm(uint8_t vm_id, VmInfo& vm) {
  // Mark first: any callback fired by the teardown below (rx allocator
  // alloc, zc frees) sees the eviction and refuses to grow new state.
  vm.evicted = true;
  const size_t torn = ReleaseVmState(vm_id, vm.pool);
  // Orphan sends parked for an accept-link that will never arrive.
  for (auto it = orphan_sends_.begin(); it != orphan_sends_.end();) {
    if (static_cast<uint8_t>(it->first >> 32) == vm_id) {
      for (const Nqe& orphan : it->second) FailOrphan(orphan);
      it = orphan_sends_.erase(it);
    } else {
      ++it;
    }
  }
  recorder_.Record(obs::FlightEventType::kShutdownDrain, vm_id, 0, 0, 0, torn);
  return torn;
}

std::vector<Nqe> NsmService::SweepRings(const std::function<bool(const Nqe&)>& match) {
  // VM->NSM rings may hold sends whose chunks the guest already handed over;
  // NSM->VM rings may hold receive data shipped toward a guest that will
  // never see it, and send completions it is still owed. The single-threaded
  // DES makes the consumer-side drain-and-refill safe, and a full drain
  // guarantees the re-enqueues fit.
  std::vector<Nqe> owed;
  Nqe nqe;
  std::vector<Nqe> keep;
  const auto sweep = [&](shm::SpscRing<Nqe>& ring, const auto& reclaim) {
    keep.clear();
    while (ring.TryDequeue(&nqe)) {
      if (match(nqe)) {
        reclaim(nqe);
      } else {
        keep.push_back(nqe);
      }
    }
    for (const Nqe& k : keep) NK_CHECK(ring.TryEnqueue(k));
  };
  // A swept send frees its chunk here and owes its guest the send credit.
  const auto fail_send = [&](const Nqe& n) {
    FreeNqeChunk(n);
    const NqeOp done = guard::ReclaimOp(n.Op());
    if (done == NqeOp::kInvalid) return;
    owed.push_back(MakeNqe(done, n.vm_id, n.queue_set, n.vm_sock, n.size, 0,
                           static_cast<uint32_t>(kCeNetUnreach)));
    owed.back().reserved[0] = n.op;
  };
  for (int qs = 0; qs < dev_->num_queue_sets(); ++qs) {
    shm::QueueSet& q = dev_->queue_set(qs);
    sweep(q.send, fail_send);
    sweep(q.job, fail_send);
    sweep(q.receive, [&](const Nqe& n) {
      shm::HugepagePool* pool = vms_[n.vm_id].pool;
      if ((n.Op() == NqeOp::kRecvData || n.Op() == NqeOp::kDgramRecv ||
           n.Op() == NqeOp::kDgramRecvZc) &&
          pool != nullptr && pool->IsAllocated(n.data_ptr)) {
        pool->Free(n.data_ptr);
      }
    });
    // NSM-produced completions never carry a chunk.
    sweep(q.completion, [&](const Nqe& n) {
      if (IsSendCompletion(n.Op())) owed.push_back(n);
    });
  }
  return owed;
}

std::vector<Nqe> NsmService::EvictVm(uint8_t vm_id) {
  VmInfo& vm = vms_[vm_id];
  if (vm.pool == nullptr || vm.evicted) return {};
  ReleaseVm(vm_id, vm);
  return SweepRings([vm_id](const Nqe& n) { return n.vm_id == vm_id; });
}

void NsmService::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  StopHeartbeat();
  for (size_t vm_id = 0; vm_id < shm::kNumIds; ++vm_id) {
    VmInfo& vm = vms_[vm_id];
    if (vm.pool != nullptr && !vm.evicted) ReleaseVm(static_cast<uint8_t>(vm_id), vm);
  }
  SweepRings([](const Nqe&) { return true; });
  orphan_sends_.clear();
  by_vm_.clear();
}

}  // namespace netkernel::core
