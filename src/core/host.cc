// Copyright (c) NetKernel reproduction authors.

#include "src/core/host.h"

#include <algorithm>

#include "src/common/check.h"

namespace netkernel::core {

uint32_t Host::next_ip_suffix_ = 1;

Host::Host(sim::EventLoop* loop, netsim::Fabric* fabric, std::string name, Options options)
    : loop_(loop), fabric_(fabric), name_(std::move(name)), options_(options) {
  const int shards = options_.ce.shards > 1 ? options_.ce.shards : 1;
  for (int i = 0; i < shards; ++i) {
    ce_cores_.push_back(
        std::make_unique<sim::CpuCore>(loop_, name_ + ".ce" + std::to_string(i)));
  }
  std::vector<sim::CpuCore*> core_ptrs;
  core_ptrs.reserve(ce_cores_.size());
  for (auto& c : ce_cores_) core_ptrs.push_back(c.get());
  tracer_ = std::make_unique<obs::Tracer>(loop_);
  ce_ = std::make_unique<CoreEngine>(loop_, std::move(core_ptrs), options_.ce);
  ce_->SetTracer(tracer_.get());
  failover_recorder_ = std::make_unique<obs::FlightRecorder>(loop_, name_ + ".failover");
  // nkguard: when GuardPolicy::kQuarantine trips inside a shard, finish the
  // job host-side — deregister the offender and evict its NSM state. The
  // callback fires from a deferred event, never mid-poll.
  ce_->SetQuarantineCallback([this](uint8_t vm_id) {
    for (auto& vm : vms_) {
      if (vm->id() == vm_id) {
        QuarantineVm(vm.get());
        return;
      }
    }
  });
}

netsim::IpAddr Host::AllocIp() {
  uint32_t s = next_ip_suffix_++;
  return netsim::MakeIp(10, static_cast<uint8_t>(s >> 16), static_cast<uint8_t>(s >> 8),
                        static_cast<uint8_t>(s));
}

Nsm* Host::CreateNsm(const std::string& name, int vcpus, NsmKind kind,
                     tcp::TcpStackConfig stack_config) {
  NK_CHECK(vcpus >= 1);
  auto nsm = std::make_unique<Nsm>();
  nsm->name_ = name;
  nsm->id_ = next_nsm_id_++;
  nsm->kind_ = kind;
  for (int i = 0; i < vcpus; ++i) {
    nsm->cores_.push_back(
        std::make_unique<sim::CpuCore>(loop_, name + ".vcpu" + std::to_string(i)));
  }
  nsm->dev_ = std::make_unique<shm::NkDevice>(name + ".nkdev", vcpus);
  ce_->RegisterNsmDevice(nsm->id_, nsm->dev_.get());

  std::vector<sim::CpuCore*> core_ptrs;
  for (auto& c : nsm->cores_) core_ptrs.push_back(c.get());

  if (kind == NsmKind::kShm) {
    // No network stack at all: pure hugepage-to-hugepage copying.
    nsm->service_ = std::make_unique<ShmServiceLib>(loop_, nsm->id_, ce_.get(),
                                                    nsm->dev_.get(), core_ptrs);
    nsm->service_->SetTracer(tracer_.get());
    nsms_.push_back(std::move(nsm));
    return nsms_.back().get();
  }

  stack_config.name = name + ".stack";
  if (kind == NsmKind::kFairShare) {
    stack_config.ecn = true;  // VM-level window uses DCTCP-style marking
  }
  if (kind == NsmKind::kMtcp) {
    stack_config.profile = tcp::MtcpProfile();
    stack_config.per_core_tables = true;
  } else if (stack_config.profile.syscall == 0) {
    stack_config.profile = tcp::KernelProfile();
  }
  netsim::IpAddr nsm_ip = AllocIp();
  netsim::HostPort port = fabric_->AddHost(name + ".vnic", nsm_ip, options_.port);
  nsm->vnic_ = port.nic;
  nsm->down_link_ = port.down;
  if (kind == NsmKind::kFairShare) {
    // The NSM schedules its VMs' aggregates onto the vNIC with per-VM DRR
    // (it owns the last hop, so VM-level fairness is directly enforceable).
    port.nic->EnableFairEgress(loop_, options_.port.bandwidth);
  }
  udp::UdpStackConfig udp_config;
  udp_config.name = name + ".udp";
  udp_config.profile = stack_config.profile;
  nsm->stack_ =
      std::make_unique<tcp::TcpStack>(loop_, port.nic, core_ptrs, std::move(stack_config));
  nsm->udp_stack_ =
      std::make_unique<udp::UdpStack>(loop_, port.nic, core_ptrs, std::move(udp_config));
  // The TCP stack owns the vNIC softirq; it demuxes UDP packets over.
  udp::UdpStack* udp_raw = nsm->udp_stack_.get();
  nsm->stack_->SetRawPacketHandler(
      [udp_raw](netsim::Packet pkt) { udp_raw->OnPacket(std::move(pkt)); });
  nsm->service_ = std::make_unique<ServiceLib>(loop_, nsm->id_, ce_.get(), nsm->dev_.get(),
                                               nsm->stack_.get(), nsm->udp_stack_.get(),
                                               options_.servicelib);
  nsm->service_->SetTracer(tracer_.get());
  nsms_.push_back(std::move(nsm));
  return nsms_.back().get();
}

Vm* Host::CreateNetkernelVm(const std::string& name, int vcpus, Nsm* nsm,
                            uint64_t hugepage_bytes) {
  NK_CHECK(vcpus >= 1 && nsm != nullptr);
  auto vm = std::make_unique<Vm>();
  vm->name_ = name;
  vm->id_ = next_vm_id_++;
  vm->ip_ = AllocIp();
  vm->nsm_ = nsm;
  for (int i = 0; i < vcpus; ++i) {
    vm->cores_.push_back(
        std::make_unique<sim::CpuCore>(loop_, name + ".vcpu" + std::to_string(i)));
  }
  vm->dev_ = std::make_unique<shm::NkDevice>(name + ".nkdev", vcpus);
  vm->pool_ = std::make_unique<shm::HugepagePool>(hugepage_bytes);
  ce_->RegisterVmDevice(vm->id_, vm->dev_.get());
  ce_->AssignVmToNsm(vm->id_, nsm->id_);
  // nkguard: hand the validator this VM's pool so chunk ownership, replay
  // and datagram credit checks apply to everything it submits.
  ce_->validator().RegisterVmPool(vm->id_, vm->pool_.get());

  std::vector<sim::CpuCore*> core_ptrs;
  for (auto& c : vm->cores_) core_ptrs.push_back(c.get());
  vm->guestlib_ = std::make_unique<GuestLib>(loop_, vm->id_, ce_.get(), vm->dev_.get(),
                                             vm->pool_.get(), core_ptrs, options_.guestlib);
  vm->guestlib_->SetTracer(tracer_.get());

  uint8_t vm_id = vm->id_;
  vm->attached_nsms_.push_back(nsm);
  vm->ip_per_nsm_[nsm] = vm->ip_;
  AttachVmToNsm(vm.get(), nsm, vm->ip_);
  // Receive credits fan out to every NSM this VM has attached to (a credit
  // for an unknown connection is a no-op), so switching NSMs mid-flight
  // cannot strand in-flight receive windows.
  Vm* vm_ptr = vm.get();
  vm->guestlib_->SetRecvCreditCallback([vm_ptr, vm_id](uint32_t sock, uint32_t bytes) {
    for (Nsm* n : vm_ptr->attached_nsms_) n->service_->OnRecvCredit(vm_id, sock, bytes);
  });

  vms_.push_back(std::move(vm));
  return vms_.back().get();
}

void Host::AttachVmToNsm(Vm* vm, Nsm* nsm, netsim::IpAddr ip) {
  const uint8_t vm_id = vm->id_;
  nsm->service_->AttachVm(vm_id, vm->pool_.get(), ip);
  // Packets for this address terminate at the NSM's vNIC (AddRoute
  // overwrites, so a re-home re-points an existing route).
  if (nsm->down_link_ != nullptr) fabric_->AddRoute(ip, nsm->down_link_);
  if (nsm->kind_ == NsmKind::kFairShare) {
    std::shared_ptr<tcp::SharedWindowGroup>& group = nsm->groups_[vm_id];
    if (group == nullptr) group = std::make_shared<tcp::SharedWindowGroup>();
    nsm->servicelib()->SetVmCcFactory(
        vm_id, [group] { return std::make_unique<tcp::SharedWindowCc>(group); });
  }
}

Vm* Host::CreateBaselineVm(const std::string& name, int vcpus,
                           tcp::TcpStackConfig stack_config) {
  NK_CHECK(vcpus >= 1);
  auto vm = std::make_unique<Vm>();
  vm->name_ = name;
  vm->id_ = next_vm_id_++;
  vm->ip_ = AllocIp();
  for (int i = 0; i < vcpus; ++i) {
    vm->cores_.push_back(
        std::make_unique<sim::CpuCore>(loop_, name + ".vcpu" + std::to_string(i)));
  }
  netsim::HostPort port = fabric_->AddHost(name + ".vnic", vm->ip_, options_.port);
  vm->vnic_ = port.nic;
  std::vector<sim::CpuCore*> core_ptrs;
  for (auto& c : vm->cores_) core_ptrs.push_back(c.get());
  stack_config.name = name + ".stack";
  if (stack_config.profile.syscall == 0) stack_config.profile = tcp::KernelProfile();
  udp::UdpStackConfig udp_config;
  udp_config.name = name + ".udp";
  udp_config.profile = stack_config.profile;
  vm->stack_ =
      std::make_unique<tcp::TcpStack>(loop_, port.nic, core_ptrs, std::move(stack_config));
  vm->udp_stack_ =
      std::make_unique<udp::UdpStack>(loop_, port.nic, core_ptrs, std::move(udp_config));
  udp::UdpStack* udp_raw = vm->udp_stack_.get();
  vm->stack_->SetRawPacketHandler(
      [udp_raw](netsim::Packet pkt) { udp_raw->OnPacket(std::move(pkt)); });
  vm->baseline_ =
      std::make_unique<BaselineSocketApi>(loop_, vm->stack_.get(), vm->udp_stack_.get());
  vms_.push_back(std::move(vm));
  return vms_.back().get();
}

void Host::BuildMetricsRegistry(obs::MetricsRegistry* registry) const {
  // Sources are lazy std::functions over live stats structs: registration is
  // cheap and export always reads current values. A fresh registry is built
  // per dump (see DumpMetrics) so VM/NSM churn can never leave stale or
  // duplicate names behind.
  for (int i = 0; i < ce_->num_shards(); ++i) {
    const CoreEngineStats* s = &ce_->shard(i).stats();
    const std::string p = "ce.shard" + std::to_string(i) + ".";
    registry->RegisterCounter(p + "nqes_switched", [s] { return double(s->nqes_switched); },
                              "NQEs delivered by this shard");
    registry->RegisterCounter(p + "rounds", [s] { return double(s->rounds); },
                              "polling rounds executed");
    registry->RegisterCounter(p + "table_inserts", [s] { return double(s->table_inserts); });
    registry->RegisterCounter(p + "throttled_nqes", [s] { return double(s->throttled_nqes); },
                              "NQEs deferred by per-VM token buckets");
    registry->RegisterCounter(p + "send_bytes_switched",
                              [s] { return double(s->send_bytes_switched); });
    registry->RegisterCounter(p + "dgram_nqes_switched",
                              [s] { return double(s->dgram_nqes_switched); });
    registry->RegisterCounter(p + "nqes_dropped", [s] { return double(s->nqes_dropped); },
                              "NQEs dropped anywhere in the switch");
    registry->RegisterCounter(p + "deliveries_deferred",
                              [s] { return double(s->deliveries_deferred); },
                              "deliveries parked on a full destination ring");
    registry->RegisterCounter(p + "qset_migrations", [s] { return double(s->qset_migrations); },
                              "queue sets handed off between shards");
    const obs::FlightRecorder* rec = &ce_->shard(i).recorder();
    registry->RegisterCounter(p + "flight_events", [rec] { return double(rec->total_recorded()); },
                              "datapath events captured by the flight recorder");
  }
  const CoreEngine* ce = ce_.get();
  for (const auto& vm : vms_) {
    if (!vm->netkernel_mode()) continue;
    const uint8_t id = vm->id_;
    const std::string cp = "ce.vm" + std::to_string(id) + ".";
    registry->RegisterCounter(cp + "switched",
                              [ce, id] { return double(ce->VmStats(id).switched); });
    registry->RegisterCounter(cp + "dropped",
                              [ce, id] { return double(ce->VmStats(id).dropped); });
    registry->RegisterCounter(cp + "throttled",
                              [ce, id] { return double(ce->VmStats(id).throttled); });
    registry->RegisterCounter(cp + "bytes", [ce, id] { return double(ce->VmStats(id).bytes); });
    registry->RegisterCounter(cp + "deferred",
                              [ce, id] { return double(ce->VmStats(id).deferred); });

    const GuestLib* g = vm->guestlib_.get();
    const std::string gp = "vm" + std::to_string(id) + ".guest.";
    registry->RegisterCounter(gp + "nqes_sent", [g] { return double(g->nqes_sent()); });
    registry->RegisterCounter(gp + "nqes_received", [g] { return double(g->nqes_received()); });
    registry->RegisterCounter(gp + "send_credit_reclaims",
                              [g] { return double(g->send_credit_reclaims()); });
    registry->RegisterCounter(gp + "zc_sends", [g] { return double(g->zc_sends()); });
    registry->RegisterCounter(gp + "zc_completions", [g] { return double(g->zc_completions()); });
    registry->RegisterCounter(gp + "dgram_zc_sends", [g] { return double(g->dgram_zc_sends()); });
    registry->RegisterCounter(gp + "dgram_zc_completions",
                              [g] { return double(g->dgram_zc_completions()); });
    registry->RegisterCounter(gp + "dgram_zc_recvs", [g] { return double(g->dgram_zc_recvs()); });
    registry->RegisterCounter(gp + "nsm_rehomes", [g] { return double(g->nsm_rehomes()); },
                              "kNsmRehomed notifications applied by this guest");
    registry->RegisterCounter(gp + "reconnects_required",
                              [g] { return double(g->reconnects_required()); },
                              "stream sockets errored by NSM-teardown FINs");
    registry->RegisterCounter(gp + "guard_bad_frees",
                              [g] { return double(g->guard_bad_frees()); },
                              "inbound chunk frees refused (bad offset or double free)");

    // Per-VM validator verdicts (nkguard).
    const std::string qp = "guard.vm" + std::to_string(id) + ".";
    registry->RegisterCounter(qp + "rejects",
                              [ce, id] { return double(ce->validator().VmStats(id).rejects); });
    registry->RegisterCounter(qp + "bad_op",
                              [ce, id] { return double(ce->validator().VmStats(id).bad_op); });
    registry->RegisterCounter(
        qp + "bad_identity", [ce, id] { return double(ce->validator().VmStats(id).bad_identity); });
    registry->RegisterCounter(qp + "bad_chunk",
                              [ce, id] { return double(ce->validator().VmStats(id).bad_chunk); });
    registry->RegisterCounter(qp + "replayed_chunk", [ce, id] {
      return double(ce->validator().VmStats(id).replayed_chunk);
    });
    registry->RegisterCounter(qp + "credit_violations", [ce, id] {
      return double(ce->validator().VmStats(id).credit_violations);
    });
  }
  for (const auto& nsm : nsms_) {
    const std::string np = "nsm" + std::to_string(nsm->id_) + ".";
    if (nsm->stack_ != nullptr) {
      const tcp::TcpStackStats* t = &nsm->stack_->stats();
      const std::string tp = np + "tcp.";
      registry->RegisterCounter(tp + "segments_sent", [t] { return double(t->segments_sent); });
      registry->RegisterCounter(tp + "segments_received",
                                [t] { return double(t->segments_received); });
      registry->RegisterCounter(tp + "bytes_sent", [t] { return double(t->bytes_sent); });
      registry->RegisterCounter(tp + "bytes_received", [t] { return double(t->bytes_received); });
      registry->RegisterCounter(tp + "retransmits", [t] { return double(t->retransmits); });
      registry->RegisterCounter(tp + "rto_fires", [t] { return double(t->rto_fires); });
      registry->RegisterCounter(tp + "fast_retransmits",
                                [t] { return double(t->fast_retransmits); });
      registry->RegisterCounter(tp + "conns_established",
                                [t] { return double(t->conns_established); });
      registry->RegisterCounter(tp + "conns_closed", [t] { return double(t->conns_closed); });
      registry->RegisterCounter(tp + "rx_ring_drops", [t] { return double(t->rx_ring_drops); });
      registry->RegisterCounter(tp + "rsts_sent", [t] { return double(t->rsts_sent); });
    }
    if (nsm->udp_stack_ != nullptr) {
      const udp::UdpStackStats* u = &nsm->udp_stack_->stats();
      const std::string up = np + "udp.";
      registry->RegisterCounter(up + "datagrams_sent", [u] { return double(u->datagrams_sent); });
      registry->RegisterCounter(up + "datagrams_received",
                                [u] { return double(u->datagrams_received); });
      registry->RegisterCounter(up + "bytes_sent", [u] { return double(u->bytes_sent); });
      registry->RegisterCounter(up + "bytes_received", [u] { return double(u->bytes_received); });
      registry->RegisterCounter(up + "fragments_sent", [u] { return double(u->fragments_sent); });
      registry->RegisterCounter(up + "fragments_received",
                                [u] { return double(u->fragments_received); });
      registry->RegisterCounter(up + "rx_queue_drops", [u] { return double(u->rx_queue_drops); });
      registry->RegisterCounter(up + "no_socket_drops", [u] { return double(u->no_socket_drops); });
      registry->RegisterCounter(up + "rx_ring_drops", [u] { return double(u->rx_ring_drops); });
      registry->RegisterCounter(up + "zc_sends", [u] { return double(u->zc_sends); });
      registry->RegisterCounter(up + "rx_zc_landed", [u] { return double(u->rx_zc_landed); });
      registry->RegisterCounter(up + "rx_pool_fallbacks",
                                [u] { return double(u->rx_pool_fallbacks); });
    }
    const NsmService* sv = nsm->service_.get();
    const std::string sp = np + "svc.";
    registry->RegisterCounter(sp + "nqes_processed", [sv] { return double(sv->nqes_processed()); });
    registry->RegisterCounter(sp + "nqes_dropped", [sv] { return double(sv->nqes_dropped()); },
                              "NSM->VM NQEs lost to a full NSM-side ring");
    registry->RegisterCounter(sp + "doorbells", [sv] { return double(sv->doorbells()); });
    registry->RegisterCounter(sp + "doorbells_coalesced",
                              [sv] { return double(sv->doorbells_coalesced()); });
    registry->RegisterCounter(sp + "heartbeats_sent", [sv] { return double(sv->heartbeats_sent()); },
                              "liveness beacons this NSM sent to CoreEngine");
    registry->RegisterCounter(sp + "flight_events",
                              [sv] { return double(sv->recorder().total_recorded()); });
    registry->RegisterCounter(sp + "guard_drops", [sv] { return double(sv->guard_drops()); },
                              "NQEs refused by the NSM-side guard prefilter or evictions");
    if (const ServiceLib* sl = nsm->servicelib()) {
      registry->RegisterCounter(sp + "rx_zc_ships", [sl] { return double(sl->rx_zc_ships()); });
      registry->RegisterCounter(sp + "rx_copy_ships", [sl] { return double(sl->rx_copy_ships()); });
      registry->RegisterCounter(sp + "dgram_zc_ships",
                                [sl] { return double(sl->dgram_zc_ships()); });
      registry->RegisterCounter(sp + "dgram_copy_ships",
                                [sl] { return double(sl->dgram_copy_ships()); });
    }
    if (const ShmServiceLib* sh = nsm->shm_servicelib()) {
      registry->RegisterCounter(sp + "bytes_copied", [sh] { return double(sh->bytes_copied()); },
                                "hugepage-to-hugepage payload bytes copied");
    }
  }
  // nkguard validator surface (guard.* namespace, aggregate over all VMs).
  const guard::GuardStats* gs = &ce_->validator().stats();
  registry->RegisterCounter("guard.validated", [gs] { return double(gs->validated); },
                            "guest NQEs admitted at the ring boundary");
  registry->RegisterCounter("guard.rejects", [gs] { return double(gs->rejects); },
                            "guest NQEs refused at the ring boundary");
  registry->RegisterCounter("guard.bad_op", [gs] { return double(gs->bad_op); },
                            "ops not admissible for their ring/direction");
  registry->RegisterCounter("guard.bad_identity", [gs] { return double(gs->bad_identity); },
                            "NQEs with a forged vm_id/queue_set (corrected in place)");
  registry->RegisterCounter("guard.bad_chunk", [gs] { return double(gs->bad_chunk); },
                            "chunk references outside the owning pool or unallocated");
  registry->RegisterCounter("guard.replayed_chunk", [gs] { return double(gs->replayed_chunk); },
                            "resubmissions of an already-consumed chunk incarnation");
  registry->RegisterCounter("guard.credit_violations",
                            [gs] { return double(gs->credit_violations); },
                            "datagram receive credits claimed beyond what was delivered");
  registry->RegisterCounter("guard.flags_scrubbed", [gs] { return double(gs->flags_scrubbed); },
                            "guest NQEs whose reserved flag bytes were zeroed at consume");
  registry->RegisterCounter("guard.nsm_bad_op", [gs] { return double(gs->nsm_bad_op); },
                            "NSM-emitted NQEs with ops outside the nsm->guest contract");
  registry->RegisterCounter("guard.quarantines", [gs] { return double(gs->quarantines); },
                            "VMs tripped into quarantine by repeat violations");
  registry->RegisterCounter("guard.quarantine_drops",
                            [gs] { return double(gs->quarantine_drops); },
                            "NQEs drained from quarantined VMs' rings");
  // Failover controller surface (ce.* namespace: failover acts on the switch).
  const FailoverStats* fs = &failover_stats_;
  registry->RegisterCounter("ce.nsm_failovers", [fs] { return double(fs->nsm_failovers); },
                            "NSMs drained and replaced by the failover controller");
  registry->RegisterCounter("ce.heartbeat_misses",
                            [fs] { return double(fs->heartbeat_misses); },
                            "controller checks that found an NSM silent");
  registry->RegisterCounter("ce.wedged_detections",
                            [fs] { return double(fs->wedged_detections); },
                            "silent NSMs that still had ring backlog (stalled, not dead)");
  registry->RegisterCounter("ce.vms_rehomed", [fs] { return double(fs->vms_rehomed); },
                            "VMs re-homed onto the standby NSM");
  registry->RegisterCounter("ce.reconnects_required",
                            [fs] { return double(fs->reconnects_required); },
                            "stream connections errored with FINs by failovers");
  registry->RegisterHistogram("ce.failover_blackout_us", &blackout_us_,
                              "per-failover blackout: silent time before replacement (us)");
  tracer_->RegisterInto(registry);
}

std::string Host::DumpMetrics() const {
  obs::MetricsRegistry registry;
  BuildMetricsRegistry(&registry);
  return registry.PrometheusText();
}

std::string Host::DumpMetricsJson() const {
  obs::MetricsRegistry registry;
  BuildMetricsRegistry(&registry);
  return registry.Json();
}

std::string Host::DumpFlightRecorder(size_t last_k) const {
  std::vector<const obs::FlightRecorder*> recorders = ce_->FlightRecorders();
  for (const auto& nsm : nsms_) recorders.push_back(&nsm->service_->recorder());
  recorders.push_back(failover_recorder_.get());
  return obs::FlightRecorder::DumpMerged(recorders, last_k);
}

void Host::SetVmWeight(Vm* vm, uint32_t weight) {
  NK_CHECK(vm->netkernel_mode());
  ce_->SetVmWeight(vm->id(), weight);
}

PerVmStats Host::VmNkStats(const Vm* vm) const { return ce_->VmStats(vm->id()); }

void Host::SwitchNsm(Vm* vm, Nsm* nsm) {
  NK_CHECK(vm->netkernel_mode());
  ce_->AssignVmToNsm(vm->id(), nsm->id());
  auto known = vm->ip_per_nsm_.find(nsm);
  if (known != vm->ip_per_nsm_.end()) {
    return void(vm->nsm_ = nsm);  // already attached; just re-map new sockets
  }
  // An alias address per stack-backed NSM keeps return traffic routable:
  // connections created while assigned to this NSM bind the alias, and the
  // fabric steers the alias to this NSM's vNIC.
  const netsim::IpAddr ip = nsm->down_link() != nullptr ? AllocIp() : vm->ip_;
  AttachVmToNsm(vm, nsm, ip);
  vm->ip_per_nsm_[nsm] = ip;
  vm->attached_nsms_.push_back(nsm);
  vm->nsm_ = nsm;
}

// ---------------------------------------------------------------------------
// NSM failover controller & rolling live upgrade
// ---------------------------------------------------------------------------

void Host::SetStandbyNsm(Nsm* nsm) {
  NK_CHECK(nsm == nullptr || nsm->kind() != NsmKind::kShm);
  standby_ = nsm;
}

void Host::StartFailoverController(FailoverConfig config) {
  NK_CHECK(config.heartbeat_period > 0 && config.check_period > 0);
  NK_CHECK(config.miss_threshold >= 1);
  failover_config_ = config;
  failover_running_ = true;
  for (auto& nsm : nsms_) nsm->service_->StartHeartbeat(config.heartbeat_period);
  failover_timer_.Cancel();
  ScheduleFailoverCheck();
}

void Host::StopFailoverController() {
  failover_running_ = false;
  failover_timer_.Cancel();
  for (auto& nsm : nsms_) nsm->service_->StopHeartbeat();
}

void Host::ScheduleFailoverCheck() {
  if (!failover_running_) return;
  failover_timer_ = loop_->ScheduleAfter(failover_config_.check_period, [this] {
    RunFailoverCheck();
    ScheduleFailoverCheck();
  });
}

void Host::RunFailoverCheck() {
  const SimTime now = loop_->Now();
  const SimTime window = failover_config_.heartbeat_period + failover_config_.grace;
  for (auto& owned : nsms_) {
    Nsm* nsm = owned.get();
    if (nsm == standby_) continue;  // the spare idles by design
    const SimTime last = ce_->NsmLastActivity(nsm->id());
    if (last == 0) continue;  // not registered (already failed over)
    if (now <= last + window) {
      hb_misses_[nsm->id()] = 0;
      continue;
    }
    const int misses = ++hb_misses_[nsm->id()];
    ++failover_stats_.heartbeat_misses;
    failover_recorder_->Record(obs::FlightEventType::kHeartbeatMiss, 0, 0,
                               static_cast<uint8_t>(shm::NqeOp::kHeartbeat), 0,
                               static_cast<uint64_t>(misses));
    if (misses < failover_config_.miss_threshold) continue;
    const uint64_t backlog = ce_->NsmBacklog(nsm->id());
    if (backlog > 0) {
      // Silent but with unconsumed ring backlog: the process is wedged
      // (stalled mid-service), not merely a quiet tenant or a dead device.
      ++failover_stats_.wedged_detections;
      failover_recorder_->Record(obs::FlightEventType::kNsmWedged, 0, 0,
                                 static_cast<uint8_t>(shm::NqeOp::kHeartbeat), 0, backlog);
    }
    FailoverNsm(nsm);
  }
}

size_t Host::FailoverNsm(Nsm* sick) {
  NK_CHECK(sick != nullptr);
  if (standby_ == nullptr || standby_ == sick) return 0;  // nowhere to re-home
  Nsm* to = standby_;
  standby_ = nullptr;  // consumed: the spare is promoted to active duty
  const SimTime now = loop_->Now();
  const SimTime last = ce_->NsmLastActivity(sick->id());
  const uint64_t blackout_us = (last == 0 || now <= last) ? 0 : (now - last) / kMicrosecond;

  // Tear the sick NSM out of the switch first so nothing further routes to
  // it. Every established stream connection gets an error FIN toward its
  // guest — each one a reconnect the application owes (counted below).
  const size_t errored = ce_->DeregisterNsmDevice(sick->id());
  failover_stats_.reconnects_required += errored;
  sick->service_->Shutdown();

  size_t rehomed = 0;
  for (auto& vm : vms_) {
    if (!vm->netkernel_mode() || vm->nsm_ != sick) continue;
    RehomeVm(vm.get(), to);
    ++rehomed;
  }
  ++failover_stats_.nsm_failovers;
  failover_stats_.vms_rehomed += rehomed;
  blackout_us_.Record(blackout_us);
  failover_recorder_->Record(obs::FlightEventType::kNsmFailover, 0, 0,
                             static_cast<uint8_t>(shm::NqeOp::kHeartbeat), 0, blackout_us);
  hb_misses_.erase(sick->id());
  return rehomed;
}

void Host::RehomeVm(Vm* vm, Nsm* to) {
  const uint8_t vm_id = vm->id();
  ce_->AssignVmToNsm(vm_id, to->id());
  // Unlike SwitchNsm's alias addressing, failover keeps the VM's original
  // address: the standby's vNIC starts answering for it and the fabric
  // re-points the route (AddRoute overwrites). Peers keep talking to the
  // same ip:port across the replacement.
  AttachVmToNsm(vm, to, vm->ip_);
  vm->ip_per_nsm_[to] = vm->ip_;
  if (std::find(vm->attached_nsms_.begin(), vm->attached_nsms_.end(), to) ==
      vm->attached_nsms_.end()) {
    vm->attached_nsms_.push_back(to);
  }
  vm->nsm_ = to;
  EmitRehomeNqe(vm, to->id());
}

void Host::QuarantineVm(Vm* vm) {
  NK_CHECK(vm != nullptr);
  if (!vm->netkernel_mode() || vm->quarantined_) return;
  const uint8_t vm_id = vm->id();
  vm->quarantined_ = true;
  // Mark in the validator first: any NQE of this VM still inside a polling
  // round drains as a quarantine drop instead of dispatching.
  ce_->validator().SetQuarantined(vm_id, true);
  // Pull the device out of the switch — co-tenants' DRR slots simply stop
  // seeing this VM. Pending in-switch deliveries toward it unwind through
  // the usual FailVmNqe error path.
  ce_->DeregisterVmDevice(vm_id);
  // Sweep whatever the deregistered rings still hold: nothing polls them
  // until an un-quarantine, and a send-family NQE parked there pins a live
  // hugepage chunk. Each carried chunk unwinds like a CE error completion
  // (unconsumed flag, credit in op_data) so the still-running GuestLib frees
  // it and reclaims the send credit; if the completion ring is full the chunk
  // goes straight back to the pool and only the credit pairing relaxes.
  for (int qs = 0; qs < vm->dev_->num_queue_sets(); ++qs) {
    shm::QueueSet& q = vm->dev_->queue_set(qs);
    shm::Nqe nqe;
    auto sweep = [&](shm::SpscRing<shm::Nqe>& ring) {
      while (ring.TryDequeue(&nqe)) {
        shm::NqeOp comp = shm::NqeOp::kInvalid;
        switch (nqe.Op()) {
          case shm::NqeOp::kSend: comp = shm::NqeOp::kSendResult; break;
          case shm::NqeOp::kSendZc: comp = shm::NqeOp::kSendZcComplete; break;
          case shm::NqeOp::kSendTo:
          case shm::NqeOp::kSendToZc: comp = shm::NqeOp::kSendToResult; break;
          case shm::NqeOp::kInvalid:
          case shm::NqeOp::kSocket:
          case shm::NqeOp::kBind:
          case shm::NqeOp::kListen:
          case shm::NqeOp::kConnect:
          case shm::NqeOp::kAccept:
          case shm::NqeOp::kSetsockopt:
          case shm::NqeOp::kGetsockopt:
          case shm::NqeOp::kIoctl:
          case shm::NqeOp::kShutdown:
          case shm::NqeOp::kClose:
          case shm::NqeOp::kSocketUdp:
          case shm::NqeOp::kBindUdp:
          case shm::NqeOp::kRecvFrom:
          case shm::NqeOp::kOpResult:
          case shm::NqeOp::kConnectResult:
          case shm::NqeOp::kAcceptedConn:
          case shm::NqeOp::kSendResult:
          case shm::NqeOp::kRecvData:
          case shm::NqeOp::kFinReceived:
          case shm::NqeOp::kSendToResult:
          case shm::NqeOp::kDgramRecv:
          case shm::NqeOp::kSendZcComplete:
          case shm::NqeOp::kDgramRecvZc:
          case shm::NqeOp::kNsmRehomed:
          case shm::NqeOp::kRegisterDevice:
          case shm::NqeOp::kDeregisterDevice:
          case shm::NqeOp::kHeartbeat:
            break;  // no chunk pinned: drains valueless
        }
        // Non-enumerator bytes off the hostile ring match no case and drain
        // valueless too.
        if (comp == shm::NqeOp::kInvalid) continue;
        if (!vm->pool_->IsAllocated(nqe.data_ptr)) continue;
        shm::Nqe resp = shm::MakeNqe(comp, vm_id, nqe.queue_set, nqe.vm_sock);
        resp.size = static_cast<uint32_t>(kCeNetUnreach);
        resp.reserved[0] = nqe.op;
        resp.reserved[1] = shm::kNqeFlagChunkUnconsumed;
        resp.op_data = nqe.size;  // send credit to return
        resp.data_ptr = nqe.data_ptr;
        if (!q.completion.TryEnqueue(resp)) vm->pool_->Free(nqe.data_ptr);
      }
    };
    sweep(q.send);
    sweep(q.job);
  }
  vm->dev_->Wake();
  // Every NSM the VM ever attached to evicts its state; in-flight chunks
  // return to the VM's pool, which the VM keeps through the quarantine.
  for (Nsm* n : vm->attached_nsms_) n->service_->EvictVm(vm_id);
  failover_recorder_->Record(obs::FlightEventType::kVmQuarantined, vm_id, 0, 0, 0,
                             ce_->validator().VmStats(vm_id).rejects);
}

void Host::UnquarantineVm(Vm* vm) {
  NK_CHECK(vm != nullptr);
  if (!vm->netkernel_mode() || !vm->quarantined_) return;
  const uint8_t vm_id = vm->id();
  Nsm* nsm = vm->nsm_;
  NK_CHECK(nsm != nullptr);
  vm->quarantined_ = false;
  // Clear the validator verdict history (violation count resets; the chunk
  // replay ledger stays — generations only move forward) and re-admit.
  ce_->validator().SetQuarantined(vm_id, false);
  ce_->RegisterVmDevice(vm_id, vm->dev_.get());
  ce_->AssignVmToNsm(vm_id, nsm->id());
  // Re-attach exactly like a failover re-home: same address, fresh NSM-side
  // state, and a kNsmRehomed nudge so the guest replays its datagram
  // sockets. Stream connections died with the eviction and surface to the
  // app as errored FINs / reconnects.
  RehomeVm(vm, nsm);
}

void Host::EmitRehomeNqe(Vm* vm, uint8_t new_nsm_id) {
  // Per-VM event (vm_sock = 0) on the qset-0 completion ring: GuestLib
  // re-issues socket/bind for every datagram socket so the standby rebuilds
  // their state under the same guest handles.
  shm::Nqe nqe = shm::MakeNqe(shm::NqeOp::kNsmRehomed, vm->id(), 0, 0, new_nsm_id);
  if (vm->dev_->queue_set(0).completion.TryEnqueue(nqe)) {
    vm->dev_->Wake();
    return;
  }
  // Completion ring full (guest far behind): retry shortly — the notification
  // must not be lost, or the guest's datagram sockets stay dark forever.
  const uint8_t vm_id = vm->id();
  loop_->ScheduleAfter(5 * kMicrosecond, [this, vm_id, new_nsm_id] {
    for (auto& v : vms_) {
      if (v->id() == vm_id) return EmitRehomeNqe(v.get(), new_nsm_id);
    }
  });
}

}  // namespace netkernel::core
