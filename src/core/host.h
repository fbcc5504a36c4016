// Copyright (c) NetKernel reproduction authors.
// Assembly of the paper's deployment unit: a physical host running
// CoreEngine on a dedicated core, Network Stack Modules, and guest VMs in
// either NetKernel or Baseline (stack-in-guest) mode. Benchmarks build their
// topologies from these pieces.

#ifndef SRC_CORE_HOST_H_
#define SRC_CORE_HOST_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/baseline_api.h"
#include "src/core/coreengine.h"
#include "src/core/guestlib.h"
#include "src/core/servicelib.h"
#include "src/core/shm_nsm.h"
#include "src/netsim/fabric.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tcpstack/stack.h"
#include "src/udpstack/stack.h"

namespace netkernel::core {

enum class NsmKind {
  kKernel,     // Linux-kernel-profile TCP stack NSM
  kMtcp,       // mTCP userspace-profile NSM
  kShm,        // shared-memory NSM (colocated VM traffic, §6.4)
  kFairShare,  // kernel stack + per-VM shared congestion window (§6.2)
};

class Host;

// A Network Stack Module: a VM run by the operator holding a network stack.
class Nsm {
 public:
  const std::string& name() const { return name_; }
  uint8_t id() const { return id_; }
  NsmKind kind() const { return kind_; }
  tcp::TcpStack* stack() { return stack_.get(); }
  udp::UdpStack* udp_stack() { return udp_stack_.get(); }
  // The NQE front-end every NSM kind runs (attach, credits, eviction,
  // shutdown, liveness, metrics). servicelib()/shm_servicelib() narrow it to
  // the stack-backed or shared-memory transport (null for the other kind).
  NsmService* service() { return service_.get(); }
  ServiceLib* servicelib() { return dynamic_cast<ServiceLib*>(service_.get()); }
  ShmServiceLib* shm_servicelib() { return dynamic_cast<ShmServiceLib*>(service_.get()); }
  sim::CpuCore* vcpu(int i) { return cores_[i].get(); }
  int num_vcpus() const { return static_cast<int>(cores_.size()); }
  netsim::Link* down_link() { return down_link_; }

  Cycles TotalBusyCycles() const {
    Cycles total = 0;
    for (const auto& c : cores_) total += c->busy_cycles();
    return total;
  }
  void ResetCycleAccounting() {
    for (const auto& c : cores_) c->ResetAccounting();
  }

  // FairShare NSM: the VM-level shared window group (null otherwise).
  std::shared_ptr<tcp::SharedWindowGroup> shared_window_group(uint8_t vm_id) {
    auto it = groups_.find(vm_id);
    return it == groups_.end() ? nullptr : it->second;
  }

 private:
  friend class Host;
  std::string name_;
  uint8_t id_ = 0;
  NsmKind kind_ = NsmKind::kKernel;
  std::vector<std::unique_ptr<sim::CpuCore>> cores_;
  std::unique_ptr<shm::NkDevice> dev_;
  std::unique_ptr<tcp::TcpStack> stack_;
  std::unique_ptr<udp::UdpStack> udp_stack_;
  std::unique_ptr<NsmService> service_;
  netsim::Nic* vnic_ = nullptr;
  netsim::Link* down_link_ = nullptr;  // null for the stackless shm NSM
  // FairShare NSM: one shared window group per VM.
  std::unordered_map<uint8_t, std::shared_ptr<tcp::SharedWindowGroup>> groups_;
};

// A guest VM, in NetKernel mode (GuestLib + NSM) or Baseline mode (own stack).
class Vm {
 public:
  const std::string& name() const { return name_; }
  uint8_t id() const { return id_; }
  netsim::IpAddr ip() const { return ip_; }
  bool netkernel_mode() const { return guestlib_ != nullptr; }

  // The BSD-socket boundary: identical for both modes, so applications are
  // oblivious to where their network stack runs.
  SocketApi& api() { return guestlib_ ? static_cast<SocketApi&>(*guestlib_) : *baseline_; }
  GuestLib* guestlib() { return guestlib_.get(); }
  BaselineSocketApi* baseline() { return baseline_.get(); }
  tcp::TcpStack* guest_stack() { return stack_.get(); }
  udp::UdpStack* guest_udp_stack() { return udp_stack_.get(); }
  Nsm* nsm() { return nsm_; }
  shm::HugepagePool* pool() { return pool_.get(); }
  shm::NkDevice* dev() { return dev_.get(); }
  // nkguard: quarantined VMs are deregistered from the switch (see
  // Host::QuarantineVm) but keep their device, pool and GuestLib.
  bool quarantined() const { return quarantined_; }

  // The address this VM's connections use on a given NSM. Multi-NSM setups
  // (Table 4) give the VM one alias address per NSM so the fabric can route
  // each connection's return traffic to the right NSM vNIC.
  netsim::IpAddr IpOn(const Nsm* nsm) const {
    auto it = ip_per_nsm_.find(nsm);
    return it == ip_per_nsm_.end() ? ip_ : it->second;
  }

  sim::CpuCore* vcpu(int i) { return cores_[i].get(); }
  int num_vcpus() const { return static_cast<int>(cores_.size()); }

  Cycles TotalBusyCycles() const {
    Cycles total = 0;
    for (const auto& c : cores_) total += c->busy_cycles();
    return total;
  }
  void ResetCycleAccounting() {
    for (const auto& c : cores_) c->ResetAccounting();
  }

 private:
  friend class Host;
  std::string name_;
  uint8_t id_ = 0;
  netsim::IpAddr ip_ = 0;
  std::vector<std::unique_ptr<sim::CpuCore>> cores_;
  // NetKernel mode.
  std::unique_ptr<shm::NkDevice> dev_;
  std::unique_ptr<shm::HugepagePool> pool_;
  std::unique_ptr<GuestLib> guestlib_;
  Nsm* nsm_ = nullptr;
  std::vector<Nsm*> attached_nsms_;  // every NSM this VM ever attached to
  std::unordered_map<const Nsm*, netsim::IpAddr> ip_per_nsm_;
  // Baseline mode.
  std::unique_ptr<tcp::TcpStack> stack_;
  std::unique_ptr<udp::UdpStack> udp_stack_;
  std::unique_ptr<BaselineSocketApi> baseline_;
  netsim::Nic* vnic_ = nullptr;
  bool quarantined_ = false;
};

class Host {
 public:
  struct Options {
    netsim::Link::Config port;  // per-vNIC/pNIC link parameters
    CoreEngineConfig ce;
    // NetKernel-plumbing cost overrides (ablation knobs): applied to every
    // GuestLib / ServiceLib this host creates.
    GuestLib::Config guestlib;
    ServiceLib::Config servicelib;
  };

  Host(sim::EventLoop* loop, netsim::Fabric* fabric, std::string name, Options options = {});

  CoreEngine& ce() { return *ce_; }
  // CE switching cores: one per shard (Options::ce.shards), named
  // "<host>.ce0", "<host>.ce1", ... ce_core() is shard 0 for compatibility.
  sim::CpuCore* ce_core() { return ce_cores_[0].get(); }
  sim::CpuCore* ce_core(int shard) { return ce_cores_[static_cast<size_t>(shard)].get(); }
  int num_ce_cores() const { return static_cast<int>(ce_cores_.size()); }
  sim::EventLoop* loop() { return loop_; }
  netsim::Fabric* fabric() { return fabric_; }

  // Creates an NSM with `vcpus` cores. `stack_config` tunes the NSM's stack
  // (profile/cc are overridden to match `kind` unless pre-set).
  Nsm* CreateNsm(const std::string& name, int vcpus, NsmKind kind,
                 tcp::TcpStackConfig stack_config = {});

  // Creates a VM served by `nsm` through NetKernel.
  Vm* CreateNetkernelVm(const std::string& name, int vcpus, Nsm* nsm,
                        uint64_t hugepage_bytes = shm::HugepagePool::kDefaultRegionBytes);

  // Creates a Baseline VM with the TCP stack in the guest.
  Vm* CreateBaselineVm(const std::string& name, int vcpus,
                       tcp::TcpStackConfig stack_config = {});

  // Moves a VM to a different NSM on the fly (new sockets go to `nsm`).
  void SwitchNsm(Vm* vm, Nsm* nsm);

  // ---- NSM failover & rolling live upgrade ----
  struct FailoverConfig {
    SimTime heartbeat_period = 20 * kMicrosecond;  // NSM liveness beacon interval
    SimTime check_period = 25 * kMicrosecond;      // controller poll interval
    SimTime grace = 50 * kMicrosecond;             // slack past one beacon period
    int miss_threshold = 3;  // consecutive silent checks before failover
  };
  // Controller counters, registered under ce.* in BuildMetricsRegistry.
  // nklint: stats
  struct FailoverStats {
    uint64_t nsm_failovers = 0;       // NSMs drained and replaced
    uint64_t heartbeat_misses = 0;    // checks that found an NSM silent
    uint64_t wedged_detections = 0;   // silent NSMs with ring backlog (stalled)
    uint64_t vms_rehomed = 0;         // VMs moved onto the standby
    uint64_t reconnects_required = 0; // stream conns errored with FINs
  };

  // Pre-registers the spare NSM failovers re-home onto. Consumed (promoted
  // to active duty) by the first failover; re-arm with a fresh spare for the
  // next rolling-upgrade step. Shared-memory NSMs cannot stand by for
  // stack-backed ones.
  void SetStandbyNsm(Nsm* nsm);
  Nsm* standby_nsm() { return standby_; }

  // Starts heartbeats on every NSM and polls their health every
  // check_period: an NSM silent (no beacon, no doorbell) for longer than
  // heartbeat_period + grace accrues a miss; miss_threshold consecutive
  // misses trigger FailoverNsm. Silent-with-backlog is flagged as wedged
  // (stalled process) before the failover.
  void StartFailoverController(FailoverConfig config);
  void StartFailoverController() { StartFailoverController(FailoverConfig()); }
  void StopFailoverController();

  // Drain-and-replace of `sick` onto the registered standby — the rolling
  // live-upgrade primitive, and what the controller calls on detection.
  // Deregisters the sick NSM (erroring its stream connections with FINs),
  // shuts its NsmService down, re-homes every VM it served, and notifies
  // each guest with kNsmRehomed. Returns the number of VMs re-homed; no-op
  // (returns 0) without a standby.
  size_t FailoverNsm(Nsm* sick);

  // ---- nkguard quarantine ----
  // Pulls a misbehaving VM out of the datapath without disturbing
  // co-tenants: its device deregisters from the CoreEngine, every NSM it
  // attached to evicts its state (in-flight chunks reclaimed into its
  // still-owned pool), and the validator marks it so any residual ring
  // entries drain unrouted. The VM object, device, pool and GuestLib stay —
  // UnquarantineVm re-registers the device, re-attaches the NSM and replays
  // datagram state through the usual kNsmRehomed path. The CoreEngine
  // triggers this automatically through the quarantine callback when
  // GuardPolicy::kQuarantine trips; tests and operators call it directly.
  void QuarantineVm(Vm* vm);
  void UnquarantineVm(Vm* vm);

  const FailoverStats& failover_stats() const { return failover_stats_; }
  // Per-failover blackout: how long the sick NSM was dark before the standby
  // took over, in microseconds.
  const obs::Histogram& blackout_histogram() const { return blackout_us_; }

  // DRR weight of a NetKernel VM at this host's CoreEngine (default 1): a
  // weight-w VM receives w/sum(weights) of the switch's NQE service under
  // contention (§4.4).
  void SetVmWeight(Vm* vm, uint32_t weight);
  // This VM's slice of the CoreEngine per-VM stats (observability surface
  // for the Fig 9/21 fairness and isolation claims).
  PerVmStats VmNkStats(const Vm* vm) const;

  netsim::IpAddr AllocIp();

  // ---- Observability (nkobs) ----
  // The host-wide NQE lifecycle tracer. Wired into CoreEngine, every
  // ServiceLib and every GuestLib at creation; disabled until
  // SetTraceSampling() is called with a nonzero interval.
  obs::Tracer& tracer() { return *tracer_; }
  const obs::Tracer& tracer() const { return *tracer_; }
  // 0 disables lifecycle tracing; N samples one in every N guest enqueues.
  void SetTraceSampling(uint32_t sample_every) { tracer_->set_sample_every(sample_every); }

  // Registers every component's live counters into `registry` under stable
  // dotted names: ce.shard<i>.*, ce.vm<id>.*, nsm<id>.{tcp,udp,svc}.*,
  // vm<id>.guest.*, trace.*. Sources are lazy; export reads live values.
  void BuildMetricsRegistry(obs::MetricsRegistry* registry) const;
  // Prometheus text exposition (v0.0.4) of a freshly built registry.
  std::string DumpMetrics() const;
  // Same registry as flat JSON ({"name": value, ...} plus histogram summaries).
  std::string DumpMetricsJson() const;

  // Merged (virtual-time-ordered) tail of every flight recorder on the host:
  // all CoreEngine shards, every NSM front-end and the failover controller.
  std::string DumpFlightRecorder(size_t last_k = 32) const;

  // Resets the process-wide IP allocator. Tests that compare two runs for
  // bit-identical determinism need both runs to see identical addresses.
  static void ResetIpAllocator() { next_ip_suffix_ = 1; }

 private:
  void ScheduleFailoverCheck();
  void RunFailoverCheck();
  // Attaches `vm` to `nsm` under `ip`: NSM front-end state, the fabric route
  // to a stack-backed NSM's vNIC, and a FairShare NSM's per-VM window.
  void AttachVmToNsm(Vm* vm, Nsm* nsm, netsim::IpAddr ip);
  // Attaches the VM to `to` under its ORIGINAL address (no alias), re-points
  // the fabric route, and notifies the guest with kNsmRehomed.
  void RehomeVm(Vm* vm, Nsm* to);
  void EmitRehomeNqe(Vm* vm, uint8_t new_nsm_id);

  sim::EventLoop* loop_;
  netsim::Fabric* fabric_;
  std::string name_;
  Options options_;
  std::vector<std::unique_ptr<sim::CpuCore>> ce_cores_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<CoreEngine> ce_;
  std::vector<std::unique_ptr<Nsm>> nsms_;
  std::vector<std::unique_ptr<Vm>> vms_;
  uint8_t next_vm_id_ = 1;
  uint8_t next_nsm_id_ = 1;
  // Failover controller state.
  Nsm* standby_ = nullptr;
  bool failover_running_ = false;
  FailoverConfig failover_config_;
  FailoverStats failover_stats_;
  obs::Histogram blackout_us_;
  sim::EventHandle failover_timer_;
  std::unordered_map<uint8_t, int> hb_misses_;
  std::unique_ptr<obs::FlightRecorder> failover_recorder_;
  static uint32_t next_ip_suffix_;
};

}  // namespace netkernel::core

#endif  // SRC_CORE_HOST_H_
