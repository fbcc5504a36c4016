// Copyright (c) NetKernel reproduction authors.
// Sharded CoreEngine tests: queue-set placement (hash + explicit control
// op), NQE conservation and per-connection ordering across a work-stealing
// migration, weighted fairness when the competing VMs live on different
// shards, the NSM-deregistration race with parked deliveries spread over
// shards, a mixed stream/datagram socket table across a migration and NSM
// death, scheduler-state cleanup on VM deregistration, the kQueryVmStatWide
// control op, near-linear multi-shard switching throughput, and coalesced
// NSM-side wakeups.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "src/core/coreengine.h"
#include "src/core/netkernel.h"
#include "src/shm/nk_device.h"
#include "src/sim/cpu.h"
#include "src/sim/event_loop.h"

namespace netkernel::core {
namespace {

using shm::MakeNqe;
using shm::Nqe;
using shm::NkDevice;
using shm::NqeOp;

// A CoreEngine with `shards` dedicated cores on one event loop.
class ShardHarness {
 public:
  ShardHarness(int shards, CoreEngineConfig cfg) {
    std::vector<sim::CpuCore*> ptrs;
    for (int i = 0; i < shards; ++i) {
      cores_.push_back(std::make_unique<sim::CpuCore>(&loop_, "ce" + std::to_string(i)));
      ptrs.push_back(cores_.back().get());
    }
    ce_ = std::make_unique<CoreEngine>(&loop_, ptrs, cfg);
  }

  void RunFor(SimTime t) { loop_.Run(loop_.Now() + t); }

  sim::EventLoop loop_;
  std::vector<std::unique_ptr<sim::CpuCore>> cores_;
  std::unique_ptr<CoreEngine> ce_;
};

// ---------------------------------------------------------------------------
// Placement: hash default, explicit AssignQueueSetToShard, control op.
// ---------------------------------------------------------------------------

TEST(CeShardTest, PlacementHashAndExplicitOverride) {
  CoreEngineConfig cfg;
  ShardHarness h(2, cfg);
  NkDevice vm_dev("vm", 4);
  NkDevice nsm_dev("nsm", 4);
  h.ce_->RegisterVmDevice(1, &vm_dev);
  h.ce_->RegisterNsmDevice(1, &nsm_dev);

  // Every queue set has exactly one owning shard.
  for (uint8_t qs = 0; qs < 4; ++qs) {
    int s = h.ce_->ShardOfVmQset(1, qs);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 2);
    s = h.ce_->ShardOfNsmQset(1, qs);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 2);
  }
  // An NSM with >= num_shards queue sets reaches every shard (consecutive
  // placement), so connection placement can stay shard-aligned.
  bool shard_seen[2] = {false, false};
  for (uint8_t qs = 0; qs < 4; ++qs) shard_seen[h.ce_->ShardOfNsmQset(1, qs)] = true;
  EXPECT_TRUE(shard_seen[0] && shard_seen[1]);

  // Explicit pinning overrides the hash.
  for (uint8_t qs = 0; qs < 4; ++qs) {
    EXPECT_TRUE(h.ce_->AssignQueueSetToShard(1, qs, 1));
    EXPECT_EQ(h.ce_->ShardOfVmQset(1, qs), 1);
  }
  // And over the 8-byte control channel.
  CeMessage resp = h.ce_->HandleControlMessage(
      {static_cast<uint32_t>(CeOp::kAssignQsetToShard), (1u << 16) | (2u << 8) | 0u});
  EXPECT_EQ(resp.ce_op, static_cast<uint32_t>(CeOp::kOk));
  EXPECT_EQ(h.ce_->ShardOfVmQset(1, 2), 0);
  // Unknown VM / out-of-range shard are rejected.
  resp = h.ce_->HandleControlMessage(
      {static_cast<uint32_t>(CeOp::kAssignQsetToShard), (9u << 16) | (0u << 8) | 0u});
  EXPECT_EQ(resp.ce_op, static_cast<uint32_t>(CeOp::kError));
  EXPECT_FALSE(h.ce_->AssignQueueSetToShard(1, 0, 7));
}

// ---------------------------------------------------------------------------
// Conservation + ordering across a work-stealing migration.
// ---------------------------------------------------------------------------

TEST(CeShardTest, ConservationAndOrderAcrossMigration) {
  CoreEngineConfig cfg;
  cfg.pending_bound = 8;  // keep the backlog at the source so stealing fires
  cfg.steal_backlog = 16;
  cfg.steal_cooldown_rounds = 2;
  ShardHarness h(2, cfg);
  NkDevice vm_dev("vm", 2);
  NkDevice nsm_dev("nsm", 1, 64);
  h.ce_->RegisterNsmDevice(1, &nsm_dev);
  h.ce_->RegisterVmDevice(1, &vm_dev);
  h.ce_->AssignVmToNsm(1, 1);
  // Both queue sets start on shard 0: an unbalanced placement the
  // work-stealing rebalance must fix.
  ASSERT_TRUE(h.ce_->AssignQueueSetToShard(1, 0, 0));
  ASSERT_TRUE(h.ce_->AssignQueueSetToShard(1, 1, 0));

  // One datagram socket per queue set (vm_sock == queue set).
  for (uint8_t qs = 0; qs < 2; ++qs) {
    vm_dev.queue_set(qs).job.TryEnqueue(MakeNqe(NqeOp::kSocketUdp, 1, qs, qs));
  }
  h.ce_->NotifyVmOutbound(1);
  h.RunFor(kMillisecond);
  Nqe nqe;
  while (nsm_dev.queue_set(0).job.TryDequeue(&nqe)) {
  }

  // Offer 300 sequenced datagrams per socket, all at once.
  constexpr uint64_t kPerSock = 300;
  for (uint8_t qs = 0; qs < 2; ++qs) {
    for (uint64_t seq = 0; seq < kPerSock; ++seq) {
      ASSERT_TRUE(vm_dev.queue_set(qs).send.TryEnqueue(
          MakeNqe(NqeOp::kSendTo, 1, qs, qs, /*op_data=*/seq, 0, 64)));
    }
  }
  h.ce_->NotifyVmOutbound(1);

  // Slow consumer: 2 NQEs/us, recording each socket's sequence order.
  std::map<uint32_t, std::vector<uint64_t>> seqs;
  uint64_t delivered = 0;
  const SimTime end = h.loop_.Now() + 50 * kMillisecond;
  for (SimTime t = h.loop_.Now(); t < end; t += kMicrosecond) {
    h.loop_.Schedule(t, [&] {
      auto& q = nsm_dev.queue_set(0);
      Nqe n2;
      for (int i = 0; i < 2 && (q.send.TryDequeue(&n2) || q.job.TryDequeue(&n2)); ++i) {
        seqs[n2.vm_sock].push_back(n2.op_data);
        ++delivered;
      }
    });
  }
  h.loop_.Run(end);

  // The overloaded shard shed a queue set to the idle one.
  EXPECT_GE(h.ce_->stats().qset_migrations, 1u);
  EXPECT_NE(h.ce_->ShardOfVmQset(1, 0), h.ce_->ShardOfVmQset(1, 1));
  // Conservation: everything offered was delivered, nothing dropped or
  // stuck in a park the migration lost track of.
  EXPECT_EQ(delivered, 2 * kPerSock);
  EXPECT_EQ(h.ce_->stats().nqes_dropped, 0u);
  EXPECT_EQ(h.ce_->ParkedDeliveries(), 0u);
  // Per-connection FIFO order survived the handoff.
  for (const auto& [sock, v] : seqs) {
    ASSERT_EQ(v.size(), kPerSock);
    for (uint64_t i = 0; i < v.size(); ++i) {
      ASSERT_EQ(v[i], i) << "socket " << sock << " reordered at " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Weighted fairness across shards: the two VMs share one slow NSM but are
// switched by different CE cores; the weighted park drain keeps the ratio.
// ---------------------------------------------------------------------------

class CrossShardSaturation {
 public:
  explicit CrossShardSaturation(uint32_t w1, uint32_t w2)
      : h_(2, MakeConfig()), nsm_dev_("nsm", 1, 64), vm1_dev_("vm1", 1), vm2_dev_("vm2", 1) {
    h_.ce_->RegisterNsmDevice(1, &nsm_dev_);
    h_.ce_->RegisterVmDevice(1, &vm1_dev_);
    h_.ce_->RegisterVmDevice(2, &vm2_dev_);
    h_.ce_->AssignVmToNsm(1, 1);
    h_.ce_->AssignVmToNsm(2, 1);
    EXPECT_TRUE(h_.ce_->AssignQueueSetToShard(1, 0, 0));
    EXPECT_TRUE(h_.ce_->AssignQueueSetToShard(2, 0, 1));
    h_.ce_->SetVmWeight(1, w1);
    h_.ce_->SetVmWeight(2, w2);
    vm1_dev_.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocketUdp, 1, 0, 1));
    vm2_dev_.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocketUdp, 2, 0, 1));
    h_.ce_->NotifyVmOutbound(1);
    h_.ce_->NotifyVmOutbound(2);
    h_.RunFor(kMillisecond);
    Nqe nqe;
    while (nsm_dev_.queue_set(0).job.TryDequeue(&nqe)) {
    }
  }

  static CoreEngineConfig MakeConfig() {
    CoreEngineConfig c;
    c.pending_bound = 64;
    return c;
  }

  std::map<uint8_t, uint64_t> RunSaturated(SimTime duration) {
    std::map<uint8_t, uint64_t> tally;
    const SimTime end = h_.loop_.Now() + duration;
    for (SimTime t = h_.loop_.Now(); t < end; t += 100 * kMicrosecond) {
      h_.loop_.Schedule(t, [this] {
        Refill(vm1_dev_, 1);
        Refill(vm2_dev_, 2);
      });
    }
    for (SimTime t = h_.loop_.Now(); t < end; t += kMicrosecond) {
      h_.loop_.Schedule(t, [this, &tally] {
        auto& q = nsm_dev_.queue_set(0);
        Nqe nqe;
        for (int i = 0; i < 4 && (q.send.TryDequeue(&nqe) || q.job.TryDequeue(&nqe)); ++i) {
          ++tally[nqe.vm_id];
        }
      });
    }
    h_.loop_.Run(end);
    return tally;
  }

  void Refill(NkDevice& dev, uint8_t vm_id) {
    auto& ring = dev.queue_set(0).send;
    while (ring.TryEnqueue(MakeNqe(NqeOp::kSendTo, vm_id, 0, 1, 0, 0, 64))) {
    }
    h_.ce_->NotifyVmOutbound(vm_id);
  }

  ShardHarness h_;
  NkDevice nsm_dev_;
  NkDevice vm1_dev_;
  NkDevice vm2_dev_;
};

TEST(CeShardTest, EqualWeightFairnessAcrossShards) {
  CrossShardSaturation s(1, 1);
  auto tally = s.RunSaturated(20 * kMillisecond);
  double total = static_cast<double>(tally[1] + tally[2]);
  ASSERT_GT(tally[1], 1000u);
  ASSERT_GT(tally[2], 1000u);
  EXPECT_NEAR(static_cast<double>(tally[1]) / total, 0.5, 0.05);
}

TEST(CeShardTest, WeightedFairnessTwoToOneAcrossShards) {
  CrossShardSaturation s(2, 1);
  auto tally = s.RunSaturated(20 * kMillisecond);
  double total = static_cast<double>(tally[1] + tally[2]);
  ASSERT_GT(tally[1], 1000u);
  ASSERT_GT(tally[2], 1000u);
  // The VMs are switched by different cores; only the facade's weighted
  // drain of the contended destination can enforce the 2:1 split.
  EXPECT_NEAR(static_cast<double>(tally[1]) / total, 2.0 / 3.0, 0.05);
  // The switch's own accounting agrees.
  PerVmStats s1 = s.h_.ce_->VmStats(1);
  PerVmStats s2 = s.h_.ce_->VmStats(2);
  EXPECT_NEAR(
      static_cast<double>(s1.switched) / static_cast<double>(s1.switched + s2.switched),
      2.0 / 3.0, 0.05);
}

// ---------------------------------------------------------------------------
// Deregistration race: the NSM dies while both shards hold parked
// deliveries for it. Every parked NQE must convert into a counted drop plus
// a credit/chunk-reclaiming error completion — on the right VM's device.
// ---------------------------------------------------------------------------

TEST(CeShardTest, NsmDeathWithParkedDeliveriesOnBothShards) {
  CoreEngineConfig cfg;
  cfg.pending_bound = 8;
  ShardHarness h(2, cfg);
  NkDevice nsm_dev("nsm", 1, 16);  // 15-slot rings, nobody draining
  NkDevice vm1_dev("vm1", 1);
  NkDevice vm2_dev("vm2", 1);
  h.ce_->RegisterNsmDevice(1, &nsm_dev);
  h.ce_->RegisterVmDevice(1, &vm1_dev);
  h.ce_->RegisterVmDevice(2, &vm2_dev);
  h.ce_->AssignVmToNsm(1, 1);
  h.ce_->AssignVmToNsm(2, 1);
  ASSERT_TRUE(h.ce_->AssignQueueSetToShard(1, 0, 0));
  ASSERT_TRUE(h.ce_->AssignQueueSetToShard(2, 0, 1));
  vm1_dev.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocketUdp, 1, 0, 1));
  vm2_dev.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocketUdp, 2, 0, 1));
  h.ce_->NotifyVmOutbound(1);
  h.ce_->NotifyVmOutbound(2);
  h.RunFor(kMillisecond);
  Nqe nqe;
  while (nsm_dev.queue_set(0).job.TryDequeue(&nqe)) {
  }

  for (uint64_t i = 0; i < 100; ++i) {
    vm1_dev.queue_set(0).send.TryEnqueue(MakeNqe(NqeOp::kSendTo, 1, 0, 1, 0, i, 64));
    vm2_dev.queue_set(0).send.TryEnqueue(MakeNqe(NqeOp::kSendTo, 2, 0, 1, 0, i, 64));
  }
  h.ce_->NotifyVmOutbound(1);
  h.ce_->NotifyVmOutbound(2);
  h.RunFor(5 * kMillisecond);

  size_t parked0 = h.ce_->shard(0).ParkedDeliveries();
  size_t parked1 = h.ce_->shard(1).ParkedDeliveries();
  ASSERT_GT(parked0, 0u);
  ASSERT_GT(parked1, 0u);
  EXPECT_EQ(h.ce_->stats().nqes_dropped, 0u);

  h.ce_->DeregisterNsmDevice(1);
  EXPECT_EQ(h.ce_->ParkedDeliveries(), 0u);
  EXPECT_EQ(h.ce_->stats().nqes_dropped, parked0 + parked1);
  EXPECT_EQ(h.ce_->SocketTableSize(), 0u);
  // Each VM gets exactly its own parked count back as reclaim completions.
  auto reclaims = [&](NkDevice& dev) {
    uint64_t n = 0;
    Nqe got;
    while (dev.queue_set(0).completion.TryDequeue(&got)) {
      if (got.Op() == NqeOp::kSendToResult &&
          got.reserved[1] == shm::kNqeFlagChunkUnconsumed) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_EQ(reclaims(vm1_dev), parked0);
  EXPECT_EQ(reclaims(vm2_dev), parked1);
}

// ---------------------------------------------------------------------------
// One socket table holds both socket kinds: a stream and a datagram socket
// on one queue set migrate together, and the NSM's death FINs only the
// stream while the datagram socket re-homes to the next NSM.
// ---------------------------------------------------------------------------

TEST(CeShardTest, MixedSocketTableAcrossMigrationAndNsmDeath) {
  CoreEngineConfig cfg;
  ShardHarness h(2, cfg);
  NkDevice vm_dev("vm", 1);
  NkDevice nsm1("nsm1", 2);
  NkDevice nsm2("nsm2", 1);
  h.ce_->RegisterNsmDevice(1, &nsm1);
  h.ce_->RegisterVmDevice(1, &vm_dev);
  h.ce_->AssignVmToNsm(1, 1);
  ASSERT_TRUE(h.ce_->AssignQueueSetToShard(1, 0, 0));
  vm_dev.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  vm_dev.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocketUdp, 1, 0, 200));
  h.ce_->NotifyVmOutbound(1);
  h.RunFor(kMillisecond);
  auto drain = [](NkDevice& dev) {
    std::vector<Nqe> out;
    Nqe nqe;
    for (int qs = 0; qs < dev.num_queue_sets(); ++qs) {
      while (dev.queue_set(qs).job.TryDequeue(&nqe)) out.push_back(nqe);
      while (dev.queue_set(qs).send.TryDequeue(&nqe)) out.push_back(nqe);
    }
    return out;
  };
  ASSERT_EQ(drain(nsm1).size(), 2u);
  EXPECT_EQ(h.ce_->SocketTableSize(), 2u);
  EXPECT_EQ(h.ce_->stats().table_inserts, 2u);

  // Both entries move with their queue set: traffic after the handoff hits
  // them on the new shard instead of inserting (or re-homing) afresh.
  const uint64_t migrations = h.ce_->stats().qset_migrations;
  ASSERT_TRUE(h.ce_->AssignQueueSetToShard(1, 0, 1));
  ASSERT_EQ(h.ce_->ShardOfVmQset(1, 0), 1);
  vm_dev.queue_set(0).send.TryEnqueue(MakeNqe(NqeOp::kSend, 1, 0, 100, 0, 0, 64));
  vm_dev.queue_set(0).send.TryEnqueue(
      MakeNqe(NqeOp::kSendTo, 1, 0, 200, shm::PackAddr(1, 80), 0, 64));
  h.ce_->NotifyVmOutbound(1);
  h.RunFor(kMillisecond);
  EXPECT_EQ(drain(nsm1).size(), 2u);
  EXPECT_EQ(h.ce_->SocketTableSize(), 2u);
  EXPECT_EQ(h.ce_->stats().table_inserts, 2u);
  EXPECT_EQ(h.ce_->stats().qset_migrations, migrations + 1);

  h.ce_->RegisterNsmDevice(2, &nsm2);
  EXPECT_EQ(h.ce_->DeregisterNsmDevice(1), 1u);
  EXPECT_EQ(h.ce_->SocketTableSize(), 0u);
  size_t fins = 0;
  Nqe got;
  while (vm_dev.queue_set(0).receive.TryDequeue(&got)) {
    ASSERT_EQ(got.Op(), NqeOp::kFinReceived);
    EXPECT_EQ(got.vm_sock, 100u);
    EXPECT_EQ(static_cast<int32_t>(got.size), kCeNetUnreach);
    ++fins;
  }
  EXPECT_EQ(fins, 1u);

  // The datagram socket re-homes to the newly assigned NSM.
  h.ce_->AssignVmToNsm(1, 2);
  const uint64_t dgram_before = h.ce_->stats().dgram_nqes_switched;
  vm_dev.queue_set(0).send.TryEnqueue(
      MakeNqe(NqeOp::kSendTo, 1, 0, 200, shm::PackAddr(1, 80), 0, 64));
  h.ce_->NotifyVmOutbound(1);
  h.RunFor(kMillisecond);
  std::vector<Nqe> rehomed = drain(nsm2);
  ASSERT_EQ(rehomed.size(), 1u);
  EXPECT_EQ(rehomed[0].Op(), NqeOp::kSendTo);
  EXPECT_EQ(rehomed[0].vm_sock, 200u);
  EXPECT_EQ(h.ce_->stats().dgram_nqes_switched, dgram_before + 1);
  EXPECT_EQ(h.ce_->stats().nqes_dropped, 0u);
  EXPECT_FALSE(vm_dev.queue_set(0).completion.TryDequeue(&got));  // no error
}

// ---------------------------------------------------------------------------
// DeregisterVm clears DRR weight and token-bucket state: a re-registered VM
// id starts fresh.
// ---------------------------------------------------------------------------

TEST(CeShardTest, DeregisterVmClearsSchedulerState) {
  CoreEngineConfig cfg;
  ShardHarness h(2, cfg);
  NkDevice nsm_dev("nsm", 2);
  NkDevice vm_dev("vm", 2);
  h.ce_->RegisterNsmDevice(1, &nsm_dev);
  h.ce_->RegisterVmDevice(1, &vm_dev);
  h.ce_->AssignVmToNsm(1, 1);
  h.ce_->SetVmWeight(1, 7);
  h.ce_->SetVmOpRate(1, /*nqes_per_sec=*/1000.0, /*burst=*/2.0);
  EXPECT_EQ(h.ce_->VmWeight(1), 7u);

  h.ce_->DeregisterVmDevice(1);
  EXPECT_EQ(h.ce_->ShardOfVmQset(1, 0), -1);  // ownership map cleared

  NkDevice vm_dev2("vm-reborn", 2);
  h.ce_->RegisterVmDevice(1, &vm_dev2);
  h.ce_->AssignVmToNsm(1, 1);
  EXPECT_EQ(h.ce_->VmWeight(1), 1u);  // weight back to default
  // Token-bucket state is gone too: six control NQEs all pass immediately
  // (the stale 1000/s + burst-2 bucket would have throttled half of them).
  for (uint32_t i = 0; i < 6; ++i) {
    vm_dev2.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocket, 1, 0, 100 + i));
  }
  h.ce_->NotifyVmOutbound(1);
  h.RunFor(kMillisecond);
  uint64_t arrived = 0;
  Nqe nqe;
  for (int qs = 0; qs < 2; ++qs) {
    while (nsm_dev.queue_set(qs).job.TryDequeue(&nqe)) ++arrived;
  }
  EXPECT_EQ(arrived, 6u);
  EXPECT_EQ(h.ce_->stats().throttled_nqes, 0u);
}

// ---------------------------------------------------------------------------
// kQueryVmStatWide: per-VM isolation counters over the 8-byte control channel.
// ---------------------------------------------------------------------------

TEST(CeShardTest, QueryVmStatsControlOp) {
  CoreEngineConfig cfg;
  ShardHarness h(1, cfg);
  NkDevice nsm_dev("nsm", 1);
  NkDevice vm_dev("vm", 1);
  h.ce_->RegisterNsmDevice(1, &nsm_dev);
  h.ce_->RegisterVmDevice(1, &vm_dev);
  h.ce_->AssignVmToNsm(1, 1);
  vm_dev.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocketUdp, 1, 0, 1));
  h.ce_->NotifyVmOutbound(1);
  h.RunFor(kMillisecond);
  for (uint64_t i = 0; i < 10; ++i) {
    vm_dev.queue_set(0).send.TryEnqueue(MakeNqe(NqeOp::kSendTo, 1, 0, 1, 0, 0, 2048));
  }
  h.ce_->NotifyVmOutbound(1);
  h.RunFor(kMillisecond);

  auto query = [&](uint8_t vm, VmStatField f) {
    uint32_t words[2];
    for (uint32_t w = 0; w < 2; ++w) {
      CeMessage resp = h.ce_->HandleControlMessage(
          {static_cast<uint32_t>(CeOp::kQueryVmStatWide),
           (uint32_t(vm) << 16) | (static_cast<uint32_t>(f) << 8) | w});
      EXPECT_EQ(resp.ce_op, static_cast<uint32_t>(CeOp::kOk));
      words[w] = resp.ce_data;
    }
    return WideVmStat(words[0], words[1]);
  };
  PerVmStats direct = h.ce_->VmStats(1);
  ASSERT_GT(direct.switched, 0u);
  EXPECT_EQ(query(1, VmStatField::kSwitched), direct.switched);
  EXPECT_EQ(query(1, VmStatField::kDropped), direct.dropped);
  EXPECT_EQ(query(1, VmStatField::kBytes), direct.bytes);
  EXPECT_EQ(query(1, VmStatField::kDeferred), direct.deferred);
  // Unknown field selector is rejected; unknown VM reads as zero.
  CeMessage bad = h.ce_->HandleControlMessage(
      {static_cast<uint32_t>(CeOp::kQueryVmStatWide), (1u << 16) | (200u << 8)});
  EXPECT_EQ(bad.ce_op, static_cast<uint32_t>(CeOp::kError));
  EXPECT_EQ(query(42, VmStatField::kSwitched), 0u);
}

// ---------------------------------------------------------------------------
// Aggregate switched throughput scales near-linearly with shards (the
// acceptance bar for the multi-core tentpole; the benches report the same
// experiment at full length).
// ---------------------------------------------------------------------------

TEST(CeShardTest, SwitchingThroughputScalesNearLinearly) {
  bench::CeShardResult one = bench::RunCeShardExperiment(1, 4 * kMillisecond);
  bench::CeShardResult four = bench::RunCeShardExperiment(4, 4 * kMillisecond);
  ASSERT_GT(one.nqes_per_sec, 0.0);
  EXPECT_GE(four.nqes_per_sec / one.nqes_per_sec, 2.5);
}

// ---------------------------------------------------------------------------
// Coalesced NSM-side wakeups: a batch of responses dispatched in one
// ServiceLib round rings CoreEngine's doorbell once, not once per NQE.
// ---------------------------------------------------------------------------

TEST(CeShardTest, ServiceLibCoalescesDoorbells) {
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  Host host(&loop, &fabric, "A");
  Nsm* nsm = host.CreateNsm("nsm", 1, NsmKind::kKernel);

  // A hand-driven guest device, attached like a real VM.
  NkDevice vm_dev("vm", 1);
  shm::HugepagePool pool(1 * kMiB);
  host.ce().RegisterVmDevice(99, &vm_dev);
  host.ce().AssignVmToNsm(99, nsm->id());
  nsm->servicelib()->AttachVm(99, &pool, /*vm_ip=*/1234);

  // Create a TCP socket, then fire a burst of binds on it. ServiceLib
  // dispatches the burst in one round and answers each op; the responses
  // must share one doorbell.
  vm_dev.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocket, 99, 0, 1));
  host.ce().NotifyVmOutbound(99);
  loop.Run(loop.Now() + kMillisecond);
  Nqe got;
  ASSERT_TRUE(vm_dev.queue_set(0).completion.TryDequeue(&got));
  ASSERT_EQ(got.Op(), NqeOp::kOpResult);

  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    vm_dev.queue_set(0).job.TryEnqueue(
        MakeNqe(NqeOp::kBind, 99, 0, 1, shm::PackAddr(1234, 7000)));
  }
  host.ce().NotifyVmOutbound(99);
  loop.Run(loop.Now() + kMillisecond);

  int completions = 0;
  while (vm_dev.queue_set(0).completion.TryDequeue(&got)) {
    EXPECT_EQ(got.Op(), NqeOp::kOpResult);
    ++completions;
  }
  EXPECT_EQ(completions, kBurst);
  // Fewer doorbells than NSM->VM NQEs produced: the burst coalesced.
  EXPECT_GT(nsm->servicelib()->doorbells_coalesced(), 0u);
  EXPECT_LT(nsm->servicelib()->doorbells(), static_cast<uint64_t>(kBurst + 1));
  host.ce().DeregisterVmDevice(99);
}

}  // namespace
}  // namespace netkernel::core
