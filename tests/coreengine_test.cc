// Copyright (c) NetKernel reproduction authors.
// Unit tests for CoreEngine: registration control plane, NQE switching,
// socket table, VM->NSM mapping, and token-bucket isolation.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/coreengine.h"
#include "src/shm/nk_device.h"
#include "src/sim/cpu.h"
#include "src/sim/event_loop.h"

namespace netkernel::core {
namespace {

using shm::MakeNqe;
using shm::Nqe;
using shm::NkDevice;
using shm::NqeOp;

class CoreEngineTest : public ::testing::Test {
 protected:
  CoreEngineTest()
      : core_(&loop_, "ce"),
        ce_(&loop_, &core_),
        vm_dev_("vm1", 2),
        nsm_dev_("nsm1", 2) {
    ce_.RegisterVmDevice(1, &vm_dev_);
    ce_.RegisterNsmDevice(1, &nsm_dev_);
    ce_.AssignVmToNsm(1, 1);
  }

  // Pushes an NQE into the VM's job queue and runs the loop.
  void SendFromVm(Nqe nqe, int qset = 0, bool send_ring = false) {
    auto& q = vm_dev_.queue_set(qset);
    (send_ring ? q.send : q.job).TryEnqueue(nqe);
    ce_.NotifyVmOutbound(1);
    loop_.Run(loop_.Now() + kMillisecond);
  }

  // Collects everything the NSM device received across its queue sets.
  std::vector<Nqe> DrainNsm() {
    std::vector<Nqe> out;
    Nqe nqe;
    for (int qs = 0; qs < nsm_dev_.num_queue_sets(); ++qs) {
      auto& q = nsm_dev_.queue_set(qs);
      while (q.job.TryDequeue(&nqe)) out.push_back(nqe);
      while (q.send.TryDequeue(&nqe)) out.push_back(nqe);
    }
    return out;
  }

  sim::EventLoop loop_;
  sim::CpuCore core_;
  CoreEngine ce_;
  NkDevice vm_dev_;
  NkDevice nsm_dev_;
};

TEST_F(CoreEngineTest, SwitchesJobNqeToMappedNsm) {
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  auto got = DrainNsm();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].Op(), NqeOp::kSocket);
  EXPECT_EQ(got[0].vm_sock, 100u);
  EXPECT_EQ(ce_.SocketTableSize(), 1u);
  EXPECT_EQ(ce_.stats().nqes_switched, 1u);
}

TEST_F(CoreEngineTest, LaterNqesFollowTableEntryQueueSet) {
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  auto first = DrainNsm();
  ASSERT_EQ(first.size(), 1u);
  // A follow-up op for the same socket must land on the same NSM queue set.
  SendFromVm(MakeNqe(NqeOp::kSend, 1, 0, 100, 0, 0, 64), 0, true);
  Nqe nqe;
  bool found_qs0 = nsm_dev_.queue_set(0).send.TryDequeue(&nqe);
  bool found_qs1 = nsm_dev_.queue_set(1).send.TryDequeue(&nqe);
  EXPECT_TRUE(found_qs0 || found_qs1);
  EXPECT_FALSE(found_qs0 && found_qs1);
}

TEST_F(CoreEngineTest, SocketResultReachesOriginatingQueueSet) {
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  DrainNsm();
  // NSM answers with its socket id in op_data (Fig 6 step 3-4); the switch
  // passes it through to the guest untouched.
  Nqe resp = MakeNqe(NqeOp::kOpResult, 1, 0, 100, /*op_data=*/777);
  resp.reserved[0] = static_cast<uint8_t>(NqeOp::kSocket);
  nsm_dev_.queue_set(0).completion.TryEnqueue(resp);
  ce_.NotifyNsmOutbound(1);
  loop_.Run(loop_.Now() + kMillisecond);
  // Delivered to the VM's completion queue on the originating queue set.
  Nqe got;
  ASSERT_TRUE(vm_dev_.queue_set(0).completion.TryDequeue(&got));
  EXPECT_EQ(got.Op(), NqeOp::kOpResult);
  EXPECT_EQ(got.op_data, 777u);
}

TEST_F(CoreEngineTest, RecvDataGoesToReceiveRing) {
  Nqe rx = MakeNqe(NqeOp::kRecvData, 1, 1, 100, 0, 4096, 512);
  nsm_dev_.queue_set(0).receive.TryEnqueue(rx);
  ce_.NotifyNsmOutbound(1);
  loop_.Run(loop_.Now() + kMillisecond);
  Nqe got;
  EXPECT_FALSE(vm_dev_.queue_set(1).completion.TryDequeue(&got));
  ASSERT_TRUE(vm_dev_.queue_set(1).receive.TryDequeue(&got));
  EXPECT_EQ(got.size, 512u);
}

TEST_F(CoreEngineTest, CloseRemovesTableEntry) {
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  EXPECT_EQ(ce_.SocketTableSize(), 1u);
  SendFromVm(MakeNqe(NqeOp::kClose, 1, 0, 100));
  EXPECT_EQ(ce_.SocketTableSize(), 0u);
}

TEST_F(CoreEngineTest, AcceptLinkInsertsCompleteEntry) {
  SendFromVm(MakeNqe(NqeOp::kAccept, 1, 0, 200, /*nsm_sock=*/555));
  EXPECT_EQ(ce_.SocketTableSize(), 1u);
  auto got = DrainNsm();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].op_data, 555u);
}

TEST_F(CoreEngineTest, SwitchNsmAffectsOnlyNewConnections) {
  NkDevice nsm2("nsm2", 1);
  ce_.RegisterNsmDevice(2, &nsm2);
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  DrainNsm();
  // Re-map the VM; existing socket 100 must keep flowing to NSM 1.
  ce_.AssignVmToNsm(1, 2);
  SendFromVm(MakeNqe(NqeOp::kSend, 1, 0, 100, 0, 0, 64), 0, true);
  EXPECT_EQ(DrainNsm().size(), 1u);  // went to old NSM
  // A new socket goes to NSM 2.
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 101));
  Nqe got;
  ASSERT_TRUE(nsm2.queue_set(0).job.TryDequeue(&got));
  EXPECT_EQ(got.vm_sock, 101u);
}

TEST_F(CoreEngineTest, MultiplexesTwoVmsOntoOneNsm) {
  NkDevice vm2("vm2", 1);
  ce_.RegisterVmDevice(2, &vm2);
  ce_.AssignVmToNsm(2, 1);
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  vm2.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocket, 2, 0, 100));
  ce_.NotifyVmOutbound(2);
  loop_.Run(loop_.Now() + kMillisecond);
  auto got = DrainNsm();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(ce_.SocketTableSize(), 2u);  // distinct <vm, sock> keys
}

TEST_F(CoreEngineTest, OpRateLimitThrottlesAndRecovers) {
  ce_.SetVmOpRate(1, /*nqes_per_sec=*/1000.0, /*burst=*/2.0);
  for (int i = 0; i < 6; ++i) {
    vm_dev_.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocket, 1, 0, 100 + i));
  }
  ce_.NotifyVmOutbound(1);
  loop_.Run(loop_.Now() + kMillisecond);
  EXPECT_LE(DrainNsm().size(), 3u);  // burst only
  EXPECT_GT(ce_.stats().throttled_nqes, 0u);
  // After enough virtual time, the rest drain via the retry timer.
  loop_.Run(loop_.Now() + 10 * kMillisecond);
  EXPECT_GE(DrainNsm().size(), 3u);
}

TEST_F(CoreEngineTest, ByteRateLimitAppliesToSendQueue) {
  ce_.SetVmByteRate(1, /*bytes_per_sec=*/1e6, /*burst=*/8192.0);
  ce_.SetVmOpRate(1, 0, 0);  // unlimited ops
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  DrainNsm();
  for (int i = 0; i < 4; ++i) {
    vm_dev_.queue_set(0).send.TryEnqueue(
        MakeNqe(NqeOp::kSend, 1, 0, 100, 0, 0, 8192));
  }
  ce_.NotifyVmOutbound(1);
  loop_.Run(loop_.Now() + kMillisecond);
  size_t passed = DrainNsm().size();
  EXPECT_LT(passed, 4u);  // 32 KB offered, 8 KB burst + ~1 KB accrued
  // ~25 ms later the rest made it through.
  loop_.Run(loop_.Now() + 40 * kMillisecond);
  EXPECT_EQ(passed + DrainNsm().size(), 4u);
}

TEST_F(CoreEngineTest, CloseWaitsForThrottledSends) {
  // The byte bucket holds sends back on the send ring while the job ring
  // could keep draining: a pipelined kClose must still reach the NSM after
  // every send, or the late sends would re-create the erased entry.
  ce_.SetVmByteRate(1, /*bytes_per_sec=*/1e6, /*burst=*/8192.0);
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  DrainNsm();
  for (int i = 0; i < 4; ++i) {
    vm_dev_.queue_set(0).send.TryEnqueue(MakeNqe(NqeOp::kSend, 1, 0, 100, 0, 0, 8192));
  }
  vm_dev_.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kClose, 1, 0, 100));
  ce_.NotifyVmOutbound(1);
  // Drain the NSM every 100 us; sends drained together with the close
  // arrived in the same round, ahead of it on its queue set.
  size_t sends = 0;
  size_t sends_at_close = 0;
  size_t sends_after_close = 0;
  bool closed = false;
  for (int step = 0; step < 400; ++step) {
    loop_.Run(loop_.Now() + 100 * kMicrosecond);
    bool close_now = false;
    size_t sends_now = 0;
    for (const Nqe& nqe : DrainNsm()) {
      if (nqe.Op() == NqeOp::kClose) close_now = true;
      if (nqe.Op() == NqeOp::kSend) ++sends_now;
    }
    if (closed) sends_after_close += sends_now;
    sends += sends_now;
    if (close_now) {
      ASSERT_FALSE(closed);
      closed = true;
      sends_at_close = sends;
    }
  }
  EXPECT_TRUE(closed);
  EXPECT_EQ(sends_at_close, 4u);  // every send reached the NSM first
  EXPECT_EQ(sends_after_close, 0u);
  EXPECT_EQ(ce_.SocketTableSize(), 0u);
  EXPECT_EQ(ce_.stats().table_inserts, 1u);
}

TEST_F(CoreEngineTest, ControlMessagesAreEightBytes) {
  CeMessage resp = ce_.HandleControlMessage(
      {static_cast<uint32_t>(CeOp::kAssignVmToNsm), (1u << 8) | 1u});
  EXPECT_EQ(resp.ce_op, static_cast<uint32_t>(CeOp::kOk));
  resp = ce_.HandleControlMessage({static_cast<uint32_t>(CeOp::kAssignVmToNsm), (9u << 8) | 1u});
  EXPECT_EQ(resp.ce_op, static_cast<uint32_t>(CeOp::kError));  // unknown VM
}

TEST_F(CoreEngineTest, DeregisterVmDropsItsConnections) {
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  EXPECT_EQ(ce_.SocketTableSize(), 1u);
  ce_.DeregisterVmDevice(1);
  EXPECT_EQ(ce_.SocketTableSize(), 0u);
}

TEST_F(CoreEngineTest, SwitchingChargesTheCeCore) {
  EXPECT_EQ(core_.busy_cycles(), 0u);
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  EXPECT_GT(core_.busy_cycles(), 0u);
}

TEST_F(CoreEngineTest, WakesDestinationDevice) {
  int nsm_wakes = 0;
  nsm_dev_.SetWakeCallback([&] { ++nsm_wakes; });
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  EXPECT_EQ(nsm_wakes, 1);
}

// The per-id records end at id 255: the highest VM and NSM ids route both
// ways and park on both sides, and deregistration leaves records that a
// re-registration finds fresh.
TEST(CoreEngineIdTest, HighestIdsRouteParkAndReRegisterFresh) {
  sim::EventLoop loop;
  sim::CpuCore core(&loop, "ce");
  CoreEngine ce(&loop, &core);
  NkDevice vm("vm255", 1, 4);    // 3-slot rings: the fourth delivery parks
  NkDevice nsm("nsm255", 1, 4);
  constexpr uint8_t kId = 255;
  const auto run = [&] { loop.Run(loop.Now() + kMillisecond); };
  const auto register_both = [&] {
    ce.RegisterVmDevice(kId, &vm);
    ce.RegisterNsmDevice(kId, &nsm);
    ce.AssignVmToNsm(kId, kId);
  };
  register_both();
  ce.SetVmWeight(kId, 3);
  ce.RecordNsmHeartbeat(kId);
  EXPECT_EQ(ce.NsmHeartbeats(kId), 1u);

  // VM -> NSM: five new sockets into a 3-slot job ring.
  for (uint32_t sock = 1; sock <= 5; ++sock) {
    ASSERT_TRUE(vm.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocket, kId, 0, sock)));
    ce.NotifyVmOutbound(kId);
    run();
  }
  EXPECT_EQ(nsm.queue_set(0).job.Size(), 3u);
  EXPECT_EQ(ce.SocketTableSize(), 5u);
  // NSM -> VM: five results into a 3-slot completion ring.
  for (uint32_t sock = 1; sock <= 5; ++sock) {
    Nqe resp = MakeNqe(NqeOp::kOpResult, kId, 0, sock);
    resp.reserved[0] = static_cast<uint8_t>(NqeOp::kSocket);
    ASSERT_TRUE(nsm.queue_set(0).completion.TryEnqueue(resp));
    ce.NotifyNsmOutbound(kId);
    run();
  }
  EXPECT_EQ(vm.queue_set(0).completion.Size(), 3u);
  EXPECT_EQ(ce.ParkedDeliveries(), 4u);  // two toward each side
  EXPECT_EQ(ce.VmStats(kId).switched, 6u);

  ce.DeregisterVmDevice(kId);
  ce.DeregisterNsmDevice(kId);
  EXPECT_EQ(ce.SocketTableSize(), 0u);
  EXPECT_EQ(ce.ParkedDeliveries(), 0u);
  EXPECT_EQ(ce.ShardOfVmQset(kId, 0), -1);
  EXPECT_EQ(ce.ShardOfNsmQset(kId, 0), -1);
  EXPECT_EQ(ce.NsmLastActivity(kId), 0u);

  // Re-registered, both records start fresh.
  Nqe nqe;
  while (vm.queue_set(0).completion.TryDequeue(&nqe)) {
  }
  while (nsm.queue_set(0).job.TryDequeue(&nqe)) {
  }
  register_both();
  EXPECT_EQ(ce.VmWeight(kId), 1u);
  EXPECT_EQ(ce.SocketTableSize(), 0u);
  EXPECT_EQ(ce.ParkedDeliveries(), 0u);
  EXPECT_EQ(ce.NsmHeartbeats(kId), 0u);
  ASSERT_TRUE(vm.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocket, kId, 0, 9)));
  ce.NotifyVmOutbound(kId);
  run();
  ASSERT_TRUE(nsm.queue_set(0).job.TryDequeue(&nqe));
  EXPECT_EQ(nqe.vm_sock, 9u);
  Nqe resp = MakeNqe(NqeOp::kOpResult, kId, 0, 9);
  resp.reserved[0] = static_cast<uint8_t>(NqeOp::kSocket);
  ASSERT_TRUE(nsm.queue_set(0).completion.TryEnqueue(resp));
  ce.NotifyNsmOutbound(kId);
  run();
  ASSERT_TRUE(vm.queue_set(0).completion.TryDequeue(&nqe));
  EXPECT_EQ(nqe.vm_sock, 9u);
  EXPECT_EQ(ce.ParkedDeliveries(), 0u);
}

}  // namespace
}  // namespace netkernel::core
