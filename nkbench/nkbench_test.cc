// Copyright (c) NetKernel reproduction authors.
// nkbench's own tests, on short windows of every workload:
//   * the same seed gives bit-identical virtual metrics,
//   * a different seed changes them (the seed reaches the generator),
//   * the CoreEngine switched at least as many NQEs as the GuestLibs sent,
//   * the output checks pass and the guard rejects nothing.

#include <gtest/gtest.h>

#include "nkbench/nkbench.h"

namespace nkbench {
namespace {

RunResult ShortRun(Workload w, uint64_t seed) {
  const Plan plan = PlanFor(w);
  RunSpec spec;
  spec.workload = w;
  spec.seed = seed;
  spec.load = plan.hi;
  spec.window = 10 * netkernel::kMillisecond;
  return RunOnce(spec);
}

class NkbenchTest : public ::testing::TestWithParam<Workload> {};

TEST_P(NkbenchTest, SameSeedIsBitIdenticalAndSeedMatters) {
  const RunResult a = ShortRun(GetParam(), 1);
  const RunResult b = ShortRun(GetParam(), 1);
  const RunResult c = ShortRun(GetParam(), 2);
  for (const RunResult* r : {&a, &b, &c}) {
    EXPECT_TRUE(r->correct()) << (r->errors.empty() ? "" : r->errors.front());
    EXPECT_GT(r->ops, 0u);
    EXPECT_EQ(r->failed, 0u);
  }
  EXPECT_EQ(a.virt, b.virt);
  EXPECT_NE(a.virt, c.virt);
}

TEST_P(NkbenchTest, CoreEngineSwitchesEveryGuestNqe) {
  const RunResult r = ShortRun(GetParam(), 3);
  EXPECT_GT(r.layer.at("run.guest_nqes_sent"), 0);
  EXPECT_GE(r.layer.at("run.ce_nqes_switched"), r.layer.at("run.guest_nqes_sent"));
  EXPECT_EQ(r.layer.at("guard.rejects"), 0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, NkbenchTest,
                         ::testing::Values(Workload::kKv, Workload::kHttp, Workload::kBulk),
                         [](const ::testing::TestParamInfo<Workload>& info) {
                           return std::string(WorkloadName(info.param));
                         });

TEST(NkbenchProbes, ProbesMeasureValidWork) {
  EXPECT_GT(ProbeRingNsPerNqe(), 0);
  EXPECT_GT(ProbeGuardValidateNs(), 0);
}

}  // namespace
}  // namespace nkbench
