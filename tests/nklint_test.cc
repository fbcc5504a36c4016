// Copyright (c) NetKernel reproduction authors.
// Tests for tools/nklint, the static NQE-protocol checker.
//
// Each fixture under tests/nklint_fixtures/ is a miniature source tree
// mirroring the real layout (src/shm/nqe.h, src/core/*.cc, src/obs/*).
// `clean` is fully wired; every other tree seeds exactly one contract
// violation (or one stale suppression), and the tests assert nklint reports it — and nothing else —
// under the right check name. The last test is the real gate: the actual
// repository tree must lint clean.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tools/nklint/nklint.h"

namespace {

using nklint::Diagnostic;

std::vector<Diagnostic> RunFixture(const std::string& name) {
  return nklint::Run(std::string(NKLINT_FIXTURES_DIR) + "/" + name);
}

std::string Dump(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& d : diags) out += nklint::Format(d) + "\n";
  return out;
}

TEST(NkLintFixtures, CleanTreeHasNoDiagnostics) {
  const auto diags = RunFixture("clean");
  EXPECT_TRUE(diags.empty()) << Dump(diags);
}

TEST(NkLintFixtures, UnroutedOpIsDetected) {
  const auto diags = RunFixture("unrouted_op");
  ASSERT_EQ(diags.size(), 1u) << Dump(diags);
  EXPECT_EQ(diags[0].check, "op-routing");
  EXPECT_EQ(diags[0].file, "src/shm/nqe.h");
  EXPECT_NE(diags[0].message.find("kConnect"), std::string::npos) << diags[0].message;
  EXPECT_NE(diags[0].message.find("dispatch case"), std::string::npos) << diags[0].message;
}

TEST(NkLintFixtures, MissingReclaimIsDetected) {
  const auto diags = RunFixture("missing_reclaim");
  ASSERT_EQ(diags.size(), 1u) << Dump(diags);
  EXPECT_EQ(diags[0].check, "reclaim-closure");
  EXPECT_NE(diags[0].message.find("kSend"), std::string::npos) << diags[0].message;
  EXPECT_NE(diags[0].message.find("BuildErrorCompletion"), std::string::npos)
      << diags[0].message;
}

TEST(NkLintFixtures, OrphanCounterIsDetected) {
  const auto diags = RunFixture("orphan_counter");
  ASSERT_EQ(diags.size(), 1u) << Dump(diags);
  EXPECT_EQ(diags[0].check, "stats-drift");
  EXPECT_EQ(diags[0].file, "src/core/coreengine.h");
  EXPECT_NE(diags[0].message.find("lost_counter"), std::string::npos) << diags[0].message;
}

TEST(NkLintFixtures, DefaultOverNqeOpIsDetected) {
  const auto diags = RunFixture("default_over_nqeop");
  ASSERT_EQ(diags.size(), 1u) << Dump(diags);
  EXPECT_EQ(diags[0].check, "switch-default");
  EXPECT_EQ(diags[0].file, "src/core/guestlib.cc");
  EXPECT_NE(diags[0].message.find("NqeOp"), std::string::npos) << diags[0].message;
}

TEST(NkLintFixtures, UnguardedOpIsDetected) {
  const auto diags = RunFixture("unguarded_op");
  ASSERT_EQ(diags.size(), 1u) << Dump(diags);
  EXPECT_EQ(diags[0].check, "guard-coverage");
  EXPECT_EQ(diags[0].file, "src/shm/nqe.h");
  EXPECT_NE(diags[0].message.find("kBind"), std::string::npos) << diags[0].message;
  EXPECT_NE(diags[0].message.find("guard="), std::string::npos) << diags[0].message;
}

TEST(NkLintFixtures, BadSuppressionIsDetected) {
  const auto diags = RunFixture("bad_suppression");
  ASSERT_EQ(diags.size(), 1u) << Dump(diags);
  EXPECT_EQ(diags[0].check, "bad-suppression");
  EXPECT_NE(diags[0].message.find("no-such-check"), std::string::npos) << diags[0].message;
}

TEST(NkLintFixtures, StaleSuppressionIsDetected) {
  const auto diags = RunFixture("stale_suppression");
  ASSERT_EQ(diags.size(), 1u) << Dump(diags);
  EXPECT_EQ(diags[0].check, "stale-suppression");
  EXPECT_EQ(diags[0].file, "src/core/guestlib.cc");
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_NE(diags[0].message.find("switch-default"), std::string::npos) << diags[0].message;
}

TEST(NkLint, DiagnosticFormatIsGreppable) {
  const Diagnostic d{"src/shm/nqe.h", 42, "op-routing", "kFoo is unrouted"};
  EXPECT_EQ(nklint::Format(d), "src/shm/nqe.h:42: op-routing: kFoo is unrouted");
}

TEST(NkLint, CheckNameRegistry) {
  for (const char* check : {"op-annotation", "op-name", "op-routing", "reclaim-closure",
                            "completion-pairing", "stats-drift", "flight-coverage",
                            "switch-default", "guard-coverage"}) {
    EXPECT_TRUE(nklint::IsKnownCheck(check)) << check;
  }
  // bad-suppression and stale-suppression cannot themselves be suppressed,
  // so they are not valid nklint-allow arguments.
  EXPECT_FALSE(nklint::IsKnownCheck("bad-suppression"));
  EXPECT_FALSE(nklint::IsKnownCheck("stale-suppression"));
  EXPECT_FALSE(nklint::IsKnownCheck("no-such-check"));
}

// The contract gate over the real tree: the annotations in src/shm/nqe.h
// must agree with the routing, dispatch, reap, unwinding, and observability
// code as it exists right now. A failure here means an op (or counter, or
// flight event) landed half-wired — fix the wiring or add a reasoned
// `// nklint-allow(...)`, never delete the annotation.
TEST(NkLint, RealTreeIsClean) {
  const auto diags = nklint::Run(NKLINT_SOURCE_ROOT);
  EXPECT_TRUE(diags.empty()) << Dump(diags);
}

}  // namespace
