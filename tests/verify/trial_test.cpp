// The cross-engine trial runner: every fault class recovers on both
// engines under every daemon (the paper's claim, spot-checked here and
// certified at scale in certifier_test.cpp), trials are bit-reproducible
// from their spec, and the interference seam makes a genuinely broken
// system fail — a trial that cannot fail would certify nothing.
#include <gtest/gtest.h>

#include "verify/trial.hpp"

namespace ssmwn {
namespace {

using verify::Daemon;
using verify::FaultClass;
using verify::TrialSpec;
using verify::Violation;

TEST(VerifyTrial, EveryFaultClassPassesOnBothEngines) {
  for (const FaultClass fault : verify::kAllFaultClasses) {
    TrialSpec spec;
    spec.n = 50;
    spec.radius = 0.16;
    spec.fault = fault;
    spec.seed = 0x5eed + static_cast<std::uint64_t>(fault);
    const auto result = verify::run_trial(spec);
    EXPECT_TRUE(result.passed) << verify::to_string(fault) << ": "
                               << verify::to_string(result.violation);
    EXPECT_TRUE(result.sync_converged);
    EXPECT_TRUE(result.async_converged);
    EXPECT_GT(result.sync_messages, 0u);
    EXPECT_GT(result.async_messages, 0u);
    EXPECT_GT(result.heads, 0u);
    EXPECT_EQ(result.corruption.nodes_touched, spec.n);
  }
}

TEST(VerifyTrial, EveryDaemonPasses) {
  for (const Daemon daemon : verify::kAllDaemons) {
    TrialSpec spec;
    spec.n = 40;
    spec.fault = FaultClass::kRandomAll;
    spec.daemon = daemon;
    spec.seed = 99;
    const auto result = verify::run_trial(spec);
    EXPECT_TRUE(result.passed) << verify::to_string(daemon) << ": "
                               << verify::to_string(result.violation);
  }
}

TEST(VerifyTrial, BitReproducibleFromSpec) {
  TrialSpec spec;
  spec.n = 45;
  spec.fault = FaultClass::kStaleCache;
  spec.daemon = Daemon::kRandomized;
  spec.seed = 20050612;
  const auto a = verify::run_trial(spec);
  const auto b = verify::run_trial(spec);
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.sync_steps, b.sync_steps);
  EXPECT_EQ(a.sync_messages, b.sync_messages);
  EXPECT_EQ(a.async_time_s, b.async_time_s);
  EXPECT_EQ(a.async_messages, b.async_messages);
  EXPECT_EQ(a.heads, b.heads);
}

TEST(VerifyTrial, LossyMediumStillCertifies) {
  TrialSpec spec;
  spec.n = 40;
  spec.fault = FaultClass::kRandomAll;
  spec.tau = 0.8;
  spec.seed = 4242;
  const auto result = verify::run_trial(spec);
  EXPECT_TRUE(result.passed) << verify::to_string(result.violation);
}

TEST(VerifyTrial, HistoryDependentVariantUsesStructuralChecksOnly) {
  // dag/full fixpoints are history-dependent: engines may disagree on
  // identities, so the trial must not demand oracle equality — but the
  // structural predicate (validity, independence, quiescence) still
  // must hold on both engines.
  for (const auto variant :
       {campaign::Variant::kDag, campaign::Variant::kFull}) {
    TrialSpec spec;
    spec.n = 40;
    spec.variant = variant;
    spec.fault = FaultClass::kRandomAll;
    spec.seed = 1234;
    const auto result = verify::run_trial(spec);
    EXPECT_TRUE(result.passed) << campaign::to_string(variant) << ": "
                               << verify::to_string(result.violation);
  }
}

TEST(VerifyTrial, StuckNodeInterferenceIsCaught) {
  // Mutation check: a node whose head variable is pinned to garbage
  // between every legitimacy check models a stuck/Byzantine participant
  // — the trial must flag the system, not certify around it.
  verify::TrialHooks hooks;
  hooks.interfere = [](core::DensityProtocol& protocol) {
    auto s = protocol.mutable_state(0);
    s.head = 0xDEAD;
    s.head_valid = true;
  };
  TrialSpec spec;
  spec.n = 30;
  spec.fault = FaultClass::kRandomAll;
  spec.seed = 7;
  const auto result = verify::run_trial(spec, &hooks);
  EXPECT_FALSE(result.passed);
  EXPECT_NE(result.violation, Violation::kNone);
}

TEST(VerifyTrial, CorruptedOracleIsCaught) {
  // Mutation check for the differential side: if the reference
  // clustering is wrong, the protocol's (correct) fixpoint must show up
  // as a violation — proving the oracle comparison is live.
  verify::TrialHooks hooks;
  hooks.corrupt_oracle = [](core::ClusteringResult& oracle) {
    oracle.head_id[0] ^= 0x1;
  };
  TrialSpec spec;
  spec.n = 30;
  spec.fault = FaultClass::kMetricSkew;
  spec.seed = 21;
  const auto result = verify::run_trial(spec, &hooks);
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.violation, Violation::kSyncDiverged);
}

}  // namespace
}  // namespace ssmwn
