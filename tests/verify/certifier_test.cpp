// The certification itself: seeded arbitrary-state trials for every
// fault class, executed on both engines under all three daemons, with
// per-class statistics — the test the ISSUE's acceptance criterion
// scales to 1,000 trials per class in CI (SSMWN_VERIFY_TRIALS; the
// default here keeps plain `ctest` fast).
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/protocol.hpp"
#include "util/env.hpp"
#include "verify/certifier.hpp"
#include "verify/trial.hpp"

namespace ssmwn {
namespace {

using verify::CertifierConfig;
using verify::Daemon;
using verify::FaultClass;

CertifierConfig scaled_config() {
  CertifierConfig config;
  // CI sets SSMWN_VERIFY_TRIALS=1000 for the acceptance-scale run;
  // local ctest uses a smaller but still every-class every-daemon pass.
  config.trials_per_class = static_cast<std::size_t>(
      util::env_int("SSMWN_VERIFY_TRIALS", 120));
  config.n_min = 8;
  config.n_max = static_cast<std::size_t>(
      util::env_int("SSMWN_VERIFY_MAX_N", 80));
  config.threads = 0;  // trials are independent; shard across cores
  return config;
}

TEST(Certifier, EveryFaultClassCertifiesAtScale) {
  const CertifierConfig config = scaled_config();
  const auto report = verify::certify(config);
  EXPECT_TRUE(report.certified());
  EXPECT_EQ(report.trials_total,
            config.trials_per_class * verify::kAllFaultClasses.size());
  for (const auto& stats : report.per_class) {
    EXPECT_EQ(stats.trials, config.trials_per_class)
        << verify::to_string(stats.fault);
    EXPECT_EQ(stats.passed, stats.trials) << verify::to_string(stats.fault);
    // The per-class statistics the campaign report carries: nonzero
    // convergence cost on both engines.
    EXPECT_GT(stats.sync_steps.mean(), 0.0);
    EXPECT_GT(stats.sync_messages.mean(), 0.0);
    EXPECT_GT(stats.async_time_s.mean(), 0.0);
    EXPECT_GT(stats.async_messages.mean(), 0.0);
    std::printf("%-16s %4zu trials: sync %.1f steps / %.0f msgs, "
                "async %.2fs / %.0f msgs\n",
                std::string(verify::to_string(stats.fault)).c_str(),
                stats.trials, stats.sync_steps.mean(),
                stats.sync_messages.mean(), stats.async_time_s.mean(),
                stats.async_messages.mean());
  }
}

TEST(Certifier, DaemonsRotatePerTrial) {
  CertifierConfig config;
  config.trials_per_class = 9;
  for (const FaultClass fault : verify::kAllFaultClasses) {
    std::size_t per_daemon[3] = {0, 0, 0};
    for (std::size_t t = 0; t < config.trials_per_class; ++t) {
      const auto spec = verify::trial_spec(config, fault, t);
      ++per_daemon[static_cast<std::size_t>(spec.daemon)];
      EXPECT_GE(spec.n, config.n_min);
      EXPECT_LE(spec.n, config.n_max);
    }
    EXPECT_EQ(per_daemon[0], 3u);
    EXPECT_EQ(per_daemon[1], 3u);
    EXPECT_EQ(per_daemon[2], 3u);
  }
}

TEST(Certifier, TrialSpecsAreStablePerClass) {
  // Adding or reordering classes must not change another class's
  // trials (certification results stay comparable across PRs).
  CertifierConfig config;
  const auto a = verify::trial_spec(config, FaultClass::kStaleCache, 17);
  config.classes = {FaultClass::kStaleCache};
  const auto b = verify::trial_spec(config, FaultClass::kStaleCache, 17);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.daemon, b.daemon);
}

TEST(Certifier, ThreadCountDoesNotChangeTheReport) {
  CertifierConfig config;
  config.trials_per_class = 12;
  config.n_min = 8;
  config.n_max = 40;
  config.threads = 1;
  const auto serial = verify::certify(config);
  config.threads = 4;
  const auto parallel = verify::certify(config);
  ASSERT_EQ(serial.per_class.size(), parallel.per_class.size());
  EXPECT_EQ(serial.failures_total, parallel.failures_total);
  for (std::size_t c = 0; c < serial.per_class.size(); ++c) {
    EXPECT_EQ(serial.per_class[c].passed, parallel.per_class[c].passed);
    EXPECT_EQ(serial.per_class[c].sync_steps.mean(),
              parallel.per_class[c].sync_steps.mean());
    EXPECT_EQ(serial.per_class[c].async_messages.mean(),
              parallel.per_class[c].async_messages.mean());
  }
}

/// what() of the runtime_error certify() throws; fails the test if it
/// returns normally or throws anything else.
std::string certify_failure(const CertifierConfig& config,
                            const verify::TrialHooks& hooks) {
  try {
    (void)verify::certify(config, &hooks);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "certify() did not throw std::runtime_error";
  return {};
}

TEST(Certifier, ThrowingTrialFailsTheSameAtAnyThreadCount) {
  // Only some trials throw, each naming its own size: the pooled run
  // must rethrow the first failure in trial order, exactly the one the
  // serial loop stops at, instead of unwinding through the pool.
  verify::TrialHooks hooks;
  hooks.interfere = [](core::DensityProtocol& protocol) {
    const std::size_t n = protocol.node_count();
    if (n % 3 == 0) {
      throw std::runtime_error("interfered at n=" + std::to_string(n));
    }
  };
  CertifierConfig config;
  config.trials_per_class = 6;
  config.n_min = 8;
  config.n_max = 40;
  config.threads = 1;
  const std::string serial = certify_failure(config, hooks);
  EXPECT_FALSE(serial.empty());
  config.threads = 4;
  EXPECT_EQ(certify_failure(config, hooks), serial);
}

}  // namespace
}  // namespace ssmwn
