// The self-stabilization certifier: many seeded arbitrary-state trials
// per fault class, sharded over a worker pool, summarized per class —
// and, on any violation, shrunk to a small replayable campaign spec.
//
// This is the property-based layer over verify/trial.hpp: trial specs
// are derived deterministically from (seed, class, trial index), every
// daemon is exercised in rotation, and the aggregation order is fixed,
// so a certification run is reproducible end to end — `certified()`
// with the same config means the same 6 × N trials passed, not a
// different lucky sample.
//
// The campaign bridge (trial_from_scenario / make_repro) is the glue
// the ISSUE calls "wire it through the campaign layer": a verify grid
// point maps 1:1 onto a TrialSpec, and a shrunk failure maps back onto
// a one-run campaign spec whose derived run seed reproduces the
// violation — `ssmwn campaign repro.spec` replays the bug.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "util/stats.hpp"
#include "verify/shrink.hpp"
#include "verify/trial.hpp"

namespace ssmwn::verify {

struct CertifierConfig {
  std::vector<FaultClass> classes{kAllFaultClasses.begin(),
                                  kAllFaultClasses.end()};
  std::vector<campaign::Variant> variants{campaign::Variant::kBasic};
  /// Trials per fault class; daemons rotate per trial so each class
  /// covers all three.
  std::size_t trials_per_class = 200;
  /// Node counts are drawn uniformly from [n_min, n_max] per trial.
  std::size_t n_min = 8;
  std::size_t n_max = 64;
  double radius = 0.16;
  double tau = 1.0;
  std::size_t horizon_rounds = 240;
  std::size_t confirm_rounds = 4;
  std::uint64_t seed = 20050612;
  /// Worker parallelism across trials (0 = hardware concurrency).
  /// Results are identical for any value: trials are independent and
  /// aggregated in trial order.
  unsigned threads = 1;
  /// Failing specs kept for shrinking/reporting (per class).
  std::size_t max_failures_kept = 4;
};

struct FaultClassStats {
  FaultClass fault = FaultClass::kRandomAll;
  std::size_t trials = 0;
  std::size_t passed = 0;
  util::RunningStats sync_steps;
  util::RunningStats sync_messages;
  util::RunningStats async_time_s;
  util::RunningStats async_messages;
};

struct CertificationReport {
  std::vector<FaultClassStats> per_class;
  /// Failing specs with their violations, in deterministic trial order,
  /// at most max_failures_kept per class.
  std::vector<std::pair<TrialSpec, Violation>> failures;
  std::size_t trials_total = 0;
  std::size_t failures_total = 0;

  [[nodiscard]] bool certified() const noexcept {
    return failures_total == 0 && trials_total > 0;
  }
};

/// Deterministic spec of trial `index` of `fault` under `config`.
/// Exposed so a failure printed as (class, index) can be re-run alone.
[[nodiscard]] TrialSpec trial_spec(const CertifierConfig& config,
                                   FaultClass fault, std::size_t index);

/// Runs the whole certification. Deterministic for any thread count.
[[nodiscard]] CertificationReport certify(const CertifierConfig& config,
                                          const TrialHooks* hooks = nullptr);

// --- campaign bridge --------------------------------------------------

/// The campaign grid point equivalent to `spec` (verify_faults=true,
/// steps=horizon_rounds, ...). Inverse of `trial_from_scenario` up to
/// the seed, which the campaign derives from (seed_base, canonical).
[[nodiscard]] campaign::ScenarioConfig scenario_for(const TrialSpec& spec);

/// The TrialSpec a campaign verify run executes: the grid point's axes
/// plus the plan-derived run seed. Shared by the campaign runner and
/// the repro emitter so they can never drift apart.
[[nodiscard]] TrialSpec trial_from_scenario(
    const campaign::ScenarioConfig& config, std::uint64_t seed);

/// A shrunk failure packaged for replay through `ssmwn campaign`.
struct ReproSpec {
  /// Campaign spec text (one grid point, one replication).
  std::string text;
  std::uint64_t seed_base = 0;
  /// The trial the campaign will actually execute (seed derived from
  /// seed_base + canonical config, exactly as the runner derives it).
  TrialSpec derived;
  /// True iff `derived` was re-run and failed with `violation`.
  bool reproduces = false;
  Violation violation = Violation::kNone;
};

/// Emits a replayable campaign spec for a (typically shrunk) failing
/// trial. Campaign run seeds are a one-way hash of (seed_base,
/// canonical config), so the emitter *searches*: it tries successive
/// seed_base values, re-runs the derived trial, and keeps the first
/// that fails with `expected` (at most `budget` candidates — one for a
/// deterministic bug, a handful for a seed-sensitive one). `reproduces`
/// is false if the budget ran out; the returned text then still names
/// the last candidate, clearly marked unverified.
[[nodiscard]] ReproSpec make_repro(const TrialSpec& minimal,
                                   Violation expected,
                                   const TrialHooks* hooks = nullptr,
                                   std::size_t budget = 64);

}  // namespace ssmwn::verify
