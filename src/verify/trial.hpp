// One self-stabilization trial: corrupt → run to fixpoint on BOTH
// engines → check the legitimacy predicates and cross-engine agreement.
//
// A trial is the unit the certifier aggregates and the shrinker
// minimizes, so it is a pure function of its `TrialSpec`: every random
// draw — deployment, protocol construction, corruption, loss, daemon
// timing — derives from the spec's single seed through fixed split
// order. Two executions of the same spec produce bit-identical
// `TrialResult`s, on any machine.
//
// The differential part: the synchronous stepper (sim::Network) and the
// event-driven engine (sim::AsyncNetwork, under the spec's daemon) both
// start from the same corruption stream (same constructor rng, same
// chaos draws; the async half may size its cache timeout for the
// daemon's unfairness, which only shifts the planted entry ages) and
// must independently reach a legitimate configuration — and, for
// variants whose head identity is a pure function of the topology, the
// *same* one (the synchronous oracle's).
// An engine-specific bug that happens to stabilize to a plausible-but-
// different fixpoint fails the trial even though each engine's own
// predicate would pass.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "campaign/protocol_run.hpp"
#include "campaign/spec.hpp"
#include "verify/faults.hpp"

namespace ssmwn::verify {

/// The confirmation window campaign verify runs use (and the TrialSpec
/// default): legitimacy must hold this many consecutive rounds.
inline constexpr std::size_t kDefaultConfirmRounds = 4;

/// Smallest horizon at which confirmation is *possible*: the quiescence
/// baseline makes round 1 never legitimate, so the earliest confirmed
/// run is rounds 2 .. 2 + confirm. Horizons below this fail every
/// trial by construction — the spec layer and the CLI both reject them.
inline constexpr std::size_t kMinHorizonRounds = kDefaultConfirmRounds + 2;

/// Everything one trial needs; deterministic replay key. `variant` is
/// the campaign axis, so failing tuples translate 1:1 into campaign
/// specs.
struct TrialSpec {
  std::size_t n = 60;
  double radius = 0.14;
  campaign::Variant variant = campaign::Variant::kBasic;
  FaultClass fault = FaultClass::kRandomAll;
  Daemon daemon = Daemon::kRandomized;
  double tau = 1.0;              ///< per-link delivery probability
  std::uint64_t seed = 0;        ///< sole source of randomness
  std::size_t horizon_rounds = 240;  ///< sync steps / async periods
  std::size_t confirm_rounds = kDefaultConfirmRounds;
};

enum class Violation : std::uint8_t {
  kNone,
  /// The synchronous engine never reached (and held) legitimacy.
  kSyncDiverged,
  /// The event-driven engine never reached (and held) legitimacy.
  kAsyncDiverged,
  /// Legitimacy was reached but did not *stay* — the closure probe saw
  /// it break after the convergence detector confirmed it.
  kClosureBroken,
  /// Both engines stabilized, but to different head assignments although
  /// the variant's fixpoint is a pure function of the topology.
  kEngineDisagreement,
};

[[nodiscard]] std::string_view to_string(Violation violation) noexcept;

/// The event engine's daemon for a trial (and CLI) daemon.
[[nodiscard]] sim::DaemonKind sim_daemon(Daemon daemon) noexcept;

struct TrialResult {
  bool passed = false;
  Violation violation = Violation::kNone;

  bool sync_converged = false;
  std::size_t sync_steps = 0;        ///< steps to confirmed legitimacy
  std::uint64_t sync_messages = 0;   ///< deliveries up to that point
  std::size_t sync_relapses = 0;

  bool async_converged = false;
  double async_time_s = 0.0;         ///< virtual seconds to legitimacy
  std::uint64_t async_messages = 0;  ///< deliveries up to that point
  std::size_t async_relapses = 0;

  std::size_t heads = 0;             ///< final sync head count
  CorruptionStats corruption;
};

/// Test seams for mutation checks (see campaign::RunHooks): a wrong
/// oracle must surface as a violation, and so must a stuck/Byzantine
/// node that `interfere` keeps poking on both engines.
using TrialHooks = campaign::RunHooks;

/// Executes the trial. Pure function of `spec` (and `hooks`, which
/// production callers leave null).
[[nodiscard]] TrialResult run_trial(const TrialSpec& spec,
                                    const TrialHooks* hooks = nullptr);

}  // namespace ssmwn::verify
