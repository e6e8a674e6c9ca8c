#include "verify/trial.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/legitimacy.hpp"
#include "sim/async_network.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "stabilize/convergence.hpp"
#include "topology/generators.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn::verify {

core::ClusterOptions cluster_options_for(std::string_view variant) {
  if (variant == "basic") return core::ClusterOptions::basic();
  if (variant == "dag") return core::ClusterOptions::with_dag();
  if (variant == "improved") return core::ClusterOptions::improved();
  if (variant == "full") return core::ClusterOptions::full();
  throw std::invalid_argument("variant: expected basic|dag|improved|full, "
                              "got '" +
                              std::string(variant) + "'");
}

std::string_view to_string(Violation violation) noexcept {
  switch (violation) {
    case Violation::kNone: return "none";
    case Violation::kSyncDiverged: return "sync-diverged";
    case Violation::kAsyncDiverged: return "async-diverged";
    case Violation::kClosureBroken: return "closure-broken";
    case Violation::kEngineDisagreement: return "engine-disagreement";
  }
  return "?";
}

namespace {

sim::DaemonKind sim_daemon(Daemon daemon) noexcept {
  switch (daemon) {
    case Daemon::kSynchronous: return sim::DaemonKind::kSynchronous;
    case Daemon::kRandomized: return sim::DaemonKind::kRandomized;
    case Daemon::kUnfair: return sim::DaemonKind::kUnfairRoundRobin;
  }
  return sim::DaemonKind::kRandomized;
}

/// Wraps LegitimacyCheck with the optional interference hook so a
/// mutation test can keep poking the protocol between checks.
bool checked_legitimacy(core::LegitimacyCheck& check,
                        core::DensityProtocol& protocol,
                        const TrialHooks* hooks) {
  if (hooks != nullptr && hooks->interfere) hooks->interfere(protocol);
  return check.check();
}

}  // namespace

TrialResult run_trial(const TrialSpec& spec, const TrialHooks* hooks) {
  TrialResult result;

  // Fixed split order — adding a stream later must never perturb the
  // existing ones (same discipline as campaign::execute_run).
  util::Rng rng(spec.seed);
  util::Rng deploy_rng = rng.split();
  util::Rng protocol_rng = rng.split();
  util::Rng chaos_rng = rng.split();
  util::Rng sync_loss_rng = rng.split();
  util::Rng async_loss_rng = rng.split();
  util::Rng engine_rng = rng.split();

  const auto points = topology::uniform_points(spec.n, deploy_rng);
  const auto ids = topology::random_ids(spec.n, deploy_rng);
  const graph::Graph g = topology::unit_disk_graph(points, spec.radius);

  core::ProtocolConfig pconfig;
  pconfig.cluster = cluster_options_for(spec.variant);
  pconfig.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  pconfig.cache_max_age = spec.tau < 1.0 ? 16 : 8;

  const bool exact = core::head_identity_is_deterministic(pconfig.cluster);
  core::ClusteringResult oracle;
  if (exact) {
    oracle = core::cluster_density(g, ids, pconfig.cluster);
    if (hooks != nullptr && hooks->corrupt_oracle) {
      hooks->corrupt_oracle(oracle);
    }
  }

  const StateCorruptor corruptor(g, ids);
  const double confirm = static_cast<double>(spec.confirm_rounds);
  const double horizon = static_cast<double>(spec.horizon_rounds);

  // --- synchronous engine ---------------------------------------------
  // Copies of the protocol/chaos streams, so the async half below starts
  // from the *identical* corrupted state.
  std::vector<topology::ProtocolId> sync_heads;
  {
    util::Rng prng = protocol_rng;
    util::Rng chaos = chaos_rng;
    core::DensityProtocol protocol(ids, pconfig, prng);
    result.corruption = corruptor.apply(protocol, spec.fault, chaos);

    const auto medium = sim::make_loss_model(spec.tau, sync_loss_rng);
    sim::ShardedNetwork network(g, protocol, *medium);
    core::LegitimacyCheck legitimacy(g, protocol, exact ? &oracle : nullptr);

    std::size_t rounds = 0;
    const auto report = stabilize::run_until_stable_virtual(
        [&] {
          network.step();
          return static_cast<double>(++rounds);
        },
        [&] { return network.messages_delivered(); },
        [&] { return checked_legitimacy(legitimacy, protocol, hooks); },
        confirm, horizon);
    result.sync_converged = report.converged;
    result.sync_steps = static_cast<std::size_t>(
        report.converged ? report.stabilization_time_s
                         : report.time_simulated_s);
    result.sync_messages = report.converged ? report.messages_to_converge
                                            : report.messages_total;
    result.sync_relapses = report.relapses;

    // Closure probe: "and stays there". The detector already confirmed
    // `confirm_rounds` of continuous legitimacy; keep stepping past the
    // confirmation window and require the predicate to keep holding.
    bool closed = report.converged;
    for (std::size_t extra = 0; closed && extra < spec.confirm_rounds;
         ++extra) {
      network.step();
      closed = checked_legitimacy(legitimacy, protocol, hooks);
    }
    if (!result.sync_converged) {
      result.violation = Violation::kSyncDiverged;
      return result;
    }
    if (!closed) {
      result.violation = Violation::kClosureBroken;
      return result;
    }

    std::size_t heads = 0;
    for (const char flag : protocol.head_flags()) heads += flag != 0;
    result.heads = heads;
    sync_heads = protocol.head_values();
  }

  // --- event-driven engine --------------------------------------------
  {
    util::Rng prng = protocol_rng;
    util::Rng chaos = chaos_rng;

    const auto medium = sim::make_loss_model(spec.tau, async_loss_rng);
    sim::AsyncConfig async;
    async.period_s = 1.0;
    async.daemon = sim_daemon(spec.daemon);

    // The cache timeout is a deployment constant that must cover the
    // daemon's worst-case inter-broadcast gap, or a fast node evicts a
    // live-but-slow victim between its frames and legitimacy flickers
    // after convergence (the certifier caught exactly this at
    // cache_max_age=8 under the 8x-unfair daemon: ~0.3% closure-broken
    // trials). Worst gap in the fast node's local rounds:
    // slowdown x (1+jitter)/(1-jitter), stretched by loss; keep 2x
    // margin for jitter stacking.
    core::ProtocolConfig async_pconfig = pconfig;
    if (spec.daemon == Daemon::kUnfair) {
      const double worst_gap = async.unfair_slowdown *
                               (1.0 + async.period_jitter) /
                               (1.0 - async.period_jitter) /
                               std::max(spec.tau, 0.05);
      async_pconfig.cache_max_age = std::max<std::uint32_t>(
          pconfig.cache_max_age,
          static_cast<std::uint32_t>(2.0 * worst_gap + 1.0));
    }

    core::DensityProtocol protocol(ids, async_pconfig, prng);
    (void)corruptor.apply(protocol, spec.fault, chaos);
    sim::AsyncNetwork network(g, protocol, *medium, async, engine_rng);
    core::LegitimacyCheck legitimacy(g, protocol, exact ? &oracle : nullptr);

    // The unfair daemon's victims broadcast unfair_slowdown× slower, so
    // one of *their* rounds spans several periods; scale the horizon so
    // every daemon gets the same number of slowest-node rounds.
    const double scale = spec.daemon == Daemon::kUnfair
                             ? async.unfair_slowdown
                             : 1.0;
    const auto report = sim::settle_async(
        network,
        [&] { return checked_legitimacy(legitimacy, protocol, hooks); },
        horizon * scale, confirm * scale);
    result.async_converged = report.converged;
    result.async_time_s = report.converged ? report.stabilization_time_s
                                           : report.time_simulated_s;
    result.async_messages = report.converged ? report.messages_to_converge
                                             : report.messages_total;
    result.async_relapses = report.relapses;

    bool closed = report.converged;
    for (std::size_t extra = 0; closed && extra < spec.confirm_rounds;
         ++extra) {
      network.run_for(async.period_s * scale);
      closed = checked_legitimacy(legitimacy, protocol, hooks);
    }
    if (!result.async_converged) {
      result.violation = Violation::kAsyncDiverged;
      return result;
    }
    if (!closed) {
      result.violation = Violation::kClosureBroken;
      return result;
    }

    // Differential oracle: with a topology-determined fixpoint the two
    // engines must land on the same head assignment, bit for bit. (For
    // dag/incumbency variants the fixpoint is history-dependent, so
    // only the per-engine structural checks above apply.)
    if (exact && protocol.head_values() != sync_heads) {
      result.violation = Violation::kEngineDisagreement;
      return result;
    }
  }

  result.passed = true;
  return result;
}

}  // namespace ssmwn::verify
