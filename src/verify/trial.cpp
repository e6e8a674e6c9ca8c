#include "verify/trial.hpp"

#include <utility>
#include <vector>

#include "campaign/protocol_run.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn::verify {

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

sim::DaemonKind sim_daemon(Daemon daemon) noexcept {
  switch (daemon) {
    case Daemon::kSynchronous: return sim::DaemonKind::kSynchronous;
    case Daemon::kRandomized: return sim::DaemonKind::kRandomized;
    case Daemon::kUnfair: return sim::DaemonKind::kUnfairRoundRobin;
  }
  return sim::DaemonKind::kRandomized;
}

namespace {

/// Plays one engine to fixpoint, then probes closure — "and stays
/// there": past the confirmation window the predicate must keep holding.
/// Returns the settle and the violation it shows, if any.
std::pair<campaign::Settled, Violation> play(campaign::ProtocolRun& run,
                                              const TrialSpec& spec,
                                              Violation diverged) {
  const auto settled =
      run.settle(static_cast<double>(spec.horizon_rounds),
                 static_cast<double>(spec.confirm_rounds));
  if (!settled.report.converged) return {settled, diverged};
  for (std::size_t extra = 0; extra < spec.confirm_rounds; ++extra) {
    run.round();
    if (!run.legitimate()) return {settled, Violation::kClosureBroken};
  }
  return {settled, Violation::kNone};
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

  const auto deployment = campaign::draw_deployment(
      campaign::TopologyKind::kUniform, spec.n, deploy_rng);
  const topology::IdAssignment& ids = deployment.ids;
  const graph::Graph g =
      topology::unit_disk_graph(deployment.points, spec.radius);

  const StateCorruptor corruptor(g, ids);

  // Both halves start from the *identical* corrupted state: the same
  // protocol and chaos streams, copied into each run.
  campaign::RunRecipe recipe;
  recipe.cluster = campaign::cluster_options(spec.variant);
  recipe.tau = spec.tau;
  recipe.hooks = hooks;
  util::Rng sync_chaos = chaos_rng;
  recipe.initial_state = [&](core::DensityProtocol& protocol) {
    result.corruption = corruptor.apply(protocol, spec.fault, sync_chaos);
  };

  // --- synchronous engine ---------------------------------------------
  std::vector<topology::ProtocolId> sync_heads;
  {
    campaign::ProtocolRun run({.graph = &g}, ids, recipe,
                              {protocol_rng, sync_loss_rng});
    const auto [settled, violation] =
        play(run, spec, Violation::kSyncDiverged);
    result.sync_converged = settled.report.converged;
    result.sync_steps = static_cast<std::size_t>(settled.time_s());
    result.sync_messages = settled.messages();
    result.sync_relapses = settled.report.relapses;
    result.violation = violation;
    if (violation != Violation::kNone) return result;
    result.heads = run.head_count();
    sync_heads = run.protocol().head_values();
  }

  // --- event-driven engine --------------------------------------------
  {
    sim::AsyncConfig async;
    async.period_s = 1.0;
    async.daemon = sim_daemon(spec.daemon);
    recipe.async = async;
    util::Rng async_chaos = chaos_rng;
    recipe.initial_state = [&](core::DensityProtocol& protocol) {
      (void)corruptor.apply(protocol, spec.fault, async_chaos);
    };
    campaign::ProtocolRun run({.graph = &g}, ids, std::move(recipe),
                              {protocol_rng, async_loss_rng, engine_rng});
    const auto [settled, violation] =
        play(run, spec, Violation::kAsyncDiverged);
    result.async_converged = settled.report.converged;
    result.async_time_s = settled.time_s();
    result.async_messages = settled.messages();
    result.async_relapses = settled.report.relapses;
    result.violation = violation;
    if (violation != Violation::kNone) return result;

    // Differential oracle: with a topology-determined fixpoint the two
    // engines must land on the same head assignment, bit for bit. (For
    // dag/incumbency variants the fixpoint is history-dependent, so
    // only the per-engine structural checks above apply.)
    if (core::head_identity_is_deterministic(run.recipe().cluster) &&
        run.protocol().head_values() != sync_heads) {
      result.violation = Violation::kEngineDisagreement;
      return result;
    }
  }

  result.passed = true;
  return result;
}

}  // namespace ssmwn::verify
