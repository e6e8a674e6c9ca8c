#include "campaign/protocol_run.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "graph/partition.hpp"
#include "topology/generators.hpp"
#include "topology/udg.hpp"

namespace ssmwn::campaign {

Deployment draw_deployment(TopologyKind kind, std::size_t n, util::Rng& rng) {
  Deployment d;
  switch (kind) {
    case TopologyKind::kUniform:
      d.points = topology::uniform_points(n, rng);
      break;
    case TopologyKind::kGrid:
      d.points = topology::grid_points(topology::grid_side_for(n));
      break;
    case TopologyKind::kPoisson:
      d.points = topology::poisson_points(static_cast<double>(n), rng);
      break;
  }
  d.ids = kind == TopologyKind::kGrid
              ? topology::sequential_ids(d.points.size())
              : topology::random_ids(d.points.size(), rng);
  return d;
}

std::unique_ptr<mobility::MobilityModel> make_mover(
    MobilityKind kind, std::size_t n, mobility::SpeedRange speeds,
    double world_m, util::Rng rng) {
  if (kind == MobilityKind::kRandomDirection) {
    return std::make_unique<mobility::RandomDirection>(n, speeds, world_m,
                                                       rng);
  }
  if (kind == MobilityKind::kRandomWaypoint) {
    return std::make_unique<mobility::RandomWaypoint>(n, speeds, world_m,
                                                      rng);
  }
  return nullptr;
}

namespace {

/// Mean async periods between the slowest node's broadcasts: the unfair
/// daemon's victims broadcast unfair_slowdown× slower, so the cache
/// timeout must cover their gap (core::cache_timeout) and one async
/// round spans that many periods — every daemon gets the same number of
/// slowest-node rounds. 1 for the other daemons and the sync engine.
double daemon_slowdown(const RunRecipe& recipe) {
  return recipe.async &&
                 recipe.async->daemon == sim::DaemonKind::kUnfairRoundRobin
             ? recipe.async->unfair_slowdown
             : 1.0;
}

core::ProtocolConfig protocol_config(const RunRecipe& recipe,
                                     const graph::Graph& g) {
  core::ProtocolConfig config;
  config.cluster = recipe.cluster;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  config.cache_max_age = core::cache_timeout(
      recipe.tau, daemon_slowdown(recipe),
      recipe.async ? recipe.async->period_jitter : 0.0);
  return config;
}

std::span<const char> alive_mask(const RunWorld& world) {
  if (!world.churn) return {};
  return world.churn->alive();
}

}  // namespace

ProtocolRun::ProtocolRun(RunWorld world, const topology::IdAssignment& ids,
                         RunRecipe recipe, RunStreams streams)
    : recipe_(std::move(recipe)),
      ids_(&ids),
      world_(std::move(world)),
      graph_(&initial_graph()),
      protocol_(ids, protocol_config(recipe_, *graph_), streams.protocol),
      legitimacy_(*graph_, protocol_,
                  core::head_identity_is_deterministic(recipe_.cluster)
                      ? &oracle_
                      : nullptr) {
  if (recipe_.initial_state) recipe_.initial_state(protocol_);
  medium_ = sim::make_loss_model(recipe_.tau, streams.loss);
  if (recipe_.async) {
    async_.emplace(*graph_, protocol_, *medium_, *recipe_.async,
                   streams.engine);
    async_->set_stepping(recipe_.stepping);
    return;
  }
  if (recipe_.shards >= 2) {
    sync_.emplace(*graph_, protocol_, *medium_,
                  graph::plan_contiguous_shards(graph_->node_count(),
                                                recipe_.shards)
                      .bounds,
                  recipe_.threads);
  } else {
    sync_.emplace(*graph_, protocol_, *medium_, recipe_.threads);
  }
  sync_->set_stepping(recipe_.stepping);
}

const graph::Graph& ProtocolRun::initial_graph() {
  if (world_.graph != nullptr) return *world_.graph;
  if (!world_.incremental) {
    rebuild();
    return rebuilt_.view();
  }
  live_.emplace(*world_.points, world_.radius, alive_mask(world_));
  return live_->graph();
}

void ProtocolRun::rebuild() {
  graph::Graph g = topology::unit_disk_graph(*world_.points, world_.radius);
  if (world_.churn) g = sim::mask_nodes(g, alive_mask(world_));
  rebuilt_.reset(std::move(g));
}

bool ProtocolRun::legitimate() {
  // The exact oracle applies only when head identity is a pure function
  // of the topology (core/legitimacy.hpp); it is recomputed at the first
  // check after a graph change.
  if (oracle_stale_ && core::head_identity_is_deterministic(recipe_.cluster)) {
    oracle_ = core::cluster_density(*graph_, *ids_, recipe_.cluster);
    if (recipe_.hooks && recipe_.hooks->corrupt_oracle) {
      recipe_.hooks->corrupt_oracle(oracle_);
    }
  }
  oracle_stale_ = false;
  if (recipe_.hooks && recipe_.hooks->interfere) {
    recipe_.hooks->interfere(protocol_);
  }
  return legitimacy_.check();
}

Settled ProtocolRun::settle(double horizon_rounds, double confirm_rounds) {
  legitimacy_.reset();
  const auto check = [this] { return legitimate(); };
  if (async_) {
    const double slowdown = daemon_slowdown(recipe_);
    const double start_s = async_->now_seconds();
    return {sim::settle_async(*async_, check, horizon_rounds * slowdown,
                              confirm_rounds * slowdown),
            start_s};
  }
  // One synchronous step is one broadcast round of window_s virtual
  // seconds, so both engines report virtual seconds.
  const double window_s = recipe_.window_s;
  std::size_t rounds = 0;
  const std::uint64_t base = sync_->messages_delivered();
  return {stabilize::run_until_stable_virtual(
      [&] {
        sync_->step();
        return static_cast<double>(++rounds) * window_s;
      },
      [&] { return sync_->messages_delivered() - base; }, check,
      confirm_rounds * window_s, horizon_rounds * window_s)};
}

EdgeChange ProtocolRun::perturb() {
  if (world_.mover) world_.mover->step(*world_.points, recipe_.window_s);
  if (world_.churn) world_.churn->step();
  EdgeChange change;
  static const graph::EdgeDelta kRebuilt;  // a rebuild carries no delta
  const auto refresh = [&]() -> const graph::EdgeDelta& {
    if (!live_) {
      rebuild();
      return kRebuilt;
    }
    const auto& delta = live_->update(*world_.points, alive_mask(world_));
    change = {delta.added.size(), delta.removed.size()};
    return delta;
  };
  if (async_) {
    // Fire the update now, through the event queue, so the oracle sees
    // the new graph.
    async_->schedule_topology_update(async_->now(), refresh);
    async_->run_until(async_->now());
  } else if (live_) {
    // Also wakes the delta endpoints' neighborhoods under dirty stepping.
    sync_->apply_topology_delta(refresh());
  } else {
    // The graph changed in place with no delta: re-announce it, so the
    // engine drops its boundary lists and row hints (and, stepping
    // dirty, wakes every node).
    refresh();
    sync_->set_graph(*graph_);
  }
  oracle_stale_ = true;
  return change;
}

void ProtocolRun::live(
    std::size_t windows, double horizon_rounds,
    const std::function<void(std::size_t, EdgeChange, const Settled&)>&
        observe) {
  observe(0, {}, settle(horizon_rounds));
  for (std::size_t window = 1; window <= windows; ++window) {
    const EdgeChange change = perturb();
    observe(window, change, settle(horizon_rounds));
  }
}

void ProtocolRun::round() {
  if (async_) {
    async_->run_for(async_->config().period_s * daemon_slowdown(recipe_));
  } else {
    sync_->step();
  }
}

std::size_t ProtocolRun::head_count() const noexcept {
  std::size_t heads = 0;
  for (const char flag : protocol_.head_flags()) heads += flag != 0;
  return heads;
}

}  // namespace ssmwn::campaign
