#include "campaign/runner.hpp"

#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>

#include "campaign/checkpoint.hpp"

#include "core/dag_ids.hpp"
#include "core/legitimacy.hpp"
#include "core/protocol.hpp"
#include "graph/dynamic.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "metrics/delta.hpp"
#include "metrics/stability.hpp"
#include "mobility/mobility.hpp"
#include "sim/async_network.hpp"
#include "sim/churn.hpp"
#include "sim/loss.hpp"
#include "sim/parallel.hpp"
#include "sim/sharded_network.hpp"
#include "stabilize/convergence.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/incremental.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "verify/certifier.hpp"

namespace ssmwn::campaign {

namespace {

core::ClusterOptions variant_options(Variant variant) noexcept {
  switch (variant) {
    case Variant::kBasic: return core::ClusterOptions::basic();
    case Variant::kDag: return core::ClusterOptions::with_dag();
    case Variant::kImproved: return core::ClusterOptions::improved();
    case Variant::kFull: return core::ClusterOptions::full();
  }
  return {};
}

/// One async run: play the distributed protocol on the event-driven
/// engine (randomized daemon, per-link delays) from an adversarial
/// initial state, against the topology the grid point describes, and
/// measure virtual-time convergence to a legitimate configuration plus
/// the messages it took. `tau < 1` becomes per-delivery Bernoulli loss.
RunMetrics execute_async_run(const ScenarioConfig& config,
                             const topology::IdAssignment& ids,
                             util::Rng& rng, RunWorkspace& ws) {
  // One independent sub-stream per stochastic component, split in a
  // fixed order so adding one never perturbs the others.
  util::Rng protocol_rng = rng.split();
  util::Rng loss_rng = rng.split();
  util::Rng engine_rng = rng.split();
  util::Rng chaos_rng = rng.split();

  const graph::Graph g = topology::unit_disk_graph(ws.points, config.radius);

  core::ProtocolConfig pconfig;
  pconfig.cluster = variant_options(config.variant);
  pconfig.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  pconfig.cache_max_age = config.tau < 1.0 ? 16 : 8;
  core::DensityProtocol protocol(ids, pconfig, protocol_rng);
  // "From an arbitrary initial state": scramble every shared variable
  // and stuff the caches with garbage before the first event fires.
  protocol.corrupt_all(chaos_rng);

  const auto medium = sim::make_loss_model(config.tau, loss_rng);

  sim::AsyncConfig async;
  async.period_s = config.window_s;  // one "window" = one mean period
  async.period_jitter = config.period_jitter;
  async.link_delay_s = config.link_delay;
  async.daemon = sim::DaemonKind::kRandomized;
  sim::AsyncNetwork network(g, protocol, *medium, async, engine_rng);
  if (config.stepping == SteppingKind::kDirty) {
    network.set_stepping(sim::Stepping::kDirty);
  }

  // Shared legitimacy definition (core/legitimacy.hpp): exact oracle
  // match only when head identity is a pure function of the topology.
  const bool exact = core::head_identity_is_deterministic(pconfig.cluster);
  core::ClusteringResult oracle;
  if (exact) oracle = core::cluster_density(g, ids, pconfig.cluster);
  core::LegitimacyCheck legitimacy(g, protocol, exact ? &oracle : nullptr);

  const auto report = sim::settle_async(
      network, [&] { return legitimacy.check(); },
      /*horizon_periods=*/static_cast<double>(config.steps));

  RunMetrics out;
  out.stability = report.converged ? 1.0 : 0.0;
  out.delta = 0.0;
  out.reaffiliation = 0.0;
  std::size_t heads = 0;
  for (const char flag : protocol.head_flags()) heads += flag != 0;
  out.cluster_count = static_cast<double>(heads);
  out.converge_time = report.converged ? report.stabilization_time_s
                                       : report.time_simulated_s;
  out.messages = static_cast<double>(report.converged
                                         ? report.messages_to_converge
                                         : report.messages_total);
  out.windows = report.checks;
  return out;
}

/// Shared per-node mobility factory (live + classic sync paths draw the
/// same way, so the models stay interchangeable between modes).
std::unique_ptr<mobility::MobilityModel> make_mover(
    const ScenarioConfig& config, std::size_t n, util::Rng rng) {
  const mobility::SpeedRange speeds{config.speed_min, config.speed_max};
  switch (config.mobility) {
    case MobilityKind::kNone:
      return nullptr;
    case MobilityKind::kRandomDirection:
      return std::make_unique<mobility::RandomDirection>(n, speeds,
                                                         config.world_m, rng);
    case MobilityKind::kRandomWaypoint:
      return std::make_unique<mobility::RandomWaypoint>(n, speeds,
                                                        config.world_m, rng);
  }
  return nullptr;
}

/// One protocol-under-mobility run: the distributed protocol executes
/// continuously (on either engine) while mobility and churn evolve the
/// topology; every `window_s` of movement is one *perturbation*, and the
/// run records how long (virtual seconds) and how many frame deliveries
/// each perturbation needed to re-reach a legitimate configuration.
/// `topology_update` selects how change reaches the runtime: incremental
/// edge deltas with eager stale-link invalidation, or full rebuilds the
/// protocol discovers only through its own cache aging.
RunMetrics execute_live_run(const ScenarioConfig& config,
                            const topology::IdAssignment& ids,
                            util::Rng& rng, RunWorkspace& ws,
                            const ExecutionOptions& exec) {
  // Fixed split order (see execute_async_run).
  util::Rng protocol_rng = rng.split();
  util::Rng loss_rng = rng.split();
  util::Rng engine_rng = rng.split();
  util::Rng chaos_rng = rng.split();
  util::Rng mobility_rng = rng.split();
  util::Rng churn_rng = rng.split();

  const std::size_t n = ws.points.size();
  auto mover = make_mover(config, n, mobility_rng);
  std::optional<sim::NodeChurn> churn;
  if (config.churn_down > 0.0) {
    churn.emplace(n, config.churn_down, config.churn_up, churn_rng);
  }
  const auto alive_span = [&]() -> std::span<const char> {
    if (!churn) return {};
    return {churn->alive().data(), churn->alive().size()};
  };

  // Topology holder. Both modes keep ONE Graph object alive for the
  // whole run (the engines hold a reference to it): incremental patches
  // it via edge deltas, rebuild move-assigns a fresh build into it.
  const bool incremental =
      config.topology_update == TopologyUpdateKind::kIncremental;
  std::optional<topology::LiveTopology> live;
  graph::DynamicGraph rebuilt;
  auto rebuild_graph = [&] {
    graph::Graph g = topology::unit_disk_graph(ws.points, config.radius);
    if (churn) g = sim::mask_nodes(g, alive_span());
    rebuilt.reset(std::move(g));
  };
  if (incremental) {
    live.emplace(ws.points, config.radius, alive_span());
  } else {
    rebuild_graph();
  }
  const graph::Graph& g = incremental ? live->graph() : rebuilt.view();

  core::ProtocolConfig pconfig;
  pconfig.cluster = variant_options(config.variant);
  pconfig.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  pconfig.cache_max_age = config.tau < 1.0 ? 16 : 8;
  core::DensityProtocol protocol(ids, pconfig, protocol_rng);
  protocol.corrupt_all(chaos_rng);
  const auto medium = sim::make_loss_model(config.tau, loss_rng);

  const bool exact = core::head_identity_is_deterministic(pconfig.cluster);
  core::ClusteringResult oracle;
  auto recompute_oracle = [&] {
    if (exact) oracle = core::cluster_density(g, ids, pconfig.cluster);
  };
  recompute_oracle();
  core::LegitimacyCheck legitimacy(g, protocol, exact ? &oracle : nullptr);

  const double horizon_s =
      static_cast<double>(config.live_horizon) * config.window_s;
  const double confirm_s = 3.0 * config.window_s;

  util::RunningStats reconv_time, reconv_messages, clusters;
  std::size_t reconverged = 0;
  auto count_heads = [&protocol] {
    std::size_t heads = 0;
    for (const char flag : protocol.head_flags()) heads += flag != 0;
    return static_cast<double>(heads);
  };
  auto record_window = [&](const stabilize::VirtualTimeReport& report,
                           double window_start_s) {
    reconverged += report.converged;
    reconv_time.add((report.converged ? report.stabilization_time_s
                                      : report.time_simulated_s) -
                    window_start_s);
    reconv_messages.add(static_cast<double>(
        report.converged ? report.messages_to_converge
                         : report.messages_total));
    clusters.add(count_heads());
  };

  RunMetrics out;
  const bool dirty = config.stepping == SteppingKind::kDirty;
  if (config.scheduler == SchedulerKind::kSync) {
    // exec.shards contiguous shards on one thread (the plan clamps 0 to
    // one shard); bit-identical at any count.
    sim::ShardedNetwork network(
        g, protocol, *medium,
        graph::plan_contiguous_shards(g.node_count(), exec.shards).bounds);
    // expand() rejects dirty+sync with tau < 1, so this never throws.
    if (dirty) network.set_stepping(sim::Stepping::kDirty);
    // Unified units with the async engine: one synchronous step is one
    // broadcast round ≈ one window_s of virtual time.
    auto settle = [&] {
      legitimacy.reset();
      std::size_t rounds = 0;
      const std::uint64_t base = network.messages_delivered();
      return stabilize::run_until_stable_virtual(
          [&] {
            network.step();
            return static_cast<double>(++rounds) * config.window_s;
          },
          [&] { return network.messages_delivered() - base; },
          [&] { return legitimacy.check(); }, confirm_s, horizon_s);
    };

    const auto cold = settle();
    out.converge_time =
        cold.converged ? cold.stabilization_time_s : cold.time_simulated_s;
    out.messages = static_cast<double>(
        cold.converged ? cold.messages_to_converge : cold.messages_total);

    for (std::size_t window = 0; window < config.steps; ++window) {
      if (mover) mover->step(ws.points, config.window_s);
      if (churn) churn->step();
      if (incremental) {
        // apply_topology_delta also wakes the closed neighborhood of
        // every delta endpoint under dirty stepping, so quiescent nodes
        // near a change re-run their rules next step.
        network.apply_topology_delta(live->update(ws.points, alive_span()));
      } else {
        // Rebuild mode mutates the Graph in place with no delta, so
        // re-announce it: the engine caches boundary-sender lists and
        // row hints keyed to the adjacency, and under dirty stepping
        // quiescent nodes would never learn of the change (set_graph
        // wakes every node).
        rebuild_graph();
        network.set_graph(g);
      }
      recompute_oracle();
      record_window(settle(), 0.0);
    }
  } else {
    sim::AsyncConfig async;
    async.period_s = config.window_s;
    async.period_jitter = config.period_jitter;
    async.link_delay_s = config.link_delay;
    async.daemon = sim::DaemonKind::kRandomized;
    sim::AsyncNetwork network(g, protocol, *medium, async, engine_rng);
    // Safe under both topology-update modes: the async skip decision
    // reads only protocol cache state, never adjacency.
    if (dirty) network.set_stepping(sim::Stepping::kDirty);
    auto settle = [&] {
      legitimacy.reset();
      return sim::settle_async(
          network, [&] { return legitimacy.check(); },
          static_cast<double>(config.live_horizon));
    };

    const auto cold = settle();
    out.converge_time =
        cold.converged ? cold.stabilization_time_s : cold.time_simulated_s;
    out.messages = static_cast<double>(
        cold.converged ? cold.messages_to_converge : cold.messages_total);

    // Mobility advances one window_s of *movement* per perturbation; the
    // network clock between perturbations is whatever the settle took.
    graph::EdgeDelta no_delta;  // rebuild mode applies without a delta
    for (std::size_t window = 0; window < config.steps; ++window) {
      if (mover) mover->step(ws.points, config.window_s);
      if (churn) churn->step();
      network.schedule_topology_update(
          network.now(), [&]() -> const graph::EdgeDelta& {
            if (incremental) return live->update(ws.points, alive_span());
            rebuild_graph();
            return no_delta;
          });
      // Fire the perturbation now so the oracle sees the new graph.
      network.run_until(network.now());
      const double window_start_s = network.now_seconds();
      recompute_oracle();
      record_window(settle(), window_start_s);
    }
  }

  out.stability = config.steps == 0
                      ? 1.0
                      : static_cast<double>(reconverged) /
                            static_cast<double>(config.steps);
  out.cluster_count = clusters.mean();
  out.reconverge_time = reconv_time.mean();
  out.reconverge_messages = reconv_messages.mean();
  out.windows = reconv_time.count();
  return out;
}

}  // namespace

namespace {

/// One certification trial (verify_faults=true): corrupt with the grid
/// point's fault class, run to fixpoint on both engines (async half
/// under the grid point's daemon), check legitimacy + cross-engine
/// agreement. The trial draws its own deployment from the run seed
/// (verify::run_trial is the single definition the CLI, the tests, and
/// the shrinker share), so the repro specs the shrinker emits replay
/// through this exact path.
RunMetrics execute_verify_run(const ScenarioConfig& config,
                              std::uint64_t seed) {
  const verify::TrialSpec spec = verify::trial_from_scenario(config, seed);
  const verify::TrialResult r = verify::run_trial(spec);
  RunMetrics out;
  out.stability = r.passed ? 1.0 : 0.0;
  out.delta = 0.0;
  out.reaffiliation = 0.0;
  out.cluster_count = static_cast<double>(r.heads);
  out.converge_time = r.async_time_s;
  out.messages = static_cast<double>(r.async_messages);
  out.sync_steps = static_cast<double>(r.sync_steps);
  out.sync_messages = static_cast<double>(r.sync_messages);
  out.windows = 1;
  return out;
}

}  // namespace

RunMetrics execute_run(const ScenarioConfig& config, std::uint64_t seed,
                       RunWorkspace& ws, const ExecutionOptions& exec) {
  // Verify trials own their whole world (deployment included, drawn
  // from the seed inside run_trial); dispatch before the shared
  // deployment draw below.
  if (config.verify_faults) {
    return execute_verify_run(config, seed);
  }

  util::Rng rng(seed);

  switch (config.topology) {
    case TopologyKind::kUniform:
      ws.points = topology::uniform_points(config.n, rng);
      break;
    case TopologyKind::kGrid:
      ws.points = topology::grid_points(topology::grid_side_for(config.n));
      break;
    case TopologyKind::kPoisson:
      ws.points = topology::poisson_points(static_cast<double>(config.n), rng);
      break;
  }
  const std::size_t n = ws.points.size();
  RunMetrics out;
  if (n == 0) {  // a Poisson draw can be empty; nothing to measure
    out.cluster_count = 0.0;
    return out;
  }

  // Grid deployments get the paper's adversarial left-to-right id order;
  // everything else gets uniformly random identifiers (same convention as
  // the CLI's make_deployment).
  const auto ids = config.topology == TopologyKind::kGrid
                       ? topology::sequential_ids(n)
                       : topology::random_ids(n, rng);

  // The live (protocol-under-mobility) and async modes get their own
  // execution paths; the deployment above (points, ids) is drawn
  // identically, so every mode over the same topology axes sees the
  // same world.
  if (config.protocol_live) {
    return execute_live_run(config, ids, rng, ws, exec);
  }
  if (config.scheduler == SchedulerKind::kAsync) {
    return execute_async_run(config, ids, rng, ws);
  }

  // One independent sub-stream per stochastic process, split in a fixed
  // order so adding a process never perturbs the others.
  util::Rng mobility_rng = rng.split();
  util::Rng churn_rng = rng.split();
  util::Rng loss_rng = rng.split();
  util::Rng dag_rng = rng.split();

  auto mover = make_mover(config, n, mobility_rng);

  std::optional<sim::NodeChurn> churn;
  if (config.churn_down > 0.0) {
    churn.emplace(n, config.churn_down, config.churn_up, churn_rng);
  }

  const core::ClusterOptions options = variant_options(config.variant);

  util::RunningStats stability, delta, reaffiliation, clusters;
  ws.prev_heads.clear();
  bool has_previous = false;

  for (std::size_t window = 0; window < config.steps; ++window) {
    graph::Graph g = topology::unit_disk_graph(ws.points, config.radius);
    if (churn) g = sim::mask_nodes(g, churn->step());
    if (config.tau < 1.0) g = sim::drop_links(g, 1.0 - config.tau, loss_rng);

    const std::span<const char> incumbents(ws.prev_heads.data(),
                                           ws.prev_heads.size());
    core::ClusteringResult result;
    if (options.use_dag_ids) {
      // DAG names are a property of the current graph; rebuild per window.
      const auto dag = core::build_dag_ids(g, ids, {}, dag_rng);
      result = core::cluster_density(g, ids, options, dag.ids, incumbents);
    } else {
      result = core::cluster_density(g, ids, options, {}, incumbents);
    }

    clusters.add(static_cast<double>(result.cluster_count()));
    if (has_previous) {
      stability.add(metrics::reelection_ratio(
          incumbents,
          std::span<const char>(result.is_head.data(), result.is_head.size())));
      const auto diff = metrics::diff_clusterings(ws.previous, result);
      delta.add(static_cast<double>(diff.membership_changes) /
                static_cast<double>(n));
      reaffiliation.add(static_cast<double>(diff.parent_changes) /
                        static_cast<double>(n));
    }
    ws.prev_heads.assign(result.is_head.begin(), result.is_head.end());
    ws.previous = std::move(result);
    has_previous = true;

    if (mover) mover->step(ws.points, config.window_s);
  }

  out.windows = stability.count();
  out.stability = stability.empty() ? 1.0 : stability.mean();
  out.delta = delta.mean();
  out.reaffiliation = reaffiliation.mean();
  out.cluster_count = clusters.mean();
  return out;
}

namespace {

/// Thread-safe checkpoint publisher shared by the serial and pooled
/// paths. Workers report completions through mark_complete(); the
/// worker that crosses the cadence threshold copies the completed slots
/// under the lock and publishes the snapshot *off* the lock, so file IO
/// (including fsync) never stalls the other workers. The copy is
/// race-free: a result is written before its completion flag is set
/// under the mutex, and the copier holds the same mutex.
class CheckpointSink {
 public:
  CheckpointSink(const CheckpointOptions& ckpt, const CampaignPlan& plan,
                 const std::vector<RunMetrics>& results,
                 std::vector<char> completed)
      : ckpt_(ckpt),
        plan_(plan),
        results_(results),
        completed_(std::move(completed)) {}

  [[nodiscard]] bool enabled() const noexcept { return !ckpt_.path.empty(); }
  [[nodiscard]] bool is_complete(std::size_t i) const {
    return completed_[i] != 0;
  }

  void mark_complete(std::size_t i) {
    if (!enabled()) return;
    bool write_now = false;
    {
      const std::scoped_lock lock(mutex_);
      completed_[i] = 1;
      ++since_snapshot_;
      if (since_snapshot_ >= ckpt_.every_runs && !writer_busy_ &&
          error_ == nullptr) {
        writer_busy_ = true;
        since_snapshot_ = 0;
        write_now = true;
      }
    }
    if (write_now) publish();
  }

  /// Publishes the final complete snapshot and rethrows any checkpoint
  /// write error deferred from a worker. Call after all runs finish.
  void finish() {
    if (!enabled()) return;
    std::exception_ptr error;
    {
      const std::scoped_lock lock(mutex_);
      error = error_;
    }
    if (error) std::rethrow_exception(error);
    CheckpointState snap;
    snap.completed = completed_;
    snap.results = results_;
    write_checkpoint(ckpt_.path, plan_, snap);
  }

 private:
  void publish() {
    CheckpointState snap;
    {
      const std::scoped_lock lock(mutex_);
      snap.completed = completed_;
    }
    snap.results.assign(results_.size(), RunMetrics{});
    for (std::size_t i = 0; i < snap.completed.size(); ++i) {
      if (snap.completed[i] != 0) snap.results[i] = results_[i];
    }
    // Workers must never unwind through the pool's raw range callback;
    // park the error and fail the campaign from finish() instead.
    std::exception_ptr error;
    try {
      write_checkpoint(ckpt_.path, plan_, snap);
    } catch (...) {
      error = std::current_exception();
    }
    const std::scoped_lock lock(mutex_);
    writer_busy_ = false;
    if (error && error_ == nullptr) error_ = error;
  }

  const CheckpointOptions& ckpt_;
  const CampaignPlan& plan_;
  const std::vector<RunMetrics>& results_;
  std::vector<char> completed_;
  std::mutex mutex_;
  std::size_t since_snapshot_ = 0;
  bool writer_busy_ = false;
  std::exception_ptr error_;
};

}  // namespace

CampaignRunner::CampaignRunner(unsigned threads, const ExecutionOptions& exec)
    : threads_(threads == 0
                   ? std::max(1u, std::thread::hardware_concurrency())
                   : threads),
      exec_(exec) {}

std::vector<RunMetrics> CampaignRunner::run(const CampaignPlan& plan) {
  return run(plan, CheckpointOptions{}, nullptr);
}

std::vector<RunMetrics> CampaignRunner::run(const CampaignPlan& plan,
                                            const CheckpointOptions& ckpt,
                                            const CheckpointState* resume) {
  std::vector<RunMetrics> results(plan.runs.size());
  std::vector<char> completed(plan.runs.size(), 0);
  if (resume != nullptr) {
    completed = resume->completed;
    for (std::size_t i = 0; i < completed.size(); ++i) {
      if (completed[i] != 0) results[i] = resume->results[i];
    }
  }
  if (plan.runs.empty()) return results;

  CheckpointSink sink(ckpt, plan, results, completed);

  if (threads_ == 1 || plan.runs.size() == 1) {
    RunWorkspace ws;
    for (std::size_t i = 0; i < plan.runs.size(); ++i) {
      if (completed[i] != 0) continue;
      const auto& entry = plan.runs[i];
      results[i] =
          execute_run(plan.grid[entry.grid_index].config, entry.seed, ws, exec_);
      sink.mark_complete(i);
    }
    sink.finish();
    return results;
  }

  sim::ThreadPool pool(threads_);
  struct Ctx {
    const CampaignPlan* plan;
    RunMetrics* results;
    const char* completed;
    std::vector<RunWorkspace>* workspaces;
    std::vector<std::size_t>* free_slots;
    std::mutex* mutex;
    const ExecutionOptions* exec;
    CheckpointSink* sink;
  };
  // One workspace per pool thread; a range claims one for its duration.
  // At most thread_count() ranges execute concurrently, so the free list
  // can never underflow.
  std::vector<RunWorkspace> workspaces(pool.thread_count());
  std::vector<std::size_t> free_slots;
  free_slots.reserve(workspaces.size());
  for (std::size_t i = 0; i < workspaces.size(); ++i) free_slots.push_back(i);
  std::mutex mutex;
  Ctx ctx{&plan,       results.data(), completed.data(), &workspaces,
          &free_slots, &mutex,         &exec_,           &sink};

  pool.parallel_for(
      plan.runs.size(), 1,
      [](void* raw, std::size_t begin, std::size_t end) {
        auto& ctx = *static_cast<Ctx*>(raw);
        std::size_t slot;
        {
          const std::scoped_lock lock(*ctx.mutex);
          slot = ctx.free_slots->back();
          ctx.free_slots->pop_back();
        }
        RunWorkspace& ws = (*ctx.workspaces)[slot];
        for (std::size_t i = begin; i < end; ++i) {
          // `completed` is the immutable resume prefill, not live
          // progress; the sink tracks live completions separately.
          if (ctx.completed[i] != 0) continue;
          const auto& entry = ctx.plan->runs[i];
          ctx.results[i] = execute_run(ctx.plan->grid[entry.grid_index].config,
                                       entry.seed, ws, *ctx.exec);
          ctx.sink->mark_complete(i);
        }
        const std::scoped_lock lock(*ctx.mutex);
        ctx.free_slots->push_back(slot);
      },
      &ctx);
  sink.finish();
  return results;
}

}  // namespace ssmwn::campaign
