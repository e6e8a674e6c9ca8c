#include "campaign/runner.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

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

std::string RunJob::error_text(std::size_t i) const {
  if (errors[i] == nullptr) return {};
  try {
    std::rethrow_exception(errors[i]);
  } catch (const std::exception& e) {
    if (*e.what() != '\0') return e.what();
  } catch (...) {
  }
  return "run failed";
}

namespace {

/// Checkpoint publisher driven by run()'s waiting caller as it passes
/// slots in plan order — never by a worker, so fsync cannot stall a run.
/// A snapshot holds the resumed slots plus every slot the caller has
/// passed; runs that finished ahead of it land in a later snapshot.
class CheckpointSink {
 public:
  CheckpointSink(const CheckpointOptions& ckpt, const CampaignPlan& plan,
                 const RunJob& job)
      : ckpt_(ckpt), plan_(plan), job_(job), completed_(job.done) {}

  /// Records slot `i` as complete (its result is readable: the caller
  /// waited on it) and publishes once `every_runs` new slots piled up.
  void passed(std::size_t i) {
    if (ckpt_.path.empty() || completed_[i] != 0) return;
    completed_[i] = 1;
    if (++since_snapshot_ < ckpt_.every_runs) return;
    since_snapshot_ = 0;
    publish();
  }

  void publish() const {
    if (ckpt_.path.empty()) return;
    CheckpointState snap;
    snap.completed = completed_;
    snap.results.assign(completed_.size(), RunMetrics{});
    for (std::size_t i = 0; i < completed_.size(); ++i) {
      if (completed_[i] != 0) snap.results[i] = job_.results[i];
    }
    write_checkpoint(ckpt_.path, plan_, snap);
  }

 private:
  const CheckpointOptions& ckpt_;
  const CampaignPlan& plan_;
  const RunJob& job_;
  std::vector<char> completed_;
  std::size_t since_snapshot_ = 0;
};

}  // namespace

CampaignRunner::CampaignRunner(unsigned threads, const ExecutionOptions& exec)
    : exec_(exec) {
  const unsigned count =
      threads == 0 ? std::max(1u, std::thread::hardware_concurrency())
                   : threads;
  workers_.reserve(count);
  try {
    for (unsigned i = 0; i < count; ++i) {
      workers_.emplace_back(&CampaignRunner::worker_main, this);
    }
  } catch (...) {
    drain();  // join the workers already started
    throw;
  }
}

CampaignRunner::~CampaignRunner() { drain(); }

void CampaignRunner::submit(const std::shared_ptr<RunJob>& job) {
  {
    const std::scoped_lock lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("campaign runner is draining; job rejected");
    }
    for (std::size_t i = 0; i < job->plan.runs.size(); ++i) {
      if (job->done[i] == 0) queue_.push_back(Task{job, i});
    }
  }
  cv_.notify_all();
}

void CampaignRunner::drain() {
  {
    const std::scoped_lock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void CampaignRunner::worker_main() {
  RunWorkspace ws;  // reused across every run this worker takes
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      // An empty queue first: stopping_ alone must not wake a worker
      // past queued tasks — the drain contract says everything queued
      // finishes before the workers exit.
      cv_.wait(lock, [&] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    RunJob& job = *task.job;
    const auto& entry = job.plan.runs[task.run_index];
    RunMetrics metrics;
    std::exception_ptr error;
    if (job.cancelled.load(std::memory_order_acquire)) {
      error = std::make_exception_ptr(std::runtime_error("cancelled"));
    } else {
      try {
        metrics = execute_run(job.plan.grid[entry.grid_index].config,
                              entry.seed, ws, exec_);
      } catch (...) {
        error = std::current_exception();
      }
    }
    {
      const std::scoped_lock lock(job.mutex);
      job.results[task.run_index] = metrics;
      job.errors[task.run_index] = std::move(error);
      job.done[task.run_index] = 1;
    }
    job.cv.notify_all();
    task.job.reset();  // release before sleeping; jobs die promptly
  }
}

std::vector<RunMetrics> CampaignRunner::run(const CampaignPlan& plan) {
  return run(plan, CheckpointOptions{}, nullptr);
}

std::vector<RunMetrics> CampaignRunner::run(const CampaignPlan& plan,
                                            const CheckpointOptions& ckpt,
                                            const CheckpointState* resume) {
  if (plan.runs.empty()) return {};
  auto job = std::make_shared<RunJob>(plan);
  if (resume != nullptr) {
    for (std::size_t i = 0; i < job->done.size(); ++i) {
      if (resume->completed[i] == 0) continue;
      job->done[i] = 1;
      job->results[i] = resume->results[i];
    }
  }
  CheckpointSink sink(ckpt, plan, *job);
  submit(job);
  try {
    // Waiting in plan order makes a failure deterministic: every slot
    // before the first failed one has finished, whatever the thread
    // count.
    for (std::size_t i = 0; i < plan.runs.size(); ++i) {
      job->wait_slot(i);
      if (job->errors[i] != nullptr) {
        // Move the error out so the exception dies on this thread even
        // if a worker drops the job last: libstdc++ counts exception_ptr
        // references where ThreadSanitizer cannot see them.
        std::rethrow_exception(std::exchange(job->errors[i], nullptr));
      }
      sink.passed(i);
    }
    sink.publish();
  } catch (...) {
    // Nobody will read the rest: free the workers its queued runs hold.
    job->cancelled.store(true, std::memory_order_release);
    throw;
  }
  return std::move(job->results);
}

}  // namespace ssmwn::campaign
