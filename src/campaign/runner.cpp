#include "campaign/runner.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "campaign/checkpoint.hpp"
#include "campaign/protocol_run.hpp"
#include "core/dag_ids.hpp"
#include "graph/graph.hpp"
#include "metrics/delta.hpp"
#include "metrics/stability.hpp"
#include "sim/churn.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "verify/certifier.hpp"

namespace ssmwn::campaign {

namespace {

/// A run that plays the distributed protocol on an engine from an
/// arbitrary initial state. An async run (scheduler=async) settles once
/// on the event-driven engine (randomized daemon, per-link delays) and
/// measures virtual-time convergence to a legitimate configuration plus
/// the messages it took; `tau < 1` becomes per-delivery Bernoulli loss.
/// A live run (protocol_live) keeps the protocol running, on either
/// engine, while mobility and churn evolve the topology: every `window_s`
/// of movement is one *perturbation*, and the run records how long
/// (virtual seconds) and how many frame deliveries each perturbation
/// needed to re-reach a legitimate configuration. `topology_update`
/// selects how change reaches the runtime: incremental edge deltas with
/// eager stale-link invalidation, or full rebuilds the protocol discovers
/// only through its own cache aging.
RunMetrics execute_protocol_run(const ScenarioConfig& config,
                                const topology::IdAssignment& ids,
                                util::Rng& rng, RunWorkspace& ws,
                                const ExecutionOptions& exec) {
  // One independent sub-stream per stochastic component, split in a
  // fixed order so adding one never perturbs the others.
  util::Rng protocol_rng = rng.split();
  util::Rng loss_rng = rng.split();
  util::Rng engine_rng = rng.split();
  util::Rng chaos_rng = rng.split();

  const std::size_t n = ws.points.size();
  RunWorld world{.points = &ws.points, .radius = config.radius};
  world.incremental =
      config.protocol_live &&
      config.topology_update == TopologyUpdateKind::kIncremental;
  if (config.protocol_live) {
    world.mover = make_mover(config.mobility, n,
                             {config.speed_min, config.speed_max},
                             config.world_m, rng.split());
    util::Rng churn_rng = rng.split();
    if (config.churn_down > 0.0) {
      world.churn.emplace(n, config.churn_down, config.churn_up, churn_rng);
    }
  }

  RunRecipe recipe;
  recipe.cluster = cluster_options(config.variant);
  recipe.tau = config.tau;
  if (config.scheduler == SchedulerKind::kAsync) {
    sim::AsyncConfig async;
    async.period_s = config.window_s;  // one "window" = one mean period
    async.period_jitter = config.period_jitter;
    async.link_delay_s = config.link_delay;
    recipe.async = async;
  }
  // exec.shards contiguous shards on one thread; bit-identical at any
  // count. expand() rejects dirty+sync with tau < 1, so the engine never
  // throws on the stepping.
  recipe.shards = exec.shards;
  recipe.stepping = config.stepping == SteppingKind::kDirty
                        ? sim::Stepping::kDirty
                        : sim::Stepping::kFull;
  recipe.window_s = config.window_s;
  // "From an arbitrary initial state": scramble every shared variable
  // and stuff the caches with garbage before the first event fires.
  recipe.initial_state = [&chaos_rng](core::DensityProtocol& protocol) {
    protocol.corrupt_all(chaos_rng);
  };
  ProtocolRun run(std::move(world), ids, std::move(recipe),
                  {protocol_rng, loss_rng, engine_rng});

  RunMetrics out;
  if (!config.protocol_live) {
    const Settled settled = run.settle(static_cast<double>(config.steps));
    out.stability = settled.report.converged ? 1.0 : 0.0;
    out.cluster_count = static_cast<double>(run.head_count());
    out.converge_time = settled.time_s();
    out.messages = static_cast<double>(settled.messages());
    out.windows = settled.report.checks;
    return out;
  }

  util::RunningStats reconv_time, reconv_messages, clusters;
  std::size_t reconverged = 0;
  run.live(config.steps, static_cast<double>(config.live_horizon),
           [&](std::size_t window, EdgeChange, const Settled& settled) {
             if (window == 0) {
               out.converge_time = settled.time_s();
               out.messages = static_cast<double>(settled.messages());
               return;
             }
             reconverged += settled.report.converged;
             reconv_time.add(settled.time_s());
             reconv_messages.add(static_cast<double>(settled.messages()));
             clusters.add(static_cast<double>(run.head_count()));
           });
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
  Deployment deployment = draw_deployment(config.topology, config.n, rng);
  ws.points = std::move(deployment.points);
  const std::size_t n = ws.points.size();
  RunMetrics out;
  if (n == 0) {  // a Poisson draw can be empty; nothing to measure
    out.cluster_count = 0.0;
    return out;
  }
  const topology::IdAssignment& ids = deployment.ids;

  // Live and async runs play the protocol on an engine; the deployment
  // above (points, ids) is drawn identically, so every mode over the
  // same topology axes sees the same world.
  if (config.protocol_live || config.scheduler == SchedulerKind::kAsync) {
    return execute_protocol_run(config, ids, rng, ws, exec);
  }

  // One independent sub-stream per stochastic process, split in a fixed
  // order so adding a process never perturbs the others.
  util::Rng mobility_rng = rng.split();
  util::Rng churn_rng = rng.split();
  util::Rng loss_rng = rng.split();
  util::Rng dag_rng = rng.split();

  auto mover = make_mover(config.mobility, n,
                          {config.speed_min, config.speed_max},
                          config.world_m, mobility_rng);

  std::optional<sim::NodeChurn> churn;
  if (config.churn_down > 0.0) {
    churn.emplace(n, config.churn_down, config.churn_up, churn_rng);
  }

  const core::ClusterOptions options = cluster_options(config.variant);

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
