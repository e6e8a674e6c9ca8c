// Persistent FIFO run pool for experiment campaigns and the daemon.
//
// A campaign is an embarrassingly parallel bag of runs: each run owns
// its deployment, its mobility/churn/loss processes, and its RNG (seeded
// solely from the plan), and never reads another run's state. The
// runner's workers live as long as the runner and share one FIFO queue
// of run tasks; each worker owns one `RunWorkspace` for its whole life,
// so the window-loop scratch state stops churning the heap once every
// worker has warmed up, across jobs and across run() calls (the
// per-window graph/clustering rebuilds allocate and free symmetrically,
// keeping the steady-state heap flat — audited by bench_campaign).
//
// Work arrives as `RunJob`s: run(plan) wraps the plan in one and waits
// for it in the calling thread; the serve daemon submit()s one per spec
// and streams each slot as it lands. Runs start in submission order —
// plan order within a job — so no job overtakes an older one. Every run
// writes its metrics (or its exception) into its plan slot, so the
// result vector, and everything aggregated from it in index order, is
// bit-identical for any thread count, and a failing run surfaces as the
// same exception at any thread count too.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/spec.hpp"
#include "core/clustering.hpp"
#include "topology/point.hpp"

namespace ssmwn::campaign {

struct CheckpointState;  // campaign/checkpoint.hpp

/// Per-run outcome. Sync runs (scheduler=sync) report means over the
/// run's snapshot windows; async runs (scheduler=async) report one
/// self-stabilization experiment — the distributed protocol played on
/// the event-driven engine from an adversarial initial state.
struct RunMetrics {
  /// Sync: mean fraction of cluster-heads re-elected window over window
  /// (the paper's mobility-stability percentage, as a ratio).
  /// Async: 1.0 if the run converged within its virtual horizon, else
  /// 0.0 — aggregates to the convergence rate across replications.
  /// Verify: 1.0 if the certification trial passed (both engines
  /// converged, closure held, engines agreed), else 0.0.
  double stability = 1.0;
  /// Mean fraction of nodes whose resolved cluster changed per window.
  /// Sync only — the report writers omit it for async points.
  double delta = 0.0;
  /// Mean fraction of nodes whose clusterization-tree parent changed.
  /// Sync only, like delta.
  double reaffiliation = 0.0;
  /// Mean number of clusters per snapshot (async: final head count).
  double cluster_count = 0.0;
  /// Async/live: virtual time (s) at which the final uninterrupted
  /// legitimate run began (cold start); the full horizon when it never
  /// converged. Live sync runs report rounds × window_s so the unit is
  /// virtual seconds on both engines.
  double converge_time = 0.0;
  /// Async/live: frame deliveries observed up to that point.
  double messages = 0.0;
  /// Live only: mean virtual seconds from a topology perturbation to
  /// the start of the final legitimate run of its window (horizon-capped
  /// for windows that never re-converged — the cap is part of the
  /// distribution, not hidden).
  double reconverge_time = 0.0;
  /// Live only: mean frame deliveries between a perturbation and its
  /// re-convergence, same capping rule.
  double reconverge_messages = 0.0;
  /// Verify only: steps the trial's *synchronous* engine needed to reach
  /// confirmed legitimacy (the horizon when it diverged) — the paper's
  /// step-count bound, measured next to the async virtual time above.
  double sync_steps = 0.0;
  /// Verify only: frame deliveries of the synchronous half up to that
  /// point.
  double sync_messages = 0.0;
  /// Sync: window-over-window comparisons that contributed.
  /// Async: legitimacy checks performed. Live: perturbation windows.
  /// Verify: 1 (one certification trial per run).
  std::size_t windows = 0;
};

/// Reusable scratch state for one worker; one per concurrent run.
/// `clear()`-style reuse keeps capacity, so a warmed-up worker re-enters
/// the window loop without growing the heap.
struct RunWorkspace {
  std::vector<topology::Point> points;
  std::vector<char> prev_heads;
  core::ClusteringResult previous;
};

/// Execution knobs that must never influence results. Like the runner's
/// thread count — and unlike every ScenarioConfig axis — these are NOT
/// part of the experiment's identity: they never enter canonical config
/// strings or run seeds, and campaign outputs are byte-identical at any
/// value (the step engine is bit-identical at any shard count, asserted
/// by tests/sim/sharded_equivalence_test.cpp and the campaign replay
/// tests).
struct ExecutionOptions {
  /// <= 1 = one shard; >= 2 = that many contiguous shards of the
  /// synchronous engine (sim::ShardedNetwork). Applies to synchronous
  /// protocol-live runs (the only campaign path that steps a sync
  /// engine); classic-window and async runs ignore it.
  std::size_t shards = 0;
};

/// Periodic checkpointing of a campaign in flight. Like
/// ExecutionOptions, these knobs never influence results: a checkpoint
/// records results, it does not create them, so output is byte-identical
/// with checkpointing on, off, or at any cadence.
struct CheckpointOptions {
  /// Sidecar file to publish snapshots to; empty disables checkpointing.
  /// Each snapshot is a complete, self-validating file installed by
  /// atomic rename (campaign/checkpoint.hpp), so the path is always
  /// either absent or a loadable checkpoint.
  std::string path;
  /// Publish a snapshot after at least this many newly completed runs
  /// since the last one. Snapshots are written by the thread waiting in
  /// run(), never by a worker, so slow storage delays checkpoints
  /// instead of stalling the sweep.
  std::size_t every_runs = 64;
};

/// Executes one run of `config` from `seed`. All randomness derives from
/// `seed`; two calls with equal arguments return identical metrics —
/// for async configs the whole event trace is deterministic, so this
/// holds for the event-driven engine too, and `exec` cannot perturb the
/// result (see ExecutionOptions).
[[nodiscard]] RunMetrics execute_run(const ScenarioConfig& config,
                                     std::uint64_t seed, RunWorkspace& ws,
                                     const ExecutionOptions& exec = {});

/// One submitted batch of runs: the expanded plan plus per-slot
/// completion state. Workers fill `results[i]` (or `errors[i]`) and flip
/// `done[i]` under `mutex`; readers block on wait_slot(i), after which
/// slot i's fields are safe to read. Once `cancelled` is set, queued
/// slots complete unrun with a "cancelled" error.
struct RunJob {
  CampaignPlan plan;
  std::vector<RunMetrics> results;
  std::vector<char> done;
  std::vector<std::exception_ptr> errors;  // null = the run succeeded
  std::atomic<bool> cancelled{false};

  std::mutex mutex;
  std::condition_variable cv;

  explicit RunJob(CampaignPlan p)
      : plan(std::move(p)),
        results(plan.runs.size()),
        done(plan.runs.size(), 0),
        errors(plan.runs.size()) {}

  /// Blocks until run slot `i` completes.
  void wait_slot(std::size_t i) {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return done[i] != 0; });
  }

  /// what() of slot `i`'s failure ("run failed" if that is empty); the
  /// empty string if the run succeeded. Call after wait_slot(i).
  [[nodiscard]] std::string error_text(std::size_t i) const;
};

class CampaignRunner {
 public:
  /// Spawns `threads` workers; 0 means hardware concurrency. `exec`
  /// carries the result-neutral engine knobs every run shares.
  explicit CampaignRunner(unsigned threads = 1,
                          const ExecutionOptions& exec = {});
  ~CampaignRunner();  // drains: queued work finishes before workers exit

  CampaignRunner(const CampaignRunner&) = delete;
  CampaignRunner& operator=(const CampaignRunner&) = delete;

  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }
  [[nodiscard]] const ExecutionOptions& execution() const noexcept {
    return exec_;
  }

  /// Appends every slot of the job not already `done` to the queue in
  /// plan order. The job must outlive its runs — hence shared_ptr; the
  /// pool drops its references as runs complete. Throws
  /// std::runtime_error once the runner is draining.
  void submit(const std::shared_ptr<RunJob>& job);

  /// Graceful drain: stop accepting work, finish everything queued,
  /// join the workers. Idempotent; the destructor calls it.
  void drain();

  /// Runs every entry of the plan and returns the metrics in plan order.
  /// Deterministic for any thread count. If a run throws, the first
  /// failed slot in plan order is rethrown and the job's still-queued
  /// runs are cancelled; the runner stays usable.
  [[nodiscard]] std::vector<RunMetrics> run(const CampaignPlan& plan);

  /// As run(plan), with optional checkpointing and resume. `resume`
  /// (slot results recovered by load_checkpoint, already validated
  /// against this plan) prefills completed slots, which are skipped —
  /// every remaining run still executes from its plan seed, so the
  /// returned vector is byte-identical to an uninterrupted run at any
  /// thread count. If `ckpt.path` is set, snapshots are published there
  /// during execution and a final complete snapshot on return.
  [[nodiscard]] std::vector<RunMetrics> run(const CampaignPlan& plan,
                                            const CheckpointOptions& ckpt,
                                            const CheckpointState* resume);

 private:
  struct Task {
    std::shared_ptr<RunJob> job;
    std::size_t run_index = 0;
  };

  void worker_main();

  ExecutionOptions exec_;
  // One queue under one mutex: a task is an entire simulation run
  // (milliseconds to seconds), so queue operations are noise.
  std::deque<Task> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ssmwn::campaign
