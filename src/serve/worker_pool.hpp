// Persistent FIFO run pool for the serve daemon.
//
// sim::ThreadPool is a fork-join pool: parallel_for blocks its caller
// until the whole range drains, which is exactly wrong for a daemon
// where many connections submit jobs concurrently and each streams its
// own results as they land. ServePool is the long-lived counterpart:
// workers live for the daemon's lifetime, share one FIFO queue of run
// tasks and each reuse one RunWorkspace across every job they touch.
// Runs start in submission order — plan order within a job, the order
// its connection streams them in — so no job overtakes an older one.
//
// Results are deterministic by construction, not by scheduling: every
// run writes its metrics into its plan slot in the job, so whichever
// worker executes it — in whatever order — the job's result vector is
// identical, and a reader consuming slots in plan order sees a
// byte-stable stream.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"

namespace ssmwn::serve {

/// One submitted spec: the expanded plan plus per-slot completion
/// tracking. Workers fill `results` and flip `done` flags; readers
/// block on wait_slot(i) for slots in plan order. `failed[i]` carries a
/// run's error message instead of metrics (the connection reports it
/// and keeps serving). Once `cancelled` is set (its reader is gone),
/// queued slots complete as `failed[i]` = "cancelled", unrun.
struct ServeJob {
  campaign::CampaignPlan plan;
  std::vector<campaign::RunMetrics> results;
  std::vector<char> done;
  std::vector<std::string> failed;  // empty string = run succeeded
  std::atomic<bool> cancelled{false};

  std::mutex mutex;
  std::condition_variable cv;

  explicit ServeJob(campaign::CampaignPlan p)
      : plan(std::move(p)),
        results(plan.runs.size()),
        done(plan.runs.size(), 0),
        failed(plan.runs.size()) {}

  /// Blocks until run slot `i` completes.
  void wait_slot(std::size_t i) {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return done[i] != 0; });
  }
};

class ServePool {
 public:
  /// `threads` = 0 means hardware concurrency. `exec` carries the
  /// result-neutral engine knobs (shards) every run shares.
  explicit ServePool(unsigned threads,
                     const campaign::ExecutionOptions& exec = {});
  ~ServePool();  // drains: queued work finishes before workers exit

  ServePool(const ServePool&) = delete;
  ServePool& operator=(const ServePool&) = delete;

  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Appends every run of the job to the queue in plan order. The job
  /// must outlive its runs — hence shared_ptr; the pool drops its
  /// references as runs complete.
  void submit(const std::shared_ptr<ServeJob>& job);

  /// Graceful drain: stop accepting work, finish everything queued,
  /// join the workers. Idempotent; the destructor calls it.
  void drain();

 private:
  struct Task {
    std::shared_ptr<ServeJob> job;
    std::size_t run_index = 0;
  };

  void worker_main();

  campaign::ExecutionOptions exec_;
  // One queue under one mutex: a task is an entire simulation run
  // (milliseconds to seconds), so queue operations are noise.
  std::deque<Task> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ssmwn::serve
