#include "serve/worker_pool.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>

namespace ssmwn::serve {

ServePool::ServePool(unsigned threads, const campaign::ExecutionOptions& exec)
    : exec_(exec) {
  const unsigned count =
      threads == 0 ? std::max(1u, std::thread::hardware_concurrency())
                   : threads;
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back(&ServePool::worker_main, this);
  }
}

ServePool::~ServePool() { drain(); }

void ServePool::submit(const std::shared_ptr<ServeJob>& job) {
  {
    const std::scoped_lock lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("serve pool is draining; job rejected");
    }
    for (std::size_t i = 0; i < job->plan.runs.size(); ++i) {
      queue_.push_back(Task{job, i});
    }
  }
  cv_.notify_all();
}

void ServePool::drain() {
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

void ServePool::worker_main() {
  campaign::RunWorkspace ws;  // reused across every run this worker takes
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
    ServeJob& job = *task.job;
    const auto& entry = job.plan.runs[task.run_index];
    campaign::RunMetrics metrics;
    std::string error;
    if (job.cancelled.load(std::memory_order_acquire)) {
      error = "cancelled";
    } else {
      try {
        metrics = campaign::execute_run(job.plan.grid[entry.grid_index].config,
                                        entry.seed, ws, exec_);
      } catch (const std::exception& e) {
        error = e.what();
        if (error.empty()) error = "run failed";
      }
    }
    {
      const std::scoped_lock lock(job.mutex);
      job.results[task.run_index] = metrics;
      job.failed[task.run_index] = std::move(error);
      job.done[task.run_index] = 1;
    }
    job.cv.notify_all();
    task.job.reset();  // release before sleeping; jobs die promptly
  }
}

}  // namespace ssmwn::serve
