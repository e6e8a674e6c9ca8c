// The campaign runner as a persistent FIFO pool: job slots bit-equal to
// a one-thread run, drain finishing queued work, submission order,
// cancellation, workspace reuse across run() calls, and a failing run
// surfacing as the same exception at any thread count without taking
// the pool down.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"

namespace ssmwn {
namespace {

constexpr const char* kSpecText = R"(
name         = runnertest
topology     = uniform
n            = 40
radius       = 0.15
variant      = basic, improved
steps        = 4
replications = 3
seed_base    = 2025
)";

campaign::CampaignPlan make_plan(std::uint64_t seed_base = 2025) {
  auto spec = campaign::parse_spec_text(kSpecText);
  spec.seed_base = seed_base;
  return campaign::expand(spec);
}

bool bit_equal(const campaign::RunMetrics& a, const campaign::RunMetrics& b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

void expect_bit_equal(const std::vector<campaign::RunMetrics>& got,
                      const std::vector<campaign::RunMetrics>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(bit_equal(got[i], want[i])) << "slot " << i;
  }
}

TEST(CampaignRunnerPool, SubmittedSlotsMatchAOneThreadRun) {
  const auto plan = make_plan();
  const auto want = campaign::CampaignRunner(1).run(plan);
  ASSERT_GT(want.front().windows, 0u);  // the runs really ran

  campaign::CampaignRunner runner(4);
  auto job = std::make_shared<campaign::RunJob>(plan);
  runner.submit(job);
  for (std::size_t i = 0; i < plan.runs.size(); ++i) {
    job->wait_slot(i);
    EXPECT_EQ(job->errors[i], nullptr);
    EXPECT_TRUE(bit_equal(job->results[i], want[i])) << "slot " << i;
  }
  runner.drain();
}

TEST(CampaignRunnerPool, DrainFinishesQueuedWorkBeforeJoining) {
  const auto plan = make_plan();
  campaign::CampaignRunner runner(2);
  auto job = std::make_shared<campaign::RunJob>(plan);
  runner.submit(job);
  runner.drain();  // must not strand queued runs
  for (std::size_t i = 0; i < plan.runs.size(); ++i) {
    EXPECT_NE(job->done[i], 0) << "slot " << i << " stranded by drain";
  }
  EXPECT_THROW(runner.submit(std::make_shared<campaign::RunJob>(plan)),
               std::runtime_error);
}

TEST(CampaignRunnerPool, RunsExecuteInSubmissionOrder) {
  // One worker makes the execution order the pop order: every slot of
  // the older job A must finish before the newer job B's first slot.
  const auto plan = make_plan();
  campaign::CampaignRunner runner(1);
  auto a = std::make_shared<campaign::RunJob>(plan);
  auto b = std::make_shared<campaign::RunJob>(plan);
  runner.submit(a);
  runner.submit(b);
  b->wait_slot(0);
  {
    const std::scoped_lock lock(a->mutex);
    for (std::size_t i = 0; i < plan.runs.size(); ++i) {
      EXPECT_NE(a->done[i], 0) << "job A slot " << i << " overtaken by job B";
    }
  }
  runner.drain();
}

TEST(CampaignRunnerPool, CancelledJobCompletesEverySlotUnrun) {
  const auto plan = make_plan();
  campaign::CampaignRunner runner(2);
  auto job = std::make_shared<campaign::RunJob>(plan);
  job->cancelled = true;
  runner.submit(job);
  for (std::size_t i = 0; i < plan.runs.size(); ++i) {
    job->wait_slot(i);
    EXPECT_EQ(job->error_text(i), "cancelled") << "slot " << i;
  }
  runner.drain();  // must return: cancelled slots leave nothing queued
}

TEST(CampaignRunnerPool, RunnerReusesWorkspacesAcrossRuns) {
  // Each worker keeps one RunWorkspace for its whole life, so the second
  // run() starts from the first one's warmed-up scratch state. That
  // state must never leak into a result.
  const auto first = make_plan(11);
  const auto second = make_plan(12);
  campaign::CampaignRunner runner(2);
  const auto got_first = runner.run(first);
  const auto got_second = runner.run(second);
  expect_bit_equal(got_first, campaign::CampaignRunner(2).run(first));
  expect_bit_equal(got_second, campaign::CampaignRunner(2).run(second));
}

/// The plan with one extra slot, built by hand past expand()'s
/// validation, whose grid point has a negative radius: execute_run
/// throws std::invalid_argument for it.
campaign::CampaignPlan plan_with_a_failing_slot() {
  auto plan = make_plan();
  campaign::GridPoint bad = plan.grid.front();
  bad.config.radius = -1.0;
  plan.grid.push_back(bad);
  campaign::RunPlanEntry entry = plan.runs.front();
  entry.grid_index = plan.grid.size() - 1;
  plan.runs.insert(plan.runs.begin() + 2, entry);
  return plan;
}

std::string failure_of(campaign::CampaignRunner& runner,
                       const campaign::CampaignPlan& plan) {
  try {
    (void)runner.run(plan);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "run() did not throw std::invalid_argument";
  return {};
}

TEST(CampaignRunnerPool, FailedRunThrowsTheSameErrorAtAnyThreadCount) {
  const auto bad = plan_with_a_failing_slot();
  const auto good = make_plan(7);
  const auto want = campaign::CampaignRunner(1).run(good);

  campaign::CampaignRunner serial(1);
  const std::string expected = failure_of(serial, bad);
  EXPECT_FALSE(expected.empty());
  campaign::CampaignRunner pooled(4);
  EXPECT_EQ(failure_of(pooled, bad), expected);

  // The failed job neither kills the pool nor poisons its workspaces.
  expect_bit_equal(serial.run(good), want);
  expect_bit_equal(pooled.run(good), want);
}

}  // namespace
}  // namespace ssmwn
