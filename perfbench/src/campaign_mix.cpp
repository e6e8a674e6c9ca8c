// campaign-mix — batch experiments on small, cache-resident worlds.
//
// Each op expands a fixed-shape plan holding all four run kinds and
// runs it on campaign::CampaignRunner with 4 threads:
//   window  classic mobility-stability windows (oracle clustering per
//           window, improved variant, pedestrian random-direction)
//   async   convergence from corrupt_all on sim::AsyncNetwork
//   live    the protocol live under mobility: incremental topology
//           (LiveTopology deltas) and dirty stepping
//   verify  one certification trial per (fault class, daemon) pair,
//           so every op rotates through all six classes and three daemons
// seed_base advances per op, so no two ops run the same inputs.
//
//   op      = expand the plan + CampaignRunner::run (4 threads)
//   correct = a digest of every run's metric bits equals the same plan
//             executed at one thread (each plan on one thread, four
//             plans at a time, after the timed loop)
//   setup   = a warm-up wave of kWarmupOps whole ops before timing; the
//             median of kSetups identical waves
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "common.hpp"
#include "verify/faults.hpp"
#include "workloads.hpp"

namespace ssmwn::perfbench {

namespace {

constexpr unsigned kThreads = 4;
// Set-up is a warm-up wave of kWarmupOps whole ops, repeated kSetups
// times on the same plans.
constexpr std::size_t kWarmupOps = 4;
constexpr int kSetups = 3;
// The four kinds carry roughly equal shares of an op's compute, and no
// single run exceeds a tenth of the op's wall time.
// Traced script: 2 × kTraceOps ops, alternately untraced and traced.
constexpr std::size_t kTraceOps = 32;

enum Kind : int { kWindow, kAsync, kLive, kVerify, kKinds };
constexpr const char* kKindSpan[kKinds] = {
    "campaign.execute_run.window", "campaign.execute_run.async",
    "campaign.execute_run.live", "campaign.execute_run.verify"};

std::string window_spec() {
  return "topology = uniform\nn = 200\nradius = 0.1\nvariant = improved\n"
         "mobility = random-direction\nspeed_max = 1.6\nsteps = 25\n"
         "replications = 8\n";
}

std::string async_spec() {
  return "topology = uniform\nn = 120\nradius = 0.12\nvariant = basic\n"
         "scheduler = async\nlink_delay = 0.02\nsteps = 40\n"
         "replications = 12\n";
}

std::string live_spec() {
  return "topology = uniform\nn = 150\nradius = 0.11\nvariant = basic\n"
         "mobility = random-direction\nprotocol_live = true\n"
         "topology_update = incremental\nstepping = dirty\n"
         "live_horizon = 48\nsteps = 6\nreplications = 9\n";
}

std::string verify_spec(verify::FaultClass fault, verify::Daemon daemon) {
  return "topology = uniform\nn = 60\nradius = 0.14\nvariant = basic\n"
         "verify_faults = true\nfault_class = " +
         std::string(verify::to_string(fault)) +
         "\ndaemon = " + std::string(verify::to_string(daemon)) +
         "\nsteps = 240\nreplications = 1\n";
}

/// Appends `part` (expanded from `text` at `seed_base`) to `plan`.
void append(campaign::CampaignPlan& plan, std::vector<int>& kinds,
            const std::string& text, std::uint64_t seed_base, Kind kind) {
  const std::string spec =
      text + "seed_base = " + std::to_string(seed_base) + "\n";
  campaign::CampaignPlan part = campaign::expand(campaign::parse_spec_text(spec));
  const std::size_t offset = plan.grid.size();
  for (auto& point : part.grid) plan.grid.push_back(std::move(point));
  for (auto entry : part.runs) {
    entry.grid_index += offset;
    plan.runs.push_back(entry);
    kinds.push_back(kind);
  }
}

/// The op's plan: heaviest kinds first so the pool's dynamic claiming
/// leaves the short runs for the tail.
campaign::CampaignPlan make_plan(std::uint64_t seed_base,
                                 std::vector<int>& kinds) {
  campaign::CampaignPlan plan;
  plan.name = "campaign-mix";
  plan.seed_base = seed_base;
  plan.replications = 1;
  kinds.clear();
  for (const auto daemon : verify::kAllDaemons) {
    for (const auto fault : verify::kAllFaultClasses) {
      append(plan, kinds, verify_spec(fault, daemon), seed_base, kVerify);
    }
  }
  append(plan, kinds, live_spec(), seed_base, kLive);
  append(plan, kinds, async_spec(), seed_base, kAsync);
  append(plan, kinds, window_spec(), seed_base, kWindow);
  return plan;
}

std::uint64_t digest(const std::vector<campaign::RunMetrics>& results) {
  Fnv1a h;
  for (const auto& m : results) {
    for (const double v :
         {m.stability, m.delta, m.reaffiliation, m.cluster_count,
          m.converge_time, m.messages, m.reconverge_time,
          m.reconverge_messages, m.sync_steps, m.sync_messages}) {
      h.f64(v);
    }
    h.u64(m.windows);
  }
  return h.value();
}

struct OpRecord {
  std::uint64_t seed_base = 0;
  std::uint64_t digest = 0;
  double ms = 0.0;
  double expand_ms = 0.0;
  double run_sum_ms = 0.0;  // Σ execute_run time, filled by verification
};

OpRecord run_op(std::uint64_t seed_base, Tracer& tracer, std::int64_t op) {
  OpRecord rec;
  rec.seed_base = seed_base;
  std::vector<int> kinds;
  const auto t0 = Clock::now();
  {
    auto span = tracer.span("op", op);
    campaign::CampaignPlan plan;
    {
      auto expand = tracer.span("campaign.expand");
      plan = make_plan(seed_base, kinds);
    }
    rec.expand_ms = ms_between(t0, Clock::now());
    auto run = tracer.span("campaign.run");
    campaign::CampaignRunner runner(kThreads);
    rec.digest = digest(runner.run(plan));
  }
  rec.ms = ms_between(t0, Clock::now());
  return rec;
}

/// Re-executes every recorded op's plan on one thread each (four plans
/// at a time) and counts digest mismatches. Each execute_run call gets a
/// span named for its kind.
std::uint64_t verify_ops(std::vector<OpRecord>& records, Tracer& tracer) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> mismatches{0};
  auto worker = [&] {
    campaign::RunWorkspace ws;
    std::vector<int> kinds;
    for (std::size_t i = next++; i < records.size(); i = next++) {
      const campaign::CampaignPlan plan = make_plan(records[i].seed_base, kinds);
      std::vector<campaign::RunMetrics> results;
      results.reserve(plan.runs.size());
      double sum_ms = 0.0;
      for (std::size_t r = 0; r < plan.runs.size(); ++r) {
        const auto& entry = plan.runs[r];
        const auto t0 = Clock::now();
        {
          auto span = tracer.span(kKindSpan[kinds[r]],
                                  static_cast<std::int64_t>(i));
          results.push_back(campaign::execute_run(
              plan.grid[entry.grid_index].config, entry.seed, ws));
        }
        sum_ms += ms_between(t0, Clock::now());
      }
      records[i].run_sum_ms = sum_ms;
      if (digest(results) != records[i].digest) ++mismatches;
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  return mismatches.load();
}

}  // namespace

Result run_campaign_mix(const Options& options) {
  Tracer tracer(options.trace);
  Tracer off(false);
  Result result;
  // Seed bases: disjoint per --seed, advancing by one per op. The warm-up
  // wave runs the same kWarmupOps plans in every repetition.
  const std::uint64_t first_seed = options.seed * 1000003ULL;
  const double setup_s = median_setup_s(kSetups, [&](int) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kWarmupOps; ++i) {
      (void)run_op(first_seed + i, off, -1);
    }
    return seconds_between(t0, Clock::now());
  });
  std::uint64_t seed_base = first_seed + kWarmupOps;

  std::vector<OpRecord> records;
  if (!options.trace) {
    const auto start = Clock::now();
    while (seconds_between(start, Clock::now()) < options.seconds) {
      records.push_back(run_op(seed_base++, off, -1));
    }
    const std::uint64_t failed = verify_ops(records, off);
    std::vector<Op> ops;
    double total_ms = 0.0;
    for (const auto& r : records) {
      ops.push_back({r.ms, 0});
      total_ms += r.ms;
    }
    result.correct = regime_census("campaign-mix", ops, {"plan"});
    result.attempted = records.size();
    result.failed = failed;
    result.add_end_to_end(ops, 1e3 * static_cast<double>(ops.size()) / total_ms,
                          setup_s);
    return result;
  }

  // Odd ops traced, even ops not: both halves share the host's state.
  std::vector<OpRecord> untraced;
  for (std::size_t i = 0; i < 2 * kTraceOps; ++i) {
    if (i % 2 == 1) {
      records.push_back(run_op(seed_base++, tracer, static_cast<std::int64_t>(i)));
    } else {
      untraced.push_back(run_op(seed_base++, off, -1));
    }
  }
  const std::uint64_t failed =
      verify_ops(records, tracer) + verify_ops(untraced, off);
  std::vector<double> traced_ms, untraced_ms, expand_ms, busy;
  for (const auto& r : records) {
    traced_ms.push_back(r.ms);
    expand_ms.push_back(r.expand_ms);
    busy.push_back(r.run_sum_ms / (kThreads * r.ms));
  }
  for (const auto& r : untraced) untraced_ms.push_back(r.ms);
  result.correct = failed == 0;
  result.attempted = records.size() + untraced.size();
  result.failed = failed;
  result.add("campaign.expand_ms", mean(expand_ms), "ms");
  result.add("campaign.run_ms.window", mean(tracer.durations_ms(kKindSpan[kWindow])),
             "ms");
  result.add("campaign.run_ms.async", mean(tracer.durations_ms(kKindSpan[kAsync])),
             "ms");
  result.add("campaign.run_ms.live", mean(tracer.durations_ms(kKindSpan[kLive])),
             "ms");
  result.add("campaign.run_ms.verify", mean(tracer.durations_ms(kKindSpan[kVerify])),
             "ms");
  result.add("campaign.worker_busy_share", mean(busy), "ratio");
  result.add("trace.overhead_pct.campaign-mix",
             100.0 * (median(traced_ms) / median(untraced_ms) - 1.0), "%");
  tracer.write(options.trace_out);
  return result;
}

}  // namespace ssmwn::perfbench
