// Deterministic-replay guarantee of the campaign engine: the same spec
// and seed base produce byte-identical aggregated CSV/JSON — across
// repeated invocations and across runner thread counts. This is the
// acceptance gate for `ssmwn campaign ... --threads N`.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "campaign/aggregate.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"

namespace ssmwn {
namespace {

// Small but exercises every stochastic subsystem: a 2x2 sweep with
// mobility, plus lossy links and churn.
constexpr const char* kSpecText = R"(
name         = replay
topology     = uniform
n            = 60
radius       = 0.14
variant      = basic, improved
mobility     = random-direction
speed_max    = 1.6, 10
tau          = 0.9
churn_down   = 0.05
steps        = 6
replications = 4
seed_base    = 424242
)";

struct Rendered {
  std::string csv;
  std::string json;
};

// Async grid points ride the same replay guarantee: the event-driven
// engine is single-threaded per run and deterministic from its seed, so
// a mixed sync/async sweep must also be byte-stable for any -threads.
constexpr const char* kAsyncSpecText = R"(
name         = replay-async
topology     = uniform
n            = 50
radius       = 0.15
variant      = basic
scheduler    = sync, async
link_delay   = 0.02, 0.15
tau          = 0.9
steps        = 12
replications = 3
seed_base    = 515151
)";

// Live (protocol-under-mobility) grid points are the acceptance shape
// of the dynamic-topology runtime: the protocol runs continuously on
// the event engine while mobility perturbs the graph, on both topology
// update modes. Must replay byte-identically for any --threads.
constexpr const char* kLiveSpecText = R"(
name            = replay-live
topology        = uniform
n               = 50
radius          = 0.16
variant         = basic
scheduler       = sync, async
mobility        = random-direction
speed_max       = 1.6, 10
protocol_live   = true
topology_update = incremental, rebuild
live_horizon    = 24
steps           = 4
replications    = 2
seed_base       = 616161
)";

// Verify (certification-trial) grid points ride the same guarantee:
// each run is one deterministic cross-engine trial, so a verify sweep
// must replay byte-identically for any --threads.
constexpr const char* kVerifySpecText = R"(
name          = replay-verify
topology      = uniform
n             = 30, 60
radius        = 0.16
variant       = basic
verify_faults = true
fault_class   = random-all, stale-cache
daemon        = synchronous, unfair
steps         = 240
replications  = 2
seed_base     = 717171
)";

Rendered render_campaign_text(const char* text, unsigned threads,
                              const campaign::ExecutionOptions& exec = {}) {
  const auto spec = campaign::parse_spec_text(text);
  const auto plan = campaign::expand(spec);
  campaign::CampaignRunner runner(threads, exec);
  const auto results = runner.run(plan);
  campaign::MetricsAggregator aggregator(plan.grid.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    aggregator.add(plan.runs[i].grid_index, results[i]);
  }
  const auto aggregates = aggregator.summarize();
  std::ostringstream csv, json;
  campaign::write_csv(csv, plan, aggregates);
  campaign::write_json(json, plan, aggregates);
  return {csv.str(), json.str()};
}

Rendered render_campaign(unsigned threads) {
  return render_campaign_text(kSpecText, threads);
}

TEST(CampaignReplay, SameSpecTwiceIsByteIdentical) {
  const auto first = render_campaign(1);
  const auto second = render_campaign(1);
  EXPECT_EQ(first.csv, second.csv);
  EXPECT_EQ(first.json, second.json);
}

TEST(CampaignReplay, ThreadCountDoesNotChangeTheBytes) {
  const auto serial = render_campaign(1);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const auto parallel = render_campaign(threads);
    EXPECT_EQ(serial.csv, parallel.csv) << "threads=" << threads;
    EXPECT_EQ(serial.json, parallel.json) << "threads=" << threads;
  }
}

TEST(CampaignReplay, PerRunMetricsMatchAcrossThreadCounts) {
  // Stronger than file equality: every individual run must agree, so a
  // future aggregation change cannot mask a runner nondeterminism.
  const auto spec = campaign::parse_spec_text(kSpecText);
  const auto plan = campaign::expand(spec);
  const auto serial = campaign::CampaignRunner(1).run(plan);
  const auto parallel = campaign::CampaignRunner(4).run(plan);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].stability, parallel[i].stability) << "run " << i;
    EXPECT_EQ(serial[i].delta, parallel[i].delta) << "run " << i;
    EXPECT_EQ(serial[i].reaffiliation, parallel[i].reaffiliation)
        << "run " << i;
    EXPECT_EQ(serial[i].cluster_count, parallel[i].cluster_count)
        << "run " << i;
    EXPECT_EQ(serial[i].windows, parallel[i].windows) << "run " << i;
  }
}

TEST(CampaignReplay, AsyncGridReplaysByteIdentically) {
  const auto serial = render_campaign_text(kAsyncSpecText, 1);
  const auto repeat = render_campaign_text(kAsyncSpecText, 1);
  EXPECT_EQ(serial.csv, repeat.csv);
  EXPECT_EQ(serial.json, repeat.json);
  for (const unsigned threads : {2u, 4u}) {
    const auto parallel = render_campaign_text(kAsyncSpecText, threads);
    EXPECT_EQ(serial.csv, parallel.csv) << "threads=" << threads;
    EXPECT_EQ(serial.json, parallel.json) << "threads=" << threads;
  }
  // Extended schema: the async columns and metric rows are present.
  EXPECT_NE(serial.csv.find(",scheduler,period_jitter,link_delay,"),
            std::string::npos);
  EXPECT_NE(serial.csv.find(",converge_time,"), std::string::npos);
  EXPECT_NE(serial.json.find("\"messages\""), std::string::npos);
}

TEST(CampaignReplay, LiveGridReplaysByteIdentically) {
  const auto serial = render_campaign_text(kLiveSpecText, 1);
  const auto repeat = render_campaign_text(kLiveSpecText, 1);
  EXPECT_EQ(serial.csv, repeat.csv);
  EXPECT_EQ(serial.json, repeat.json);
  for (const unsigned threads : {2u, 4u}) {
    const auto parallel = render_campaign_text(kLiveSpecText, threads);
    EXPECT_EQ(serial.csv, parallel.csv) << "threads=" << threads;
    EXPECT_EQ(serial.json, parallel.json) << "threads=" << threads;
  }
  // Live schema: the dynamic-topology columns and metric rows appear.
  EXPECT_NE(serial.csv.find(",protocol_live,topology_update,live_horizon,"),
            std::string::npos);
  EXPECT_NE(serial.csv.find(",reconverge_time,"), std::string::npos);
  EXPECT_NE(serial.json.find("\"reconverge_messages\""), std::string::npos);
  EXPECT_NE(serial.json.find("\"topology_update\": \"incremental\""),
            std::string::npos);
}

TEST(CampaignReplay, VerifyGridReplaysByteIdentically) {
  const auto serial = render_campaign_text(kVerifySpecText, 1);
  const auto repeat = render_campaign_text(kVerifySpecText, 1);
  EXPECT_EQ(serial.csv, repeat.csv);
  EXPECT_EQ(serial.json, repeat.json);
  for (const unsigned threads : {2u, 4u}) {
    const auto parallel = render_campaign_text(kVerifySpecText, threads);
    EXPECT_EQ(serial.csv, parallel.csv) << "threads=" << threads;
    EXPECT_EQ(serial.json, parallel.json) << "threads=" << threads;
  }
  // Verify schema: the certification columns and metric rows appear.
  EXPECT_NE(serial.csv.find(",verify_faults,fault_class,daemon,"),
            std::string::npos);
  EXPECT_NE(serial.csv.find(",sync_converge_steps,"), std::string::npos);
  EXPECT_NE(serial.json.find("\"sync_messages\""), std::string::npos);
  EXPECT_NE(serial.json.find("\"fault_class\": \"stale-cache\""),
            std::string::npos);
  EXPECT_NE(serial.json.find("\"daemon\": \"unfair\""), std::string::npos);
  // But never the live rows — a verify plan measures no perturbations.
  EXPECT_EQ(serial.csv.find("reconverge"), std::string::npos);
}

TEST(CampaignReplay, NonVerifyPlansKeepTheirSchemas) {
  // Sync-only, async, and live plans must not grow verify columns or
  // metric rows — all pre-existing campaign outputs stay byte-identical
  // across the release that introduced the certification axis.
  const auto sync_only = render_campaign(1);
  EXPECT_EQ(sync_only.csv.find("verify_faults"), std::string::npos);
  EXPECT_EQ(sync_only.csv.find("sync_converge_steps"), std::string::npos);
  const auto async_plan = render_campaign_text(kAsyncSpecText, 1);
  EXPECT_EQ(async_plan.csv.find("verify_faults"), std::string::npos);
  EXPECT_EQ(async_plan.json.find("fault_class"), std::string::npos);
  const auto live_plan = render_campaign_text(kLiveSpecText, 1);
  EXPECT_EQ(live_plan.csv.find("verify_faults"), std::string::npos);
  EXPECT_EQ(live_plan.csv.find("sync_converge_steps"), std::string::npos);
  EXPECT_EQ(live_plan.json.find("daemon"), std::string::npos);
  const auto plan =
      campaign::expand(campaign::parse_spec_text(kLiveSpecText));
  EXPECT_FALSE(campaign::plan_uses_verify(plan));
  EXPECT_EQ(campaign::report_metric_count(plan), campaign::kLiveMetricCount);
}

TEST(CampaignReplay, CanonicalStringsAreStableAcrossTheVerifyRelease) {
  // The exact pre-verify canonical serialization of a default grid
  // point, pinned byte for byte: run seeds hash this string, so any
  // drift silently reshuffles every pre-existing campaign.
  campaign::ScenarioConfig config;
  EXPECT_EQ(campaign::canonical_config(config),
            "topology=uniform;n=300;radius=0.08;variant=basic;"
            "mobility=none;speed_min=0;speed_max=1.6;tau=1;churn_down=0;"
            "churn_up=0.5;steps=50;window_s=2;world_m=1000");
  // A verify point appends — never reorders — the new axis.
  config.verify_faults = true;
  config.fault_class = verify::FaultClass::kPartialFrame;
  config.daemon = verify::Daemon::kUnfair;
  EXPECT_EQ(campaign::canonical_config(config),
            "topology=uniform;n=300;radius=0.08;variant=basic;"
            "mobility=none;speed_min=0;speed_max=1.6;tau=1;churn_down=0;"
            "churn_up=0.5;steps=50;window_s=2;world_m=1000;"
            "verify_faults=true;fault_class=partial-frame;daemon=unfair");
}

TEST(CampaignReplay, NonLivePlansKeepTheirSchemas) {
  // Neither the sync-only nor the async schema grows live columns or
  // metric rows — pre-existing outputs stay byte-comparable.
  const auto sync_only = render_campaign(1);
  EXPECT_EQ(sync_only.csv.find("protocol_live"), std::string::npos);
  EXPECT_EQ(sync_only.csv.find("reconverge"), std::string::npos);
  const auto async_plan = render_campaign_text(kAsyncSpecText, 1);
  EXPECT_EQ(async_plan.csv.find("protocol_live"), std::string::npos);
  EXPECT_EQ(async_plan.csv.find("reconverge"), std::string::npos);
  EXPECT_EQ(async_plan.json.find("reconverge"), std::string::npos);
  const auto plan =
      campaign::expand(campaign::parse_spec_text(kAsyncSpecText));
  EXPECT_FALSE(campaign::plan_uses_live(plan));
  EXPECT_EQ(campaign::report_metric_count(plan), campaign::kAsyncMetricCount);
}

TEST(CampaignReplay, SyncOnlyPlansKeepTheLegacySchema) {
  // A purely synchronous campaign must not grow columns or metric rows
  // from the async axis — pre-existing outputs stay byte-comparable.
  const auto rendered = render_campaign(1);
  EXPECT_EQ(rendered.csv.find("scheduler"), std::string::npos);
  EXPECT_EQ(rendered.csv.find("converge_time"), std::string::npos);
  EXPECT_EQ(rendered.json.find("converge_time"), std::string::npos);
  const auto plan =
      campaign::expand(campaign::parse_spec_text(kSpecText));
  EXPECT_FALSE(campaign::plan_uses_async(plan));
  EXPECT_EQ(campaign::report_metric_count(plan), campaign::kSyncMetricCount);
}

// The quiescence axis, swept over both engines under mobility. tau=1:
// expand() rejects dirty stepping on a lossy synchronous engine.
constexpr const char* kDirtySpecText = R"(
name            = replay-dirty
topology        = uniform
n               = 40
radius          = 0.16
variant         = basic
scheduler       = sync, async
mobility        = random-direction
speed_max       = 10
protocol_live   = true
topology_update = incremental, rebuild
live_horizon    = 16
stepping        = full, dirty
steps           = 3
replications    = 2
seed_base       = 818181
)";

TEST(CampaignReplay, DirtyGridReplaysByteIdentically) {
  const auto serial = render_campaign_text(kDirtySpecText, 1);
  const auto repeat = render_campaign_text(kDirtySpecText, 1);
  EXPECT_EQ(serial.csv, repeat.csv);
  EXPECT_EQ(serial.json, repeat.json);
  for (const unsigned threads : {2u, 4u}) {
    const auto parallel = render_campaign_text(kDirtySpecText, threads);
    EXPECT_EQ(serial.csv, parallel.csv) << "threads=" << threads;
    EXPECT_EQ(serial.json, parallel.json) << "threads=" << threads;
  }
  // Dirty schema: the stepping column/key appears, with both values.
  EXPECT_NE(serial.csv.find(",stepping,"), std::string::npos);
  EXPECT_NE(serial.json.find("\"stepping\": \"dirty\""), std::string::npos);
  EXPECT_NE(serial.json.find("\"stepping\": \"full\""), std::string::npos);
}

TEST(CampaignReplay, DirtySteppingLeavesRunMetricsIdentical) {
  // The axis sweeps cost, not results: force the dirty plan's run seeds
  // to the full plan's and every run-level metric must agree — exactly
  // on the async engine, and on everything but the message counters on
  // the sync engine (dirty mode counts deliveries only for the nodes it
  // actually steps; the trajectory itself is bitwise-equal, which the
  // sim-level equivalence suite asserts per tick).
  auto strip = [](const char* text, const char* value) {
    std::string spec(text);
    const auto pos = spec.find("stepping        = full, dirty");
    spec.replace(pos, std::string("stepping        = full, dirty").size(),
                 std::string("stepping        = ") + value);
    return campaign::expand(campaign::parse_spec_text(spec));
  };
  auto full_plan = strip(kDirtySpecText, "full");
  auto dirty_plan = strip(kDirtySpecText, "dirty");
  ASSERT_EQ(full_plan.runs.size(), dirty_plan.runs.size());
  for (std::size_t i = 0; i < dirty_plan.runs.size(); ++i) {
    ASSERT_EQ(full_plan.runs[i].grid_index, dirty_plan.runs[i].grid_index);
    dirty_plan.runs[i].seed = full_plan.runs[i].seed;
  }
  const auto full = campaign::CampaignRunner(2).run(full_plan);
  const auto dirty = campaign::CampaignRunner(2).run(dirty_plan);
  ASSERT_EQ(full.size(), dirty.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    const auto& config = full_plan.grid[full_plan.runs[i].grid_index].config;
    EXPECT_EQ(full[i].stability, dirty[i].stability) << "run " << i;
    EXPECT_EQ(full[i].cluster_count, dirty[i].cluster_count) << "run " << i;
    EXPECT_EQ(full[i].converge_time, dirty[i].converge_time) << "run " << i;
    EXPECT_EQ(full[i].reconverge_time, dirty[i].reconverge_time)
        << "run " << i;
    EXPECT_EQ(full[i].windows, dirty[i].windows) << "run " << i;
    if (config.scheduler == campaign::SchedulerKind::kAsync) {
      EXPECT_EQ(full[i].messages, dirty[i].messages) << "run " << i;
      EXPECT_EQ(full[i].reconverge_messages, dirty[i].reconverge_messages)
          << "run " << i;
    }
  }
}

TEST(CampaignReplay, NonDirtyPlansKeepTheirSchemas) {
  // No pre-existing spec mentions stepping, so none may grow the column
  // — their CSV/JSON stay byte-identical across the quiescence release.
  for (const char* text :
       {kSpecText, kAsyncSpecText, kLiveSpecText, kVerifySpecText}) {
    const auto rendered = render_campaign_text(text, 1);
    EXPECT_EQ(rendered.csv.find("stepping"), std::string::npos);
    EXPECT_EQ(rendered.json.find("stepping"), std::string::npos);
    EXPECT_FALSE(campaign::plan_uses_dirty(
        campaign::expand(campaign::parse_spec_text(text))));
  }
}

TEST(CampaignReplay, ShardCountDoesNotChangeTheBytes) {
  // `--shards` is an execution knob like `--threads`, never a spec axis:
  // it must not enter canonical strings or run seeds, and the sharded
  // engine is bit-identical to sim::Network, so every campaign output is
  // byte-identical at any shard count. Sweep the live plans — the only
  // paths that step a synchronous engine — plus the dirty-stepping plan
  // to cover the sharded quiescence path, at shard counts that exercise
  // one-shard fallback, small, prime, and shards > nodes.
  for (const char* text : {kLiveSpecText, kDirtySpecText}) {
    const auto unsharded = render_campaign_text(text, 1);
    for (const std::size_t shards : {std::size_t{2}, std::size_t{7},
                                     std::size_t{64}}) {
      campaign::ExecutionOptions exec;
      exec.shards = shards;
      const auto sharded = render_campaign_text(text, 1, exec);
      EXPECT_EQ(unsharded.csv, sharded.csv) << "shards=" << shards;
      EXPECT_EQ(unsharded.json, sharded.json) << "shards=" << shards;
      // Sharding composes with the threaded runner.
      const auto pooled = render_campaign_text(text, 2, exec);
      EXPECT_EQ(unsharded.csv, pooled.csv) << "shards=" << shards;
      EXPECT_EQ(unsharded.json, pooled.json) << "shards=" << shards;
    }
  }
  // Non-live plans never touch the sync engine; the knob is inert.
  campaign::ExecutionOptions exec;
  exec.shards = 7;
  const auto classic = render_campaign_text(kSpecText, 1);
  const auto classic_sharded = render_campaign_text(kSpecText, 1, exec);
  EXPECT_EQ(classic.csv, classic_sharded.csv);
  EXPECT_EQ(classic.json, classic_sharded.json);
}

// One mixed plan over every run kind — classic windows on all three
// topologies, async runs (randomized daemon, lossy and lossless, full and
// dirty), live runs on both engines x both topology updates x both
// steppers with churn, lossy live runs, and verify trials under the
// synchronous and unfair daemons — folded into one FNV-1a digest of the
// raw RunMetrics bits. The pinned value last moved when the sync engine
// began waking receivers from its row grades (the dirty-stepping message
// counts of the sync live runs fell); any change to how a run is built
// moves it.
constexpr const char* kPinnedSpecTexts[] = {
    R"(
name       = pin-window
topology   = uniform, grid, poisson
n          = 50
radius     = 0.16
variant    = basic, dag, improved
mobility   = random-waypoint
tau        = 0.9
churn_down = 0.05
steps      = 5
replications = 1
seed_base  = 9101
)",
    R"(
name       = pin-async
topology   = uniform, grid
n          = 40
radius     = 0.18
variant    = basic, full
scheduler  = async
tau        = 0.9, 1
stepping   = full, dirty
steps      = 12
replications = 1
seed_base  = 9102
)",
    R"(
name            = pin-live
n               = 40
radius          = 0.18
variant         = basic, improved
scheduler       = sync, async
mobility        = random-direction
speed_max       = 10
churn_down      = 0.05
protocol_live   = true
topology_update = incremental, rebuild
stepping        = full, dirty
live_horizon    = 16
steps           = 3
replications    = 1
seed_base       = 9103
)",
    R"(
name            = pin-live-lossy
n               = 40
radius          = 0.18
scheduler       = sync, async
mobility        = random-waypoint
tau             = 0.9
protocol_live   = true
topology_update = incremental, rebuild
live_horizon    = 16
steps           = 3
replications    = 1
seed_base       = 9104
)",
    R"(
name          = pin-verify
n             = 20
radius        = 0.3
variant       = basic, dag
verify_faults = true
fault_class   = random-all, stale-cache
daemon        = synchronous, unfair
steps         = 240
replications  = 1
seed_base     = 9105
)",
};

std::uint64_t pinned_plan_digest(unsigned threads,
                                 const campaign::ExecutionOptions& exec) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto fold = [&h](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (value >> (8 * byte)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  campaign::CampaignRunner runner(threads, exec);
  for (const char* text : kPinnedSpecTexts) {
    const auto plan = campaign::expand(campaign::parse_spec_text(text));
    for (const auto& m : runner.run(plan)) {
      for (const double v :
           {m.stability, m.delta, m.reaffiliation, m.cluster_count,
            m.converge_time, m.messages, m.reconverge_time,
            m.reconverge_messages, m.sync_steps, m.sync_messages}) {
        fold(std::bit_cast<std::uint64_t>(v));
      }
      fold(m.windows);
    }
  }
  return h;
}

TEST(CampaignReplay, MixedPlanDigestIsPinned) {
  constexpr std::uint64_t kPinned = 0x01e5f7ec77edb705ULL;
  EXPECT_EQ(pinned_plan_digest(1, {}), kPinned);
  campaign::ExecutionOptions exec;
  exec.shards = 3;
  EXPECT_EQ(pinned_plan_digest(3, exec), kPinned);
}

TEST(CampaignReplay, ReportsAreWellFormed) {
  const auto rendered = render_campaign(2);
  // CSV: header + 4 scenarios x (sync metric) rows.
  std::size_t lines = 0;
  for (const char c : rendered.csv) lines += c == '\n';
  EXPECT_EQ(lines, 1u + 4u * campaign::kSyncMetricCount);
  EXPECT_EQ(rendered.csv.rfind("campaign,topology,n,radius,", 0), 0u);
  // JSON: crude structural checks (balanced braces, expected keys).
  std::ptrdiff_t depth = 0;
  for (const char c : rendered.json) {
    depth += c == '{';
    depth -= c == '}';
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(rendered.json.find("\"campaign\": \"replay\""), std::string::npos);
  EXPECT_NE(rendered.json.find("\"stability\""), std::string::npos);
}

}  // namespace
}  // namespace ssmwn
