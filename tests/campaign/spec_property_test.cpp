// Properties of spec parsing and grid expansion: the expansion is
// exhaustive and duplicate-free, per-run seeds are unique and do not
// depend on the order of fields in the file, and malformed specs are
// rejected with a SpecError — never an assert.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <locale>
#include <set>
#include <string>
#include <vector>

#include "campaign/spec.hpp"

namespace ssmwn {
namespace {

using campaign::CampaignSpec;
using campaign::SpecError;

TEST(CampaignSpec, ExpansionIsExhaustiveAndDuplicateFree) {
  const auto spec = campaign::parse_spec_text(R"(
    topology     = uniform, grid
    n            = 50, 100, 200
    radius       = 0.08, 0.1
    variant      = basic, full
    replications = 5
  )");
  const auto plan = campaign::expand(spec);
  EXPECT_EQ(plan.grid.size(), 2u * 3u * 2u * 2u);
  EXPECT_EQ(plan.runs.size(), plan.grid.size() * 5u);

  // Every grid point is distinct (canonical serializations are a set).
  std::set<std::string> canonicals;
  for (const auto& point : plan.grid) canonicals.insert(point.canonical);
  EXPECT_EQ(canonicals.size(), plan.grid.size());

  // Every (grid, replication) pair appears exactly once, grid-major.
  std::set<std::pair<std::size_t, std::size_t>> pairs;
  for (const auto& run : plan.runs) {
    EXPECT_LT(run.grid_index, plan.grid.size());
    EXPECT_LT(run.replication, 5u);
    pairs.insert({run.grid_index, run.replication});
  }
  EXPECT_EQ(pairs.size(), plan.runs.size());
}

TEST(CampaignSpec, RunCountBoundCoversTheExpansionAndSaturates) {
  // No collapsed knobs: the bound is the run count exactly.
  const auto full = campaign::parse_spec_text(R"(
    topology     = uniform, grid
    n            = 50, 100, 200
    replications = 5
  )");
  EXPECT_EQ(campaign::run_count_bound(full),
            campaign::expand(full).runs.size());
  // Async knobs on the sync point collapse in expand (5 points, not 8);
  // the bound counts them all and stays above.
  const auto collapsed = campaign::parse_spec_text(R"(
    scheduler     = sync, async
    period_jitter = 0.05, 0.2
    link_delay    = 0.01, 0.1
    replications  = 2
  )");
  EXPECT_EQ(campaign::expand(collapsed).runs.size(), 10u);
  EXPECT_EQ(campaign::run_count_bound(collapsed), 16u);
  // A product past SIZE_MAX saturates instead of wrapping to something
  // small.
  const auto huge = campaign::parse_spec_text(R"(
    n            = 10, 20, 30, 40, 50, 60, 70, 80
    radius       = 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8
    steps        = 10, 20, 30, 40, 50, 60, 70, 80
    tau          = 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8
    speed_max    = 1, 2, 3, 4, 5, 6, 7, 8
    replications = 1e15
  )");
  EXPECT_EQ(campaign::run_count_bound(huge),
            std::numeric_limits<std::size_t>::max());
}

// Every key set away from its default; the sweeps below add the gated
// axes. Expansion of each grid is pinned point by point, in grid order,
// together with run_count_bound: canonical strings feed run seeds and
// checkpoint spec hashes, so none of these bytes may move.
constexpr const char* kPinBase = R"(
name         = pin-axes
seed_base    = 31337
replications = 3
topology     = uniform
n            = 30
radius       = 0.2
variant      = dag
mobility     = none
speed_min    = 0.5
speed_max    = 3
tau          = 1
churn_down   = 0
churn_up     = 0.25
steps        = 12
window_s     = 1.5
world_m      = 500
live_horizon = 20
)";

constexpr const char* kPinPoint =
    "topology=uniform;n=30;radius=0.2;variant=dag;mobility=none;"
    "speed_min=0.5;speed_max=3;tau=1;churn_down=0;churn_up=0.25;steps=12;"
    "window_s=1.5;world_m=500";

void expect_grid(const std::string& sweeps, std::size_t bound,
                 const std::vector<std::string>& suffixes) {
  const auto spec = campaign::parse_spec_text(kPinBase + sweeps);
  const auto plan = campaign::expand(spec);
  EXPECT_EQ(campaign::run_count_bound(spec), bound) << sweeps;
  EXPECT_EQ(plan.runs.size(), suffixes.size() * 3) << sweeps;
  ASSERT_EQ(plan.grid.size(), suffixes.size()) << sweeps;
  for (std::size_t g = 0; g < suffixes.size(); ++g) {
    EXPECT_EQ(plan.grid[g].canonical, kPinPoint + suffixes[g])
        << sweeps << "point " << g;
  }
}

TEST(CampaignSpec, CanonicalStringsOfEveryGateArePinned) {
  // Async gate: the knobs collapse on the sync point, stepping collapses
  // on the classic sync point and is written only when dirty.
  expect_grid(
      "scheduler = sync, async\nperiod_jitter = 0.05, 0.2\n"
      "link_delay = 0.1, 0.01\nstepping = full, dirty\n",
      48,
      {"",
       ";scheduler=async;period_jitter=0.05;link_delay=0.1",
       ";scheduler=async;period_jitter=0.05;link_delay=0.1;stepping=dirty",
       ";scheduler=async;period_jitter=0.05;link_delay=0.01",
       ";scheduler=async;period_jitter=0.05;link_delay=0.01;stepping=dirty",
       ";scheduler=async;period_jitter=0.2;link_delay=0.1",
       ";scheduler=async;period_jitter=0.2;link_delay=0.1;stepping=dirty",
       ";scheduler=async;period_jitter=0.2;link_delay=0.01",
       ";scheduler=async;period_jitter=0.2;link_delay=0.01;stepping=dirty"});
  // Live gate on both engines: topology_update collapses on non-live
  // points; stepping=dirty (listed first) on live sync, async and live
  // async points, collapsed to it on the classic sync point.
  const std::string live = ";protocol_live=true;topology_update=";
  const std::string async = ";scheduler=async;period_jitter=0.1;"
                            "link_delay=0.02";
  expect_grid(
      "scheduler = sync, async\nprotocol_live = false, true\n"
      "topology_update = rebuild, incremental\nstepping = dirty, full\n",
      48,
      {"",
       live + "rebuild;live_horizon=20;stepping=dirty",
       live + "rebuild;live_horizon=20",
       live + "incremental;live_horizon=20;stepping=dirty",
       live + "incremental;live_horizon=20",
       async + ";stepping=dirty",
       async,
       async + live + "rebuild;live_horizon=20;stepping=dirty",
       async + live + "rebuild;live_horizon=20",
       async + live + "incremental;live_horizon=20;stepping=dirty",
       async + live + "incremental;live_horizon=20"});
  // Verify gate: fault_class and daemon collapse on the non-verify
  // point; stepping collapses on every point (classic and verify).
  const std::string verify = ";verify_faults=true;fault_class=";
  expect_grid(
      "verify_faults = false, true\nfault_class = stale-cache, random-all\n"
      "daemon = unfair, synchronous\nstepping = dirty, full\n",
      48,
      {"",
       verify + "stale-cache;daemon=unfair",
       verify + "stale-cache;daemon=synchronous",
       verify + "random-all;daemon=unfair",
       verify + "random-all;daemon=synchronous"});

  // The ungated axes nest in table order: a two-value sweep of each, in
  // descending file order, pinned by its ordered digest and both ends.
  const auto spec = campaign::parse_spec_text(R"(
    topology   = grid, uniform, poisson
    n          = 60, 30
    radius     = 0.2, 0.1
    variant    = improved, basic
    mobility   = random-waypoint, none
    speed_min  = 1, 0
    speed_max  = 5, 2
    tau        = 0.8, 1
    churn_down = 0.1, 0
    churn_up   = 0.9, 0.5
    steps      = 10, 5
    replications = 2
  )");
  const auto plan = campaign::expand(spec);
  EXPECT_EQ(campaign::run_count_bound(spec), 6144u);
  ASSERT_EQ(plan.grid.size(), 3072u);
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& point : plan.grid) {
    for (const char c : point.canonical + '\n') {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  }
  EXPECT_EQ(h, 0x1a94387219eb8e23ULL);
  EXPECT_EQ(plan.grid[0].canonical,
            "topology=grid;n=60;radius=0.2;variant=improved;"
            "mobility=random-waypoint;speed_min=1;speed_max=5;tau=0.8;"
            "churn_down=0.1;churn_up=0.9;steps=10;window_s=2;world_m=1000");
  EXPECT_EQ(plan.grid[1].canonical,
            "topology=grid;n=60;radius=0.2;variant=improved;"
            "mobility=random-waypoint;speed_min=1;speed_max=5;tau=0.8;"
            "churn_down=0.1;churn_up=0.9;steps=5;window_s=2;world_m=1000");
  EXPECT_EQ(plan.grid.back().canonical,
            "topology=poisson;n=30;radius=0.1;variant=basic;mobility=none;"
            "speed_min=0;speed_max=2;tau=1;churn_down=0;churn_up=0.5;"
            "steps=5;window_s=2;world_m=1000");
}

TEST(CampaignSpec, RunSeedsAreUnique) {
  const auto spec = campaign::parse_spec_text(R"(
    n            = 50, 100, 200, 400
    radius       = 0.05, 0.08, 0.1
    tau          = 1, 0.9, 0.8
    variant      = basic, dag, improved, full
    replications = 7
  )");
  const auto plan = campaign::expand(spec);
  std::set<std::uint64_t> seeds;
  for (const auto& run : plan.runs) seeds.insert(run.seed);
  EXPECT_EQ(seeds.size(), plan.runs.size()) << "seed collision in the plan";
}

TEST(CampaignSpec, SeedsAreStableUnderFieldReordering) {
  // Same campaign, fields written in two different orders.
  const auto forward = campaign::expand(campaign::parse_spec_text(R"(
    name         = order
    topology     = uniform, poisson
    n            = 80
    radius       = 0.1
    variant      = basic, improved
    replications = 3
    seed_base    = 99
  )"));
  const auto reversed = campaign::expand(campaign::parse_spec_text(R"(
    seed_base    = 99
    replications = 3
    variant      = basic, improved
    radius       = 0.1
    n            = 80
    topology     = uniform, poisson
    name         = order
  )"));
  ASSERT_EQ(forward.runs.size(), reversed.runs.size());
  for (std::size_t i = 0; i < forward.runs.size(); ++i) {
    EXPECT_EQ(forward.runs[i].seed, reversed.runs[i].seed) << "run " << i;
    EXPECT_EQ(forward.runs[i].grid_index, reversed.runs[i].grid_index);
  }
  ASSERT_EQ(forward.grid.size(), reversed.grid.size());
  for (std::size_t g = 0; g < forward.grid.size(); ++g) {
    EXPECT_EQ(forward.grid[g].canonical, reversed.grid[g].canonical);
  }
}

TEST(CampaignSpec, SeedsDependOnSeedBaseAndConfigAndReplication) {
  const std::string canonical =
      campaign::canonical_config(campaign::ScenarioConfig{});
  const auto a = campaign::run_seed(1, canonical, 0);
  EXPECT_NE(a, campaign::run_seed(2, canonical, 0));
  EXPECT_NE(a, campaign::run_seed(1, canonical, 1));
  EXPECT_NE(a, campaign::run_seed(1, canonical + ";x=1", 0));
  EXPECT_EQ(a, campaign::run_seed(1, canonical, 0));  // pure function
}

TEST(CampaignSpec, DefaultsRoundTrip) {
  // An empty spec is a valid single-scenario campaign.
  const auto plan = campaign::expand(campaign::parse_spec_text(""));
  EXPECT_EQ(plan.grid.size(), 1u);
  EXPECT_EQ(plan.runs.size(), plan.replications);
}

TEST(CampaignSpec, MalformedSpecsAreRejectedWithClearErrors) {
  const auto rejects = [](const char* text, const char* needle) {
    try {
      (void)campaign::expand(campaign::parse_spec_text(text));
      FAIL() << "spec was accepted: " << text;
    } catch (const SpecError& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << "message '" << error.what() << "' lacks '" << needle << "'";
    }
  };
  rejects("replications = 0", "replications");
  rejects("radius = -0.5", "radius");
  rejects("radius = 0", "radius");
  rejects("frobnicate = 1", "unknown key 'frobnicate'");
  rejects("variant = bogus", "variant");
  rejects("topology = torus", "topology");
  rejects("mobility = teleport", "mobility");
  rejects("n = 0", "n");
  rejects("n = 2.5", "n");
  rejects("n = ten", "n");
  rejects("tau = 0", "tau");
  rejects("tau = 1.5", "tau");
  rejects("churn_down = 2", "churn_down");
  rejects("steps = 0", "steps");
  rejects("window_s = -1", "window_s");
  rejects("window_s = nan", "window_s");
  rejects("seed_base = 1, 2", "seed_base");        // scalar-only key
  rejects("seed_base = 20o50612", "seed_base");    // trailing junk
  rejects("seed_base = -1", "seed_base");          // stoull would wrap
  rejects("n = 1e20", "n");                        // double->size_t UB guard
  rejects("replications = 1e18", "replications");  // absurd count
  rejects("name = a, b", "name");                  // scalar-only key
  rejects("n 5", "key = value");                   // missing '='
  rejects("n =", "empty value");
  rejects("n = 5\nn = 6", "duplicate key 'n'");
  rejects("radius = 0.1abc", "radius");            // trailing junk
  rejects("speed_min = 5\nspeed_max = 1", "speed_min");  // impossible combo
  // A repeated sweep value would be a second grid point with the same
  // canonical string and seeds; values compare parsed, not spelled.
  rejects("n = 40, 40", "n: value '40' is repeated");
  rejects("radius = 0.2, 0.20", "radius: value '0.2' is repeated");
  rejects("stepping = dirty, full, dirty", "stepping: value 'dirty'");
  // The earliest value that repeats one before it is named.
  rejects("n = 5, 7, 7, 5", "n: value '7' is repeated");
  rejects("churn_down = 0, -0", "churn_down: value '-0' is repeated");
}

TEST(CampaignSpec, LongSweepListsAreCheckedQuickly) {
  // A daemon parses whatever list a client sends, up to a 16 MiB frame,
  // before it can refuse the run count. Comparing each value with every
  // earlier one takes ~10^11 steps on this list, tens of seconds even on
  // fast hardware; sorting takes milliseconds in a release build and
  // under two seconds under ASan.
  constexpr std::size_t kValues = 500000;
  std::string text = "n = 1";
  for (std::size_t v = 2; v <= kValues; ++v) text += ", " + std::to_string(v);
  EXPECT_EQ(campaign::run_count_bound(campaign::parse_spec_text(text)),
            kValues * CampaignSpec{}.replications);
  text += ", 1";
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)campaign::parse_spec_text(text);
    ADD_FAILURE() << "a repeat at the end of a long list was accepted";
  } catch (const SpecError& error) {
    EXPECT_STREQ(error.what(), "n: value '1' is repeated");
  }
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), 10.0);
}

TEST(CampaignSpec, EveryAxisRejectsHostileValuesNamingItsKey) {
  // Driven by the axis table, so a new row is covered without a new
  // test: each bad value must raise a SpecError whose message starts
  // with the row's key.
  for (const campaign::Axis& row : campaign::spec_axes()) {
    const std::string key(row.key);
    const auto rejects = [&key](const std::string& value, const char* what) {
      try {
        (void)campaign::parse_spec_text(key + " = " + value);
        ADD_FAILURE() << key << " accepted " << what << " '" << value << "'";
      } catch (const SpecError& error) {
        EXPECT_EQ(std::string(error.what()).rfind(key + ": ", 0), 0u)
            << what << " '" << value << "': " << error.what();
      }
    };
    // A value the row accepts: the default of a grid-point row, else a
    // campaign-wide one.
    const std::string ok =
        row.bind.text != nullptr ? row.bind.text(campaign::ScenarioConfig{})
                                 : std::string("7");
    EXPECT_NO_THROW((void)campaign::parse_spec_text(key + " = " + ok)) << key;
    rejects("", "an empty value");
    rejects(ok + ", " + ok, "a repeated value");
    if (!row.bind.sweepable) rejects(ok + ", 8", "a list on a scalar key");
    // Any non-empty text is a name.
    if (row.bind.kind != campaign::AxisKind::kText) rejects("bogus", "junk");
    if (row.what == nullptr || row.bind.kind == campaign::AxisKind::kText) {
      continue;
    }
    // Just outside each finite bound of the row's range.
    const campaign::AxisRange& range = row.range;
    rejects(campaign::format_double(range.lo_open ? range.lo : range.lo - 1),
            "a value below the range");
    if (range.hi != std::numeric_limits<double>::infinity()) {
      rejects(
          campaign::format_double(range.hi_open ? range.hi : range.hi + 1),
          "a value above the range");
    }
  }
}

TEST(CampaignSpec, SchedulerAxisExpandsAndDeduplicatesSyncPoints) {
  // The async knobs don't affect a sync run, so sweeping them must emit
  // each sync point once but every async combination: 1 + 2×2 = 5
  // points per variant.
  const auto plan = campaign::expand(campaign::parse_spec_text(R"(
    n            = 40
    scheduler    = sync, async
    period_jitter = 0.05, 0.2
    link_delay   = 0.01, 0.1
    replications = 2
  )"));
  EXPECT_EQ(plan.grid.size(), 5u);
  std::size_t sync_points = 0;
  std::set<std::uint64_t> seeds;
  std::set<std::string> canonicals;
  for (const auto& point : plan.grid) {
    sync_points += point.config.scheduler == campaign::SchedulerKind::kSync;
    canonicals.insert(point.canonical);
  }
  for (const auto& run : plan.runs) seeds.insert(run.seed);
  EXPECT_EQ(sync_points, 1u);
  EXPECT_EQ(canonicals.size(), plan.grid.size());
  EXPECT_EQ(seeds.size(), plan.runs.size());
}

TEST(CampaignSpec, SyncCanonicalIsStableAcrossTheSchedulerRelease) {
  // A synchronous grid point must serialize without any scheduler
  // fields — its canonical string (and therefore every seed hashed
  // from it) is bit-stable across the release that added the axis.
  campaign::ScenarioConfig config;
  const auto canonical = campaign::canonical_config(config);
  EXPECT_EQ(canonical.find("scheduler"), std::string::npos);
  EXPECT_EQ(canonical.find("period_jitter"), std::string::npos);
  EXPECT_EQ(canonical.find("link_delay"), std::string::npos);
  // And the exact pre-axis serialization, pinned byte for byte.
  EXPECT_EQ(canonical,
            "topology=uniform;n=300;radius=0.08;variant=basic;"
            "mobility=none;speed_min=0;speed_max=1.6;tau=1;churn_down=0;"
            "churn_up=0.5;steps=50;window_s=2;world_m=1000");

  config.scheduler = campaign::SchedulerKind::kAsync;
  const auto async_canonical = campaign::canonical_config(config);
  EXPECT_NE(async_canonical.find(";scheduler=async;period_jitter=0.1;"
                                 "link_delay=0.02"),
            std::string::npos);
}

TEST(CampaignSpec, AsyncRejectsMobilityAndChurn) {
  const auto rejects = [](const char* text) {
    EXPECT_THROW((void)campaign::expand(campaign::parse_spec_text(text)),
                 SpecError)
        << text;
  };
  rejects("scheduler = async\nmobility = random-direction");
  rejects("scheduler = async\nchurn_down = 0.1");
  rejects("scheduler = async\nwindow_s = 0.0000005");  // sub-tick period
  rejects("scheduler = bogus");
  rejects("period_jitter = 1.5");
  rejects("period_jitter = -0.1");
  rejects("link_delay = -1");
  // And the valid combination parses.
  const auto plan = campaign::expand(campaign::parse_spec_text(
      "scheduler = async\nn = 30\nsteps = 5"));
  EXPECT_EQ(plan.grid.size(), 1u);
  EXPECT_EQ(plan.grid[0].config.scheduler, campaign::SchedulerKind::kAsync);
}

TEST(CampaignSpec, LiveAxisExpandsAndDeduplicatesNonLivePoints) {
  // topology_update only matters for live points: sweeping both axes
  // must emit each non-live point once but every live combination:
  // 1 + 2 = 3 points.
  const auto plan = campaign::expand(campaign::parse_spec_text(R"(
    n               = 40
    protocol_live   = false, true
    topology_update = incremental, rebuild
    replications    = 2
  )"));
  EXPECT_EQ(plan.grid.size(), 3u);
  std::size_t live_points = 0;
  std::set<std::string> canonicals;
  std::set<std::uint64_t> seeds;
  for (const auto& point : plan.grid) {
    live_points += point.config.protocol_live;
    canonicals.insert(point.canonical);
  }
  for (const auto& run : plan.runs) seeds.insert(run.seed);
  EXPECT_EQ(live_points, 2u);
  EXPECT_EQ(canonicals.size(), plan.grid.size());
  EXPECT_EQ(seeds.size(), plan.runs.size());
}

TEST(CampaignSpec, NonLiveCanonicalIsStableAcrossTheLiveRelease) {
  // A non-live point serializes without any of the dynamic-topology
  // fields — pre-existing sync AND async campaign seeds survive the
  // release that added the axis.
  campaign::ScenarioConfig config;
  EXPECT_EQ(campaign::canonical_config(config).find("protocol_live"),
            std::string::npos);
  config.scheduler = campaign::SchedulerKind::kAsync;
  const auto async_canonical = campaign::canonical_config(config);
  EXPECT_EQ(async_canonical.find("protocol_live"), std::string::npos);
  EXPECT_EQ(async_canonical.find("topology_update"), std::string::npos);
  EXPECT_EQ(async_canonical.find("live_horizon"), std::string::npos);

  config.protocol_live = true;
  EXPECT_NE(campaign::canonical_config(config).find(
                ";protocol_live=true;topology_update=incremental;"
                "live_horizon=64"),
            std::string::npos);
}

TEST(CampaignSpec, ProtocolLiveLiftsTheAsyncMobilityRejection) {
  // The acceptance shape: async + mobility + protocol_live=true must
  // expand cleanly (this was a SpecError before the dynamic-topology
  // runtime existed) — and stays rejected without protocol_live.
  const auto plan = campaign::expand(campaign::parse_spec_text(R"(
    scheduler       = async
    mobility        = random-direction
    protocol_live   = true
    n               = 30
    steps           = 5
  )"));
  ASSERT_EQ(plan.grid.size(), 1u);
  EXPECT_TRUE(plan.grid[0].config.protocol_live);
  EXPECT_EQ(plan.grid[0].config.mobility,
            campaign::MobilityKind::kRandomDirection);

  EXPECT_THROW((void)campaign::expand(campaign::parse_spec_text(
                   "scheduler = async\nmobility = random-direction")),
               SpecError);
  EXPECT_THROW((void)campaign::expand(campaign::parse_spec_text(
                   "scheduler = async\nchurn_down = 0.1\n"
                   "protocol_live = false")),
               SpecError);
  // Live churn is allowed on either engine.
  const auto churny = campaign::expand(campaign::parse_spec_text(
      "protocol_live = true\nchurn_down = 0.1\nn = 30\nsteps = 5"));
  EXPECT_EQ(churny.grid.size(), 1u);
  // Malformed live keys are rejected like any other.
  EXPECT_THROW((void)campaign::parse_spec_text("protocol_live = maybe"),
               SpecError);
  EXPECT_THROW((void)campaign::parse_spec_text("topology_update = magic"),
               SpecError);
  EXPECT_THROW((void)campaign::parse_spec_text("live_horizon = 0"),
               SpecError);
}

TEST(CampaignSpec, VerifyAxisExpandsAndDeduplicatesNonVerifyPoints) {
  // fault_class and daemon only matter for verify points: sweeping all
  // three axes must emit each non-verify point once but every verify
  // combination: 1 + 2×3 = 7 points.
  const auto plan = campaign::expand(campaign::parse_spec_text(R"(
    n             = 40
    verify_faults = false, true
    fault_class   = random-all, stale-cache
    daemon        = synchronous, randomized, unfair
    replications  = 2
  )"));
  EXPECT_EQ(plan.grid.size(), 7u);
  std::size_t verify_points = 0;
  std::set<std::string> canonicals;
  std::set<std::uint64_t> seeds;
  for (const auto& point : plan.grid) {
    verify_points += point.config.verify_faults;
    canonicals.insert(point.canonical);
  }
  for (const auto& run : plan.runs) seeds.insert(run.seed);
  EXPECT_EQ(verify_points, 6u);
  EXPECT_EQ(canonicals.size(), plan.grid.size());
  EXPECT_EQ(seeds.size(), plan.runs.size());
}

TEST(CampaignSpec, NonVerifyCanonicalIsStableAcrossTheVerifyRelease) {
  // Non-verify points serialize without any certification fields — all
  // pre-existing sync, async, AND live campaign seeds survive the
  // release that added the axis.
  campaign::ScenarioConfig config;
  EXPECT_EQ(campaign::canonical_config(config).find("verify"),
            std::string::npos);
  config.scheduler = campaign::SchedulerKind::kAsync;
  EXPECT_EQ(campaign::canonical_config(config).find("verify"),
            std::string::npos);
  config.scheduler = campaign::SchedulerKind::kSync;
  config.protocol_live = true;
  const auto live_canonical = campaign::canonical_config(config);
  EXPECT_EQ(live_canonical.find("verify"), std::string::npos);
  EXPECT_EQ(live_canonical.find("fault_class"), std::string::npos);
  EXPECT_EQ(live_canonical.find("daemon"), std::string::npos);

  config.protocol_live = false;
  config.verify_faults = true;
  EXPECT_NE(campaign::canonical_config(config).find(
                ";verify_faults=true;fault_class=random-all;"
                "daemon=randomized"),
            std::string::npos);
}

TEST(CampaignSpec, VerifyRejectsIncompatibleAxes) {
  const auto rejects = [](const char* text, const char* needle) {
    try {
      (void)campaign::expand(campaign::parse_spec_text(text));
      FAIL() << "spec was accepted: " << text;
    } catch (const SpecError& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << "message '" << error.what() << "' lacks '" << needle << "'";
    }
  };
  rejects("verify_faults = true\nprotocol_live = true", "protocol_live");
  rejects("verify_faults = true\nscheduler = async", "scheduler");
  rejects("verify_faults = true\nmobility = random-direction", "mobility");
  rejects("verify_faults = true\nchurn_down = 0.1", "mobility/churn");
  rejects("verify_faults = true\ntopology = grid", "uniform");
  // A horizon below the confirmation window can never certify; every
  // replication would report a fake "violation" (exit 0) — reject it.
  rejects("verify_faults = true\nsteps = 4", "steps");
  rejects("fault_class = bitflip", "fault_class");
  rejects("daemon = byzantine", "daemon");
  rejects("verify_faults = maybe", "verify_faults");
  // The valid shape expands, lossy media included.
  const auto plan = campaign::expand(campaign::parse_spec_text(
      "verify_faults = true\nfault_class = partial-frame\n"
      "daemon = unfair\ntau = 0.9\nn = 30\nsteps = 40"));
  ASSERT_EQ(plan.grid.size(), 1u);
  EXPECT_TRUE(plan.grid[0].config.verify_faults);
  EXPECT_EQ(plan.grid[0].config.fault_class,
            verify::FaultClass::kPartialFrame);
  EXPECT_EQ(plan.grid[0].config.daemon, verify::Daemon::kUnfair);
}

TEST(CampaignSpec, SteppingAxisExpandsAndDeduplicatesInapplicablePoints) {
  // stepping only matters for points with a stepper seam (live or
  // async): sweeping it alongside protocol_live must emit the classic
  // sync point once but both live variants: 1 + 2 = 3 points.
  const auto plan = campaign::expand(campaign::parse_spec_text(R"(
    n             = 40
    protocol_live = false, true
    stepping      = full, dirty
    replications  = 2
  )"));
  EXPECT_EQ(plan.grid.size(), 3u);
  std::size_t dirty_points = 0;
  std::set<std::string> canonicals;
  std::set<std::uint64_t> seeds;
  for (const auto& point : plan.grid) {
    dirty_points += point.config.stepping == campaign::SteppingKind::kDirty &&
                    campaign::stepping_applies(point.config);
    canonicals.insert(point.canonical);
  }
  for (const auto& run : plan.runs) seeds.insert(run.seed);
  EXPECT_EQ(dirty_points, 1u);
  EXPECT_EQ(canonicals.size(), plan.grid.size());
  EXPECT_EQ(seeds.size(), plan.runs.size());
}

TEST(CampaignSpec, CanonicalIsStableAcrossTheSteppingRelease) {
  // stepping=full is NEVER serialized, and stepping=dirty only where it
  // applies — so every pre-existing point (classic sync, async, live,
  // verify) keeps its exact canonical string, and therefore its seeds
  // and byte-identical outputs, across the release that added the axis.
  campaign::ScenarioConfig config;
  EXPECT_EQ(campaign::canonical_config(config).find("stepping"),
            std::string::npos);
  config.scheduler = campaign::SchedulerKind::kAsync;
  EXPECT_EQ(campaign::canonical_config(config).find("stepping"),
            std::string::npos);
  config.protocol_live = true;
  EXPECT_EQ(campaign::canonical_config(config).find("stepping"),
            std::string::npos);

  // Where it applies and deviates, it serializes — as the suffix.
  config.stepping = campaign::SteppingKind::kDirty;
  const auto live_dirty = campaign::canonical_config(config);
  EXPECT_TRUE(live_dirty.ends_with(";stepping=dirty")) << live_dirty;

  // Inapplicable points never carry it, even when set programmatically:
  // a certification trial pins its own execution.
  campaign::ScenarioConfig trial;
  trial.verify_faults = true;
  trial.steps = 40;
  trial.stepping = campaign::SteppingKind::kDirty;
  EXPECT_FALSE(campaign::stepping_applies(trial));
  EXPECT_EQ(campaign::canonical_config(trial).find("stepping"),
            std::string::npos);
}

TEST(CampaignSpec, DirtySteppingRequiresLossFreeSyncEngine) {
  const auto rejects = [](const char* text, const char* needle) {
    try {
      (void)campaign::expand(campaign::parse_spec_text(text));
      FAIL() << "spec was accepted: " << text;
    } catch (const SpecError& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << "message '" << error.what() << "' lacks '" << needle << "'";
    }
  };
  // The sync dirty stepper elides nodes and with them their per-link
  // loss draws; only a loss-free medium keeps it bit-identical.
  rejects("protocol_live = true\nstepping = dirty\ntau = 0.9", "tau=1");
  rejects("stepping = sloppy", "stepping");
  // The async engine's dirty mode preserves the event trace under any
  // loss model, so the same sweep is fine there...
  const auto lossy_async = campaign::expand(campaign::parse_spec_text(
      "scheduler = async\nstepping = dirty\ntau = 0.9\nn = 30\nsteps = 5"));
  ASSERT_EQ(lossy_async.grid.size(), 1u);
  EXPECT_EQ(lossy_async.grid[0].config.stepping,
            campaign::SteppingKind::kDirty);
  // ...and so is loss-free sync live.
  const auto clean_live = campaign::expand(campaign::parse_spec_text(
      "protocol_live = true\nstepping = dirty\nn = 30\nsteps = 5"));
  ASSERT_EQ(clean_live.grid.size(), 1u);
  EXPECT_TRUE(clean_live.grid[0].canonical.ends_with(";stepping=dirty"));
}

TEST(CampaignSpec, SpecErrorIsInvalidArgument) {
  // The CLI maps std::invalid_argument to the bad-arguments exit code;
  // spec errors must ride that path, not the run-failure one.
  EXPECT_THROW((void)campaign::parse_spec_text("replications = 0"),
               std::invalid_argument);
}

/// The numeric facet of a de_DE-style locale: ',' as the decimal point,
/// '.' grouping thousands. Built in the test, so the check runs whatever
/// locales the host has installed.
struct CommaNumpunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(CampaignSpec, FormattingIsLocaleIndependent) {
  // Byte-identical replay must hold under any LC_NUMERIC: a locale with
  // a comma decimal separator and dot grouping must change neither
  // format_double nor canonical serialization (seeds!).
  std::locale original;
  const std::locale german(std::locale::classic(), new CommaNumpunct);
  const auto before_double = campaign::format_double(1234567.25);
  campaign::ScenarioConfig config;
  config.n = 1000000;  // grouping bait for integer insertion
  const auto before_canonical = campaign::canonical_config(config);

  std::locale::global(german);
  const auto under_double = campaign::format_double(1234567.25);
  const auto under_canonical = campaign::canonical_config(config);
  // Parsing is locale-free too: strtod-based parsing would stop "0.08"
  // at the '.' under de_DE and reject the spec.
  const auto under_spec =
      campaign::parse_spec_text("radius = 0.08\ntau = 0.5");
  std::locale::global(original);
  ASSERT_EQ(under_spec.radius.size(), 1u);
  EXPECT_DOUBLE_EQ(under_spec.radius.front(), 0.08);
  EXPECT_DOUBLE_EQ(under_spec.tau.front(), 0.5);

  EXPECT_EQ(before_double, under_double);
  EXPECT_EQ(before_canonical, under_canonical);
  EXPECT_EQ(before_double, "1234567.25");
  EXPECT_NE(before_canonical.find("n=1000000;"), std::string::npos);
}

TEST(CampaignSpec, LeadingPlusInNumbersIsAccepted) {
  const auto spec = campaign::parse_spec_text("tau = +0.5\nradius = +0.1");
  EXPECT_DOUBLE_EQ(spec.tau.front(), 0.5);
  EXPECT_DOUBLE_EQ(spec.radius.front(), 0.1);
  EXPECT_THROW((void)campaign::parse_spec_text("tau = +-0.5"), SpecError);
}

TEST(CampaignSpec, CommentsAndWhitespaceAreIgnored) {
  const auto spec = campaign::parse_spec_text(R"(
    # full-line comment
    name = commented   # trailing comment
       n   =   123
  )");
  EXPECT_EQ(spec.name, "commented");
  ASSERT_EQ(spec.n.size(), 1u);
  EXPECT_EQ(spec.n.front(), 123u);
}

}  // namespace
}  // namespace ssmwn
