// Declarative experiment specifications for the campaign engine.
//
// The paper's claims are statistical — stability of the density-based
// clustering under mobility, churn, and lossy media, averaged over many
// deployments — so a single hand-wired run is never the interesting
// unit. A `CampaignSpec` describes a whole *grid* of scenarios in a
// simple `key = value` file (lists sweep an axis, `#` starts a comment):
//
//   name         = mobility-stability
//   topology     = uniform            # uniform | grid | poisson
//   n            = 1000               # node count (poisson: intensity λ)
//   radius       = 0.08
//   variant      = basic, improved    # basic | dag | improved | full
//   mobility     = random-direction   # none | random-direction | random-waypoint
//   speed_max    = 1.6, 10            # m/s — sweeps pedestrian vs vehicular
//   steps        = 450                # 2 s windows (15 min, like the paper)
//   replications = 16
//   seed_base    = 20050612
//   scheduler    = sync, async        # execution engine (default sync)
//   period_jitter = 0.1               # async: ± fraction of the period
//   link_delay   = 0.02, 0.2          # async: mean link delay (seconds)
//   protocol_live = true              # run the protocol live under mobility
//   topology_update = incremental, rebuild  # live: delta vs full rebuild
//   live_horizon = 64                 # live: rounds per convergence phase
//   verify_faults = true              # self-stabilization certification trials
//   fault_class  = stale-cache, partial-frame   # corruption distribution
//   daemon       = synchronous, randomized, unfair  # async-half adversary
//   stepping     = full, dirty        # quiescence-aware dirty-region stepper
//
// Expansion takes the Cartesian product of every list-valued axis and
// schedules `replications` independent runs per grid point. Each run's
// seed derives from (seed_base, canonical serialization of its grid
// point, replication index) — *not* from the position of fields in the
// file — so seeds are stable under field reordering and unique across
// the grid (asserted by tests/campaign/spec_property_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.hpp"
#include "verify/faults.hpp"

namespace ssmwn::campaign {

/// Malformed spec (unknown key, bad value, impossible combination).
/// Derives from std::invalid_argument so the CLI maps it to the
/// bad-arguments exit code rather than the run-failure one.
class SpecError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

enum class TopologyKind { kUniform, kGrid, kPoisson };
enum class MobilityKind { kNone, kRandomDirection, kRandomWaypoint };

/// Protocol variant, mirroring core::ClusterOptions presets.
enum class Variant { kBasic, kDag, kImproved, kFull };

/// The spelling basic|dag|improved|full; throws SpecError otherwise.
[[nodiscard]] Variant parse_variant(const std::string& raw);
/// The feature toggles of a variant (one map for every entry point).
[[nodiscard]] core::ClusterOptions cluster_options(Variant variant) noexcept;

/// Which execution engine plays the run. `kSync` is the oracle-based
/// window loop over the synchronous Δ(τ) abstraction; `kAsync` executes
/// the distributed protocol on the event-driven engine
/// (sim::AsyncNetwork) from an adversarial initial state and measures
/// virtual-time convergence and messages-to-convergence.
enum class SchedulerKind { kSync, kAsync };

/// How a live (protocol_live=true) run maintains the evolving graph.
/// `kIncremental` threads topology::LiveTopology edge deltas through the
/// engine — protocol caches for severed links are invalidated eagerly
/// (a link layer that reports loss of connectivity). `kRebuild`
/// reconstructs the unit-disk graph from scratch every window and tells
/// the protocol nothing — recovery is pure self-stabilization through
/// cache aging. The graphs are provably identical; the *notification*
/// differs, which is exactly the scientific axis.
enum class TopologyUpdateKind { kRebuild, kIncremental };

/// Which counter definitions a protocol-under-engine run reports
/// (sim::Stepping). Both run the one quiescence-aware code path, so the
/// axis never changes results — replay tests assert the outputs match
/// byte for byte — only what the stepped/skipped counts count.
enum class SteppingKind { kFull, kDirty };

[[nodiscard]] std::string_view to_string(TopologyKind kind) noexcept;
[[nodiscard]] std::string_view to_string(MobilityKind kind) noexcept;
[[nodiscard]] std::string_view to_string(Variant variant) noexcept;
[[nodiscard]] std::string_view to_string(SchedulerKind kind) noexcept;
[[nodiscard]] std::string_view to_string(TopologyUpdateKind kind) noexcept;
[[nodiscard]] std::string_view to_string(SteppingKind kind) noexcept;

/// One fully resolved grid point: everything a single run needs except
/// its seed.
struct ScenarioConfig {
  TopologyKind topology = TopologyKind::kUniform;
  std::size_t n = 300;          // node count; intensity λ for poisson
  double radius = 0.08;         // unit-disk radio range (unit square)
  Variant variant = Variant::kBasic;
  MobilityKind mobility = MobilityKind::kNone;
  double speed_min = 0.0;       // m/s
  double speed_max = 1.6;       // m/s
  double tau = 1.0;             // per-link delivery probability per window
  double churn_down = 0.0;      // P(up node goes down) per window
  double churn_up = 0.5;        // P(down node recovers) per window
  std::size_t steps = 50;       // snapshot windows per run
  double window_s = 2.0;        // seconds simulated between snapshots
  double world_m = 1000.0;      // meters per unit-square side
  // Execution-engine axis (PR 3). For kAsync, window_s doubles as the
  // mean per-node broadcast period and steps bounds the virtual horizon
  // (steps × window_s seconds).
  SchedulerKind scheduler = SchedulerKind::kSync;
  double period_jitter = 0.1;   // ± fraction of the broadcast period
  double link_delay = 0.02;     // mean per-link delivery delay (s)
  // Dynamic-topology axis (PR 4). protocol_live=true runs the
  // *distributed protocol* continuously while mobility/churn evolve the
  // graph (on either engine) and measures per-perturbation
  // re-convergence; false keeps the classic modes. For live runs,
  // `steps` counts perturbation windows and `live_horizon` bounds each
  // convergence phase (in rounds: sync steps or async broadcast
  // periods). All three serialize into the canonical string only when
  // protocol_live is true, so pre-existing seeds are untouched.
  bool protocol_live = false;
  TopologyUpdateKind topology_update = TopologyUpdateKind::kIncremental;
  std::size_t live_horizon = 64;
  // Self-stabilization certification axis (PR 5). verify_faults=true
  // turns the run into one certification trial (src/verify/): corrupt
  // the protocol state with `fault_class`, run to fixpoint on BOTH
  // engines (the async half under `daemon`), check the legitimacy
  // predicates plus cross-engine agreement. `steps` bounds the horizon
  // in rounds. The three fields serialize into the canonical string
  // only when verify_faults is true — pre-existing seeds untouched.
  bool verify_faults = false;
  verify::FaultClass fault_class = verify::FaultClass::kRandomAll;
  verify::Daemon daemon = verify::Daemon::kRandomized;
  // Quiescence axis (PR 6). Selects the stepper for runs that execute
  // the protocol on an engine (live runs on either engine, classic
  // async runs); the classic sync modes are oracle-driven and have no
  // stepper, and certification trials pin their own execution, so the
  // axis is inapplicable there (see stepping_applies). Serializes into
  // the canonical string only when applicable AND dirty — every
  // pre-existing campaign's seeds and outputs stay byte-identical, and
  // a full-vs-dirty sweep differs only in the one new point's string.
  SteppingKind stepping = SteppingKind::kFull;
};

/// Whether the stepping axis has any effect on this grid point: the run
/// must execute the protocol on an engine with a stepper seam. (Classic
/// sync points cluster via the oracle; verify points run fixed
/// certification trials.)
[[nodiscard]] constexpr bool stepping_applies(
    const ScenarioConfig& config) noexcept {
  if (config.verify_faults) return false;
  return config.protocol_live || config.scheduler == SchedulerKind::kAsync;
}

/// Shortest decimal that round-trips to the exact double; used by the
/// canonical serialization and every report writer so numbers format
/// identically everywhere.
[[nodiscard]] std::string format_double(double value);

/// Fixed-order `key=value` serialization of a grid point. Identical
/// configs serialize identically regardless of how the spec file was
/// written; run seeds hash this string. The async-engine fields
/// (scheduler, period_jitter, link_delay) are appended **only when
/// scheduler != kSync**: a synchronous grid point serializes exactly as
/// it did before the execution-engine axis existed, so every seed of
/// every pre-existing campaign is stable across that release boundary.
[[nodiscard]] std::string canonical_config(const ScenarioConfig& config);

/// A parsed spec: scalar campaign-wide settings plus one value list per
/// sweepable axis (singleton lists for axes the file left at defaults).
struct CampaignSpec {
  std::string name = "campaign";
  std::size_t replications = 16;
  std::uint64_t seed_base = 20050612;
  double window_s = 2.0;
  double world_m = 1000.0;

  std::vector<TopologyKind> topology{TopologyKind::kUniform};
  std::vector<std::size_t> n{300};
  std::vector<double> radius{0.08};
  std::vector<Variant> variant{Variant::kBasic};
  std::vector<MobilityKind> mobility{MobilityKind::kNone};
  std::vector<double> speed_min{0.0};
  std::vector<double> speed_max{1.6};
  std::vector<double> tau{1.0};
  std::vector<double> churn_down{0.0};
  std::vector<double> churn_up{0.5};
  std::vector<std::size_t> steps{50};
  std::vector<SchedulerKind> scheduler{SchedulerKind::kSync};
  std::vector<double> period_jitter{0.1};
  std::vector<double> link_delay{0.02};
  std::vector<bool> protocol_live{false};
  std::vector<TopologyUpdateKind> topology_update{
      TopologyUpdateKind::kIncremental};
  std::size_t live_horizon = 64;  // scalar: rounds per convergence phase
  std::vector<bool> verify_faults{false};
  std::vector<verify::FaultClass> fault_class{verify::FaultClass::kRandomAll};
  std::vector<verify::Daemon> daemon{verify::Daemon::kRandomized};
  std::vector<SteppingKind> stepping{SteppingKind::kFull};
};

/// Parses `key = value` text. Throws SpecError on unknown keys,
/// duplicate keys, malformed values, lists on scalar-only keys, or
/// out-of-range settings (zero replications, negative radius, ...).
[[nodiscard]] CampaignSpec parse_spec_text(std::string_view text);
[[nodiscard]] CampaignSpec parse_spec(std::istream& in);
/// Loads and parses a spec file; throws SpecError if unreadable.
[[nodiscard]] CampaignSpec load_spec(const std::string& path);

/// Semantic validation shared by the parser and programmatic callers.
void validate(const CampaignSpec& spec);

/// One scheduled run of the expanded campaign.
struct RunPlanEntry {
  std::size_t grid_index = 0;   // into CampaignPlan::grid
  std::size_t replication = 0;  // 0-based within the grid point
  std::uint64_t seed = 0;       // sole source of the run's randomness
};

struct GridPoint {
  ScenarioConfig config;
  std::string canonical;  // canonical_config(config), cached
};

/// The expanded campaign: every grid point and every run, in a fixed
/// deterministic order (grid-major, replication-minor).
struct CampaignPlan {
  std::string name;
  std::size_t replications = 0;
  std::uint64_t seed_base = 0;
  std::vector<GridPoint> grid;
  std::vector<RunPlanEntry> runs;
};

/// Cartesian-expands the spec. Validates first; throws SpecError on
/// impossible combinations (e.g. speed_min > speed_max).
[[nodiscard]] CampaignPlan expand(const CampaignSpec& spec);

/// Upper bound on `expand(spec).runs.size()`, computed without expanding
/// or allocating: replications × the length of every axis list,
/// saturating at SIZE_MAX. Knob combinations `expand` collapses (async
/// knobs on sync points, say) are counted, so the bound can exceed the
/// real run count but never falls below it.
[[nodiscard]] std::size_t run_count_bound(const CampaignSpec& spec) noexcept;

/// Seed of replication `rep` of the grid point with the given canonical
/// serialization. Deterministic, order-independent, and collision-
/// resistant across a campaign's grid (splitmix64 over an FNV-1a hash).
[[nodiscard]] std::uint64_t run_seed(std::uint64_t seed_base,
                                     std::string_view canonical,
                                     std::uint64_t replication) noexcept;

}  // namespace ssmwn::campaign
