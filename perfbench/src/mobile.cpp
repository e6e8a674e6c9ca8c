// mobile-1k — the protocol under mobility at the paper's density.
//
// World: the paper's stability experiment — Poisson λ = 1000 on a
// 1 km side (radius ≈ 50 m, mean degree 8), random protocol ids, the
// basic rule set, in generation (random) order. Nodes walk
// random-direction at 0–1.6 m/s; each 2 s window moves them,
// topology::LiveTopology emits the incremental edge delta, the engine
// (sim::ShardedNetwork, one shard, one thread, dirty stepping) applies it
// and steps until no node is active.
//
// Scale: a 2 s pedestrian window changes ~5% of all links, which wakes
// ~90% of the nodes for ~12 steps. The engine keeps ~20 KB of state per
// node, so from a few thousand nodes on a window is bound by DRAM
// latency — at n = 100k it takes 1.2 s on one thread — and DRAM latency
// on a shared host swings by more than half within seconds. At the
// paper's n = 1000 the state stays cache-resident.
// Order: a cell-major renumbering would decay as the nodes walk away
// from their start cells, making every window a little slower than the
// last; random order is the state that decay ends in, so window cost
// stays stationary through the run.
// Rule set: with incumbency + fusion a few hundred nodes never go
// quiescent after the first window (the dirty stepper keeps stepping
// them), so "steps until no node is active" would not end; the basic
// rules quiesce, and their head assignment has an exact oracle.
//
//   op      = one window: mobility step → LiveTopology::update →
//             apply_topology_delta → steps to quiescence
//   regimes = rebuild windows (the candidate index was rebuilt) and scan
//             windows (it was only scanned). The skin is fixed so that a
//             rebuild comes every fourth window: a quarter of the ops.
//   correct = every window re-reaches legitimacy with heads equal to the
//             core::cluster_density oracle of the live graph; every
//             kGraphCheckEvery-th window the live graph equals a fresh
//             unit_disk_graph of the same positions
//   setup   = generation, index + graph build, protocol and
//             engine construction, cold start to quiescence and a
//             legitimacy check
//
// Only the traced script exists (perfbench/README.md says why window
// latency is not an end-to-end metric here): 2 × kTraceWindows windows,
// blocks of one rebuild period alternately untraced and traced.
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "common.hpp"
#include "core/clustering.hpp"
#include "core/legitimacy.hpp"
#include "core/protocol.hpp"
#include "mobility/mobility.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/incremental.hpp"
#include "topology/udg.hpp"
#include "workloads.hpp"

namespace ssmwn::perfbench {

namespace {

constexpr double kLambda = 1000.0;
constexpr double kMeanDegree = 8.0;
// The paper's physical density, 1000 nodes per km²: with mean degree 8
// the radio range is ≈ 50 m at any n.
const double kWorldM = 1000.0 * std::sqrt(kLambda / 1000.0);
constexpr double kWindowS = 2.0;
constexpr double kSpeedMaxMps = 1.6;
// Candidate skin, fixed (no adaptive growth). The safety margin is
// radius·skin/2 ≈ 11.2 m: three windows of the fastest walker (9.6 m)
// stay inside it, the fourth (12.8 m) leaves it, so every fourth window
// rebuilds.
constexpr double kSkin = 0.444;
constexpr std::size_t kQuiescenceCap = 200;
constexpr std::size_t kGraphCheckEvery = 8;
constexpr std::size_t kRebuildPeriod = 4;
// Traced script: 2 × kTraceWindows windows, half of them traced.
constexpr std::size_t kTraceWindows = 200;

using Engine = sim::ShardedNetwork<core::DensityProtocol>;

double radius() { return std::sqrt(kMeanDegree / (M_PI * kLambda)); }

/// Members in dependency order: the engine references the live graph,
/// the protocol and the loss model.
struct Instance {
  std::vector<topology::Point> points;
  topology::IdAssignment ids;
  std::unique_ptr<mobility::RandomDirection> mover;
  std::unique_ptr<topology::LiveTopology> live;
  std::unique_ptr<core::DensityProtocol> protocol;
  sim::PerfectDelivery loss;
  std::unique_ptr<Engine> engine;
  std::size_t cold_start_steps = 0;
};

/// Steps until a step runs no node; returns the steps taken, including
/// the final empty one.
std::size_t step_to_quiescence(Engine& engine) {
  for (std::size_t steps = 1; steps <= kQuiescenceCap; ++steps) {
    engine.step();
    if (engine.activity().last_nodes_stepped() == 0) return steps;
  }
  throw std::runtime_error("no quiescence within the step cap");
}

/// Legitimacy against the exact oracle of the live graph: every node
/// committed, heads independent and equal to the oracle's, and heads
/// unchanged across two checks (the engine is quiescent, so two
/// back-to-back checks observe the same state).
bool legitimate(const Instance& inst) {
  const graph::Graph& g = inst.live->graph();
  const auto oracle =
      core::cluster_density(g, inst.ids, core::ClusterOptions::basic());
  core::LegitimacyCheck check(g, *inst.protocol, &oracle);
  (void)check.check();
  return check.check();
}

std::unique_ptr<Instance> set_up(std::uint64_t seed, Tracer& tracer) {
  auto inst = std::make_unique<Instance>();
  util::Rng rng(seed);
  {
    auto span = tracer.span("topology.generate");
    inst->points = topology::poisson_points(kLambda, rng);
  }
  inst->ids = topology::random_ids(inst->points.size(), rng);
  inst->mover = std::make_unique<mobility::RandomDirection>(
      inst->points.size(), mobility::SpeedRange{0.0, kSpeedMaxMps}, kWorldM,
      rng.split());
  {
    auto span = tracer.span("topology.live_init");
    topology::IncrementalUdg::Config config;
    config.skin_fraction = kSkin;
    config.max_skin_fraction = kSkin;
    inst->live = std::make_unique<topology::LiveTopology>(
        inst->points, radius(), std::span<const char>{}, config);
  }
  {
    auto span = tracer.span("core.protocol_init");
    core::ProtocolConfig config;
    config.cluster = core::ClusterOptions::basic();
    config.delta_hint =
        std::max<std::uint64_t>(2, inst->live->graph().max_degree());
    inst->protocol = std::make_unique<core::DensityProtocol>(inst->ids, config,
                                                             rng.split());
    const std::size_t n = inst->points.size();
    inst->engine = std::make_unique<Engine>(
        inst->live->graph(), *inst->protocol, inst->loss,
        std::vector<std::size_t>{0, n}, 1);
    inst->engine->set_stepping(sim::Stepping::kDirty);
  }
  {
    auto span = tracer.span("sim.cold_start");
    inst->cold_start_steps = step_to_quiescence(*inst->engine);
  }
  if (!legitimate(*inst)) {
    throw std::runtime_error("cold start ended illegitimate");
  }
  return inst;
}

struct WindowLog {
  std::vector<Op> ops;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t delta_edges = 0;
  std::uint64_t steps = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t stepped = 0;
  std::uint64_t skipped = 0;
};

void run_window(Instance& inst, Tracer& tracer, std::int64_t op,
                WindowLog& log) {
  Engine& engine = *inst.engine;
  const std::uint64_t rebuilds0 = inst.live->index().rebuilds();
  const std::uint64_t msgs0 = engine.messages_delivered();
  const std::uint64_t stepped0 = engine.activity().nodes_stepped();
  const std::uint64_t skipped0 = engine.activity().nodes_skipped();
  std::size_t steps = 0;
  std::size_t delta_edges = 0;
  const auto t0 = Clock::now();
  {
    auto window = tracer.span("window", op);
    {
      auto span = tracer.span("mobility.step");
      inst.mover->step(inst.points, kWindowS);
    }
    const graph::EdgeDelta* delta = nullptr;
    {
      auto span = tracer.span("topology.update");
      delta = &inst.live->update(inst.points);
    }
    delta_edges = delta->added.size() + delta->removed.size();
    {
      auto span = tracer.span("sim.apply_delta");
      engine.apply_topology_delta(*delta);
    }
    auto span = tracer.span("sim.dirty_steps");
    steps = step_to_quiescence(engine);
  }
  const double ms = ms_between(t0, Clock::now());
  const bool rebuilt = inst.live->index().rebuilds() != rebuilds0;
  log.ops.push_back({ms, rebuilt ? 1 : 0});
  log.rebuilds += rebuilt ? 1 : 0;
  log.delta_edges += delta_edges;
  log.steps += steps;
  log.deliveries += engine.messages_delivered() - msgs0;
  log.stepped += engine.activity().nodes_stepped() - stepped0;
  log.skipped += engine.activity().nodes_skipped() - skipped0;

  bool ok = legitimate(inst);
  if (log.attempted % kGraphCheckEvery == 0) {
    const graph::Graph reference =
        topology::unit_disk_graph(inst.points, radius());
    ok = ok && inst.live->graph().edges() == reference.edges();
  }
  ++log.attempted;
  if (!ok) ++log.failed;
}

}  // namespace

Result run_mobile(const Options& options) {
  Tracer tracer(options.trace);
  Tracer off(false);
  Result result;
  std::unique_ptr<Instance> inst;
  inst = set_up(options.seed, tracer);
  std::printf("mobile-1k: n=%zu, %zu edges, cold start %zu steps\n",
              inst->points.size(), inst->live->graph().edge_count(),
              inst->cold_start_steps);

  WindowLog log;
  // Blocks of one rebuild period alternate untraced and traced, so both
  // halves hold the same regime mix and share the host's state.
  WindowLog untraced;
  for (std::size_t w = 0; w < 2 * kTraceWindows; ++w) {
    if ((w / kRebuildPeriod) % 2 == 1) {
      run_window(*inst, tracer, static_cast<std::int64_t>(w), log);
    } else {
      run_window(*inst, off, -1, untraced);
    }
  }
  std::vector<double> traced_ms, untraced_ms;
  for (const Op& op : log.ops) traced_ms.push_back(op.ms);
  for (const Op& op : untraced.ops) untraced_ms.push_back(op.ms);
  const double windows = static_cast<double>(kTraceWindows);
  const bool census_ok = regime_census("mobile-1k", log.ops, {"scan", "rebuild"});
  result.correct = census_ok && log.failed == 0 && untraced.failed == 0;
  result.attempted = log.attempted + untraced.attempted;
  result.failed = log.failed + untraced.failed;
  result.add("mobility.step_ms", mean(tracer.durations_ms("mobility.step")), "ms");
  result.add("topology.update_ms", mean(tracer.durations_ms("topology.update")),
             "ms");
  result.add("topology.delta_edges_per_window",
             static_cast<double>(log.delta_edges) / windows, "count");
  result.add("sim.apply_delta_ms", mean(tracer.durations_ms("sim.apply_delta")),
             "ms");
  result.add("sim.dirty_steps_ms", mean(tracer.durations_ms("sim.dirty_steps")),
             "ms");
  result.add("topology.rebuild_share", static_cast<double>(log.rebuilds) / windows,
             "ratio");
  result.add("sim.steps_to_quiescence", static_cast<double>(log.steps) / windows,
             "count");
  result.add("sim.stepped_share",
             static_cast<double>(log.stepped) /
                 static_cast<double>(std::max<std::uint64_t>(1, log.stepped + log.skipped)),
             "ratio");
  result.add("sim.deliveries_per_window",
             static_cast<double>(log.deliveries) / windows, "count");
  result.add("trace.overhead_pct.mobile-1k",
             100.0 * (median(traced_ms) / median(untraced_ms) - 1.0), "%");
  tracer.write(options.trace_out);
  return result;
}

}  // namespace ssmwn::perfbench
