// Differential equivalence harness for dirty-region stepping: the
// quiescence-aware stepper must be *bit-identical* to the full stepper
// (on the event-driven engine, to one that sweeps every activation)
// — every shared variable, every cache entry (ages and relayed digests
// included), every per-node RNG — from identical seeds, per tick, on
// both engines, under all three daemons, under mobility (pedestrian and
// vehicular), churn windows, mid-run fault injection, and at 1 vs N
// threads. Any divergence reports the first divergent tick + node plus
// a replayable key=value spec, so a failure here is a repro, not a
// shrug.
//
// Trial counts scale with SSMWN_DIRTY_TRIALS (CI tier-1 runs the
// default; the nightly soak sets it higher via SSMWN_SOAK=1 in the
// workflow).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "graph/graph.hpp"
#include "mobility/mobility.hpp"
#include "sim/async_network.hpp"
#include "sim/churn.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "support/deployments.hpp"
#include "support/full_sweep_protocol.hpp"
#include "topology/incremental.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

static_assert(sim::QuiescentProtocol<core::DensityProtocol>,
              "DensityProtocol must implement the quiescence extension");

int trials() { return util::env_int("SSMWN_DIRTY_TRIALS", 3); }

core::DensityProtocol make_protocol(const testsupport::World& w,
                                    std::uint64_t seed) {
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;  // exercises the randomized N1 rule
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, w.graph.max_degree());
  return core::DensityProtocol(w.ids, config, util::Rng(seed));
}

/// The replayable spec a divergence report carries: everything needed
/// to reconstruct the failing trial verbatim in a standalone driver.
std::string spec_string(const char* scenario, std::size_t n, double radius,
                        std::uint64_t world_seed, std::uint64_t proto_seed,
                        const char* extra = "") {
  std::ostringstream out;
  out << "scenario=" << scenario << " n=" << n << " radius=" << radius
      << " world_seed=" << world_seed << " proto_seed=" << proto_seed;
  if (*extra != '\0') out << ' ' << extra;
  return out.str();
}

/// One lockstep identity check. ASSERT-fatal so the first divergent
/// tick ends the trial with the full field-by-field dump.
::testing::AssertionResult populations_identical(
    const core::DensityProtocol& full, const core::DensityProtocol& dirty,
    std::size_t tick, const std::string& spec) {
  const auto div = core::first_divergent_node(full, dirty);
  if (!div) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "first divergence at tick " << tick << ", node " << *div << "\n"
         << core::describe_divergence(full, dirty, *div) << "replay: " << spec
         << " tick=" << tick << " node=" << *div;
}

TEST(DirtyEquivalence, SyncStaticTopologyLockstep) {
  for (int t = 0; t < trials(); ++t) {
    const std::uint64_t world_seed = 100 + 17 * static_cast<std::uint64_t>(t);
    const std::uint64_t proto_seed = 7 + static_cast<std::uint64_t>(t);
    const auto w = testsupport::make_deployment(120, 0.12, world_seed);
    auto full = make_protocol(w, proto_seed);
    auto dirty = make_protocol(w, proto_seed);
    sim::PerfectDelivery loss_a, loss_b;
    sim::Network net_full(w.graph, full, loss_a, 1);
    sim::Network net_dirty(w.graph, dirty, loss_b, 1);
    net_dirty.set_stepping(sim::Stepping::kDirty);

    const std::string spec =
        spec_string("sync-static", 120, 0.12, world_seed, proto_seed);
    for (std::size_t s = 0; s < 40; ++s) {
      net_full.step();
      net_dirty.step();
      ASSERT_TRUE(populations_identical(full, dirty, s, spec));
    }
    // The trial must actually exercise skipping, or it proves nothing.
    EXPECT_GT(net_dirty.activity().nodes_skipped(), 0u) << spec;
    EXPECT_EQ(net_full.activity().nodes_skipped(), 0u);
  }
}

TEST(DirtyEquivalence, SyncFaultInjectionWakesLockstep) {
  // corrupt_fraction / reset_node / mutable_state are the external
  // mutations the take_external_wakes drain exists for: under full
  // stepping the neighbors hear the mutated frame that same step, so
  // the dirty stepper's wake must not lag by one.
  const auto w = testsupport::make_deployment(100, 0.13, 42);
  auto full = make_protocol(w, 11);
  auto dirty = make_protocol(w, 11);
  sim::PerfectDelivery loss_a, loss_b;
  sim::Network net_full(w.graph, full, loss_a, 1);
  sim::Network net_dirty(w.graph, dirty, loss_b, 1);
  net_dirty.set_stepping(sim::Stepping::kDirty);
  const std::string spec = spec_string("sync-faults", 100, 0.13, 42, 11);

  // Converge (dirty side goes quiescent), then hit both populations
  // with the same chaos stream and watch the recovery in lockstep.
  std::size_t tick = 0;
  for (; tick < 30; ++tick) {
    net_full.step();
    net_dirty.step();
    ASSERT_TRUE(populations_identical(full, dirty, tick, spec));
  }
  util::Rng chaos_a(99), chaos_b(99);
  ASSERT_EQ(full.corrupt_fraction(chaos_a, 0.2),
            dirty.corrupt_fraction(chaos_b, 0.2));
  full.reset_node(3);
  dirty.reset_node(3);
  {
    auto sa = full.mutable_state(7);
    auto sb = dirty.mutable_state(7);
    sa.head_valid = 0;
    sb.head_valid = 0;
  }
  for (std::size_t s = 0; s < 30; ++s, ++tick) {
    net_full.step();
    net_dirty.step();
    ASSERT_TRUE(populations_identical(full, dirty, tick, spec));
  }
}

struct MobilityCase {
  const char* name;
  double max_speed_mps;  // pedestrian 1.6, vehicular 10
  double churn_down;     // 0 = no churn
};

void run_mobility_trial(const MobilityCase& mc, std::uint64_t world_seed,
                        std::uint64_t proto_seed, unsigned dirty_threads) {
  const std::size_t n = 90;
  const double radius = 0.14;
  auto w = testsupport::make_deployment(n, radius, world_seed);
  auto full = make_protocol(w, proto_seed);
  auto dirty = make_protocol(w, proto_seed);

  // One shared point/churn stream; each side owns its topology index so
  // the graphs evolve independently but identically.
  mobility::RandomDirection mover(n, {0.0, mc.max_speed_mps}, 1.0,
                                  util::Rng(world_seed ^ 0xF00D));
  std::optional<sim::NodeChurn> churn;
  if (mc.churn_down > 0.0) {
    churn.emplace(n, mc.churn_down, 0.3, util::Rng(world_seed ^ 0xC0));
  }
  const auto alive = [&]() -> std::span<const char> {
    if (!churn) return {};
    return {churn->alive().data(), churn->alive().size()};
  };
  topology::LiveTopology live_full(w.points, radius, alive());
  topology::LiveTopology live_dirty(w.points, radius, alive());

  sim::PerfectDelivery loss_a, loss_b;
  sim::Network net_full(live_full.graph(), full, loss_a, 1);
  sim::Network net_dirty(live_dirty.graph(), dirty, loss_b, dirty_threads);
  net_dirty.set_stepping(sim::Stepping::kDirty);

  std::ostringstream extra;
  extra << "mobility=" << mc.name << " churn=" << mc.churn_down
        << " threads=" << dirty_threads;
  const std::string spec = spec_string("sync-mobility", n, radius, world_seed,
                                       proto_seed, extra.str().c_str());

  std::size_t tick = 0;
  for (std::size_t window = 0; window < 8; ++window) {
    mover.step(w.points, 0.05);
    if (churn) churn->step();
    net_full.apply_topology_delta(live_full.update(w.points, alive()));
    net_dirty.apply_topology_delta(live_dirty.update(w.points, alive()));
    // The DynamicGraph dirty set is the documented seeding entry point;
    // redundant with the delta wake (same closed neighborhoods) but the
    // harness exercises both paths together.
    net_dirty.mark_dirty(live_dirty.dirty_nodes());
    for (std::size_t s = 0; s < 6; ++s, ++tick) {
      net_full.step();
      net_dirty.step();
      ASSERT_TRUE(populations_identical(full, dirty, tick, spec));
    }
  }
}

TEST(DirtyEquivalence, SyncPedestrianMobilityLockstep) {
  for (int t = 0; t < trials(); ++t) {
    run_mobility_trial({"pedestrian", 1.6, 0.0},
                       200 + static_cast<std::uint64_t>(t), 5, 1);
    if (HasFatalFailure()) return;
  }
}

TEST(DirtyEquivalence, SyncVehicularMobilityLockstep) {
  for (int t = 0; t < trials(); ++t) {
    run_mobility_trial({"vehicular", 10.0, 0.0},
                       300 + static_cast<std::uint64_t>(t), 6, 1);
    if (HasFatalFailure()) return;
  }
}

TEST(DirtyEquivalence, SyncChurnWindowsLockstep) {
  for (int t = 0; t < trials(); ++t) {
    run_mobility_trial({"pedestrian", 1.6, 0.15},
                       400 + static_cast<std::uint64_t>(t), 8, 1);
    if (HasFatalFailure()) return;
  }
}

TEST(DirtyEquivalence, SyncDirtyIsThreadCountInvariant) {
  // Full-vs-dirty at 4 workers, under vehicular mobility — subset
  // steps, in-place remote row reads and cross-shard wakes must keep
  // the thread-invariance guarantee of the arena engine.
  run_mobility_trial({"vehicular", 10.0, 0.1}, 500, 9, 4);
}

TEST(DirtyEquivalence, SyncRejectsLossyMedium) {
  const auto w = testsupport::make_deployment(30, 0.2, 1);
  auto p = make_protocol(w, 1);
  sim::BernoulliDelivery loss(0.7, util::Rng(2));
  sim::Network net(w.graph, p, loss, 1);
  EXPECT_THROW(net.set_stepping(sim::Stepping::kDirty), std::invalid_argument);
  // Full stepping stays available, and a loss-free medium is accepted.
  net.set_stepping(sim::Stepping::kFull);
  sim::PerfectDelivery perfect;
  sim::Network ok(w.graph, p, perfect, 1);
  EXPECT_NO_THROW(ok.set_stepping(sim::Stepping::kDirty));
}

// --- event-driven engine ----------------------------------------------
//
// Both stepping modes let the protocol skip a sweep it proves a no-op,
// so each is diffed against an engine that sweeps on every activation:
// AsyncNetwork over testsupport::FullSweepProtocol, which hides the
// quiescence extension from the engine.

struct AsyncCase {
  const char* name;
  sim::DaemonKind daemon;
  double tau;  // delivery probability; 1 = perfect
};

/// The event schedule itself must be untouched by the skip: the same
/// trace byte for byte, the same message counters.
template <typename Oracle, typename Lane>
::testing::AssertionResult schedules_identical(
    const sim::AsyncNetwork<Oracle>& oracle,
    const std::vector<sim::Event>& oracle_trace,
    const sim::AsyncNetwork<Lane>& lane, const std::vector<sim::Event>& trace,
    std::size_t chunk, const std::string& spec) {
  if (trace != oracle_trace) {
    return ::testing::AssertionFailure()
           << "event traces diverged within chunk " << chunk << "; " << spec;
  }
  if (lane.messages_delivered() != oracle.messages_delivered() ||
      lane.messages_lost() != oracle.messages_lost() ||
      lane.messages_expired() != oracle.messages_expired()) {
    return ::testing::AssertionFailure()
           << "message counters diverged within chunk " << chunk << "; "
           << spec;
  }
  return ::testing::AssertionSuccess();
}

void run_async_trial(const AsyncCase& ac, std::uint64_t world_seed,
                     std::uint64_t proto_seed) {
  const std::size_t n = 80;
  const double radius = 0.15;
  const auto w = testsupport::make_deployment(n, radius, world_seed);
  auto oracle = make_protocol(w, proto_seed);
  auto full = make_protocol(w, proto_seed);
  auto dirty = make_protocol(w, proto_seed);
  for (core::DensityProtocol* p : {&oracle, &full, &dirty}) {
    util::Rng chaos(world_seed ^ 0xBAD);
    p->corrupt_all(chaos);
  }
  const auto loss_o = sim::make_loss_model(ac.tau, util::Rng(world_seed ^ 5));
  const auto loss_f = sim::make_loss_model(ac.tau, util::Rng(world_seed ^ 5));
  const auto loss_d = sim::make_loss_model(ac.tau, util::Rng(world_seed ^ 5));

  sim::AsyncConfig config;
  config.daemon = ac.daemon;
  testsupport::FullSweepProtocol sweeping(oracle);
  sim::AsyncNetwork net_oracle(w.graph, sweeping, *loss_o, config,
                               util::Rng(world_seed ^ 0xE));
  sim::AsyncNetwork net_full(w.graph, full, *loss_f, config,
                             util::Rng(world_seed ^ 0xE));
  sim::AsyncNetwork net_dirty(w.graph, dirty, *loss_d, config,
                              util::Rng(world_seed ^ 0xE));
  net_dirty.set_stepping(sim::Stepping::kDirty);

  std::vector<sim::Event> trace_oracle, trace_full, trace_dirty;
  net_oracle.set_event_log(&trace_oracle);
  net_full.set_event_log(&trace_full);
  net_dirty.set_event_log(&trace_dirty);

  std::ostringstream extra;
  extra << "engine=async daemon=" << ac.name << " tau=" << ac.tau;
  const std::string spec = spec_string("async", n, radius, world_seed,
                                       proto_seed, extra.str().c_str());

  for (std::size_t chunk = 0; chunk < 25; ++chunk) {
    net_oracle.run_for(1.0);
    net_full.run_for(1.0);
    net_dirty.run_for(1.0);
    ASSERT_TRUE(populations_identical(oracle, full, chunk, spec + " full"));
    ASSERT_TRUE(populations_identical(oracle, dirty, chunk, spec + " dirty"));
    ASSERT_TRUE(schedules_identical(net_oracle, trace_oracle, net_full,
                                    trace_full, chunk, spec + " full"));
    ASSERT_TRUE(schedules_identical(net_oracle, trace_oracle, net_dirty,
                                    trace_dirty, chunk, spec + " dirty"));
  }
  // kFull counts every activation as swept, as the oracle does; past
  // convergence the dirty count must show skipped sweeps.
  EXPECT_EQ(net_full.activity().nodes_stepped(),
            net_oracle.activity().nodes_stepped());
  EXPECT_EQ(net_full.activity().nodes_skipped(), 0u);
  EXPECT_GT(net_dirty.activity().nodes_skipped(), 0u) << spec;
}

TEST(DirtyEquivalence, AsyncSynchronousDaemonLockstep) {
  run_async_trial({"synchronous", sim::DaemonKind::kSynchronous, 1.0}, 600, 3);
}

TEST(DirtyEquivalence, AsyncRandomizedDaemonLockstep) {
  run_async_trial({"randomized", sim::DaemonKind::kRandomized, 1.0}, 601, 3);
}

TEST(DirtyEquivalence, AsyncUnfairDaemonLockstep) {
  run_async_trial({"unfair", sim::DaemonKind::kUnfairRoundRobin, 1.0}, 602, 3);
}

TEST(DirtyEquivalence, AsyncLossyMediumLockstep) {
  // Unlike the synchronous stepper, the async skip never touches the
  // event or RNG schedule, so it composes with a lossy medium.
  run_async_trial({"randomized", sim::DaemonKind::kRandomized, 0.7}, 603, 4);
}

TEST(DirtyEquivalence, AsyncMobilityLockstep) {
  const std::size_t n = 70;
  const double radius = 0.16;
  auto w = testsupport::make_deployment(n, radius, 700);
  auto oracle = make_protocol(w, 13);
  auto full = make_protocol(w, 13);
  auto dirty = make_protocol(w, 13);

  mobility::RandomDirection mover(n, {0.0, 1.6}, 1.0, util::Rng(701));
  topology::LiveTopology live_oracle(w.points, radius);
  topology::LiveTopology live_full(w.points, radius);
  topology::LiveTopology live_dirty(w.points, radius);

  sim::PerfectDelivery loss_o, loss_f, loss_d;
  sim::AsyncConfig config;
  config.daemon = sim::DaemonKind::kRandomized;
  testsupport::FullSweepProtocol sweeping(oracle);
  sim::AsyncNetwork net_oracle(live_oracle.graph(), sweeping, loss_o, config,
                               util::Rng(702));
  sim::AsyncNetwork net_full(live_full.graph(), full, loss_f, config,
                             util::Rng(702));
  sim::AsyncNetwork net_dirty(live_dirty.graph(), dirty, loss_d, config,
                              util::Rng(702));
  net_dirty.set_stepping(sim::Stepping::kDirty);
  std::vector<sim::Event> trace_oracle, trace_full, trace_dirty;
  net_oracle.set_event_log(&trace_oracle);
  net_full.set_event_log(&trace_full);
  net_dirty.set_event_log(&trace_dirty);
  const std::string spec =
      spec_string("async-mobility", n, radius, 700, 13, "daemon=randomized");

  // Same points, independent topology indexes; every engine sees the
  // perturbation as an event at "now".
  const auto perturb = [&w](auto& net, topology::LiveTopology& live) {
    net.schedule_topology_update(
        net.now(), [&w, &live]() -> const graph::EdgeDelta& {
          return live.update(w.points);
        });
  };
  for (std::size_t window = 0; window < 10; ++window) {
    mover.step(w.points, 0.2);
    perturb(net_oracle, live_oracle);
    perturb(net_full, live_full);
    perturb(net_dirty, live_dirty);
    net_oracle.run_for(2.0);
    net_full.run_for(2.0);
    net_dirty.run_for(2.0);
    ASSERT_TRUE(populations_identical(oracle, full, window, spec + " full"));
    ASSERT_TRUE(populations_identical(oracle, dirty, window, spec + " dirty"));
    ASSERT_TRUE(schedules_identical(net_oracle, trace_oracle, net_full,
                                    trace_full, window, spec + " full"));
    ASSERT_TRUE(schedules_identical(net_oracle, trace_oracle, net_dirty,
                                    trace_dirty, window, spec + " dirty"));
  }
}

TEST(DirtyEquivalence, ModeSwitchMidRunKeepsTrajectory) {
  // Entering and leaving dirty mode mid-run must leave the trajectory
  // untouched: the mode picks counter definitions, not code paths.
  const auto w = testsupport::make_deployment(80, 0.14, 800);
  auto a = make_protocol(w, 21);
  auto b = make_protocol(w, 21);
  sim::PerfectDelivery loss_a, loss_b;
  sim::Network net_a(w.graph, a, loss_a, 1);
  sim::Network net_b(w.graph, b, loss_b, 1);
  const std::string spec = spec_string("sync-mode-switch", 80, 0.14, 800, 21);

  std::size_t tick = 0;
  auto lockstep = [&](std::size_t steps) {
    for (std::size_t s = 0; s < steps; ++s, ++tick) {
      net_a.step();
      net_b.step();
      ASSERT_TRUE(populations_identical(a, b, tick, spec));
    }
  };
  lockstep(10);
  net_b.set_stepping(sim::Stepping::kDirty);
  lockstep(15);
  net_b.set_stepping(sim::Stepping::kFull);
  lockstep(10);
  net_b.set_stepping(sim::Stepping::kDirty);
  lockstep(15);
}

}  // namespace
}  // namespace ssmwn
