// Differential equivalence harness for the sharded step engine:
// sim::ShardedNetwork must be *bit-identical* to the owning-frame
// reference stepper (tests/support/reference_stepper.hpp) — every
// shared variable, every cache entry, every per-node RNG — per tick,
// at every tested shard count {1, 2, 7, 16} × thread count, in full
// and dirty stepping, under lossy media, mobility deltas, and mid-run
// fault injection. Same reporting discipline as the dirty-stepping
// harness: any divergence names the first divergent tick + node plus a
// replayable spec.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "graph/dynamic.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "mobility/mobility.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "sim/sharded_network.hpp"
#include "support/deployments.hpp"
#include "support/reference_stepper.hpp"
#include "topology/incremental.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

constexpr std::size_t kShardCounts[] = {1, 2, 7, 16};

/// `shards` equal contiguous chunks of [0, n) (clamped like the plan).
std::vector<std::size_t> contiguous(std::size_t n, std::size_t shards) {
  return graph::plan_contiguous_shards(n, shards).bounds;
}

core::DensityProtocol make_protocol(const testsupport::World& w,
                                    std::uint64_t seed) {
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;  // exercises the randomized N1 rule
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, w.graph.max_degree());
  return core::DensityProtocol(w.ids, config, util::Rng(seed));
}

std::string spec_string(const char* scenario, std::size_t n, double radius,
                        std::uint64_t world_seed, std::uint64_t proto_seed,
                        std::size_t shards, unsigned threads,
                        const char* extra = "") {
  std::ostringstream out;
  out << "scenario=" << scenario << " n=" << n << " radius=" << radius
      << " world_seed=" << world_seed << " proto_seed=" << proto_seed
      << " shards=" << shards << " threads=" << threads;
  if (*extra != '\0') out << ' ' << extra;
  return out.str();
}

::testing::AssertionResult populations_identical(
    const core::DensityProtocol& reference, const core::DensityProtocol& sharded,
    std::size_t tick, const std::string& spec) {
  const auto div = core::first_divergent_node(reference, sharded);
  if (!div) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "first divergence at tick " << tick << ", node " << *div << "\n"
         << core::describe_divergence(reference, sharded, *div)
         << "replay: " << spec << " tick=" << tick << " node=" << *div;
}

TEST(ShardedEquivalence, FullSteppingLockstepAcrossShardAndThreadCounts) {
  const std::size_t n = 140;
  const double radius = 0.11;
  const auto w = testsupport::make_deployment(n, radius, 900);
  for (const std::size_t shards : kShardCounts) {
    for (const unsigned threads : {1u, 4u}) {
      auto reference = make_protocol(w, 17);
      auto candidate = make_protocol(w, 17);
      sim::PerfectDelivery loss_a, loss_b;
      testsupport::ReferenceStepper net_ref(w.graph, reference, loss_a);
      sim::ShardedNetwork net_shard(w.graph, candidate, loss_b,
                                    contiguous(n, shards), threads);
      const std::string spec = spec_string("sharded-full", n, radius, 900, 17,
                                           shards, threads);
      for (std::size_t s = 0; s < 30; ++s) {
        net_ref.step();
        net_shard.step();
        ASSERT_TRUE(populations_identical(reference, candidate, s, spec));
      }
      EXPECT_EQ(net_ref.messages_delivered(), net_shard.messages_delivered())
          << spec;
      EXPECT_EQ(net_shard.steps_run(), 30u);
    }
  }
}

TEST(ShardedEquivalence, ReceiversRefreshedIsShardAndThreadInvariant) {
  // The per-receiver redelivery count is a deterministic work counter:
  // one shard inline, five shards inline and five shards on four
  // threads must refresh the same receivers every step, through a
  // settled regime and the fault recovery that interrupts it.
  const std::size_t n = 140;
  const double radius = 0.11;
  const auto w = testsupport::make_deployment(n, radius, 903);
  auto one = make_protocol(w, 19);
  auto five = make_protocol(w, 19);
  auto threaded = make_protocol(w, 19);
  sim::PerfectDelivery loss_a, loss_b, loss_c;
  sim::ShardedNetwork net_one(w.graph, one, loss_a, contiguous(n, 1), 1);
  sim::ShardedNetwork net_five(w.graph, five, loss_b, contiguous(n, 5), 1);
  sim::ShardedNetwork net_threaded(w.graph, threaded, loss_c,
                                   contiguous(n, 5), 4);
  const std::string spec =
      spec_string("sharded-refreshed", n, radius, 903, 19, 5, 4);
  for (std::size_t s = 0; s < 50; ++s) {
    if (s == 30) {
      util::Rng fa(23), fb(23), fc(23);
      one.corrupt_fraction(fa, 0.2);
      five.corrupt_fraction(fb, 0.2);
      threaded.corrupt_fraction(fc, 0.2);
    }
    net_one.step();
    net_five.step();
    net_threaded.step();
    ASSERT_TRUE(populations_identical(one, five, s, spec));
    ASSERT_TRUE(populations_identical(one, threaded, s, spec));
    ASSERT_EQ(net_one.receivers_refreshed(), net_five.receivers_refreshed())
        << spec << " tick=" << s;
    ASSERT_EQ(net_one.receivers_refreshed(),
              net_threaded.receivers_refreshed())
        << spec << " tick=" << s;
  }
  EXPECT_GT(net_one.receivers_refreshed(), 0u) << spec;
  EXPECT_LT(net_one.receivers_refreshed(), 50 * n) << spec;
}

TEST(ShardedEquivalence, FullModeInPlaceRebuildLockstep) {
  // The campaign runner's rebuild mode mutates ONE Graph object in
  // place and re-announces it via set_graph. The sharded engine caches
  // boundary-sender lists keyed to the adjacency, so a swallowed
  // re-announcement serves stale cross-shard frames — this trial pins
  // the set_graph → rebuild_boundaries path in full stepping.
  const std::size_t n = 120;
  const double radius = 0.12;
  for (const std::size_t shards : {std::size_t{2}, std::size_t{7}}) {
    auto w = testsupport::make_deployment(n, radius, 905);
    auto reference = make_protocol(w, 31);
    auto candidate = make_protocol(w, 31);
    mobility::RandomDirection mover(n, {0.0, 1.6}, 1.0,
                                    util::Rng(905 ^ 0xF00D));
    graph::DynamicGraph holder;
    holder.reset(topology::unit_disk_graph(w.points, radius));
    sim::PerfectDelivery loss_a, loss_b;
    testsupport::ReferenceStepper net_ref(holder.view(), reference, loss_a);
    sim::ShardedNetwork net_shard(holder.view(), candidate, loss_b,
                                  contiguous(n, shards), 2);
    const std::string spec =
        spec_string("sharded-rebuild", n, radius, 905, 31, shards, 2);
    std::size_t tick = 0;
    for (std::size_t window = 0; window < 6; ++window) {
      mover.step(w.points, 0.05);
      holder.reset(topology::unit_disk_graph(w.points, radius));
      net_ref.set_graph(holder.view());
      net_shard.set_graph(holder.view());
      for (std::size_t s = 0; s < 5; ++s, ++tick) {
        net_ref.step();
        net_shard.step();
        ASSERT_TRUE(populations_identical(reference, candidate, tick, spec));
      }
    }
    EXPECT_EQ(net_ref.messages_delivered(), net_shard.messages_delivered())
        << spec;
  }
}

TEST(ShardedEquivalence, SpatialPlanPermutedWorldLockstep) {
  // The intended million-node configuration: renumber the world
  // cell-major via plan_spatial_shards, run both engines on the
  // permuted world. Protocol ids travel with the nodes, so the
  // clustering outcome is the original one under relabeling — here we
  // assert the stronger per-tick identity between the two engines.
  const std::size_t n = 160;
  const double radius = 0.1;
  const auto w = testsupport::make_deployment(n, radius, 901);
  const auto plan = graph::plan_spatial_shards(w.points, radius, 7);
  ASSERT_TRUE(plan.valid());
  const graph::Graph permuted_graph = graph::permute_graph(w.graph, plan);
  testsupport::World pw;
  pw.points = graph::permuted(plan, w.points);
  pw.graph = permuted_graph;
  pw.ids = graph::permuted(plan, w.ids);

  auto reference = make_protocol(pw, 23);
  auto candidate = make_protocol(pw, 23);
  sim::PerfectDelivery loss_a, loss_b;
  testsupport::ReferenceStepper net_ref(pw.graph, reference, loss_a);
  sim::ShardedNetwork net_shard(pw.graph, candidate, loss_b, plan.bounds, 4);
  const std::string spec =
      spec_string("sharded-spatial", n, radius, 901, 23, plan.shard_count(), 4);
  for (std::size_t s = 0; s < 30; ++s) {
    net_ref.step();
    net_shard.step();
    ASSERT_TRUE(populations_identical(reference, candidate, s, spec));
  }
}

TEST(ShardedEquivalence, LossyMediumDrawsIdenticalRngSequence) {
  // The serial sender-major loss pass must poll the exact same per-edge
  // sequence regardless of sharding — a Bernoulli medium from the same
  // seed is the detector.
  const std::size_t n = 120;
  const double radius = 0.12;
  const auto w = testsupport::make_deployment(n, radius, 902);
  for (const std::size_t shards : {2ul, 7ul}) {
    auto reference = make_protocol(w, 31);
    auto candidate = make_protocol(w, 31);
    sim::BernoulliDelivery loss_a(0.7, util::Rng(13));
    sim::BernoulliDelivery loss_b(0.7, util::Rng(13));
    testsupport::ReferenceStepper net_ref(w.graph, reference, loss_a);
    sim::ShardedNetwork net_shard(w.graph, candidate, loss_b,
                                  contiguous(n, shards), 2);
    const std::string spec =
        spec_string("sharded-lossy", n, radius, 902, 31, shards, 2);
    for (std::size_t s = 0; s < 25; ++s) {
      net_ref.step();
      net_shard.step();
      ASSERT_TRUE(populations_identical(reference, candidate, s, spec));
    }
    EXPECT_EQ(net_ref.messages_delivered(), net_shard.messages_delivered())
        << spec;
  }
}

void run_mobility_trial(std::size_t shards, unsigned threads,
                        std::uint64_t world_seed, std::uint64_t proto_seed) {
  // Three populations in lockstep: the reference stepper (ground
  // truth), one-shard dirty, many-shard dirty. The sharded run must
  // match the ground truth bit for bit *and* reproduce the one-shard
  // dirty run's aggregate activity counters — same active sets, just
  // carved across shards.
  const std::size_t n = 110;
  const double radius = 0.13;
  auto w = testsupport::make_deployment(n, radius, world_seed);
  auto full = make_protocol(w, proto_seed);
  auto dirty = make_protocol(w, proto_seed);
  auto sharded = make_protocol(w, proto_seed);

  mobility::RandomDirection mover(n, {0.0, 1.6}, 1.0,
                                  util::Rng(world_seed ^ 0xF00D));
  topology::LiveTopology live_full(w.points, radius);
  topology::LiveTopology live_dirty(w.points, radius);
  topology::LiveTopology live_shard(w.points, radius);

  sim::PerfectDelivery loss_a, loss_b, loss_c;
  testsupport::ReferenceStepper net_full(live_full.graph(), full, loss_a);
  sim::Network net_dirty(live_dirty.graph(), dirty, loss_b, 1);
  sim::ShardedNetwork net_shard(live_shard.graph(), sharded, loss_c,
                                contiguous(n, shards), threads);
  net_dirty.set_stepping(sim::Stepping::kDirty);
  net_shard.set_stepping(sim::Stepping::kDirty);

  const std::string spec = spec_string("sharded-mobility", n, radius,
                                       world_seed, proto_seed, shards, threads);
  std::size_t tick = 0;
  for (std::size_t window = 0; window < 8; ++window) {
    mover.step(w.points, 0.05);
    net_full.apply_topology_delta(live_full.update(w.points));
    net_dirty.apply_topology_delta(live_dirty.update(w.points));
    net_shard.apply_topology_delta(live_shard.update(w.points));
    net_dirty.mark_dirty(live_dirty.dirty_nodes());
    net_shard.mark_dirty(live_shard.dirty_nodes());
    for (std::size_t s = 0; s < 6; ++s, ++tick) {
      net_full.step();
      net_dirty.step();
      net_shard.step();
      ASSERT_TRUE(populations_identical(full, sharded, tick, spec));
      ASSERT_TRUE(populations_identical(dirty, sharded, tick, spec));
      ASSERT_EQ(net_dirty.activity().last_nodes_stepped(),
                net_shard.activity().last_nodes_stepped())
          << spec << " tick=" << tick;
    }
  }
  EXPECT_EQ(net_dirty.activity().nodes_skipped(),
            net_shard.activity().nodes_skipped())
      << spec;
  EXPECT_GT(net_shard.activity().nodes_skipped(), 0u) << spec;
  EXPECT_EQ(net_dirty.messages_delivered(), net_shard.messages_delivered())
      << spec;
}

TEST(ShardedEquivalence, DirtyMobilityLockstepAcrossShardCounts) {
  for (const std::size_t shards : kShardCounts) {
    run_mobility_trial(shards, 1, 1000 + shards, 5);
    if (HasFatalFailure()) return;
  }
}

TEST(ShardedEquivalence, DirtyMobilityLockstepIsThreadCountInvariant) {
  for (const unsigned threads : {2u, 4u}) {
    run_mobility_trial(7, threads, 1100 + threads, 6);
    if (HasFatalFailure()) return;
  }
}

TEST(ShardedEquivalence, DirtyFaultInjectionWakesCrossShards) {
  // External mutations (take_external_wakes) land while the population
  // is quiescent; the woken neighborhoods straddle shard boundaries,
  // so the recovery exercises the wake mailboxes from a cold start.
  const std::size_t n = 100;
  const auto w = testsupport::make_deployment(n, 0.13, 903);
  auto full = make_protocol(w, 11);
  auto sharded = make_protocol(w, 11);
  sim::PerfectDelivery loss_a, loss_b;
  testsupport::ReferenceStepper net_full(w.graph, full, loss_a);
  sim::ShardedNetwork net_shard(w.graph, sharded, loss_b, contiguous(n, 7),
                                2);
  net_shard.set_stepping(sim::Stepping::kDirty);
  const std::string spec = spec_string("sharded-faults", n, 0.13, 903, 11, 7, 2);

  std::size_t tick = 0;
  for (; tick < 30; ++tick) {
    net_full.step();
    net_shard.step();
    ASSERT_TRUE(populations_identical(full, sharded, tick, spec));
  }
  util::Rng chaos_a(99), chaos_b(99);
  ASSERT_EQ(full.corrupt_fraction(chaos_a, 0.2),
            sharded.corrupt_fraction(chaos_b, 0.2));
  full.reset_node(3);
  sharded.reset_node(3);
  {
    auto sa = full.mutable_state(7);
    auto sb = sharded.mutable_state(7);
    sa.head_valid = 0;
    sb.head_valid = 0;
  }
  for (std::size_t s = 0; s < 30; ++s, ++tick) {
    net_full.step();
    net_shard.step();
    ASSERT_TRUE(populations_identical(full, sharded, tick, spec));
  }
}

TEST(ShardedEquivalence, ModeSwitchMidRunKeepsTrajectory) {
  const auto w = testsupport::make_deployment(90, 0.14, 904);
  auto a = make_protocol(w, 21);
  auto b = make_protocol(w, 21);
  sim::PerfectDelivery loss_a, loss_b;
  testsupport::ReferenceStepper net_a(w.graph, a, loss_a);
  sim::ShardedNetwork net_b(w.graph, b, loss_b, contiguous(90, 7), 2);
  const std::string spec = spec_string("sharded-mode-switch", 90, 0.14, 904,
                                       21, 7, 2);
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
}

// --- degenerate shapes (satellite: no div-by-zero / empty-range UB) ---

TEST(ShardedEquivalence, DegenerateShapesAreWellDefined) {
  // n = 0: one empty shard; stepping is a no-op, not UB.
  {
    graph::Graph g(0);
    g.finalize();
    topology::IdAssignment ids;
    core::DensityProtocol p(ids, {}, util::Rng(1));
    sim::PerfectDelivery loss;
    sim::ShardedNetwork net(g, p, loss, contiguous(0, 16), 2u);
    EXPECT_EQ(net.shard_count(), 1u);
    net.run(3);
    EXPECT_EQ(net.steps_run(), 3u);
    EXPECT_EQ(net.messages_delivered(), 0u);
  }
  // shards > nodes: clamped to one node per shard; single-node shards
  // make every edge cross shards, so every row is read from another
  // shard's arena and the result must still match.
  {
    const auto w = testsupport::make_deployment(5, 0.9, 905);
    auto reference = make_protocol(w, 2);
    auto candidate = make_protocol(w, 2);
    sim::PerfectDelivery loss_a, loss_b;
    testsupport::ReferenceStepper net_ref(w.graph, reference, loss_a);
    sim::ShardedNetwork net_shard(w.graph, candidate, loss_b,
                                  contiguous(5, 64), 2u);
    EXPECT_EQ(net_shard.shard_count(), 5u);
    const std::string spec = spec_string("sharded-tiny", 5, 0.9, 905, 2, 64, 2);
    for (std::size_t s = 0; s < 12; ++s) {
      net_ref.step();
      net_shard.step();
      ASSERT_TRUE(populations_identical(reference, candidate, s, spec));
    }
  }
  // Explicit bounds with empty middle shards are a legal cover.
  {
    const auto w = testsupport::make_deployment(20, 0.3, 906);
    auto reference = make_protocol(w, 3);
    auto candidate = make_protocol(w, 3);
    sim::PerfectDelivery loss_a, loss_b;
    testsupport::ReferenceStepper net_ref(w.graph, reference, loss_a);
    sim::ShardedNetwork net_shard(w.graph, candidate, loss_b,
                                  std::vector<std::size_t>{0, 8, 8, 8, 20}, 2u);
    net_shard.set_stepping(sim::Stepping::kDirty);
    const std::string spec =
        spec_string("sharded-empty-mid", 20, 0.3, 906, 3, 4, 2);
    for (std::size_t s = 0; s < 15; ++s) {
      net_ref.step();
      net_shard.step();
      ASSERT_TRUE(populations_identical(reference, candidate, s, spec));
    }
  }
}

TEST(ShardedEquivalence, ThreadsOnlyFormCutsOneShardPerWorker) {
  const auto w = testsupport::make_deployment(40, 0.2, 908);
  auto p = make_protocol(w, 1);
  sim::PerfectDelivery loss;
  sim::Network one(w.graph, p, loss);
  EXPECT_EQ(one.shard_count(), 1u);
  EXPECT_EQ(one.thread_count(), 1u);
  sim::Network four(w.graph, p, loss, 4);
  EXPECT_EQ(four.shard_count(), 4u);
  EXPECT_EQ(four.thread_count(), 4u);
  // Fewer nodes than workers: one node per shard, extra workers idle.
  const auto tiny = testsupport::make_deployment(3, 0.9, 909);
  auto q = make_protocol(tiny, 1);
  sim::Network clamped(tiny.graph, q, loss, 4);
  EXPECT_EQ(clamped.shard_count(), 3u);
  EXPECT_EQ(clamped.thread_count(), 4u);
}

TEST(ShardedEquivalence, RejectsMalformedBoundsAndLossyDirty) {
  const auto w = testsupport::make_deployment(30, 0.2, 907);
  auto p = make_protocol(w, 1);
  sim::PerfectDelivery perfect;
  using Net = sim::ShardedNetwork<core::DensityProtocol>;
  // Not a cover of [0, n].
  EXPECT_THROW(Net(w.graph, p, perfect, std::vector<std::size_t>{0, 10}, 1u),
               std::invalid_argument);
  EXPECT_THROW(Net(w.graph, p, perfect, std::vector<std::size_t>{5, 30}, 1u),
               std::invalid_argument);
  EXPECT_THROW(Net(w.graph, p, perfect, std::vector<std::size_t>{0, 20, 10, 30},
                   1u),
               std::invalid_argument);
  EXPECT_THROW(Net(w.graph, p, perfect, std::vector<std::size_t>{}, 1u),
               std::invalid_argument);
  // Dirty mode needs a loss-free medium at any shard count.
  sim::BernoulliDelivery lossy(0.7, util::Rng(2));
  Net net(w.graph, p, lossy, contiguous(30, 4), 1u);
  EXPECT_THROW(net.set_stepping(sim::Stepping::kDirty), std::invalid_argument);
  // And a graph swap must preserve the node count the bounds cover.
  graph::Graph smaller(10);
  smaller.finalize();
  Net ok(w.graph, p, perfect, contiguous(30, 4), 1u);
  EXPECT_THROW(ok.set_graph(smaller), std::invalid_argument);
}

}  // namespace
}  // namespace ssmwn
