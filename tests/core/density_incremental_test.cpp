// Incremental density maintenance: the per-node maintained e(N_p) count
// must stay bitwise-equivalent to the O(deg²) pairwise recompute — under
// lockstep stepping on both engines, across fault injection, across
// topology deltas, and in the self-checking kChecked mode (which throws
// on the first divergence it ever observes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "core/density.hpp"
#include "core/protocol.hpp"
#include "graph/partition.hpp"
#include "mobility/mobility.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "sim/sharded_network.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/incremental.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

core::DensityProtocol make_protocol(const graph::Graph& g,
                                    const topology::IdAssignment& ids,
                                    core::DensityMaintenance maintenance,
                                    std::uint64_t seed) {
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  config.density_maintenance = maintenance;
  return core::DensityProtocol(ids, config, util::Rng(seed));
}

/// kIncremental and kRecompute protocols on identical worlds, stepped in
/// lockstep, must never diverge bitwise — the maintained count is a cost
/// model, not a semantics change. Faults are injected identically into
/// both (same rng seed) to also cover the stale-count recovery path.
TEST(DensityIncremental, LockstepBitwiseEqualToRecomputeUnderFaults) {
  util::Rng rng(20050612);
  const std::size_t n = 300;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.1);

  auto incremental =
      make_protocol(g, ids, core::DensityMaintenance::kIncremental, 9);
  auto recompute =
      make_protocol(g, ids, core::DensityMaintenance::kRecompute, 9);
  sim::PerfectDelivery loss_a, loss_b;
  sim::Network net_a(g, incremental, loss_a, 1);
  sim::Network net_b(g, recompute, loss_b, 1);

  util::Rng chaos_a(4242), chaos_b(4242);
  for (std::size_t step = 0; step < 40; ++step) {
    if (step == 10) {
      incremental.corrupt_all(chaos_a);
      recompute.corrupt_all(chaos_b);
    }
    if (step == 25) {
      ASSERT_EQ(incremental.corrupt_fraction(chaos_a, 0.2),
                recompute.corrupt_fraction(chaos_b, 0.2));
    }
    if (step == 32) {
      incremental.reset_node(7);
      recompute.reset_node(7);
    }
    net_a.step();
    net_b.step();
    const auto div = core::first_divergent_node(incremental, recompute);
    ASSERT_EQ(div, std::nullopt)
        << "step " << step << ":\n"
        << core::describe_divergence(incremental, recompute, *div);
  }
  EXPECT_EQ(net_a.messages_delivered(), net_b.messages_delivered());
}

/// kChecked recomputes every R1 firing and throws on any mismatch with
/// the maintained count — running a full faulted campaign in this mode
/// IS the differential gate (also exercised under ASan/UBSan in CI via
/// the `hotpath` ctest label).
TEST(DensityIncremental, CheckedModeRunsCleanOnFlatEngine) {
  util::Rng rng(7);
  const std::size_t n = 250;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.11);

  auto protocol = make_protocol(g, ids, core::DensityMaintenance::kChecked, 3);
  EXPECT_EQ(protocol.density_maintenance(),
            core::DensityMaintenance::kChecked);
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss, 1);
  util::Rng chaos(17);
  EXPECT_NO_THROW({
    protocol.corrupt_all(chaos);
    network.run(15);
    protocol.corrupt_fraction(chaos, 0.3);
    network.run(15);
  });
}

TEST(DensityIncremental, CheckedModeRunsCleanOnShardedEngine) {
  util::Rng rng(23);
  const std::size_t n = 400;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.09);

  auto protocol = make_protocol(g, ids, core::DensityMaintenance::kChecked, 5);
  sim::PerfectDelivery loss;
  sim::ShardedNetwork network(
      g, protocol, loss, graph::plan_contiguous_shards(n, 4).bounds, 1);
  util::Rng chaos(29);
  EXPECT_NO_THROW({
    network.run(5);
    protocol.corrupt_fraction(chaos, 0.25);
    network.run(20);
  });
}

/// Lossy delivery makes caches diverge from the radio graph (entries age
/// out, reappear, digest lists go stale asymmetrically) — exactly the
/// regime where a buggy delta would silently drift. kChecked must stay
/// silent anyway.
TEST(DensityIncremental, CheckedModeRunsCleanUnderLoss) {
  util::Rng rng(31);
  const std::size_t n = 200;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.12);

  auto protocol = make_protocol(g, ids, core::DensityMaintenance::kChecked, 7);
  sim::BernoulliDelivery loss(0.7, util::Rng(99));
  sim::Network network(g, protocol, loss, 1);
  EXPECT_NO_THROW(network.run(60));
}

/// At convergence under perfect delivery, every cache mirrors the radio
/// neighborhood and every digest list its sender's cache, so the
/// maintained believed-link count must equal the *graph-side* count
/// core::edges_among over the node's actual neighbor set.
TEST(DensityIncremental, MaintainedCountMatchesEdgesAmongAtConvergence) {
  util::Rng rng(13);
  const std::size_t n = 180;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.13);

  auto protocol =
      make_protocol(g, ids, core::DensityMaintenance::kIncremental, 11);
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss, 1);
  network.run(30);  // diameter-many steps: caches and digests settled

  std::size_t checked = 0;
  for (graph::NodeId p = 0; p < static_cast<graph::NodeId>(n); ++p) {
    if (g.degree(p) == 0) continue;
    ASSERT_TRUE(protocol.links_count_fresh(p)) << "node " << p;
    const auto neighbors = g.neighbors(p);
    const std::vector<graph::NodeId> nbr(neighbors.begin(), neighbors.end());
    EXPECT_EQ(protocol.state(p).links_among, core::edges_among(g, nbr))
        << "node " << p;
    ++checked;
  }
  EXPECT_GT(checked, n / 2);  // the deployment is actually connected-ish
}

/// Topology deltas while the protocol keeps running: each mobility
/// window patches the graph (edge flips through IncrementalUdg), the
/// engine is notified, and after re-settling the maintained counts must
/// again equal edges_among on the *new* graph. Run in kChecked so every
/// intermediate R1 firing is also an invariant assertion.
TEST(DensityIncremental, TopologyDeltaWindowsKeepCountsExact) {
  util::Rng rng(37);
  const std::size_t n = 150;
  const double radius = 0.14;
  auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  mobility::RandomDirection mover(n, {0.0, 3.0}, 1000.0, rng.split());

  topology::LiveTopology topo(points, radius);
  auto protocol = make_protocol(topo.graph(), ids,
                                core::DensityMaintenance::kChecked, 19);
  sim::PerfectDelivery loss;
  sim::Network network(topo.graph(), protocol, loss, 1);
  network.run(25);

  std::size_t flips = 0;
  for (int window = 0; window < 8; ++window) {
    mover.step(points, 2.0);
    const auto& delta = topo.update(points);
    flips += delta.added.size() + delta.removed.size();
    network.apply_topology_delta(delta);
    network.run(25);  // re-settle; kChecked throws if any count drifts
    const auto& g = topo.graph();
    for (graph::NodeId p = 0; p < static_cast<graph::NodeId>(n); ++p) {
      if (g.degree(p) == 0) continue;
      ASSERT_TRUE(protocol.links_count_fresh(p))
          << "window " << window << " node " << p;
      const auto neighbors = g.neighbors(p);
      const std::vector<graph::NodeId> nbr(neighbors.begin(),
                                           neighbors.end());
      ASSERT_EQ(protocol.state(p).links_among, core::edges_among(g, nbr))
          << "window " << window << " node " << p;
    }
  }
  EXPECT_GT(flips, 0u) << "mobility never flipped an edge; test is vacuous";
}

/// External mutation must drop the trusted flag (the self-stabilization
/// story for the count itself) and the next sweep must restore it.
TEST(DensityIncremental, ExternalMutationInvalidatesThenRecovers) {
  util::Rng rng(41);
  const std::size_t n = 60;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.2);

  auto protocol =
      make_protocol(g, ids, core::DensityMaintenance::kIncremental, 23);
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss, 1);
  network.run(10);

  graph::NodeId victim = 0;
  while (victim < static_cast<graph::NodeId>(n) && g.degree(victim) < 2) {
    ++victim;
  }
  ASSERT_LT(victim, static_cast<graph::NodeId>(n));
  ASSERT_TRUE(protocol.links_count_fresh(victim));
  {
    auto s = protocol.mutable_state(victim);
    s.links_among = 0xDEADBEEF;  // plant garbage; the flag must be down
  }
  EXPECT_FALSE(protocol.links_count_fresh(victim));
  network.step();  // R1 recomputes from the cache, garbage never observed
  EXPECT_TRUE(protocol.links_count_fresh(victim));
  const auto neighbors = g.neighbors(victim);
  const std::vector<graph::NodeId> nbr(neighbors.begin(), neighbors.end());
  EXPECT_EQ(protocol.state(victim).links_among, core::edges_among(g, nbr));
}

}  // namespace
}  // namespace ssmwn
