// Tests for the distributed self-stabilizing protocol: the Table 2
// knowledge schedule, convergence to the synchronous oracle, and recovery
// from arbitrary (corrupted) initial states — including under a lossy
// medium (τ < 1), the exact hypothesis of the paper's Section 4.
#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include "core/clustering.hpp"
#include "graph/forest.hpp"
#include "sim/network.hpp"
#include "stabilize/convergence.hpp"
#include "support/divergence.hpp"
#include "support/paper_example.hpp"
#include "support/reference_stepper.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

using namespace testsupport;

core::ProtocolConfig basic_config() {
  core::ProtocolConfig config;
  config.delta_hint = 8;
  return config;
}

/// True iff the distributed state matches the oracle configuration.
bool matches_oracle(const core::DensityProtocol& protocol,
                    const core::ClusteringResult& oracle,
                    const topology::IdAssignment& ids) {
  for (graph::NodeId p = 0; p < protocol.node_count(); ++p) {
    const auto& s = protocol.state(p);
    if (!s.metric_valid || s.metric != oracle.metric[p]) return false;
    if (!s.head_valid || s.head != oracle.head_id[p]) return false;
    if (!s.parent_valid || s.parent != ids[oracle.parent[p]]) return false;
  }
  return true;
}

TEST(Protocol, Table2KnowledgeSchedule) {
  // "After one step, each node can discover its 1-neighbors. After two
  //  steps, each node can compute its 2-neighbors and then its density.
  //  After only three steps, each node knows its parent."
  const auto g = paper_example_graph();
  const auto ids = paper_example_ids();
  core::DensityProtocol protocol(ids, basic_config(), util::Rng(1));
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss);

  // Step 1: neighbor tables are exactly N_p.
  network.step();
  for (graph::NodeId p = 0; p < 9; ++p) {
    const auto& cache = protocol.state(p).cache;
    ASSERT_EQ(cache.size(), g.degree(p)) << "node " << p;
    for (graph::NodeId q : g.neighbors(p)) {
      EXPECT_TRUE(cache.contains(ids[q]));
    }
  }

  // Step 2: densities are correct (digests of step 2 carried the
  // neighbor tables learned in step 1).
  network.step();
  for (graph::NodeId p = 0; p < 9; ++p) {
    const auto& s = protocol.state(p);
    ASSERT_TRUE(s.metric_valid);
    EXPECT_DOUBLE_EQ(s.metric, kPaperDensities[p]) << "node " << p;
  }

  // Step 3: parents are correct (frames of step 3 carried the densities
  // computed at the end of step 2).
  network.step();
  const auto oracle = core::cluster_density(g, ids, {});
  for (graph::NodeId p = 0; p < 9; ++p) {
    const auto& s = protocol.state(p);
    ASSERT_TRUE(s.parent_valid) << "node " << p;
    EXPECT_EQ(s.parent, ids[oracle.parent[p]]) << "node " << p;
  }
}

TEST(Protocol, HeadPropagatesOneHopPerStep) {
  // On a path with densities tying everywhere, the head value crawls down
  // the clusterization tree one hop per step: stabilization time is
  // 3 + tree depth, exactly the paper's stabilization argument.
  const std::size_t n = 12;
  graph::Graph g(n);
  for (graph::NodeId p = 0; p + 1 < n; ++p) g.add_edge(p, p + 1);
  g.finalize();
  const auto ids = topology::sequential_ids(n);  // adversarial: one cluster
  const auto oracle = core::cluster_density(g, ids, {});
  ASSERT_EQ(oracle.cluster_count(), 1u);
  const auto depth = oracle.forest().tree_depth(oracle.heads.front());

  core::DensityProtocol protocol(ids, basic_config(), util::Rng(2));
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss);
  std::size_t steps = 0;
  while (!matches_oracle(protocol, oracle, ids) && steps < 4 * n) {
    network.step();
    ++steps;
  }
  EXPECT_TRUE(matches_oracle(protocol, oracle, ids));
  EXPECT_LE(steps, 3 + static_cast<std::size_t>(depth) + 1);
  EXPECT_GE(steps, static_cast<std::size_t>(depth));
}

TEST(Protocol, ConvergesToOracleOnRandomGeometry) {
  util::Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const auto pts = topology::uniform_points(120, rng);
    const auto g = topology::unit_disk_graph(pts, 0.12);
    const auto ids = topology::random_ids(g.node_count(), rng);
    const auto oracle = core::cluster_density(g, ids, {});

    core::DensityProtocol protocol(ids, basic_config(),
                                   util::Rng(100 + trial));
    sim::PerfectDelivery loss;
    sim::Network network(g, protocol, loss);
    network.run(80);
    EXPECT_TRUE(matches_oracle(protocol, oracle, ids)) << "trial " << trial;
  }
}

TEST(Protocol, ConvergesToOracleWithFusion) {
  util::Rng rng(4);
  core::ProtocolConfig config = basic_config();
  config.cluster.fusion = true;
  core::ClusterOptions oracle_opt;
  oracle_opt.fusion = true;
  for (int trial = 0; trial < 5; ++trial) {
    const auto pts = topology::uniform_points(120, rng);
    const auto g = topology::unit_disk_graph(pts, 0.12);
    const auto ids = topology::random_ids(g.node_count(), rng);
    const auto oracle = core::cluster_density(g, ids, oracle_opt);

    core::DensityProtocol protocol(ids, config, util::Rng(200 + trial));
    sim::PerfectDelivery loss;
    sim::Network network(g, protocol, loss);
    network.run(120);
    // Head assignment must agree with the fusion oracle.
    for (graph::NodeId p = 0; p < g.node_count(); ++p) {
      const auto& s = protocol.state(p);
      ASSERT_TRUE(s.head_valid);
      EXPECT_EQ(s.head, oracle.head_id[p])
          << "trial " << trial << " node " << p;
    }
  }
}

TEST(Protocol, SelfStabilizesFromArbitraryState) {
  // The headline property: corrupt *everything* (shared variables and
  // caches, including phantom neighbors), then run; the system must reach
  // the oracle configuration and stay there.
  util::Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const auto pts = topology::uniform_points(100, rng);
    const auto g = topology::unit_disk_graph(pts, 0.13);
    const auto ids = topology::random_ids(g.node_count(), rng);
    const auto oracle = core::cluster_density(g, ids, {});

    core::DensityProtocol protocol(ids, basic_config(),
                                   util::Rng(300 + trial));
    sim::PerfectDelivery loss;
    sim::Network network(g, protocol, loss);
    network.run(50);  // reach a legitimate state first
    ASSERT_TRUE(matches_oracle(protocol, oracle, ids));

    util::Rng chaos(900 + trial);
    protocol.corrupt_all(chaos);

    const auto report = stabilize::run_until_stable(
        [&] { network.step(); },
        [&] { return matches_oracle(protocol, oracle, ids); },
        /*confirm_steps=*/10, /*max_steps=*/200);
    EXPECT_TRUE(report.converged) << "trial " << trial;
  }
}

TEST(Protocol, SelfStabilizesUnderLossyMedium) {
  // τ = 0.6: every frame is lost at each receiver with probability 0.4 —
  // the protocol must still converge (the paper only assumes τ > 0).
  util::Rng rng(6);
  const auto pts = topology::uniform_points(80, rng);
  const auto g = topology::unit_disk_graph(pts, 0.15);
  const auto ids = topology::random_ids(g.node_count(), rng);
  const auto oracle = core::cluster_density(g, ids, {});

  core::ProtocolConfig config = basic_config();
  config.cache_max_age = 16;  // ride out loss bursts
  core::DensityProtocol protocol(ids, config, util::Rng(7));
  sim::BernoulliDelivery loss(0.6, util::Rng(8));
  sim::Network network(g, protocol, loss);

  const auto report = stabilize::run_until_stable(
      [&] { network.step(); },
      [&] { return matches_oracle(protocol, oracle, ids); },
      /*confirm_steps=*/20, /*max_steps=*/2000);
  EXPECT_TRUE(report.converged);
}

TEST(Protocol, SelfStabilizesUnderBroadcastCollisions) {
  util::Rng rng(9);
  const auto pts = topology::uniform_points(80, rng);
  const auto g = topology::unit_disk_graph(pts, 0.15);
  const auto ids = topology::random_ids(g.node_count(), rng);
  const auto oracle = core::cluster_density(g, ids, {});

  core::ProtocolConfig config = basic_config();
  config.cache_max_age = 16;
  core::DensityProtocol protocol(ids, config, util::Rng(10));
  sim::BroadcastCollision loss(0.7, g.node_count(), util::Rng(11));
  sim::Network network(g, protocol, loss);

  const auto report = stabilize::run_until_stable(
      [&] { network.step(); },
      [&] { return matches_oracle(protocol, oracle, ids); },
      /*confirm_steps=*/20, /*max_steps=*/2000);
  EXPECT_TRUE(report.converged);
}

TEST(Protocol, RecoversFromPartialCorruption) {
  util::Rng rng(12);
  const auto pts = topology::uniform_points(100, rng);
  const auto g = topology::unit_disk_graph(pts, 0.13);
  const auto ids = topology::random_ids(g.node_count(), rng);
  const auto oracle = core::cluster_density(g, ids, {});

  core::DensityProtocol protocol(ids, basic_config(), util::Rng(13));
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss);
  network.run(50);
  ASSERT_TRUE(matches_oracle(protocol, oracle, ids));

  util::Rng chaos(14);
  const std::size_t hit = protocol.corrupt_fraction(chaos, 0.3);
  EXPECT_GT(hit, 0u);
  network.run(60);
  EXPECT_TRUE(matches_oracle(protocol, oracle, ids));
}

TEST(Protocol, RecoversFromNodeReboots) {
  util::Rng rng(15);
  const auto pts = topology::uniform_points(100, rng);
  const auto g = topology::unit_disk_graph(pts, 0.13);
  const auto ids = topology::random_ids(g.node_count(), rng);
  const auto oracle = core::cluster_density(g, ids, {});

  core::DensityProtocol protocol(ids, basic_config(), util::Rng(16));
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss);
  network.run(50);
  ASSERT_TRUE(matches_oracle(protocol, oracle, ids));

  // Reboot every fifth node, including possibly heads.
  for (graph::NodeId p = 0; p < g.node_count(); p += 5) {
    protocol.reset_node(p);
  }
  network.run(60);
  EXPECT_TRUE(matches_oracle(protocol, oracle, ids));
}

TEST(Protocol, DagIdsBecomeLocallyUniqueAndStay) {
  util::Rng rng(17);
  const auto pts = topology::uniform_points(150, rng);
  const auto g = topology::unit_disk_graph(pts, 0.1);
  const auto ids = topology::random_ids(g.node_count(), rng);

  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.delta_hint = g.max_degree();
  core::DensityProtocol protocol(ids, config, util::Rng(18));
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss);
  network.run(30);

  const auto dag = protocol.dag_id_values();
  for (graph::NodeId p = 0; p < g.node_count(); ++p) {
    EXPECT_LT(dag[p], protocol.name_space());
    for (graph::NodeId q : g.neighbors(p)) {
      EXPECT_NE(dag[p], dag[q]) << "conflict " << p << "-" << q;
    }
  }
  // Names must stay put once locally unique (newId keeps a clean name).
  const auto before = protocol.dag_id_values();
  network.run(10);
  EXPECT_EQ(before, protocol.dag_id_values());
}

TEST(Protocol, AdaptsToTopologyChange) {
  // Converge on one topology, then swap the graph (a "mobility event"):
  // the protocol must stabilize to the new oracle without a reset.
  util::Rng rng(19);
  const auto pts_a = topology::uniform_points(90, rng);
  const auto g_a = topology::unit_disk_graph(pts_a, 0.14);
  auto pts_b = pts_a;
  // Nudge a third of the nodes.
  for (std::size_t i = 0; i < pts_b.size(); i += 3) {
    pts_b[i].x = rng.uniform();
    pts_b[i].y = rng.uniform();
  }
  const auto g_b = topology::unit_disk_graph(pts_b, 0.14);
  const auto ids = topology::random_ids(pts_a.size(), rng);

  core::ProtocolConfig config = basic_config();
  config.cache_max_age = 4;  // evict vanished neighbors quickly
  core::DensityProtocol protocol(ids, config, util::Rng(20));
  sim::PerfectDelivery loss;
  sim::Network network(g_a, protocol, loss);
  network.run(50);
  ASSERT_TRUE(
      matches_oracle(protocol, core::cluster_density(g_a, ids, {}), ids));

  network.set_graph(g_b);
  const auto oracle_b = core::cluster_density(g_b, ids, {});
  const auto report = stabilize::run_until_stable(
      [&] { network.step(); },
      [&] { return matches_oracle(protocol, oracle_b, ids); },
      /*confirm_steps=*/10, /*max_steps=*/300);
  EXPECT_TRUE(report.converged);
}

TEST(Protocol, IsolatedNodeElectsItself) {
  graph::Graph g(1);
  core::DensityProtocol protocol({42}, basic_config(), util::Rng(21));
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss);
  network.run(3);
  const auto& s = protocol.state(0);
  EXPECT_TRUE(s.head_valid);
  EXPECT_EQ(s.head, 42u);
}

// --- the change detector is armed from construction -------------------

/// Steps `protocol` on `g` with the owning-frame reference stepper — no
/// engine arms anything — until one step moves no shared variable, then
/// one more, so every cache holds its neighbors' settled rows.
void settle(const graph::Graph& g, core::DensityProtocol& protocol) {
  sim::PerfectDelivery loss;
  testsupport::ReferenceStepper stepper(g, protocol, loss);
  for (int step = 0; step < 60; ++step) {
    const core::NodeScalars before = protocol.scalars();
    stepper.step();
    if (testsupport::first_divergent_row(before, protocol.scalars()) ==
        protocol.node_count()) {
      stepper.step();
      return;
    }
  }
  FAIL() << "the paper example did not settle within 60 steps";
}

TEST(ProtocolChangeDetector, SettledNodesSkipUntilAnInputMoves) {
  const auto g = paper_example_graph();
  core::DensityProtocol protocol(paper_example_ids(), basic_config(),
                                 util::Rng(31));
  ASSERT_NO_FATAL_FAILURE(settle(g, protocol));
  for (graph::NodeId p = 0; p < g.node_count(); ++p) {
    EXPECT_FALSE(protocol.maybe_tick(p)) << "node " << p << " not settled";
  }

  // An external mutation: the next sweep runs, and re-settles the node.
  (void)protocol.mutable_state(1);
  EXPECT_TRUE(protocol.maybe_tick(1));
  EXPECT_FALSE(protocol.maybe_tick(1));

  // A delivery: the settled bytes again are no input change, a differing
  // frame is.
  const graph::NodeId q = g.neighbors(4).front();
  sim::FrameBuffer<core::DensityProtocol> frame;
  frame.build_from(protocol, q);
  frame.deliver_to(protocol, 4);
  EXPECT_FALSE(protocol.maybe_tick(4));
  frame.header.metric += 1.0;
  frame.deliver_to(protocol, 4);
  EXPECT_TRUE(protocol.maybe_tick(4));

  // Aging: ages are no rule input, an eviction is. The last step left
  // every entry at age 1, and an entry past cache_max_age is evicted.
  const graph::NodeId r = 7;
  ASSERT_FALSE(protocol.state(r).cache.empty());
  for (std::uint32_t age = 1; age < protocol.config().cache_max_age; ++age) {
    protocol.end_step(r);
    EXPECT_FALSE(protocol.maybe_tick(r)) << "age " << age + 1;
  }
  const std::size_t cached = protocol.state(r).cache.size();
  protocol.end_step(r);
  EXPECT_LT(protocol.state(r).cache.size(), cached);
  EXPECT_TRUE(protocol.maybe_tick(r));
}

TEST(ProtocolChangeDetector, UndrainedExternalWakesStayBoundedByNodeCount) {
  // Async and lossy runs never drain the external-wake list; one mark
  // per node keeps it at n entries however often nodes are mutated.
  const auto ids = paper_example_ids();
  core::DensityProtocol protocol(ids, basic_config(), util::Rng(32));
  util::Rng chaos(33);
  for (int round = 0; round < 3; ++round) {
    protocol.corrupt_all(chaos);
    protocol.reset_node(2);
    (void)protocol.mutable_state(5);
  }
  const auto wakes = protocol.take_external_wakes();
  ASSERT_EQ(wakes.size(), ids.size());
  for (graph::NodeId p = 0; p < ids.size(); ++p) EXPECT_EQ(wakes[p], p);
  EXPECT_TRUE(protocol.take_external_wakes().empty());
}

}  // namespace
}  // namespace ssmwn
