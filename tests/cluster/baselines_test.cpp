// Unit tests for the baseline clustering algorithms (lowest-id,
// highest-degree, Max-Min d-cluster).
#include "cluster/baselines.hpp"
#include "cluster/max_min.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/density.hpp"
#include "graph/forest.hpp"
#include "support/oracles.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

TEST(LowestId, SmallestIdInNeighborhoodWins) {
  // Path 0-1-2-3 with ids {5, 1, 7, 2}: node 1 (id 1) heads {0,1,2};
  // node 3 (id 2) is dominated by... its neighbor 2 has id 7 > 2, so 3
  // heads itself.
  const auto g = graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const topology::IdAssignment ids{5, 1, 7, 2};
  const auto r = cluster::cluster_lowest_id(g, ids);
  EXPECT_TRUE(r.is_head[1]);
  EXPECT_TRUE(r.is_head[3]);
  EXPECT_FALSE(r.is_head[0]);
  EXPECT_FALSE(r.is_head[2]);
  EXPECT_EQ(r.parent[0], 1u);
  EXPECT_EQ(r.parent[2], 1u);  // joins id-1 neighbor, not id-2 non-neighbor
}

TEST(LowestId, NoAdjacentHeads) {
  util::Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const auto pts = topology::uniform_points(250, rng);
    const auto g = topology::unit_disk_graph(pts, 0.08);
    const auto ids = topology::random_ids(g.node_count(), rng);
    const auto r = cluster::cluster_lowest_id(g, ids);
    for (graph::NodeId p : r.heads) {
      for (graph::NodeId q : g.neighbors(p)) {
        EXPECT_FALSE(r.is_head[q]);
      }
    }
    EXPECT_TRUE(r.forest().respects_graph(g));
  }
}

TEST(HighestDegree, CenterOfStarWins) {
  graph::Graph g(5);
  for (graph::NodeId leaf = 1; leaf < 5; ++leaf) g.add_edge(0, leaf);
  g.finalize();
  const topology::IdAssignment ids{9, 0, 1, 2, 3};  // center has worst id
  const auto r = cluster::cluster_highest_degree(g, ids);
  EXPECT_TRUE(r.is_head[0]);
  EXPECT_EQ(r.cluster_count(), 1u);
}

TEST(HighestDegree, DegreeTiesFallToSmallestId) {
  // Cycle: all degrees equal; the smallest id must win its neighborhood.
  graph::Graph g(5);
  for (graph::NodeId p = 0; p < 5; ++p) {
    g.add_edge(p, static_cast<graph::NodeId>((p + 1) % 5));
  }
  g.finalize();
  const topology::IdAssignment ids{4, 0, 3, 1, 2};
  const auto r = cluster::cluster_highest_degree(g, ids);
  EXPECT_TRUE(r.is_head[1]);  // id 0
}

TEST(MaxMin, HeadsWithinDHops) {
  util::Rng rng(2);
  for (const std::size_t d : {1u, 2u, 3u}) {
    const auto pts = topology::uniform_points(200, rng);
    const auto g = topology::unit_disk_graph(pts, 0.1);
    const auto ids = topology::random_ids(g.node_count(), rng);
    const auto r = cluster::cluster_max_min(g, ids, d);
    const auto forest = r.forest();
    EXPECT_TRUE(forest.respects_graph(g));
    for (graph::NodeId p = 0; p < g.node_count(); ++p) {
      // Every node is at most d parent hops from its head (members joined
      // along BFS trees inside the cluster).
      EXPECT_LE(forest.depth(p), d) << "node " << p << " d=" << d;
    }
  }
}

TEST(MaxMin, IsolatedCliqueElectsLargestId) {
  // Floodmax fills the clique with the largest id; rule 1 then elects it.
  graph::Graph g(4);
  for (graph::NodeId a = 0; a < 4; ++a) {
    for (graph::NodeId b = a + 1; b < 4; ++b) g.add_edge(a, b);
  }
  g.finalize();
  const topology::IdAssignment ids{2, 9, 4, 1};
  const auto r = cluster::cluster_max_min(g, ids, 2);
  EXPECT_EQ(r.cluster_count(), 1u);
  EXPECT_TRUE(r.is_head[1]);  // id 9
}

TEST(MaxMin, RejectsBadArguments) {
  const auto g = graph::from_edges(3, {{0, 1}});
  EXPECT_THROW(cluster::cluster_max_min(g, topology::sequential_ids(2), 2),
               std::invalid_argument);
  EXPECT_THROW(cluster::cluster_max_min(g, topology::sequential_ids(3), 0),
               std::invalid_argument);
}

TEST(Baselines, DensityValueIsLocalToTheTwoHopNeighborhood) {
  // The locality property behind the density metric's robustness story:
  // d_p depends only on edges with both endpoints in {p} ∪ N_p, so
  // removing a node that is neither in N_p nor adjacent to N_p cannot
  // change d_p. (The comparative churn claim vs the degree metric is a
  // statistical statement measured by bench_mobility_stability, not
  // asserted here.)
  util::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pts = topology::uniform_points(150, rng);
    const auto g = topology::unit_disk_graph(pts, 0.1);
    const auto before = core::compute_densities(g);
    // Remove one node entirely (simulate a far-away failure) by
    // rebuilding without it.
    const graph::NodeId victim =
        static_cast<graph::NodeId>(rng.index(pts.size()));
    std::vector<topology::Point> reduced;
    std::vector<graph::NodeId> old_index;
    for (graph::NodeId p = 0; p < pts.size(); ++p) {
      if (p == victim) continue;
      reduced.push_back(pts[p]);
      old_index.push_back(p);
    }
    const auto g2 = topology::unit_disk_graph(reduced, 0.1);
    const auto after = core::compute_densities(g2);
    const auto two_hop = testsupport::two_hop_neighborhood(g, victim);
    for (graph::NodeId q = 0; q < g2.node_count(); ++q) {
      const graph::NodeId orig = old_index[q];
      const bool in_blast_zone =
          std::find(two_hop.begin(), two_hop.end(), orig) != two_hop.end();
      if (!in_blast_zone) {
        EXPECT_DOUBLE_EQ(after[q], before[orig])
            << "trial " << trial << " node " << orig;
      }
    }
  }
}

}  // namespace
}  // namespace ssmwn
