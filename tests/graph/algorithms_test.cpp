// Unit tests for BFS, components, eccentricity, diameter, and the 2-hop
// neighborhood used by the fusion rule.
#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include "graph/graph.hpp"
#include "support/oracles.hpp"

namespace ssmwn {
namespace {

graph::Graph path(std::size_t n) {
  graph::Graph g(n);
  for (graph::NodeId p = 0; p + 1 < n; ++p) g.add_edge(p, p + 1);
  g.finalize();
  return g;
}

TEST(Algorithms, BfsDistancesOnPath) {
  const auto g = path(5);
  const auto dist = graph::bfs_distances(g, 0);
  for (graph::NodeId p = 0; p < 5; ++p) EXPECT_EQ(dist[p], p);
}

TEST(Algorithms, BfsUnreachableOnDisconnected) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  const auto dist = graph::bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], graph::kUnreachable);
  EXPECT_EQ(dist[3], graph::kUnreachable);
}

TEST(Algorithms, BfsWithinRespectsMembership) {
  // Path 0-1-2-3-4 where node 2 is excluded: 3 and 4 unreachable from 0.
  const auto g = path(5);
  std::vector<char> allowed{1, 1, 0, 1, 1};
  const auto dist = graph::bfs_distances_within(g, 0, allowed);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], graph::kUnreachable);
  EXPECT_EQ(dist[3], graph::kUnreachable);
}

TEST(Algorithms, BfsWithinFromExcludedSource) {
  const auto g = path(3);
  std::vector<char> allowed{0, 1, 1};
  const auto dist = graph::bfs_distances_within(g, 0, allowed);
  EXPECT_EQ(dist[0], graph::kUnreachable);
}

TEST(Algorithms, ConnectedComponents) {
  graph::Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.finalize();
  const auto label = graph::connected_components(g);
  EXPECT_EQ(label[0], label[1]);
  EXPECT_EQ(label[1], label[2]);
  EXPECT_EQ(label[3], label[4]);
  EXPECT_NE(label[0], label[3]);
  EXPECT_NE(label[5], label[0]);
  EXPECT_NE(label[5], label[3]);
  EXPECT_EQ(graph::component_count(g), 3u);
  EXPECT_FALSE(graph::is_connected(g));
}

TEST(Algorithms, EccentricityAndDiameter) {
  const auto g = path(6);
  EXPECT_EQ(graph::eccentricity(g, 0), 5u);
  EXPECT_EQ(graph::eccentricity(g, 2), 3u);
  EXPECT_EQ(graph::diameter(g), 5u);
}

TEST(Algorithms, DiameterOfCompleteGraphIsOne) {
  graph::Graph g(5);
  for (graph::NodeId a = 0; a < 5; ++a) {
    for (graph::NodeId b = a + 1; b < 5; ++b) g.add_edge(a, b);
  }
  g.finalize();
  EXPECT_EQ(graph::diameter(g), 1u);
}

TEST(Algorithms, TwoHopNeighborhood) {
  const auto g = path(6);
  // Node 2 on a path: N² = {0, 1, 3, 4}.
  const auto two = testsupport::two_hop_neighborhood(g, 2);
  const std::vector<graph::NodeId> expected{0, 1, 3, 4};
  EXPECT_EQ(two, expected);
}

TEST(Algorithms, TwoHopExcludesSelfAndIsSortedUnique) {
  // Triangle + pendant: N²(0) from 0-1,0-2,1-2,2-3.
  const auto g = graph::from_edges(4, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  const auto two = testsupport::two_hop_neighborhood(g, 0);
  const std::vector<graph::NodeId> expected{1, 2, 3};
  EXPECT_EQ(two, expected);
}

TEST(Algorithms, TwoHopOfIsolatedNodeIsEmpty) {
  graph::Graph g(2);
  EXPECT_TRUE(testsupport::two_hop_neighborhood(g, 0).empty());
}

}  // namespace
}  // namespace ssmwn
