// Unit tests for the density metric (Definition 1), anchored on the
// paper's worked example (Table 1).
#include "core/density.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "graph/graph.hpp"
#include "support/oracles.hpp"
#include "support/paper_example.hpp"
#include "topology/generators.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

using testsupport::paper_example_graph;

TEST(Density, MatchesTable1OfThePaper) {
  const auto g = paper_example_graph();
  const auto densities = core::compute_densities(g);
  ASSERT_EQ(densities.size(), 9u);
  for (std::size_t p = 0; p < densities.size(); ++p) {
    EXPECT_DOUBLE_EQ(densities[p], testsupport::kPaperDensities[p])
        << "node index " << p;
  }
}

TEST(Density, NeighborAndLinkCountsOfTable1) {
  const auto g = paper_example_graph();
  using testsupport::A;
  using testsupport::B;
  // Na = {d, i}; Nb = {c, d, h, i} (stated verbatim in the paper).
  EXPECT_EQ(g.degree(A), 2u);
  EXPECT_EQ(g.degree(B), 4u);
  EXPECT_TRUE(g.adjacent(A, testsupport::D));
  EXPECT_TRUE(g.adjacent(A, testsupport::I));
  EXPECT_TRUE(g.adjacent(B, testsupport::C));
  EXPECT_TRUE(g.adjacent(B, testsupport::D));
  EXPECT_TRUE(g.adjacent(B, testsupport::H));
  EXPECT_TRUE(g.adjacent(B, testsupport::I));
  EXPECT_TRUE(g.adjacent(testsupport::H, testsupport::I));
}

TEST(Density, IsolatedNodeHasZeroDensityByConvention) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_DOUBLE_EQ(testsupport::node_density(g, 2), 0.0);
}

TEST(Density, SingleEdgeGivesDensityOne) {
  const auto g = graph::from_edges(2, {{0, 1}});
  EXPECT_DOUBLE_EQ(testsupport::node_density(g, 0), 1.0);
  EXPECT_DOUBLE_EQ(testsupport::node_density(g, 1), 1.0);
}

TEST(Density, CompleteGraphDensity) {
  // K_n: every node has n-1 neighbors and all C(n-1, 2) links among them
  // are present: d = (n-1 + (n-1)(n-2)/2) / (n-1) = 1 + (n-2)/2 = n/2.
  for (std::size_t n = 2; n <= 8; ++n) {
    graph::Graph g(n);
    for (graph::NodeId a = 0; a < n; ++a) {
      for (graph::NodeId b = a + 1; b < n; ++b) g.add_edge(a, b);
    }
    g.finalize();
    for (graph::NodeId p = 0; p < n; ++p) {
      EXPECT_DOUBLE_EQ(testsupport::node_density(g, p),
                       static_cast<double>(n) / 2.0)
          << "K_" << n << " node " << p;
    }
  }
}

TEST(Density, StarCenterAndLeaves) {
  // Star K_{1,k}: center has k neighbors, no links among them -> density
  // 1; each leaf has 1 neighbor (the center) and 1 link -> density 1.
  graph::Graph g(6);
  for (graph::NodeId leaf = 1; leaf < 6; ++leaf) g.add_edge(0, leaf);
  g.finalize();
  for (graph::NodeId p = 0; p < 6; ++p) {
    EXPECT_DOUBLE_EQ(testsupport::node_density(g, p), 1.0);
  }
}

TEST(Density, CycleDensityIsOne) {
  // On a cycle, every node has two non-adjacent neighbors: d = 2/2 = 1.
  const std::size_t n = 7;
  graph::Graph g(n);
  for (graph::NodeId p = 0; p < n; ++p) {
    g.add_edge(p, static_cast<graph::NodeId>((p + 1) % n));
  }
  g.finalize();
  for (graph::NodeId p = 0; p < n; ++p) {
    EXPECT_DOUBLE_EQ(testsupport::node_density(g, p), 1.0);
  }
}

TEST(Density, TriangleDensity) {
  // Triangle: 2 neighbors, link between them: d = 3/2.
  const auto g = graph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  for (graph::NodeId p = 0; p < 3; ++p) {
    EXPECT_DOUBLE_EQ(testsupport::node_density(g, p), 1.5);
  }
}

TEST(Density, EdgesAmongMatchesDefinition) {
  const auto g = paper_example_graph();
  // e(N_b) for N_b = {c, d, h, i} is exactly the h-i link.
  const std::vector<graph::NodeId> nb = {testsupport::C, testsupport::D,
                                         testsupport::H, testsupport::I};
  EXPECT_EQ(core::edges_among(g, nb), 1u);
}

TEST(Density, FormulaEquivalenceOnRandomGeometricGraphs) {
  // d_p = (|N_p| + e(N_p)) / |N_p| must equal the intersection-based fast
  // path for every node of a random UDG.
  util::Rng rng(42);
  for (int trial = 0; trial < 5; ++trial) {
    const auto pts = topology::uniform_points(150, rng);
    const auto g = topology::unit_disk_graph(pts, 0.12);
    const auto fast = core::compute_densities(g);
    for (graph::NodeId p = 0; p < g.node_count(); ++p) {
      const auto neighbors = g.neighbors(p);
      if (neighbors.empty()) {
        EXPECT_DOUBLE_EQ(fast[p], 0.0);
        continue;
      }
      const std::size_t links =
          neighbors.size() +
          core::edges_among(g, {neighbors.data(), neighbors.size()});
      EXPECT_DOUBLE_EQ(fast[p], static_cast<double>(links) /
                                    static_cast<double>(neighbors.size()))
          << "trial " << trial << " node " << p;
    }
  }
}

/// compute_densities must reproduce node_density bit for bit: same
/// integer numerator, same double division.
void expect_bit_equal_to_node_density(const graph::Graph& g,
                                      const char* label) {
  const auto all = core::compute_densities(g);
  ASSERT_EQ(all.size(), g.node_count());
  for (graph::NodeId p = 0; p < g.node_count(); ++p) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(all[p]),
              std::bit_cast<std::uint64_t>(testsupport::node_density(g, p)))
        << label << " node " << p;
  }
}

TEST(Density, ComputeDensitiesIsBitEqualToNodeDensity) {
  util::Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const auto pts = topology::uniform_points(1 + rng.index(400), rng);
    expect_bit_equal_to_node_density(
        topology::unit_disk_graph(pts, rng.uniform(0.02, 0.5)), "udg");
  }
  for (std::size_t n = 1; n <= 40; n += 3) {
    graph::Graph complete(n);
    graph::Graph star(n);
    for (graph::NodeId a = 0; a < n; ++a) {
      for (graph::NodeId b = a + 1; b < n; ++b) complete.add_edge(a, b);
      if (a > 0) star.add_edge(0, a);
    }
    complete.finalize();
    star.finalize();
    expect_bit_equal_to_node_density(complete, "complete");
    expect_bit_equal_to_node_density(star, "star");
    expect_bit_equal_to_node_density(graph::Graph(n), "edgeless");
  }
  expect_bit_equal_to_node_density(graph::Graph(), "empty");
}

TEST(Density, SmoothsDegreeChanges) {
  // The motivating property: removing one node from a dense neighborhood
  // changes the density by O(1/|N_p|), while the degree changes by 1.
  // Build p with k mutually-linked neighbors, then drop one.
  const std::size_t k = 10;
  graph::Graph full(k + 1);
  for (graph::NodeId a = 0; a <= k; ++a) {
    for (graph::NodeId b = a + 1; b <= k; ++b) full.add_edge(a, b);
  }
  full.finalize();
  graph::Graph smaller(k + 1);  // same but node k isolated
  for (graph::NodeId a = 0; a < k; ++a) {
    for (graph::NodeId b = a + 1; b < k; ++b) smaller.add_edge(a, b);
  }
  smaller.finalize();
  const double before = testsupport::node_density(full, 0);
  const double after = testsupport::node_density(smaller, 0);
  EXPECT_NEAR(before - after, 0.5, 1e-9);  // K11 vs K10: 5.5 -> 5.0
}

}  // namespace
}  // namespace ssmwn
