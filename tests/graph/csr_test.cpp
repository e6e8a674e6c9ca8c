// CSR adjacency vs an independent reference representation.
//
// The CSR arrays are the hot path of the step engine; these tests pin
// them to a straightforward set-based adjacency built from the same
// random edge list, and check the mirror-edge index the parallel
// delivery phase relies on. The edge-list build is checked against the
// same reference with edges inserted in random order across a re-open.
#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ssmwn {
namespace {

struct Reference {
  std::vector<std::set<graph::NodeId>> adjacency;
  std::size_t edge_count = 0;
};

/// G(n, p) built simultaneously into a Graph and a reference structure.
std::pair<graph::Graph, Reference> random_pair(std::size_t n, double p,
                                               util::Rng& rng) {
  graph::Graph g(n);
  Reference ref;
  ref.adjacency.resize(n);
  for (graph::NodeId a = 0; a < n; ++a) {
    for (graph::NodeId b = a + 1; b < n; ++b) {
      if (rng.chance(p)) {
        g.add_edge(a, b);
        ref.adjacency[a].insert(b);
        ref.adjacency[b].insert(a);
        ++ref.edge_count;
      }
    }
  }
  g.finalize();
  return {std::move(g), std::move(ref)};
}

TEST(Csr, MatchesReferenceAdjacencyOnRandomGraphs) {
  util::Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 50 + rng.index(150);
    const double p = rng.uniform(0.0, 0.15);
    const auto [g, ref] = random_pair(n, p, rng);

    ASSERT_EQ(g.node_count(), n);
    ASSERT_EQ(g.edge_count(), ref.edge_count);
    for (graph::NodeId v = 0; v < n; ++v) {
      const auto row = g.neighbors(v);
      ASSERT_EQ(row.size(), ref.adjacency[v].size()) << "node " << v;
      ASSERT_EQ(g.degree(v), ref.adjacency[v].size());
      // std::set iterates in sorted order, matching the sorted CSR row.
      std::size_t i = 0;
      for (graph::NodeId w : ref.adjacency[v]) {
        EXPECT_EQ(row[i], w) << "node " << v << " slot " << i;
        EXPECT_TRUE(g.adjacent(v, w));
        EXPECT_TRUE(g.adjacent(w, v));
        ++i;
      }
    }
  }
}

TEST(Csr, OffsetsPartitionTheFlatArray) {
  util::Rng rng(7);
  const auto [g, ref] = random_pair(120, 0.05, rng);
  const auto offsets = g.csr_offsets();
  const auto flat = g.csr_neighbors();
  ASSERT_EQ(offsets.size(), g.node_count() + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), flat.size());
  EXPECT_EQ(flat.size(), 2 * g.edge_count());
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    const auto row = g.neighbors(v);
    EXPECT_EQ(row.data(), flat.data() + offsets[v]);
    EXPECT_EQ(row.size(), offsets[v + 1] - offsets[v]);
  }
}

TEST(Csr, MirrorEdgeIsAnInvolutionAcrossDirections) {
  util::Rng rng(11);
  const auto [g, ref] = random_pair(100, 0.08, rng);
  const auto offsets = g.csr_offsets();
  const auto flat = g.csr_neighbors();
  for (graph::NodeId p = 0; p < g.node_count(); ++p) {
    for (std::size_t e = offsets[p]; e < offsets[p + 1]; ++e) {
      const graph::NodeId q = flat[e];
      const std::size_t m = g.mirror_edge(e);
      // m lies in q's row and points back at p.
      ASSERT_GE(m, offsets[q]);
      ASSERT_LT(m, offsets[q + 1]);
      EXPECT_EQ(flat[m], p);
      EXPECT_EQ(g.mirror_edge(m), e);
    }
  }
}

TEST(Csr, ReopeningAFinalizedGraphPreservesEdges) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize();
  g.add_edge(2, 3);  // the edge list was released; rebuilt from CSR
  g.finalize();
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(1, 2));
  EXPECT_TRUE(g.adjacent(2, 3));
  EXPECT_FALSE(g.adjacent(0, 3));
}

/// Every query of `g` against an ordered set of (low, high) edges.
void expect_matches_edge_set(
    const graph::Graph& g,
    const std::set<std::pair<graph::NodeId, graph::NodeId>>& want) {
  ASSERT_EQ(g.edge_count(), want.size());
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), want.size());
  // edges() lists (low, high) pairs in ascending order, like the set.
  EXPECT_TRUE(std::equal(edges.begin(), edges.end(), want.begin()));
  std::vector<std::vector<graph::NodeId>> rows(g.node_count());
  for (const auto& [a, b] : want) {
    rows[a].push_back(b);
    rows[b].push_back(a);
  }
  const auto offsets = g.csr_offsets();
  const auto flat = g.csr_neighbors();
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    std::sort(rows[v].begin(), rows[v].end());
    const auto row = g.neighbors(v);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), rows[v].begin(),
                           rows[v].end()))
        << "node " << v;
    for (std::size_t e = offsets[v]; e < offsets[v + 1]; ++e) {
      const std::size_t m = g.mirror_edge(e);
      ASSERT_GE(m, offsets[flat[e]]);
      ASSERT_LT(m, offsets[flat[e] + 1]);
      EXPECT_EQ(flat[m], v);
    }
  }
}

TEST(Csr, EdgeListBuildMatchesASetReferenceAcrossAReopen) {
  util::Rng rng(2026);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + rng.index(90);
    std::vector<std::pair<graph::NodeId, graph::NodeId>> pool;
    for (graph::NodeId a = 0; a < n; ++a) {
      for (graph::NodeId b = a + 1; b < n; ++b) {
        if (rng.chance(0.2)) pool.emplace_back(a, b);
      }
    }
    rng.shuffle(std::span(pool));
    const std::size_t split = rng.index(pool.size() + 1);
    graph::Graph g(n);
    std::set<std::pair<graph::NodeId, graph::NodeId>> want;
    auto insert = [&](std::size_t from, std::size_t to) {
      for (std::size_t i = from; i < to; ++i) {
        auto [a, b] = pool[i];
        if (rng.chance(0.5)) std::swap(a, b);  // either orientation
        g.add_edge(a, b);
        want.insert(pool[i]);
      }
    };
    insert(0, split);
    g.finalize();
    expect_matches_edge_set(g, want);

    // Re-open: until the next finalize() every query but edge_count()
    // still answers from the first build.
    const auto first = want;
    insert(split, pool.size());
    EXPECT_EQ(g.edge_count(), pool.size());
    const auto old_edges = g.edges();
    EXPECT_TRUE(std::equal(old_edges.begin(), old_edges.end(),
                           first.begin(), first.end()));
    for (const auto& [a, b] : first) EXPECT_TRUE(g.adjacent(a, b));
    g.finalize();
    expect_matches_edge_set(g, want);
  }
}

TEST(Csr, EdgeListBuildStillRejectsBadEdges) {
  graph::Graph g(4);
  EXPECT_THROW(g.add_edge(2, 2), std::invalid_argument);
  EXPECT_THROW(g.add_edge(1, 4), std::out_of_range);
  EXPECT_THROW(g.add_edge(4, 1), std::out_of_range);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  // A duplicate of an edge from before the re-open, in either order.
  g.add_edge(3, 2);
  EXPECT_THROW(g.finalize(), std::logic_error);
  graph::Graph h(3);
  h.add_edge(0, 2);
  h.add_edge(1, 2);
  h.add_edge(0, 2);
  EXPECT_THROW(h.finalize(), std::logic_error);
}

}  // namespace
}  // namespace ssmwn
