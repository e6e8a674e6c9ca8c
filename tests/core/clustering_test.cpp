// Tests for the synchronous clustering solver: the paper's worked example
// end-to-end, structural invariants on random geometry, the Section 4.3
// improvements, the Section 5 grid pathology, and a differential check
// against the two-hop-set reference solver.
#include "core/clustering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/dag_ids.hpp"
#include "core/density.hpp"
#include "graph/forest.hpp"
#include "support/paper_example.hpp"
#include "support/oracles.hpp"
#include "support/reference_clustering.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

using namespace testsupport;

TEST(Clustering, PaperExampleElectsHeadsHAndJ) {
  const auto g = paper_example_graph();
  const auto ids = paper_example_ids();
  const auto result = core::cluster_density(g, ids, {});

  EXPECT_EQ(result.cluster_count(), 2u);
  EXPECT_TRUE(result.is_head[H]);
  EXPECT_TRUE(result.is_head[J]);
  // The narrative chain: c joins b, b joins h, so H(c)=H(b)=h.
  EXPECT_EQ(result.parent[C], B);
  EXPECT_EQ(result.parent[B], H);
  EXPECT_EQ(result.head_index[C], H);
  EXPECT_EQ(result.head_index[B], H);
  EXPECT_EQ(result.head_index[H], H);
  // d_f = d_j and Id_j < Id_f, so f joins j.
  EXPECT_EQ(result.parent[F], J);
  EXPECT_EQ(result.head_index[F], J);
  EXPECT_EQ(result.head_index[J], J);
}

TEST(Clustering, PaperExampleParentsFollowMaxPrec) {
  const auto g = paper_example_graph();
  const auto ids = paper_example_ids();
  const auto result = core::cluster_density(g, ids, {});
  // i's strongest neighbor is h (density 1.5); e's only neighbor is i.
  EXPECT_EQ(result.parent[I], H);
  EXPECT_EQ(result.parent[E], I);
  // d's neighbors f and j tie at 1.5; Id_j = 1 < Id_f = 15, so F(d) = j.
  EXPECT_EQ(result.parent[D], J);
  // a's neighbors d and i tie at 1.25; Id_d = 13 < Id_i = 17, so F(a) = d.
  EXPECT_EQ(result.parent[A], D);
  EXPECT_EQ(result.head_index[A], J);
}

void check_invariants(const graph::Graph& g,
                      const core::ClusteringResult& r,
                      bool fusion) {
  const std::size_t n = g.node_count();
  ASSERT_EQ(r.parent.size(), n);
  // The parent structure is a forest rooted at the heads, growing along
  // radio links.
  const graph::ParentForest forest(r.parent);  // throws on a cycle
  EXPECT_TRUE(forest.respects_graph(g));
  for (graph::NodeId p = 0; p < n; ++p) {
    EXPECT_EQ(r.head_index[p], forest.root(p));
    EXPECT_EQ(static_cast<bool>(r.is_head[p]), forest.is_root(p));
    // H(p) is consistent along parent edges (every node is in its
    // parent's cluster).
    EXPECT_EQ(r.head_index[p], r.head_index[r.parent[p]]);
  }
  // Two neighbors are never both heads (the paper: "two neighbors can not
  // be both cluster-heads").
  for (graph::NodeId p = 0; p < n; ++p) {
    if (!r.is_head[p]) continue;
    for (graph::NodeId q : g.neighbors(p)) {
      EXPECT_FALSE(r.is_head[q])
          << "adjacent heads " << p << " and " << q;
    }
  }
  // Every cluster contains exactly one head, and every node reaches it.
  std::set<graph::NodeId> heads(r.heads.begin(), r.heads.end());
  for (graph::NodeId p = 0; p < n; ++p) {
    EXPECT_TRUE(heads.count(r.head_index[p]) == 1);
  }
  if (fusion) {
    // Section 4.3: with fusion, any two heads are at least 3 hops apart.
    for (graph::NodeId p : r.heads) {
      const auto two_hop = testsupport::two_hop_neighborhood(g, p);
      for (graph::NodeId q : two_hop) {
        EXPECT_FALSE(r.is_head[q])
            << "heads " << p << " and " << q << " within 2 hops";
      }
    }
  }
}

TEST(Clustering, InvariantsOnRandomGeometryBasic) {
  util::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pts = topology::uniform_points(300, rng);
    const auto g = topology::unit_disk_graph(pts, 0.08);
    const auto ids = topology::random_ids(g.node_count(), rng);
    const auto r = core::cluster_density(g, ids, {});
    check_invariants(g, r, /*fusion=*/false);
  }
}

TEST(Clustering, InvariantsOnRandomGeometryWithFusion) {
  util::Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pts = topology::uniform_points(300, rng);
    const auto g = topology::unit_disk_graph(pts, 0.08);
    const auto ids = topology::random_ids(g.node_count(), rng);
    core::ClusterOptions opt;
    opt.fusion = true;
    const auto r = core::cluster_density(g, ids, opt);
    check_invariants(g, r, /*fusion=*/true);
  }
}

TEST(Clustering, FusionNeverIncreasesClusterCount) {
  util::Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pts = topology::uniform_points(400, rng);
    const auto g = topology::unit_disk_graph(pts, 0.07);
    const auto ids = topology::random_ids(g.node_count(), rng);
    const auto basic = core::cluster_density(g, ids, {});
    core::ClusterOptions opt;
    opt.fusion = true;
    const auto fused = core::cluster_density(g, ids, opt);
    EXPECT_LE(fused.cluster_count(), basic.cluster_count());
  }
}

TEST(Clustering, IsolatedNodesAreTheirOwnHeads) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.finalize();
  const auto ids = topology::sequential_ids(4);
  const auto r = core::cluster_density(g, ids, {});
  EXPECT_TRUE(r.is_head[2]);
  EXPECT_TRUE(r.is_head[3]);
  EXPECT_EQ(r.cluster_count(), 3u);  // {0,1} + {2} + {3}
}

TEST(Clustering, EmptyGraph) {
  graph::Graph g(0);
  const auto r = core::cluster_density(g, {}, {});
  EXPECT_EQ(r.cluster_count(), 0u);
}

TEST(Clustering, SingleNode) {
  graph::Graph g(1);
  const auto r = core::cluster_density(g, {7}, {});
  EXPECT_EQ(r.cluster_count(), 1u);
  EXPECT_TRUE(r.is_head[0]);
  EXPECT_EQ(r.head_id[0], 7u);
}

TEST(Clustering, GridWithoutDagCollapsesToOneCluster) {
  // Section 5's pathology: on a grid with row-major ids, all interior
  // densities are equal and every tie resolves toward the smallest id, so
  // a single cluster spanning the network emerges.
  const std::size_t side = 16;
  const auto pts = topology::grid_points(side);
  const auto g = topology::unit_disk_graph(pts, 0.05 * 32.0 / side);
  const auto ids = topology::sequential_ids(g.node_count());
  const auto r = core::cluster_density(g, ids, {});
  EXPECT_EQ(r.cluster_count(), 1u);
  // The single head is the smallest-id corner among the interior-density
  // maxima, and the tree is network-scale deep.
  const auto forest = r.forest();
  EXPECT_GT(forest.tree_depth(r.heads.front()), side / 2);
}

TEST(Clustering, GridWithDagBreaksTheCollapse) {
  const std::size_t side = 16;
  const auto pts = topology::grid_points(side);
  const auto g = topology::unit_disk_graph(pts, 0.05 * 32.0 / side);
  const auto ids = topology::sequential_ids(g.node_count());
  util::Rng rng(11);
  const auto dag = core::build_dag_ids(g, ids, {}, rng);
  ASSERT_TRUE(dag.converged);
  core::ClusterOptions opt;
  opt.use_dag_ids = true;
  const auto r = core::cluster_density(g, ids, opt, dag.ids);
  EXPECT_GT(r.cluster_count(), 4u);
  check_invariants(g, r, /*fusion=*/false);
}

TEST(Clustering, MirroredIdsMirrorTheCollapseCorner) {
  // Reversing the adversarial id order must move the single cluster-head
  // to the opposite corner, not change the overall shape.
  const std::size_t side = 12;
  const auto pts = topology::grid_points(side);
  const auto g = topology::unit_disk_graph(pts, 0.05 * 32.0 / side);
  const auto fwd =
      core::cluster_density(g, topology::sequential_ids(g.node_count()), {});
  const auto rev =
      core::cluster_density(g, topology::reversed_ids(g.node_count()), {});
  ASSERT_EQ(fwd.cluster_count(), 1u);
  ASSERT_EQ(rev.cluster_count(), 1u);
  EXPECT_NE(fwd.heads.front(), rev.heads.front());
}

TEST(Clustering, IncumbencyKeepsTiedHeadInPlace) {
  // Two tied candidates; without incumbency the smaller id wins, with
  // incumbency the previous head wins even with the larger id.
  // Path graph: h1 - x - h2 where h1, h2 tie on density.
  //   0 - 1 - 2 - 3: densities 1,1,1,1 (path of 4: ends 1.0, middles 1.0).
  const auto g = graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const topology::IdAssignment ids{5, 6, 7, 4};  // node 3 has smallest id
  const auto densities = core::compute_densities(g);
  for (double d : densities) ASSERT_DOUBLE_EQ(d, 1.0);

  const auto plain = core::cluster_density(g, ids, {});
  // Smallest id (node 3) must win its neighborhood.
  EXPECT_TRUE(plain.is_head[3]);

  // Now mark node 0 as the previous head; with the incumbency order it
  // beats its tied neighbors regardless of id.
  core::ClusterOptions opt;
  opt.incumbency = true;
  std::vector<char> prev(4, 0);
  prev[0] = 1;
  const auto kept = core::cluster_density(g, ids, opt, {}, prev);
  EXPECT_TRUE(kept.is_head[0]);
}

TEST(Clustering, IncumbencyMatchesBasicWhenNoPreviousHeads) {
  util::Rng rng(13);
  const auto pts = topology::uniform_points(200, rng);
  const auto g = topology::unit_disk_graph(pts, 0.09);
  const auto ids = topology::random_ids(g.node_count(), rng);
  core::ClusterOptions opt;
  opt.incumbency = true;
  const auto with_inc = core::cluster_density(g, ids, opt);
  const auto without = core::cluster_density(g, ids, {});
  EXPECT_EQ(with_inc.parent, without.parent);
  EXPECT_EQ(with_inc.head_index, without.head_index);
}

TEST(Clustering, StableUnderRecomputation) {
  // Feeding a configuration's own heads back as "previous heads" must be
  // a fixpoint: the incumbency order only reinforces the winners.
  util::Rng rng(14);
  const auto pts = topology::uniform_points(250, rng);
  const auto g = topology::unit_disk_graph(pts, 0.08);
  const auto ids = topology::random_ids(g.node_count(), rng);
  core::ClusterOptions opt;
  opt.incumbency = true;
  const auto first = core::cluster_density(g, ids, opt);
  const auto second = core::cluster_density(
      g, ids, opt, {},
      std::span<const char>(first.is_head.data(), first.is_head.size()));
  // The *head set* is a fixpoint (incumbency only reinforces winners, and
  // heads are never adjacent, so no relative order between two incumbents
  // changes). Parent choices of third parties may legitimately re-resolve
  // ties toward the incumbents, so only the head set is compared.
  EXPECT_EQ(first.is_head, second.is_head);
  EXPECT_EQ(first.heads, second.heads);
}

TEST(Clustering, FusionDemotedMaximumJoinsDominatingCluster) {
  // Two local maxima exactly 2 hops apart (sharing witness node 1): the
  // paper's fusion scenario. Metrics are injected directly so the ranks
  // are unambiguous: S=0 (metric 3) and W=2 (metric 2) both dominate
  // their neighborhoods; with fusion, W is demoted by the head S in its
  // 2-neighborhood and joins S's cluster through the witness.
  //
  //   3 — 0(S) — 1(X) — 2(W) — 4
  const auto g =
      graph::from_edges(5, {{0, 3}, {0, 1}, {1, 2}, {2, 4}});
  const auto ids = topology::sequential_ids(5);
  const std::vector<double> metric{3.0, 1.0, 2.0, 0.5, 0.5};

  const auto basic = core::cluster_by_metric(g, ids, metric, {});
  EXPECT_EQ(basic.cluster_count(), 2u);
  EXPECT_TRUE(basic.is_head[0]);
  EXPECT_TRUE(basic.is_head[2]);

  core::ClusterOptions opt;
  opt.fusion = true;
  const auto fused = core::cluster_by_metric(g, ids, metric, opt);
  check_invariants(g, fused, /*fusion=*/true);
  EXPECT_EQ(fused.cluster_count(), 1u);
  EXPECT_TRUE(fused.is_head[0]);
  // The demoted maximum joined through the witness (its only neighbor
  // adjacent to the dominating head).
  EXPECT_EQ(fused.parent[2], 1u);
  for (graph::NodeId p = 0; p < 5; ++p) {
    EXPECT_EQ(fused.head_index[p], 0u);
  }
}

TEST(Clustering, FusionGuaranteesMinimumClusterDiameter) {
  // Section 4.3 claims fused clusters have diameter >= 2 (a head is never
  // alone with a single satellite when a dominating head is 2 hops away)
  // and heads are >= 3 hops apart; verified on random geometry.
  util::Rng rng(15);
  for (int trial = 0; trial < 5; ++trial) {
    const auto pts = topology::uniform_points(350, rng);
    const auto g = topology::unit_disk_graph(pts, 0.07);
    const auto ids = topology::random_ids(g.node_count(), rng);
    core::ClusterOptions opt;
    opt.fusion = true;
    const auto r = core::cluster_density(g, ids, opt);
    const auto forest = r.forest();
    for (graph::NodeId head : r.heads) {
      for (graph::NodeId q : testsupport::two_hop_neighborhood(g, head)) {
        EXPECT_FALSE(r.is_head[q]);
      }
    }
  }
}

TEST(Clustering, RejectsMismatchedInputs) {
  const auto g = paper_example_graph();
  EXPECT_THROW(core::cluster_density(g, topology::sequential_ids(3), {}),
               std::invalid_argument);
  core::ClusterOptions opt;
  opt.use_dag_ids = true;
  EXPECT_THROW(core::cluster_density(g, paper_example_ids(), opt),
               std::invalid_argument);
}

TEST(Clustering, MetricGeneralization) {
  // cluster_by_metric with the degree metric: node 0 (degree 3 star
  // center) must win against leaves.
  graph::Graph g(4);
  for (graph::NodeId leaf = 1; leaf < 4; ++leaf) g.add_edge(0, leaf);
  g.finalize();
  std::vector<double> metric(4);
  for (graph::NodeId p = 0; p < 4; ++p) {
    metric[p] = static_cast<double>(g.degree(p));
  }
  const auto ids = topology::IdAssignment{9, 1, 2, 3};  // center's id largest
  const auto r = core::cluster_by_metric(g, ids, metric, {});
  EXPECT_TRUE(r.is_head[0]);
  EXPECT_EQ(r.cluster_count(), 1u);
}

void expect_same_clustering(const core::ClusteringResult& got,
                            const core::ClusteringResult& want) {
  EXPECT_EQ(got.metric, want.metric);
  EXPECT_EQ(got.rank, want.rank);
  EXPECT_EQ(got.parent, want.parent);
  EXPECT_EQ(got.head_index, want.head_index);
  EXPECT_EQ(got.head_id, want.head_id);
  EXPECT_EQ(got.is_head, want.is_head);
  EXPECT_EQ(got.heads, want.heads);
}

TEST(Clustering, MatchesTheTwoHopSetReferenceOnRandomWorlds) {
  // The solver walks N²_p in place, visiting a node once per path to
  // it; the reference visits the sorted, deduplicated set. Random worlds
  // (some with heavily tied metrics) × {basic, improved, full} × random
  // incumbent masks must give identical results.
  util::Rng rng(2027);
  const core::ClusterOptions variants[] = {core::ClusterOptions::basic(),
                                           core::ClusterOptions::improved(),
                                           core::ClusterOptions::full()};
  for (int world = 0; world < 500; ++world) {
    const std::size_t n = 1 + rng.index(120);
    const auto pts = topology::uniform_points(n, rng);
    const auto g = topology::unit_disk_graph(pts, rng.uniform(0.05, 0.4));
    const auto ids = topology::random_ids(n, rng);
    std::vector<double> metric = core::compute_densities(g);
    if (world % 3 == 0) {
      // Few distinct values: most comparisons fall through to the ties.
      for (double& m : metric) m = static_cast<double>(rng.index(3));
    }
    const auto dag = core::build_dag_ids(g, ids, {}, rng);
    ASSERT_TRUE(dag.converged);
    std::vector<char> incumbents(n);
    const double share = rng.uniform();
    for (char& c : incumbents) c = rng.chance(share) ? 1 : 0;
    for (const auto& options : variants) {
      const std::span<const std::uint64_t> dag_ids =
          options.use_dag_ids ? std::span<const std::uint64_t>(dag.ids)
                              : std::span<const std::uint64_t>();
      SCOPED_TRACE(::testing::Message()
                   << "world " << world << " n " << n << " dag "
                   << options.use_dag_ids << " fusion " << options.fusion);
      expect_same_clustering(
          core::cluster_by_metric(g, ids, metric, options, dag_ids,
                                  incumbents),
          reference_cluster_by_metric(g, ids, metric, options, dag_ids,
                                      incumbents));
    }
  }
}

}  // namespace
}  // namespace ssmwn
