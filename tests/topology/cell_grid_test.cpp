// The shared neighbor-search cell grid: a grid that fits is the plain
// side-`reach` grid, a tiny radius widens the side instead of asking for
// an unbounded number of cells, and every grid user (unit_disk_graph,
// IncrementalUdg, plan_spatial_shards, a whole campaign run) keeps its
// results at such radii.
#include "topology/cell_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "graph/partition.hpp"
#include "topology/generators.hpp"
#include "topology/incremental.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

/// Brute-force unit-disk edges, (low, high) in ascending order.
std::vector<std::pair<graph::NodeId, graph::NodeId>> brute_force_edges(
    const std::vector<topology::Point>& pts, double radius) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> out;
  for (graph::NodeId a = 0; a < pts.size(); ++a) {
    for (graph::NodeId b = a + 1; b < pts.size(); ++b) {
      if (topology::squared_distance(pts[a], pts[b]) <= radius * radius) {
        out.emplace_back(a, b);
      }
    }
  }
  return out;
}

/// Uniform points in the unit square, each followed by a partner within
/// `gap` of it: a tiny radius still finds edges.
std::vector<topology::Point> pairs_of_points(std::size_t pairs, double gap,
                                             util::Rng& rng) {
  std::vector<topology::Point> pts;
  for (const auto& p : topology::uniform_points(pairs, rng)) {
    pts.push_back(p);
    pts.push_back({p.x + gap * rng.uniform(), p.y + gap * rng.uniform()});
  }
  return pts;
}

TEST(CellGrid, AGridThatFitsUsesTheReachAsItsSide) {
  util::Rng rng(3);
  const auto pts = topology::uniform_points(300, rng);
  const auto grid = topology::make_cell_grid(pts, 0.08);
  EXPECT_EQ(grid.side, 0.08);
  double min_x = 1.0, max_x = 0.0;
  for (const auto& p : pts) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
  }
  EXPECT_EQ(grid.min_x, min_x);
  EXPECT_EQ(grid.cells_x,
            static_cast<std::size_t>((max_x - min_x) / 0.08) + 1);
}

TEST(CellGrid, ATinyReachWidensTheSideWithinTheCellCap) {
  util::Rng rng(4);
  const auto pts = topology::uniform_points(50, rng);
  for (double reach : {1e-4, 1e-6, 1e-12, 1e-300}) {
    const auto grid = topology::make_cell_grid(pts, reach);
    EXPECT_GE(grid.side, reach);
    EXPECT_LE(grid.cell_count(), 4 * pts.size() + 64) << reach;
    for (const auto& p : pts) EXPECT_LT(grid.cell_of(p), grid.cell_count());
  }
  // One point, or all points coincident: a single cell at any reach.
  const std::vector<topology::Point> same(5, {0.5, 0.5});
  EXPECT_EQ(topology::make_cell_grid(same, 1e-300).cell_count(), 1u);
}

TEST(CellGrid, UnitDiskGraphIsExactAtTinyRadii) {
  util::Rng rng(5);
  for (double radius : {1e-6, 1e-9}) {
    const auto pts = pairs_of_points(200, radius, rng);
    const auto g = topology::unit_disk_graph(pts, radius);
    const auto want = brute_force_edges(pts, radius);
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(g.edges(), want) << radius;
  }
  const auto pts = topology::uniform_points(50, rng);
  EXPECT_EQ(topology::unit_disk_graph(pts, 1e-300).edge_count(), 0u);
}

TEST(CellGrid, IncrementalUdgAndSpatialShardsWorkAtTinyRadii) {
  util::Rng rng(6);
  const double radius = 1e-7;
  const auto pts = pairs_of_points(100, radius, rng);
  topology::IncrementalUdg index(pts, radius);
  EXPECT_EQ(index.current_graph().edges(), brute_force_edges(pts, radius));

  const auto plan = graph::plan_spatial_shards(pts, radius, 4);
  ASSERT_EQ(plan.node_count(), pts.size());
  std::set<graph::NodeId> seen(plan.to_new.begin(), plan.to_new.end());
  EXPECT_EQ(seen.size(), pts.size());
  for (graph::NodeId i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(plan.to_old[plan.to_new[i]], i);
  }
}

TEST(CellGrid, CampaignRunAtATinyRadiusYieldsIsolatedHeads) {
  // A side-radius grid over 50 nodes at radius 1e-6 would need ~10^12
  // cells. The run must finish with every node its own cluster-head.
  for (double radius : {1e-6, 1e-300}) {
    campaign::ScenarioConfig config;
    config.n = 50;
    config.radius = radius;
    config.steps = 2;
    campaign::RunWorkspace ws;
    const auto metrics = campaign::execute_run(config, 17, ws);
    EXPECT_EQ(metrics.cluster_count, 50.0) << radius;
    EXPECT_EQ(ws.previous.cluster_count(), 50u) << radius;
  }
}

}  // namespace
}  // namespace ssmwn
