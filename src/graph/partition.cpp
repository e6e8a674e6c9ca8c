#include "graph/partition.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "topology/cell_grid.hpp"

namespace ssmwn::graph {

namespace {

/// Clamp a requested shard count against the node count: at least one
/// shard (even over an empty graph), at most one node per shard.
std::size_t clamp_shards(std::size_t n, std::size_t shards) {
  if (shards == 0) shards = 1;
  return std::min(shards, std::max<std::size_t>(1, n));
}

/// Equal-chunk bounds over [0, n): shard s gets [s*n/S, (s+1)*n/S), the
/// same floor arithmetic everywhere so sizes differ by at most one.
std::vector<std::size_t> even_bounds(std::size_t n, std::size_t shards) {
  std::vector<std::size_t> bounds(shards + 1);
  for (std::size_t s = 0; s <= shards; ++s) bounds[s] = s * n / shards;
  return bounds;
}

}  // namespace

std::size_t ShardPlan::shard_of(NodeId p) const noexcept {
  // upper_bound over the (short) bounds array; bounds[s] <= p < bounds[s+1].
  const auto it = std::upper_bound(bounds.begin(), bounds.end(),
                                   static_cast<std::size_t>(p));
  return static_cast<std::size_t>(it - bounds.begin()) - 1;
}

bool ShardPlan::valid() const {
  const std::size_t n = to_new.size();
  if (to_old.size() != n) return false;
  if (bounds.size() < 2 || bounds.front() != 0 || bounds.back() != n) {
    return false;
  }
  for (std::size_t s = 1; s < bounds.size(); ++s) {
    if (bounds[s] < bounds[s - 1]) return false;
  }
  std::vector<std::uint8_t> seen(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId old = to_old[i];
    if (old >= n || seen[old]) return false;
    seen[old] = 1;
    if (to_new[old] != i) return false;
  }
  return true;
}

ShardPlan plan_contiguous_shards(std::size_t n, std::size_t shards) {
  ShardPlan plan;
  plan.to_new.resize(n);
  plan.to_old.resize(n);
  std::iota(plan.to_new.begin(), plan.to_new.end(), NodeId{0});
  std::iota(plan.to_old.begin(), plan.to_old.end(), NodeId{0});
  plan.bounds = even_bounds(n, clamp_shards(n, shards));
  return plan;
}

ShardPlan plan_spatial_shards(std::span<const topology::Point> points,
                              double radius, std::size_t shards) {
  if (!(radius > 0.0)) {
    throw std::invalid_argument("plan_spatial_shards: radius must be positive");
  }
  const std::size_t n = points.size();
  if (n == 0) return plan_contiguous_shards(0, shards);

  // Identical cell geometry to topology::unit_disk_graph: cells of side
  // `radius` (widened only for a tiny radius) over the bounding box,
  // indexed cy * cells_x + cx. Keeping the two in lockstep means a shard
  // boundary in the new numbering is also a cell boundary of the radio
  // model (up to chunk rounding), so cross-shard edges are confined to
  // adjacent cell rows.
  const topology::CellGrid grid = topology::make_cell_grid(points, radius);

  // Counting sort by cell (stable: within a cell, ascending original
  // index) — the cell-major order IS the new numbering.
  std::vector<std::uint32_t> cell_start(grid.cell_count() + 1, 0);
  for (const topology::Point& p : points) ++cell_start[grid.cell_of(p) + 1];
  for (std::size_t c = 1; c < cell_start.size(); ++c) {
    cell_start[c] += cell_start[c - 1];
  }
  ShardPlan plan;
  plan.to_old.resize(n);
  {
    std::vector<std::uint32_t> cursor(cell_start.begin(), cell_start.end() - 1);
    for (NodeId i = 0; i < n; ++i) {
      plan.to_old[cursor[grid.cell_of(points[i])]++] = i;
    }
  }
  plan.to_new.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    plan.to_new[plan.to_old[i]] = static_cast<NodeId>(i);
  }
  plan.bounds = even_bounds(n, clamp_shards(n, shards));
  return plan;
}

Graph permute_graph(const Graph& g, const ShardPlan& plan) {
  Graph out(g.node_count());
  for (const auto& [a, b] : g.edges()) {
    out.add_edge(plan.to_new[a], plan.to_new[b]);
  }
  out.finalize();
  return out;
}

}  // namespace ssmwn::graph
