#include "topology/udg.hpp"

#include <cstddef>
#include <stdexcept>

#include "topology/cell_grid.hpp"

namespace ssmwn::topology {

graph::Graph unit_disk_graph(std::span<const Point> points, double radius) {
  if (radius <= 0.0) {
    throw std::invalid_argument("unit_disk_graph: radius must be positive");
  }
  const std::size_t n = points.size();
  graph::Graph g(n);
  if (n == 0) return g;

  // Bucket nodes into cells of side >= `radius`; candidate neighbors of
  // a node then all live in its own or the 8 surrounding cells.
  const CellGrid grid = make_cell_grid(points, radius);

  // Counting-sort nodes by cell for cache-friendly traversal, with a
  // cell-ordered copy of the positions for the distance pass to stream.
  std::vector<std::uint32_t> cell_start(grid.cell_count() + 1, 0);
  for (const Point& p : points) ++cell_start[grid.cell_of(p) + 1];
  for (std::size_t c = 1; c < cell_start.size(); ++c) {
    cell_start[c] += cell_start[c - 1];
  }
  std::vector<graph::NodeId> by_cell(n);
  std::vector<Point> sorted(n);
  {
    std::vector<std::uint32_t> cursor(cell_start.begin(), cell_start.end() - 1);
    for (graph::NodeId i = 0; i < n; ++i) {
      const std::uint32_t slot = cursor[grid.cell_of(points[i])]++;
      by_cell[slot] = i;
      sorted[slot] = points[i];
    }
  }

  // Half stencil: a node's cell successors plus the four forward
  // neighbor cells that exist, so every pair in the same or adjacent
  // cells is tested exactly once.
  constexpr long kForward[4][2] = {{1, 0}, {-1, 1}, {0, 1}, {1, 1}};
  const double r2 = radius * radius;
  auto test_range = [&](std::size_t s, std::uint32_t from, std::uint32_t to) {
    for (std::uint32_t t = from; t < to; ++t) {
      if (squared_distance(sorted[s], sorted[t]) <= r2) {
        g.add_edge(by_cell[s], by_cell[t]);
      }
    }
  };
  for (std::size_t s = 0; s < n; ++s) {
    const auto cx = static_cast<long>(grid.column(sorted[s]));
    const auto cy = static_cast<long>(grid.row(sorted[s]));
    const std::size_t own = grid.cell_of(sorted[s]);
    test_range(s, static_cast<std::uint32_t>(s) + 1, cell_start[own + 1]);
    for (const auto& [dx, dy] : kForward) {
      const long nx = cx + dx;
      const long ny = cy + dy;
      if (nx < 0 || ny < 0 || nx >= static_cast<long>(grid.cells_x) ||
          ny >= static_cast<long>(grid.cells_y)) {
        continue;
      }
      const std::size_t cell = static_cast<std::size_t>(ny) * grid.cells_x +
                               static_cast<std::size_t>(nx);
      test_range(s, cell_start[cell], cell_start[cell + 1]);
    }
  }
  g.finalize();
  return g;
}

}  // namespace ssmwn::topology
