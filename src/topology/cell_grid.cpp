#include "topology/cell_grid.hpp"

#include <cmath>
#include <stdexcept>

namespace ssmwn::topology {

CellGrid make_cell_grid(std::span<const Point> points, double reach) {
  double max_x = points[0].x;
  double max_y = points[0].y;
  CellGrid grid{points[0].x, points[0].y, reach, 1, 1};
  for (const Point& p : points) {
    grid.min_x = std::min(grid.min_x, p.x);
    max_x = std::max(max_x, p.x);
    grid.min_y = std::min(grid.min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double width = max_x - grid.min_x;
  const double height = max_y - grid.min_y;
  if (!std::isfinite(width) || !std::isfinite(height)) {
    throw std::invalid_argument("make_cell_grid: non-finite coordinates");
  }
  // Cell counts in double, so a tiny side can neither overflow the
  // product nor cast an out-of-range value to size_t.
  const double cap = 4.0 * static_cast<double>(points.size()) + 64.0;
  auto cells = [&](double extent) {
    return std::floor(extent / grid.side) + 1.0;
  };
  while (cells(width) * cells(height) > cap) grid.side *= 2.0;
  grid.cells_x = static_cast<std::size_t>(cells(width));
  grid.cells_y = static_cast<std::size_t>(cells(height));
  return grid;
}

}  // namespace ssmwn::topology
