// Uniform square-cell bucketing for fixed-reach neighbor searches.
//
// `unit_disk_graph`, `IncrementalUdg` and `graph::plan_spatial_shards`
// all bucket points into square cells over their bounding box, indexed
// row * cells_x + column, so that every point within `reach` of a point
// lies in its own cell or one of the 8 around it. The cell side is
// `reach` itself unless that grid would hold more than 4n + 64 cells (a
// tiny radius over a wide box); then the side doubles until the grid
// fits. A wider side never loses a neighbor, so the edge sets built on
// the grid do not depend on it, and a grid that already fits is exactly
// the one a plain side-`reach` bucketing gives.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "topology/point.hpp"

namespace ssmwn::topology {

struct CellGrid {
  double min_x = 0.0;
  double min_y = 0.0;
  double side = 1.0;  ///< ≥ the reach the grid was made for
  std::size_t cells_x = 1;
  std::size_t cells_y = 1;

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return cells_x * cells_y;
  }
  [[nodiscard]] std::size_t column(const Point& p) const noexcept {
    return std::min(static_cast<std::size_t>((p.x - min_x) / side),
                    cells_x - 1);
  }
  [[nodiscard]] std::size_t row(const Point& p) const noexcept {
    return std::min(static_cast<std::size_t>((p.y - min_y) / side),
                    cells_y - 1);
  }
  [[nodiscard]] std::size_t cell_of(const Point& p) const noexcept {
    return row(p) * cells_x + column(p);
  }
};

/// The grid over the bounding box of `points` (non-empty, finite
/// coordinates) for neighbor searches of reach `reach` > 0.
[[nodiscard]] CellGrid make_cell_grid(std::span<const Point> points,
                                      double reach);

}  // namespace ssmwn::topology
