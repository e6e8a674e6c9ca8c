// Unit-disk graph construction.
//
// The radio model of the paper: p and q are neighbors iff their distance
// is at most the transmission range R (bidirectional by construction).
//
// Construction is a uniform cell-bucket sweep, O(n + m) in expectation
// for the paper's bounded-density deployments: nodes are counting-sorted
// into square cells of side R over the points' bounding box (widened
// when R is tiny against the box; see topology/cell_grid.hpp), so every
// potential neighbor of a node lives in its own or one of the 8
// surrounding cells. A half-stencil sweep in cell order (a node's cell
// successors plus four forward cells, over a cell-ordered copy of the
// positions) tests every candidate pair once, with squared distances
// (no sqrt); the edges go to the graph's flat edge list, and
// `finalize()` sorts them into CSR rows. The same bucketing, widened by
// a skin margin, powers the incremental index in
// topology/incremental.hpp — rebuilding from scratch every mobility
// snapshot is the *fallback* path; the dynamic-topology runtime patches
// edge deltas instead.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "topology/point.hpp"

namespace ssmwn::topology {

/// Builds the unit-disk graph over `points` with transmission range
/// `radius` (inclusive).
[[nodiscard]] graph::Graph unit_disk_graph(std::span<const Point> points,
                                           double radius);

}  // namespace ssmwn::topology
