#include "core/density.hpp"

namespace ssmwn::core {

std::vector<double> compute_densities(const graph::Graph& g) {
  // e(N_p) is the number of triangles through p. Find each triangle
  // p < q < w once, from its lowest corner: mark N_p, scan N_q above q
  // for marked nodes, and credit all three corners. The numerator and
  // division below are those of the per-node definition, so the results
  // are bit-equal to it.
  const std::size_t n = g.node_count();
  std::vector<std::size_t> triangles(n, 0);
  std::vector<graph::NodeId> mark(n, graph::kInvalidNode);
  for (graph::NodeId p = 0; p < n; ++p) {
    const auto np = g.neighbors(p);
    for (graph::NodeId q : np) mark[q] = p;
    for (graph::NodeId q : np) {
      if (q < p) continue;
      for (graph::NodeId w : g.neighbors(q)) {
        if (w > q && mark[w] == p) {
          ++triangles[p];
          ++triangles[q];
          ++triangles[w];
        }
      }
    }
  }
  std::vector<double> densities(n, 0.0);
  for (graph::NodeId p = 0; p < n; ++p) {
    const std::size_t degree = g.degree(p);
    if (degree == 0) continue;
    densities[p] = static_cast<double>(degree + triangles[p]) /
                   static_cast<double>(degree);
  }
  return densities;
}

std::size_t edges_among(const graph::Graph& g,
                        std::span<const graph::NodeId> nodes) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (g.adjacent(nodes[i], nodes[j])) ++count;
    }
  }
  return count;
}

}  // namespace ssmwn::core
