#include "core/density.hpp"

#include <algorithm>

#include "util/merge.hpp"

namespace ssmwn::core {

double node_density(const graph::Graph& g, graph::NodeId p) {
  const auto neighbors = g.neighbors(p);
  if (neighbors.empty()) return 0.0;
  // Each neighbor q contributes |N_q ∩ N_p| ordered pairs of adjacent
  // neighbors; halving yields e(N_p). This is the definition the
  // triangle count in compute_densities is tested against, so it stays
  // the plainest merge.
  std::size_t ordered_pairs = 0;
  for (graph::NodeId q : neighbors) {
    const auto nq = g.neighbors(q);
    ordered_pairs += util::intersect_count_linear(
        nq.data(), nq.size(), neighbors.data(), neighbors.size());
  }
  const std::size_t links = neighbors.size() + ordered_pairs / 2;
  return static_cast<double>(links) / static_cast<double>(neighbors.size());
}

std::vector<double> compute_densities(const graph::Graph& g) {
  // e(N_p) is the number of triangles through p. Find each triangle
  // p < q < w once, from its lowest corner: mark N_p, scan N_q above q
  // for marked nodes, and credit all three corners. The numerator and
  // division below are node_density's, so the results are bit-equal.
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
