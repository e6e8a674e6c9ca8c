// Graph algorithms needed by the clustering metrics and the evaluation
// harness: BFS hop distances, connected components, eccentricity and
// diameter, and 2-neighborhood enumeration (the paper's N²_p).
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace ssmwn::graph {

inline constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();

/// Hop distances from `source` to every node (kUnreachable if disconnected).
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const Graph& g,
                                                       NodeId source);

/// BFS restricted to nodes for which `allowed[node]` is true; distances to
/// excluded nodes are kUnreachable. Used for intra-cluster eccentricity,
/// where paths must stay inside the cluster.
[[nodiscard]] std::vector<std::uint32_t> bfs_distances_within(
    const Graph& g, NodeId source, std::span<const char> allowed);

/// Component label per node (labels are 0..k-1 in discovery order).
[[nodiscard]] std::vector<std::uint32_t> connected_components(const Graph& g);

[[nodiscard]] std::size_t component_count(const Graph& g);

[[nodiscard]] bool is_connected(const Graph& g);

/// Eccentricity of `node` within its connected component.
[[nodiscard]] std::uint32_t eccentricity(const Graph& g, NodeId node);

/// Exact diameter (max eccentricity over its largest component); O(n·m),
/// fine at the paper's scales (~1000 nodes).
[[nodiscard]] std::uint32_t diameter(const Graph& g);

}  // namespace ssmwn::graph
