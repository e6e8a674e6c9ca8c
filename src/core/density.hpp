// The density metric (Definition 1 of the paper).
//
//   d_p = |{(v,w) ∈ E : v ∈ N_p, w ∈ {p} ∪ N_p}| / |N_p|
//
// i.e. the number of links inside p's closed 1-neighborhood that touch at
// least one neighbor of p, normalized by the number of neighbors. Since
// every neighbor contributes its link to p, this is equivalently
//
//   d_p = 1 + e(N_p) / |N_p|
//
// where e(N_p) counts the links among p's neighbors. The metric smooths
// microscopic churn: when one node moves in or out of N_p the degree jumps
// by 1, but the density moves by O(1/|N_p|).
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace ssmwn::core {

/// Densities of all nodes; 0 by convention for isolated nodes (they are
/// trivially their own cluster-heads, so the value never competes).
/// Counts each triangle once, from its lowest corner:
/// O(sum over edges {p < q} of deg(q)). Bit-equal at every node to the
/// per-node definition the tests keep (tests/support/oracles.hpp).
[[nodiscard]] std::vector<double> compute_densities(const graph::Graph& g);

/// Number of edges among the members of `nodes` (each counted once),
/// computed against `g`. Exposed for the distributed density rule, which
/// evaluates the same count over cached neighbor lists.
[[nodiscard]] std::size_t edges_among(const graph::Graph& g,
                                      std::span<const graph::NodeId> nodes);

}  // namespace ssmwn::core
