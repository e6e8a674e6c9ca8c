// Plain reference kernels the tests check production code against:
// Definition 1's density of one node, the materialized 2-neighborhood
// N²_p, and the ≺-arg-max over a rank list or a packed key column. No
// production path calls them — `core::compute_densities`, the in-place
// two-hop scans of `core::cluster_by_metric` and the inline packed-key
// elections are what runs — so they live with the tests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "core/rank.hpp"
#include "graph/graph.hpp"
#include "support/merge_kernels.hpp"

namespace ssmwn::testsupport {

/// Density of a single node (Definition 1); 0 by convention for isolated
/// nodes. Each neighbor q contributes |N_q ∩ N_p| ordered pairs of
/// adjacent neighbors; halving yields e(N_p). `compute_densities` must
/// match it bit for bit (same integer numerator, same division).
inline double node_density(const graph::Graph& g, graph::NodeId p) {
  const auto neighbors = g.neighbors(p);
  if (neighbors.empty()) return 0.0;
  std::size_t ordered_pairs = 0;
  for (const graph::NodeId q : neighbors) {
    const auto nq = g.neighbors(q);
    ordered_pairs += testsupport::intersect_count_linear(
        nq.data(), nq.size(), neighbors.data(), neighbors.size());
  }
  const std::size_t links = neighbors.size() + ordered_pairs / 2;
  return static_cast<double>(links) / static_cast<double>(neighbors.size());
}

/// N²_p: nodes at hop distance exactly 1 or 2 from `node` (sorted, without
/// `node` itself). The fusion rule of Section 4.3 quantifies over this set.
inline std::vector<graph::NodeId> two_hop_neighborhood(const graph::Graph& g,
                                                       graph::NodeId node) {
  std::vector<graph::NodeId> out;
  for (const graph::NodeId v : g.neighbors(node)) {
    out.push_back(v);
    for (const graph::NodeId w : g.neighbors(v)) {
      if (w != node) out.push_back(w);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Index of the ≺-maximum among `ranks` (0 when empty), each packed once
/// and reduced with single integer compares.
inline std::size_t max_rank_index(std::span<const core::NodeRank> ranks,
                                  bool incumbency) {
  if (ranks.empty()) return 0;
  std::size_t best = 0;
  core::PackedRank best_key = core::pack_rank(ranks[0], incumbency);
  for (std::size_t i = 1; i < ranks.size(); ++i) {
    const core::PackedRank key = core::pack_rank(ranks[i], incumbency);
    if (core::packed_precedes(best_key, key)) {
      best_key = key;
      best = i;
    }
  }
  return best;
}

/// Index of the ≺-maximum over a packed key column (0 when empty).
inline std::size_t max_rank_key_index(std::span<const core::PackedRank> keys) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (core::packed_precedes(keys[best], keys[i])) best = i;
  }
  return best;
}

}  // namespace ssmwn::testsupport
