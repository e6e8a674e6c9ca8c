// Spatial shard partitioning for the sharded step engine.
//
// A ShardPlan carves the node index space [0, n) into `shard_count()`
// contiguous ranges — the unit of ownership in sim::ShardedNetwork:
// each shard owns one range's protocol state, frame arena, and activity
// set, and only frames crossing a range boundary ride the inter-shard
// mailboxes. Contiguity is what makes ownership cheap (a node's shard is
// one branchless upper_bound away, and every per-shard sweep is a dense
// loop), so the interesting question is *which* permutation of the nodes
// the ranges cut.
//
//   * `plan_spatial_shards` renumbers nodes in cell-major order over the
//     same uniform cell grid the UDG construction buckets with
//     (topology/cell_grid.hpp): cells of side `radius`, widened only
//     when a tiny radius would need more than 4n + 64 cells, scanned
//     row-major, nodes within a cell in ascending original index. Radio
//     neighbors are then at most one cell row apart in the new numbering,
//     so cutting the sequence into equal chunks yields shards whose
//     boundary (cross-shard) edges are a thin geometric strip instead
//     of a random half of the edge set.
//   * `plan_contiguous_shards` keeps the original numbering (identity
//     permutation) and just cuts [0, n) into equal chunks — the right
//     plan when the numbering must not change (replaying a recorded
//     run, campaign reproducibility) or when no geometry exists.
//
// The plan carries both directions of the renumbering (`to_new`,
// `to_old`) so user-facing identities survive: callers permute their
// world *once* at build time (points, protocol ids — see `permuted`)
// and translate any external node reference through the maps; protocol
// identifiers travel with the nodes, so nothing observable changes.
//
// Degenerate inputs are normalized, never UB: the requested shard count
// is clamped to [1, max(1, n)] (an empty graph gets one empty shard),
// so `shards > nodes` silently degrades to one node per shard.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "topology/point.hpp"

namespace ssmwn::graph {

/// A contiguous sharding of the (possibly renumbered) node index space.
struct ShardPlan {
  /// old index -> new index; size n. Identity for contiguous plans.
  std::vector<NodeId> to_new;
  /// new index -> old index; inverse of `to_new`, size n.
  std::vector<NodeId> to_old;
  /// Shard s owns new indices [bounds[s], bounds[s+1]); size
  /// shard_count() + 1, bounds.front() == 0, bounds.back() == n.
  /// Ranges may be empty when shards were clamped against tiny n.
  std::vector<std::size_t> bounds;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return to_new.size();
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return bounds.empty() ? 0 : bounds.size() - 1;
  }
  /// The shard owning new index `p` (binary search over bounds).
  [[nodiscard]] std::size_t shard_of(NodeId p) const noexcept;
  /// True iff to_new/to_old are mutually inverse permutations and the
  /// bounds are a monotone cover of [0, n].
  [[nodiscard]] bool valid() const;
};

/// Cell-major spatial plan over the UDG cell grid (cells of side
/// `radius` across the points' bounding box, scanned row-major; ties
/// within a cell keep ascending original index). `radius` must be
/// positive; `shards` is clamped to [1, max(1, n)].
[[nodiscard]] ShardPlan plan_spatial_shards(
    std::span<const topology::Point> points, double radius,
    std::size_t shards);

/// Identity-permutation plan: cuts [0, n) into `shards` equal chunks
/// without renumbering. `shards` is clamped to [1, max(1, n)].
[[nodiscard]] ShardPlan plan_contiguous_shards(std::size_t n,
                                               std::size_t shards);

/// Rebuilds `g` under the plan's renumbering: edge {a, b} becomes
/// {to_new[a], to_new[b]}. The result is a plain finalized Graph —
/// adjacency is identical up to the relabeling (asserted by the
/// partition tests through `to_old`).
[[nodiscard]] Graph permute_graph(const Graph& g, const ShardPlan& plan);

/// Reorders any per-node vector into the plan's numbering:
/// result[new_index] = values[to_old[new_index]]. The member-template
/// shape keeps it header-only for arbitrary payload types (points,
/// protocol ids, energy budgets, ...).
template <typename T>
[[nodiscard]] std::vector<T> permuted(const ShardPlan& plan,
                                      const std::vector<T>& values) {
  std::vector<T> out;
  out.reserve(values.size());
  for (const NodeId old : plan.to_old) out.push_back(values[old]);
  return out;
}

}  // namespace ssmwn::graph
