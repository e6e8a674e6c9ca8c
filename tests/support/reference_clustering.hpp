// The two-hop-set reference clustering: the synchronous solver as it read
// before `core::cluster_by_metric` started walking N²_p in place. Both
// fusion scans materialize N²_p with `testsupport::two_hop_neighborhood`
// (sorted, deduplicated) and visit it in ascending index order. The
// differential tests demand that the production solver returns the same
// ClusteringResult; it is never used to produce results.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/clustering.hpp"
#include "core/soa_state.hpp"
#include "graph/forest.hpp"
#include "support/oracles.hpp"

namespace ssmwn::testsupport {

inline core::ClusteringResult reference_cluster_by_metric(
    const graph::Graph& g, const topology::IdAssignment& uids,
    std::span<const double> metric, const core::ClusterOptions& options,
    std::span<const std::uint64_t> dag_ids = {},
    std::span<const char> previous_heads = {}) {
  const std::size_t n = g.node_count();
  core::ClusteringResult result;
  result.metric.assign(metric.begin(), metric.end());
  result.rank.resize(n);
  for (graph::NodeId p = 0; p < n; ++p) {
    core::NodeRank& rank = result.rank[p];
    rank.metric = metric[p];
    rank.uid = uids[p];
    rank.tie_id = options.use_dag_ids
                      ? static_cast<topology::ProtocolId>(dag_ids[p])
                      : uids[p];
    rank.incumbent = options.incumbency && !previous_heads.empty() &&
                     previous_heads[p] != 0;
  }
  const core::RankKeyColumn key =
      core::pack_rank_column(result.rank, options.incumbency);

  std::vector<char> local_max(n, 1);
  for (graph::NodeId p = 0; p < n; ++p) {
    for (graph::NodeId q : g.neighbors(p)) {
      if (core::packed_precedes(key[p], key[q])) {
        local_max[p] = 0;
        break;
      }
    }
  }

  result.is_head.assign(n, 0);
  if (!options.fusion) {
    for (graph::NodeId p = 0; p < n; ++p) result.is_head[p] = local_max[p];
  } else {
    std::vector<graph::NodeId> order;
    for (graph::NodeId p = 0; p < n; ++p) {
      if (local_max[p]) order.push_back(p);
    }
    std::sort(order.begin(), order.end(),
              [&](graph::NodeId a, graph::NodeId b) {
                return core::packed_precedes(key[b], key[a]);
              });
    for (graph::NodeId p : order) {
      bool blocked = false;
      for (graph::NodeId q : testsupport::two_hop_neighborhood(g, p)) {
        if (result.is_head[q] && core::packed_precedes(key[p], key[q])) {
          blocked = true;
          break;
        }
      }
      if (!blocked) result.is_head[p] = 1;
    }
  }

  result.parent.resize(n);
  for (graph::NodeId p = 0; p < n; ++p) {
    if (result.is_head[p]) {
      result.parent[p] = p;
      continue;
    }
    if (!local_max[p]) {
      graph::NodeId best = g.neighbors(p).front();
      for (graph::NodeId q : g.neighbors(p)) {
        if (core::packed_precedes(key[best], key[q])) best = q;
      }
      result.parent[p] = best;
      continue;
    }
    graph::NodeId dominating = graph::kInvalidNode;
    for (graph::NodeId q : testsupport::two_hop_neighborhood(g, p)) {
      if (!result.is_head[q] || !core::packed_precedes(key[p], key[q])) {
        continue;
      }
      if (dominating == graph::kInvalidNode ||
          core::packed_precedes(key[dominating], key[q])) {
        dominating = q;
      }
    }
    if (dominating == graph::kInvalidNode) {
      throw std::logic_error("reference: demoted without dominator");
    }
    graph::NodeId witness = graph::kInvalidNode;
    for (graph::NodeId x : g.neighbors(p)) {
      if (!g.adjacent(x, dominating)) continue;
      if (witness == graph::kInvalidNode ||
          core::packed_precedes(key[witness], key[x])) {
        witness = x;
      }
    }
    if (witness == graph::kInvalidNode) {
      throw std::logic_error("reference: dominator not at 2 hops");
    }
    result.parent[p] = witness;
  }

  const graph::ParentForest forest(result.parent);
  result.head_index.resize(n);
  result.head_id.resize(n);
  for (graph::NodeId p = 0; p < n; ++p) {
    result.head_index[p] = forest.root(p);
    result.head_id[p] = uids[forest.root(p)];
  }
  for (graph::NodeId p = 0; p < n; ++p) {
    if (result.is_head[p]) result.heads.push_back(p);
  }
  return result;
}

}  // namespace ssmwn::testsupport
