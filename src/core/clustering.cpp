#include "core/clustering.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/density.hpp"
#include "core/soa_state.hpp"

namespace ssmwn::core {

namespace {

std::vector<NodeRank> build_ranks(const graph::Graph& g,
                                  const topology::IdAssignment& uids,
                                  std::span<const double> metric,
                                  const ClusterOptions& options,
                                  std::span<const std::uint64_t> dag_ids,
                                  std::span<const char> previous_heads) {
  const std::size_t n = g.node_count();
  std::vector<NodeRank> ranks(n);
  for (graph::NodeId p = 0; p < n; ++p) {
    ranks[p].metric = metric[p];
    ranks[p].uid = uids[p];
    ranks[p].tie_id =
        options.use_dag_ids ? static_cast<topology::ProtocolId>(dag_ids[p])
                            : uids[p];
    ranks[p].incumbent = options.incumbency && !previous_heads.empty() &&
                         previous_heads[p] != 0;
  }
  return ranks;
}

/// Calls `visit` on every node of N²_p (N_p and its neighbors, minus p)
/// until it returns true; returns whether it did. Walks the CSR rows in
/// place, so a node reachable along several paths is visited once per
/// path: callers must only ask order- and repeat-insensitive questions.
template <class Visit>
bool scan_two_hops(const graph::Graph& g, graph::NodeId p, Visit&& visit) {
  for (graph::NodeId v : g.neighbors(p)) {
    if (visit(v)) return true;
    for (graph::NodeId w : g.neighbors(v)) {
      if (w != p && visit(w)) return true;
    }
  }
  return false;
}

}  // namespace

ClusteringResult cluster_by_metric(const graph::Graph& g,
                                   const topology::IdAssignment& uids,
                                   std::span<const double> metric,
                                   const ClusterOptions& options,
                                   std::span<const std::uint64_t> dag_ids,
                                   std::span<const char> previous_heads) {
  const std::size_t n = g.node_count();
  if (uids.size() != n || metric.size() != n) {
    throw std::invalid_argument("cluster_by_metric: size mismatch");
  }
  if (options.use_dag_ids && dag_ids.size() != n) {
    throw std::invalid_argument(
        "cluster_by_metric: use_dag_ids set but dag_ids missing");
  }
  if (!previous_heads.empty() && previous_heads.size() != n) {
    throw std::invalid_argument("cluster_by_metric: previous_heads size");
  }

  ClusteringResult result;
  result.metric.assign(metric.begin(), metric.end());
  result.rank =
      build_ranks(g, uids, metric, options, dag_ids, previous_heads);
  const bool inc = options.incumbency;
  // Pack every rank once; all the ≺ comparisons below become single
  // integer compares on the columnar keys (docs/ARCHITECTURE.md §9).
  const RankKeyColumn key = pack_rank_column(result.rank, inc);

  // A node is a local maximum iff it ≺-dominates its whole neighborhood.
  std::vector<char> local_max(n, 1);
  for (graph::NodeId p = 0; p < n; ++p) {
    for (graph::NodeId q : g.neighbors(p)) {
      if (packed_precedes(key[p], key[q])) {
        local_max[p] = 0;
        break;
      }
    }
  }

  // Head confirmation. Without fusion every local maximum is a head. With
  // fusion, process local maxima in decreasing ≺ order: p is confirmed
  // iff no already-confirmed head in N²_p dominates it. Any head that
  // could dominate p is ≻ p and hence already decided, so one pass gives
  // the fixpoint the distributed rules settle into.
  result.is_head.assign(n, 0);
  if (!options.fusion) {
    for (graph::NodeId p = 0; p < n; ++p) result.is_head[p] = local_max[p];
  } else {
    std::vector<graph::NodeId> order;
    order.reserve(n);
    for (graph::NodeId p = 0; p < n; ++p) {
      if (local_max[p]) order.push_back(p);
    }
    std::sort(order.begin(), order.end(),
              [&](graph::NodeId a, graph::NodeId b) {
                return packed_precedes(key[b], key[a]);  // decreasing
              });
    for (graph::NodeId p : order) {
      if (!scan_two_hops(g, p, [&](graph::NodeId q) {
            return result.is_head[q] && packed_precedes(key[p], key[q]);
          })) {
        result.is_head[p] = 1;
      }
    }
  }

  // Parent selection (the F function).
  result.parent.resize(n);
  for (graph::NodeId p = 0; p < n; ++p) {
    if (result.is_head[p]) {
      result.parent[p] = p;
      continue;
    }
    if (!local_max[p]) {
      // F(p) = max≺ N_p. Isolated nodes are always local maxima, so N_p
      // is non-empty here.
      graph::NodeId best = g.neighbors(p).front();
      for (graph::NodeId q : g.neighbors(p)) {
        if (packed_precedes(key[best], key[q])) best = q;
      }
      result.parent[p] = best;
      continue;
    }
    // Demoted local maximum (fusion only): join the dominating head
    // through the ≺-best common neighbor.
    graph::NodeId dominating = graph::kInvalidNode;
    scan_two_hops(g, p, [&](graph::NodeId q) {
      if (result.is_head[q] && packed_precedes(key[p], key[q]) &&
          (dominating == graph::kInvalidNode ||
           packed_precedes(key[dominating], key[q]))) {
        dominating = q;
      }
      return false;
    });
    if (dominating == graph::kInvalidNode) {
      throw std::logic_error("cluster_by_metric: demoted without dominator");
    }
    graph::NodeId witness = graph::kInvalidNode;
    for (graph::NodeId x : g.neighbors(p)) {
      if (!g.adjacent(x, dominating)) continue;
      if (witness == graph::kInvalidNode ||
          packed_precedes(key[witness], key[x])) {
        witness = x;
      }
    }
    if (witness == graph::kInvalidNode) {
      throw std::logic_error("cluster_by_metric: dominator not at 2 hops");
    }
    result.parent[p] = witness;
  }

  // Resolve H by following parent chains (acyclic; see header comment).
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

ClusteringResult cluster_density(const graph::Graph& g,
                                 const topology::IdAssignment& uids,
                                 const ClusterOptions& options,
                                 std::span<const std::uint64_t> dag_ids,
                                 std::span<const char> previous_heads) {
  const auto densities = compute_densities(g);
  return cluster_by_metric(g, uids, densities, options, dag_ids,
                           previous_heads);
}

}  // namespace ssmwn::core
