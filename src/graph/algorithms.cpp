#include "graph/algorithms.hpp"

#include <algorithm>
#include <queue>

namespace ssmwn::graph {

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source) {
  std::vector<std::uint32_t> dist(g.node_count(), kUnreachable);
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

std::vector<std::uint32_t> bfs_distances_within(const Graph& g, NodeId source,
                                                std::span<const char> allowed) {
  std::vector<std::uint32_t> dist(g.node_count(), kUnreachable);
  if (!allowed[source]) return dist;
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : g.neighbors(u)) {
      if (allowed[v] && dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

std::vector<std::uint32_t> connected_components(const Graph& g) {
  std::vector<std::uint32_t> label(g.node_count(), kUnreachable);
  std::uint32_t next = 0;
  std::queue<NodeId> frontier;
  for (NodeId start = 0; start < g.node_count(); ++start) {
    if (label[start] != kUnreachable) continue;
    label[start] = next;
    frontier.push(start);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (NodeId v : g.neighbors(u)) {
        if (label[v] == kUnreachable) {
          label[v] = next;
          frontier.push(v);
        }
      }
    }
    ++next;
  }
  return label;
}

std::size_t component_count(const Graph& g) {
  const auto labels = connected_components(g);
  std::uint32_t highest = 0;
  for (std::uint32_t l : labels) highest = std::max(highest, l);
  return g.node_count() == 0 ? 0 : highest + 1;
}

bool is_connected(const Graph& g) { return component_count(g) <= 1; }

std::uint32_t eccentricity(const Graph& g, NodeId node) {
  const auto dist = bfs_distances(g, node);
  std::uint32_t ecc = 0;
  for (std::uint32_t d : dist) {
    if (d != kUnreachable) ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t diameter(const Graph& g) {
  std::uint32_t best = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    best = std::max(best, eccentricity(g, u));
  }
  return best;
}

}  // namespace ssmwn::graph
