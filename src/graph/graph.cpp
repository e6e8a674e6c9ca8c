#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace ssmwn::graph {

void Graph::add_edge(NodeId a, NodeId b) {
  if (a == b) throw std::invalid_argument("Graph::add_edge: self-loop");
  if (a >= node_count_ || b >= node_count_) {
    throw std::out_of_range("Graph::add_edge: node out of range");
  }
  if (finalized_ && edge_count_ > 0) {
    // Re-opening a finalized graph: unpack the CSR edges into the edge
    // list. The CSR arrays stay queryable until the next finalize().
    pending_.reserve(edge_count_ + 1);
    for (NodeId p = 0; p < node_count_; ++p) {
      for (NodeId q : neighbors(p)) {
        if (p < q) pending_.emplace_back(p, q);
      }
    }
  }
  pending_.emplace_back(a, b);
  ++edge_count_;
  finalized_ = false;
}

void Graph::finalize() {
  if (finalized_) return;

  // Counting sort by endpoint: degrees into offsets_[p + 1], prefix
  // sums, then scatter each edge into both rows using offsets_[p] as the
  // row cursor. Afterwards offsets_[p] holds the end of row p, so one
  // shift restores the row starts.
  offsets_.assign(node_count_ + 1, 0);
  for (const auto& [a, b] : pending_) {
    ++offsets_[a + 1];
    ++offsets_[b + 1];
  }
  for (std::size_t p = 1; p <= node_count_; ++p) {
    offsets_[p] += offsets_[p - 1];
  }
  flat_.resize(2 * pending_.size());
  for (const auto& [a, b] : pending_) {
    flat_[offsets_[a]++] = b;
    flat_[offsets_[b]++] = a;
  }
  for (std::size_t p = node_count_; p > 0; --p) offsets_[p] = offsets_[p - 1];
  offsets_[0] = 0;

  for (NodeId p = 0; p < node_count_; ++p) {
    const auto row_begin =
        flat_.begin() + static_cast<std::ptrdiff_t>(offsets_[p]);
    const auto row_end =
        flat_.begin() + static_cast<std::ptrdiff_t>(offsets_[p + 1]);
    std::sort(row_begin, row_end);
    if (std::adjacent_find(row_begin, row_end) != row_end) {
      throw std::logic_error("Graph::finalize: duplicate edge inserted");
    }
  }
  pending_.clear();
  pending_.shrink_to_fit();
  mirror_.clear();  // stale after a rebuild; rebuilt on demand

  finalized_ = true;
}

void Graph::build_mirror() const {
  // Mirror index: directed edge e = (p → q) maps to the position of
  // (q → p) inside q's sorted row.
  mirror_.resize(flat_.size());
  for (NodeId p = 0; p < node_count_; ++p) {
    for (std::size_t e = offsets_[p]; e < offsets_[p + 1]; ++e) {
      const NodeId q = flat_[e];
      const auto row_begin =
          flat_.begin() + static_cast<std::ptrdiff_t>(offsets_[q]);
      const auto row_end =
          flat_.begin() + static_cast<std::ptrdiff_t>(offsets_[q + 1]);
      const auto it = std::lower_bound(row_begin, row_end, p);
      mirror_[e] = static_cast<std::size_t>(it - flat_.begin());
    }
  }
}

std::size_t Graph::max_degree() const noexcept {
  std::size_t delta = 0;
  for (NodeId p = 0; p < node_count_; ++p) {
    delta = std::max(delta, degree(p));
  }
  return delta;
}

bool Graph::adjacent(NodeId a, NodeId b) const noexcept {
  const auto row = neighbors(a);
  return std::binary_search(row.begin(), row.end(), b);
}

std::vector<std::pair<NodeId, NodeId>> Graph::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(edge_count_);
  for (NodeId a = 0; a < node_count_; ++a) {
    for (NodeId b : neighbors(a)) {
      if (a < b) out.emplace_back(a, b);
    }
  }
  return out;
}

Graph from_edges(std::size_t node_count,
                 std::initializer_list<std::pair<NodeId, NodeId>> edges) {
  Graph g(node_count);
  for (auto [a, b] : edges) g.add_edge(a, b);
  g.finalize();
  return g;
}

}  // namespace ssmwn::graph
