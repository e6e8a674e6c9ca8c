// Bitwise state comparison for the differential harnesses: the lockstep
// tests and the bench equivalence gates step two protocol copies and
// demand identical state after every step. These helpers find the first
// node where two populations differ and say how; no production path
// calls them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <sstream>
#include <string>

#include "core/protocol.hpp"
#include "core/soa_state.hpp"
#include "graph/graph.hpp"
#include "support/merge_kernels.hpp"

namespace ssmwn::testsupport {

/// First row where two scalar populations diverge bitwise, or
/// `a.size()` when they are identical. Column-major: seven flat scans,
/// each one a vectorizable loop, instead of one gather-heavy row loop.
[[nodiscard]] inline std::size_t first_divergent_row(
    const core::NodeScalars& a, const core::NodeScalars& b) {
  const auto column = [](const auto& x, const auto& y) {
    return first_mismatch_index(x.data(), y.data(), x.size());
  };
  std::size_t first = a.size();
  first = std::min(first, column(a.dag_id, b.dag_id));
  first = std::min(first, column(a.metric, b.metric));
  first = std::min(first, column(a.head, b.head));
  first = std::min(first, column(a.parent, b.parent));
  first = std::min(first, column(a.metric_valid, b.metric_valid));
  first = std::min(first, column(a.head_valid, b.head_valid));
  first = std::min(first, column(a.parent_valid, b.parent_valid));
  return first;
}

namespace detail {

inline bool cache_entries_equal(const core::DensityProtocol::CacheEntry& a,
                                const core::DensityProtocol::CacheEntry& b) {
  const auto wa = a.relay.words();
  const auto wb = b.relay.words();
  return a.dag_id == b.dag_id && core::double_bits_equal(a.metric, b.metric) &&
         a.metric_valid == b.metric_valid && a.head == b.head &&
         a.head_valid == b.head_valid && a.age == b.age &&
         a.relay.has_head() == b.relay.has_head() &&
         std::equal(wa.begin(), wa.end(), wb.begin(), wb.end());
}

/// Node `p`'s state outside the SoA scalars — uid, RNG, async
/// observability fields and the full cache (ages and relay lists
/// included) — is bit-identical in both protocols.
inline bool cold_state_equal(const core::DensityProtocol& a,
                             const core::DensityProtocol& b, graph::NodeId p) {
  const auto sa = a.state(p);
  const auto sb = b.state(p);
  if (sa.uid != sb.uid || !(sa.rng == sb.rng) ||
      !core::double_bits_equal(sa.last_heard_s, sb.last_heard_s) ||
      sa.deliveries != sb.deliveries) {
    return false;
  }
  if (sa.cache.size() != sb.cache.size()) return false;
  auto ib = sb.cache.begin();
  for (const auto& [id, entry] : sa.cache) {
    if (ib->first != id || !cache_entries_equal(entry, ib->second)) {
      return false;
    }
    ++ib;
  }
  return true;
}

}  // namespace detail

/// First node whose state differs bitwise, or nullopt when the two
/// populations are identical. Scans the SoA columns first (vectorized),
/// then the cold state of candidate rows.
[[nodiscard]] inline std::optional<graph::NodeId> first_divergent_node(
    const core::DensityProtocol& a, const core::DensityProtocol& b) {
  if (a.node_count() != b.node_count()) return graph::NodeId{0};
  // Hot scalars first: one vectorized pass over the SoA columns finds
  // the earliest scalar divergence; cold state is then checked row by
  // row only up to that bound.
  const std::size_t scalar_first = first_divergent_row(a.scalars(), b.scalars());
  for (graph::NodeId p = 0; p < a.node_count(); ++p) {
    if (p == scalar_first) return p;
    if (!detail::cold_state_equal(a, b, p)) return p;
  }
  if (scalar_first < a.node_count()) {
    return static_cast<graph::NodeId>(scalar_first);
  }
  return std::nullopt;
}

/// Human-readable description of how node `p` differs between the two
/// protocols (field names and both values) — the payload of a
/// divergence report from the equivalence harness.
[[nodiscard]] inline std::string describe_divergence(
    const core::DensityProtocol& a, const core::DensityProtocol& b,
    graph::NodeId p) {
  std::ostringstream out;
  const auto sa = a.state(p);
  const auto sb = b.state(p);
  const auto field = [&out](const char* name, const auto& va,
                            const auto& vb) {
    if (va != vb) {
      out << ' ' << name << '=' << +va << " vs " << +vb;
    }
  };
  field("uid", sa.uid, sb.uid);
  field("dag_id", sa.dag_id, sb.dag_id);
  field("metric", sa.metric, sb.metric);
  field("metric_valid", sa.metric_valid, sb.metric_valid);
  field("head", sa.head, sb.head);
  field("head_valid", sa.head_valid, sb.head_valid);
  field("parent", sa.parent, sb.parent);
  field("parent_valid", sa.parent_valid, sb.parent_valid);
  field("last_heard_s", sa.last_heard_s, sb.last_heard_s);
  field("deliveries", sa.deliveries, sb.deliveries);
  if (!(sa.rng == sb.rng)) out << " rng=<diverged>";
  if (sa.cache.size() != sb.cache.size()) {
    out << " cache_size=" << sa.cache.size() << " vs " << sb.cache.size();
  } else {
    auto ib = sb.cache.begin();
    for (const auto& [id, entry] : sa.cache) {
      if (ib->first != id) {
        out << " cache_key=" << id << " vs " << ib->first;
        break;
      }
      if (!detail::cache_entries_equal(entry, ib->second)) {
        out << " cache[" << id << "]=<diverged age " << entry.age << " vs "
            << ib->second.age << '>';
        break;
      }
      ++ib;
    }
  }
  const std::string text = out.str();
  return text.empty() ? std::string(" <bitwise identical>") : text;
}

}  // namespace ssmwn::testsupport
