// FNV-1a over the protocol state every rule can act on — the fold the
// state pins compare (tests/sim/state_trajectory_test.cpp and the fault
// classes' pins in tests/verify/faults_test.cpp): per node the shared
// variables, RNG state and async observability fields, then per cache
// entry its key, header fields and age, the relayed id sequence and,
// under fusion, the entry's best head record (of the relayed neighbors
// with a valid metric that are their own heads and are not the holder,
// the highest-ranked: the fusion scan's maximum over the entries'
// records is its maximum over all of them).
#pragma once

#include <bit>
#include <cstdint>

#include "core/protocol.hpp"
#include "util/rng.hpp"

namespace ssmwn::testsupport {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

inline void fold_relay(Fnv& h, const core::DensityProtocol& protocol,
                       const core::DensityProtocol::CacheEntry& entry) {
  const auto ids = entry.relay.ids();
  h.add(static_cast<std::uint64_t>(ids.size()));
  for (const topology::ProtocolId id : ids) h.add(id);
  if (!protocol.config().cluster.fusion) return;
  h.add(static_cast<std::uint64_t>(entry.relay.has_head()));
  if (entry.relay.has_head()) {
    const core::HeadRecord best = entry.relay.head();
    h.add(best.id);
    h.add(best.dag_id);
    h.add(best.metric);
  }
}

inline void fold_state(Fnv& h, const core::DensityProtocol& protocol) {
  for (graph::NodeId p = 0; p < protocol.node_count(); ++p) {
    const auto s = protocol.state(p);
    h.add(s.uid);
    h.add(s.dag_id);
    h.add(s.metric);
    h.add(static_cast<std::uint64_t>(s.metric_valid));
    h.add(s.head);
    h.add(static_cast<std::uint64_t>(s.head_valid));
    h.add(s.parent);
    h.add(static_cast<std::uint64_t>(s.parent_valid));
    util::Rng rng = s.rng;
    h.add(rng());
    h.add(s.last_heard_s);
    h.add(s.deliveries);
    h.add(static_cast<std::uint64_t>(s.cache.size()));
    for (const auto& [id, entry] : s.cache) {
      h.add(id);
      h.add(entry.dag_id);
      h.add(entry.metric);
      h.add(static_cast<std::uint64_t>(entry.metric_valid));
      h.add(entry.head);
      h.add(static_cast<std::uint64_t>(entry.head_valid));
      h.add(static_cast<std::uint64_t>(entry.age));
      fold_relay(h, protocol, entry);
    }
  }
}

}  // namespace ssmwn::testsupport
