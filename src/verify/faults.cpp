#include "verify/faults.hpp"

#include <algorithm>

namespace ssmwn::verify {

std::string_view to_string(FaultClass fault) noexcept {
  switch (fault) {
    case FaultClass::kRandomAll: return "random-all";
    case FaultClass::kMetricSkew: return "metric-skew";
    case FaultClass::kClusterIdNoise: return "cluster-id-noise";
    case FaultClass::kStaleCache: return "stale-cache";
    case FaultClass::kHierarchyLoops: return "hierarchy-loops";
    case FaultClass::kPartialFrame: return "partial-frame";
  }
  return "?";
}

std::string_view to_string(Daemon daemon) noexcept {
  switch (daemon) {
    case Daemon::kSynchronous: return "synchronous";
    case Daemon::kRandomized: return "randomized";
    case Daemon::kUnfair: return "unfair";
  }
  return "?";
}

namespace {

using core::DensityProtocol;
using graph::NodeId;
using topology::ProtocolId;

/// A metric value in the range real densities occupy (Definition 1 gives
/// d_p in [1, (δ+1)/2]); plausible garbage is harder to flush than
/// obvious garbage because no single rule firing exposes it.
double plausible_metric(util::Rng& rng) { return rng.uniform(0.5, 4.0); }

/// A protocol id that usually names a real node and sometimes a phantom.
ProtocolId noisy_id(const topology::IdAssignment& ids, util::Rng& rng) {
  if (!ids.empty() && rng.chance(0.8)) return ids[rng.index(ids.size())];
  return rng.below(2 * std::max<std::uint64_t>(1, ids.size()));
}

/// A relayed neighbor as the corruptor draws it: every field a frame
/// could say about it. The cache keeps only the compact form — the id,
/// and a head record when the neighbor is its own head with a valid
/// metric — but the draws (and the tears of partial-frame) run over the
/// full record, so every class draws the same numbers in the same order
/// whatever the cache keeps.
struct DrawnDigest {
  ProtocolId id = 0;
  std::uint64_t dag_id = 0;
  double metric = 0.0;
  bool metric_valid = false;
  bool is_head = false;
};

bool by_id(const DrawnDigest& a, const DrawnDigest& b) { return a.id < b.id; }

/// Draw buffers reused across the nodes of one corruption pass.
struct PlantScratch {
  struct Span {
    ProtocolId key;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<DrawnDigest> drawn;  // every entry's list, back to back
  std::vector<Span> spans;         // one per planted entry, in draw order
  std::vector<DrawnDigest> list;
  std::vector<ProtocolId> ids;
  std::vector<core::HeadRecord> heads;
};

/// Plants one cache entry per *true* neighbor `q` of `node`, with a
/// relayed digest per true neighbor-of-neighbor, and lets `mutate_entry`
/// / `mutate_digest` decide how the contents lie. Then, walking the
/// cache in id order, `tear` may damage each entry's sorted digest list
/// before its compact form is stored.
template <typename EntryFn, typename DigestFn, typename TearFn>
void plant_true_neighbors(DensityProtocol& protocol, const graph::Graph& g,
                          const topology::IdAssignment& ids, NodeId node,
                          CorruptionStats& stats, PlantScratch& scratch,
                          EntryFn&& mutate_entry, DigestFn&& mutate_digest,
                          TearFn&& tear) {
  auto state = protocol.mutable_state(node);
  // Corrupt the maintained e(N_p) alongside the cache it summarizes.
  // Deterministic (an LCG step, no rng draw) so the corruption streams
  // feeding the shared variables stay byte-identical across protocol
  // versions; mutable_state() already marked the count stale, so the
  // node's next R1 firing recomputes it regardless of this value.
  state.links_among =
      state.links_among * 6364136223846793005ULL + 1442695040888963407ULL;
  state.cache.clear();
  scratch.drawn.clear();
  scratch.spans.clear();
  for (const NodeId q : g.neighbors(node)) {
    DensityProtocol::CacheEntry& entry = state.cache[ids[q]];
    mutate_entry(q, entry);
    const std::size_t begin = scratch.drawn.size();
    for (const NodeId r : g.neighbors(q)) {
      DrawnDigest digest;
      digest.id = ids[r];
      mutate_digest(r, digest);
      scratch.drawn.push_back(digest);
    }
    std::sort(scratch.drawn.begin() + static_cast<std::ptrdiff_t>(begin),
              scratch.drawn.end(), by_id);
    scratch.spans.push_back({ids[q], begin, scratch.drawn.size()});
    ++stats.cache_entries_planted;
  }
  // A repeated uid re-plants its entry, so the last list drawn for a key
  // is the one it keeps.
  std::stable_sort(scratch.spans.begin(), scratch.spans.end(),
                   [](const PlantScratch::Span& a,
                      const PlantScratch::Span& b) { return a.key < b.key; });
  std::size_t k = 0;
  for (auto& [key, entry] : state.cache) {
    while (scratch.spans[k].key != key) ++k;
    while (k + 1 < scratch.spans.size() && scratch.spans[k + 1].key == key) {
      ++k;
    }
    const PlantScratch::Span& span = scratch.spans[k];
    scratch.list.assign(
        scratch.drawn.begin() + static_cast<std::ptrdiff_t>(span.begin),
        scratch.drawn.begin() + static_cast<std::ptrdiff_t>(span.end));
    tear(scratch.list);
    scratch.ids.clear();
    scratch.heads.clear();
    for (const DrawnDigest& d : scratch.list) {
      scratch.ids.push_back(d.id);
      if (d.is_head && d.metric_valid) {
        scratch.heads.push_back({d.id, d.dag_id, d.metric});
      }
    }
    protocol.plant_relay(node, entry, scratch.ids, scratch.heads);
  }
}

/// The tear of every class but partial-frame: none.
void keep_whole(std::vector<DrawnDigest>&) {}

void corrupt_metric_skew(DensityProtocol& protocol, const graph::Graph& g,
                         const topology::IdAssignment& ids, util::Rng& rng,
                         CorruptionStats& stats) {
  const std::uint64_t name_space = protocol.name_space();
  PlantScratch scratch;
  for (NodeId p = 0; p < g.node_count(); ++p) {
    auto s = protocol.mutable_state(p);
    s.dag_id = rng.below(2 * name_space);
    s.metric = rng.uniform(0.0, 8.0);
    s.metric_valid = rng.chance(0.9);
    plant_true_neighbors(
        protocol, g, ids, p, stats, scratch,
        [&](NodeId q, DensityProtocol::CacheEntry& entry) {
          entry.dag_id = rng.below(2 * name_space);
          entry.metric = rng.uniform(0.0, 8.0);
          entry.metric_valid = rng.chance(0.9);
          entry.head = ids[q];
          entry.head_valid = rng.chance(0.5);
          entry.age = 0;
        },
        [&](NodeId, DrawnDigest& d) {
          d.dag_id = rng.below(2 * name_space);
          d.metric = rng.uniform(0.0, 8.0);
          d.metric_valid = rng.chance(0.9);
          d.is_head = rng.chance(0.2);
          ++stats.digests_mutated;
        },
        keep_whole);
    ++stats.nodes_touched;
  }
}

void corrupt_cluster_id_noise(DensityProtocol& protocol,
                              const graph::Graph& g,
                              const topology::IdAssignment& ids,
                              util::Rng& rng, CorruptionStats& stats) {
  for (NodeId p = 0; p < g.node_count(); ++p) {
    auto s = protocol.mutable_state(p);
    s.head = noisy_id(ids, rng);
    s.head_valid = rng.chance(0.9);
    s.parent = noisy_id(ids, rng);
    s.parent_valid = rng.chance(0.9);
    // Same deterministic scribble plant_true_neighbors applies: the
    // maintained e(N_p) is adversary-writable state like everything
    // else reachable through mutable_state().
    s.links_among =
        s.links_among * 6364136223846793005ULL + 1442695040888963407ULL;
    ++stats.nodes_touched;
  }
}

void corrupt_stale_cache(DensityProtocol& protocol, const graph::Graph& g,
                         const topology::IdAssignment& ids, util::Rng& rng,
                         CorruptionStats& stats) {
  const std::uint32_t max_age = protocol.config().cache_max_age;
  const std::uint64_t name_space = protocol.name_space();
  PlantScratch scratch;
  for (NodeId p = 0; p < g.node_count(); ++p) {
    auto s = protocol.mutable_state(p);
    // Everyone remembers a world in which it was doing fine — valid
    // flags set, plausible numbers, and (half the time) itself as head.
    s.metric = plausible_metric(rng);
    s.metric_valid = true;
    if (rng.chance(0.5)) {
      s.head = s.uid;
      s.parent = s.uid;
    } else {
      s.head = noisy_id(ids, rng);
      s.parent = noisy_id(ids, rng);
    }
    s.head_valid = true;
    s.parent_valid = true;
    plant_true_neighbors(
        protocol, g, ids, p, stats, scratch,
        [&](NodeId, DensityProtocol::CacheEntry& entry) {
          entry.dag_id = rng.below(name_space);
          entry.metric = plausible_metric(rng);
          entry.metric_valid = true;
          entry.head = noisy_id(ids, rng);
          entry.head_valid = true;
          // At the eviction brink: one or two quiet rounds from being
          // aged out, so recovery races cache replacement.
          entry.age = max_age - static_cast<std::uint32_t>(
                                    rng.index(std::min<std::uint32_t>(
                                        3, max_age + 1)));
        },
        [&](NodeId, DrawnDigest& d) {
          d.dag_id = rng.below(name_space);
          d.metric = plausible_metric(rng);
          d.metric_valid = true;
          d.is_head = rng.chance(0.3);
          ++stats.digests_mutated;
        },
        keep_whole);
    ++stats.nodes_touched;
  }
}

void corrupt_hierarchy_loops(DensityProtocol& protocol, const graph::Graph& g,
                             const topology::IdAssignment& ids,
                             util::Rng& rng, CorruptionStats& stats) {
  // A random functional graph over real ids: parent pointers follow a
  // random neighbor (cycles arise with high probability), heads name a
  // random real node. Caches repeat the same lie so the first heard
  // frames *reinforce* the bogus hierarchy instead of correcting it.
  std::vector<ProtocolId> bogus_head(g.node_count());
  for (NodeId p = 0; p < g.node_count(); ++p) {
    bogus_head[p] = ids[rng.index(g.node_count())];
  }
  PlantScratch scratch;
  for (NodeId p = 0; p < g.node_count(); ++p) {
    auto s = protocol.mutable_state(p);
    const auto neighbors = g.neighbors(p);
    s.parent = neighbors.empty() ? s.uid
                                 : ids[neighbors[rng.index(neighbors.size())]];
    s.parent_valid = true;
    s.head = bogus_head[p];
    s.head_valid = true;
    s.metric = plausible_metric(rng);
    s.metric_valid = true;
    plant_true_neighbors(
        protocol, g, ids, p, stats, scratch,
        [&](NodeId q, DensityProtocol::CacheEntry& entry) {
          entry.dag_id = rng.below(protocol.name_space());
          entry.metric = plausible_metric(rng);
          entry.metric_valid = true;
          entry.head = bogus_head[q];
          entry.head_valid = true;
          entry.age = 0;
        },
        [&](NodeId r, DrawnDigest& d) {
          d.metric = plausible_metric(rng);
          d.metric_valid = true;
          d.is_head = bogus_head[r] == ids[r];
          ++stats.digests_mutated;
        },
        keep_whole);
    ++stats.nodes_touched;
  }
}

void corrupt_partial_frame(DensityProtocol& protocol, const graph::Graph& g,
                           const topology::IdAssignment& ids, util::Rng& rng,
                           CorruptionStats& stats) {
  // Start from an accurate cache (the state right after a clean round),
  // then tear the relayed digest lists the way a half-received frame
  // would: truncations, flag flips, ids rewritten to other nodes.
  PlantScratch scratch;
  for (NodeId p = 0; p < g.node_count(); ++p) {
    plant_true_neighbors(
        protocol, g, ids, p, stats, scratch,
        [&](NodeId q, DensityProtocol::CacheEntry& entry) {
          entry.dag_id = rng.below(protocol.name_space());
          entry.metric = plausible_metric(rng);
          entry.metric_valid = true;
          entry.head = ids[q];
          entry.head_valid = rng.chance(0.5);
          entry.age = 0;
        },
        [&](NodeId, DrawnDigest& d) {
          d.metric = plausible_metric(rng);
          d.metric_valid = true;
          d.is_head = false;
        },
        [&](std::vector<DrawnDigest>& digests) {
          if (digests.empty()) return;
          if (rng.chance(0.5)) {  // torn tail
            digests.resize(rng.index(digests.size()) + 1);
            ++stats.digests_mutated;
          }
          if (rng.chance(0.4)) {  // corrupted id byte
            digests[rng.index(digests.size())].id = noisy_id(ids, rng);
            ++stats.digests_mutated;
          }
          if (rng.chance(0.4)) {  // flipped head bit
            DrawnDigest& d = digests[rng.index(digests.size())];
            d.is_head = !d.is_head;
            ++stats.digests_mutated;
          }
          // Keep the sorted-by-id invariant the protocol's binary searches
          // document; a torn frame reassembled by the radio layer would
          // still be ordered, just wrong.
          std::sort(digests.begin(), digests.end(), by_id);
        });
    ++stats.nodes_touched;
  }
}

}  // namespace

CorruptionStats StateCorruptor::apply(core::DensityProtocol& protocol,
                                      FaultClass fault,
                                      util::Rng& rng) const {
  CorruptionStats stats;
  switch (fault) {
    case FaultClass::kRandomAll:
      protocol.corrupt_all(rng);
      stats.nodes_touched = protocol.node_count();
      break;
    case FaultClass::kMetricSkew:
      corrupt_metric_skew(protocol, *graph_, *ids_, rng, stats);
      break;
    case FaultClass::kClusterIdNoise:
      corrupt_cluster_id_noise(protocol, *graph_, *ids_, rng, stats);
      break;
    case FaultClass::kStaleCache:
      corrupt_stale_cache(protocol, *graph_, *ids_, rng, stats);
      break;
    case FaultClass::kHierarchyLoops:
      corrupt_hierarchy_loops(protocol, *graph_, *ids_, rng, stats);
      break;
    case FaultClass::kPartialFrame:
      corrupt_partial_frame(protocol, *graph_, *ids_, rng, stats);
      break;
  }
  return stats;
}

}  // namespace ssmwn::verify
