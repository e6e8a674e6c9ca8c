#include "core/protocol.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "util/env.hpp"
#include "util/merge.hpp"

namespace ssmwn::core {

namespace {

/// Key projection for the sorted-by-id digest kernels.
struct DigestId {
  topology::ProtocolId operator()(const NeighborDigest& d) const noexcept {
    return d.id;
  }
};

/// Binary search for `id` in a digest list sorted by id.
bool digest_contains(const DigestList& digests, topology::ProtocolId id) {
  return util::contains_sorted(digests.data(), digests.size(), id, DigestId{});
}

using Cache = FlatMap<topology::ProtocolId, DensityProtocol::CacheEntry>;

/// Pairwise believed-link count over a cache: a pair (q, r) of cached
/// neighbors counts iff either relayed digest list names the other. The
/// trusted reference the incremental count is maintained against — kept
/// in the most transparent form (same shape as the pre-maintenance R1).
std::uint64_t recompute_links(const Cache& cache) {
  std::uint64_t links = 0;
  for (auto a = cache.begin(); a != cache.end(); ++a) {
    for (auto b = std::next(a); b != cache.end(); ++b) {
      if (digest_contains(a->second.digests, b->first) ||
          digest_contains(b->second.digests, a->first)) {
        ++links;
      }
    }
  }
  return links;
}

/// How many believed links the entry `(q, list)` carries: pairs (q, r)
/// over the *other* cached neighbors r with r ∈ list or q ∈ r's list.
/// One merge of `list` against the cache keys plus a reverse-containment
/// probe for the unmatched keys — the delta applied when an entry is
/// inserted (list = the incoming digests, entry already in the cache) or
/// evicted (list = the stored digests, entry not yet erased).
std::uint64_t entry_link_count(const Cache& cache, topology::ProtocolId q,
                               std::span<const NeighborDigest> list) {
  std::uint64_t links = 0;
  std::size_t i = 0;
  for (const auto& [key, other] : cache) {
    if (key == q) continue;
    while (i < list.size() && list[i].id < key) ++i;
    const bool believed = (i < list.size() && list[i].id == key) ||
                          digest_contains(other.digests, q);
    links += static_cast<std::uint64_t>(believed);
  }
  return links;
}

/// ±1 contribution of one id flipping in/out of q's digest list: the
/// pair (q, x) gains/loses existence only if x is another cached
/// neighbor whose own list does not already name q (the OR keeps the
/// pair alive regardless of q's side).
std::uint64_t delta_if_sole_witness(const Cache& cache, topology::ProtocolId q,
                                    topology::ProtocolId x) {
  if (x == q) return 0;  // (q, q) is not a pair
  const auto it = cache.find(x);
  if (it == cache.end()) return 0;  // x not cached: no pair either way
  return digest_contains(it->second.digests, q) ? 0 : 1;
}

}  // namespace

DensityProtocol::DensityProtocol(topology::IdAssignment uids,
                                 ProtocolConfig config, util::Rng rng)
    : uids_(std::move(uids)), config_(config) {
  name_space_ = config_.dag_name_space;
  if (name_space_ == 0) {
    name_space_ = config_.delta_hint * config_.delta_hint + 1;
  }
  name_space_ = std::max<std::uint64_t>(name_space_, config_.delta_hint + 1);

  cols_.resize(uids_.size());
  aux_.resize(uids_.size());
  for (graph::NodeId p = 0; p < aux_.size(); ++p) {
    aux_[p].rng = rng.split();
    cols_.dag_id[p] = aux_[p].rng.below(name_space_);
  }

  maintenance_ = config_.density_maintenance;
  if (maintenance_ == DensityMaintenance::kIncremental &&
      util::env_int("SSMWN_CHECK_DENSITY", 0) != 0) {
    maintenance_ = DensityMaintenance::kChecked;
  }
  maintain_links_ = config_.metric == ElectionMetric::Density &&
                    maintenance_ != DensityMaintenance::kRecompute;
  links_among_.assign(uids_.size(), 0);
  // Stale at birth: the first R1 firing per node computes the count from
  // whatever the cache then holds (trivially 0 for an empty cache).
  links_fresh_.assign(uids_.size(), 0);
  resync_.assign(uids_.size(), 0);
  // Rank keys are trivially fresh at birth: every cache is empty.
  ranks_fresh_.assign(uids_.size(), 1);

  // The paper's program, verbatim as guarded commands. Guards that are
  // plain `true` in the paper stay `true` here; N1's effective guard is
  // the conflict test folded into newId.
  engine_
      .add(
          "N1", [this](const NodeState&) { return config_.cluster.use_dag_ids; },
          [this](NodeState& s) { rule_n1(s); })
      .add(
          "R1", [](const NodeState&) { return true; },
          [this](NodeState& s) { rule_r1(s); })
      .add(
          "R2", [](const NodeState&) { return true; },
          [this](NodeState& s) { rule_r2(s); });
}

void DensityProtocol::make_frame(graph::NodeId sender, FrameHeader& header,
                                 std::span<Digest> digests) const {
  const ConstNodeState s = const_view(sender);
  header.id = s.uid;
  header.dag_id = s.dag_id;
  header.metric = s.metric;
  header.metric_valid = s.metric_valid != 0;
  header.head = s.head;
  header.head_valid = s.head_valid != 0;
  std::size_t i = 0;
  for (const auto& [id, entry] : s.cache) {  // map order: sorted by id
    digests[i++] = NeighborDigest{
        .id = id,
        .dag_id = entry.dag_id,
        .metric = entry.metric,
        .metric_valid = entry.metric_valid,
        .is_head = entry.head_valid && entry.head == id,
    };
  }
}

DensityProtocol::Frame DensityProtocol::make_frame(
    graph::NodeId sender) const {
  Frame frame;
  frame.digests.resize(digest_count(sender));
  FrameHeader header;
  make_frame(sender, header, frame.digests);
  frame.id = header.id;
  frame.dag_id = header.dag_id;
  frame.metric = header.metric;
  frame.metric_valid = header.metric_valid;
  frame.head = header.head;
  frame.head_valid = header.head_valid;
  return frame;
}

bool DensityProtocol::deliver_payload(graph::NodeId receiver,
                                      const FrameHeader& header,
                                      std::span<const Digest> digests) {
  // Tracking needs the full compare's change bits; resync means the
  // engine's proof says nothing about what the cache now holds.
  if (tracking_ || resync_[receiver] != 0) return false;
  if (header.id == uids_[receiver]) return true;  // dropped either way
  NodeAux& aux = aux_[receiver];
  const auto it = aux.cache.find(header.id);
  if (it == aux.cache.end()) return false;  // evicted: reinsert via deliver
  CacheEntry& entry = it->second;
  if (entry.digests.size() != digests.size()) return false;
  // Engine-proved: the stored id sequence equals the incoming one, so
  // the believed-link count cannot move and the whole delivery is the
  // header fields, the digest payloads, and the age reset. The copy
  // rewrites the (identical) ids too — cheaper than skipping them.
  entry.dag_id = header.dag_id;
  entry.metric = header.metric;
  entry.metric_valid = header.metric_valid;
  entry.head = header.head;
  entry.head_valid = header.head_valid;
  std::copy(digests.begin(), digests.end(), entry.digests.data());
  entry.age = 0;
  entry.rank_key = entry_key(header.id, entry);
  return true;
}

void DensityProtocol::deliver(graph::NodeId receiver,
                              const FrameHeader& header,
                              std::span<const Digest> digests) {
  if (header.id == uids_[receiver]) return;  // defensive: never cache oneself
  NodeAux& aux = aux_[receiver];
  auto& cache = aux.cache;
  // Apply link-count deltas only while the maintained count is trusted;
  // after an external mutation the next R1 recomputes from scratch and
  // deliveries until then just write content.
  const bool maintain = maintain_links_ && links_fresh_[receiver] != 0;

  if (!tracking_ && !maintain) {
    // Classic blind overwrite — the cheapest path, taken by the
    // kRecompute oracle and by any node whose count is stale anyway.
    CacheEntry& entry = cache[header.id];
    entry.digests.attach(*aux.digest_pool);
    entry.dag_id = header.dag_id;
    entry.metric = header.metric;
    entry.metric_valid = header.metric_valid;
    entry.head = header.head;
    entry.head_valid = header.head_valid;
    entry.digests.assign(digests.begin(), digests.end());
    entry.age = 0;
    entry.rank_key = entry_key(header.id, entry);
    return;
  }

  // Compare-and-delta delivery. One merge walk over the cached list and
  // the incoming one yields everything at once: whether any digest id
  // appeared/vanished (an e(N_p) delta and a rule-input change), whether
  // any matched id's payload moved (a rule-input change only), and — via
  // their disjunction — whether the stored list must be rewritten at
  // all. A differing header means the receiver's *own* next frame
  // changes too (the digest row it relays for this sender is derived
  // from exactly these fields); a difference only in the relayed list
  // feeds R1/R2 but never re-enters a frame, so it wakes the receiver
  // without waking the receiver's neighbors.
  auto it = cache.find(header.id);
  bool header_diff;
  bool digests_diff;
  CacheEntry* entry;
  if (it == cache.end()) {
    entry = &cache[header.id];
    entry->digests.attach(*aux.digest_pool);
    header_diff = true;
    digests_diff = true;
    if (maintain) {
      // Structural insert: the new entry's full pair contribution,
      // evaluated against the incoming list (what the entry will hold).
      links_among_[receiver] += entry_link_count(cache, header.id, digests);
    }
  } else {
    entry = &it->second;
    entry->digests.attach(*aux.digest_pool);
    // header_diff feeds only the dirty-tracking wake sets; the fields are
    // rewritten below either way, so skip the compare when not tracking.
    header_diff = tracking_ && (entry->dag_id != header.dag_id ||
                                !double_bits_equal(entry->metric, header.metric) ||
                                entry->metric_valid != header.metric_valid ||
                                entry->head != header.head ||
                                entry->head_valid != header.head_valid);
    const NeighborDigest* olds = entry->digests.data();
    const std::size_t na = entry->digests.size();
    const std::size_t nb = digests.size();
    // One branchless pass, two accumulators: e(N_p) depends only on the
    // *id sequence* (which neighbors the sender claims to hear), so in
    // the common active-regime delivery — payload churn (metrics, DAG
    // ids, head bits) over a stable neighborhood — the list is rewritten
    // but no delta walk runs at all.
    bool ids_diff = na != nb;
    if (!ids_diff) {
      std::uint64_t id_acc = 0;
      std::uint64_t payload_acc = 0;
      for (std::size_t k = 0; k < na; ++k) {
        const NeighborDigest& a = olds[k];
        const NeighborDigest& b = digests[k];
        id_acc |= a.id ^ b.id;
        payload_acc |= (a.dag_id ^ b.dag_id) |
                       (std::bit_cast<std::uint64_t>(a.metric) ^
                        std::bit_cast<std::uint64_t>(b.metric)) |
                       static_cast<std::uint64_t>(a.metric_valid != b.metric_valid) |
                       static_cast<std::uint64_t>(a.is_head != b.is_head);
      }
      ids_diff = id_acc != 0;
      digests_diff = ids_diff || payload_acc != 0;
    } else {
      digests_diff = true;
    }
    if (maintain && ids_diff) {
      // Delta walk over the two sorted id sequences, by *group* of equal
      // ids: the believed-link count has set semantics (an id listed
      // twice — possible only in a fault-planted list — still witnesses
      // its pair once), so each distinct id that flips in or out moves
      // the count by at most one.
      std::size_t i = 0, j = 0;
      while (i < na || j < nb) {
        if (j >= nb || (i < na && olds[i].id < digests[j].id)) {
          const topology::ProtocolId x = olds[i].id;  // vanished from list
          links_among_[receiver] -=
              delta_if_sole_witness(cache, header.id, x);
          do { ++i; } while (i < na && olds[i].id == x);
        } else if (i >= na || digests[j].id < olds[i].id) {
          const topology::ProtocolId x = digests[j].id;  // newly listed
          links_among_[receiver] +=
              delta_if_sole_witness(cache, header.id, x);
          do { ++j; } while (j < nb && digests[j].id == x);
        } else {
          const topology::ProtocolId x = olds[i].id;  // present in both
          do { ++i; } while (i < na && olds[i].id == x);
          do { ++j; } while (j < nb && digests[j].id == x);
        }
      }
    }
  }
  entry->dag_id = header.dag_id;
  entry->metric = header.metric;
  entry->metric_valid = header.metric_valid;
  entry->head = header.head;
  entry->head_valid = header.head_valid;
  if (digests_diff) {
    entry->digests.assign(digests.begin(), digests.end());
  }
  entry->age = 0;
  entry->rank_key = entry_key(header.id, *entry);
  if (tracking_) {
    if (header_diff || digests_diff) {
      pending_[receiver] = 1;
      step_state_changed_[receiver] = 1;
    }
    if (header_diff) step_frame_changed_[receiver] = 1;
  }
}

bool DensityProtocol::redeliver_unchanged(graph::NodeId receiver,
                                          const FrameHeader& header) {
  if (resync_[receiver] != 0) return false;
  auto& cache = aux_[receiver].cache;
  const auto it = cache.find(header.id);
  if (it == cache.end()) return false;
  // The entry already holds these exact bytes (engine-proved: the row is
  // bit-identical to the one this receiver consumed last sweep), so the
  // only delivery side effect left is the age reset. No tracking flags:
  // nothing rule-relevant or frame-visible changed.
  it->second.age = 0;
  return true;
}

void DensityProtocol::deliver(graph::NodeId receiver, const Frame& frame) {
  const FrameHeader header{
      .id = frame.id,
      .dag_id = frame.dag_id,
      .metric = frame.metric,
      .metric_valid = frame.metric_valid,
      .head = frame.head,
      .head_valid = frame.head_valid,
  };
  deliver(receiver, header, frame.digests);
}

namespace {

/// Re-packs every live digest span of `cache` into the front of `pool`,
/// in cache iteration order, and drops slack capacity. Two phases so no
/// scratch memory is needed: bump fresh spans past the current cursor
/// (the buffer retains its capacity, so steady state stays
/// allocation-free), then slide the now-contiguous live region down to
/// offset zero with one memmove and rebase the lists.
void compact_digest_pool(DigestPool& pool, Cache& cache) {
  const std::uint32_t base = pool.cursor();
  for (auto& item : cache) {
    DigestList& list = item.second.digests;
    if (list.empty()) {
      list.drop_empty_span();
      continue;
    }
    const std::uint32_t size = static_cast<std::uint32_t>(list.size());
    const std::uint32_t new_off = pool.allocate(size);
    std::memcpy(pool.at(new_off), pool.at(list.offset()),
                size * sizeof(NeighborDigest));
    list.compacted_to(new_off);
  }
  const std::uint32_t live = pool.cursor() - base;
  if (live != 0) {
    std::memmove(pool.at(0), pool.at(base), live * sizeof(NeighborDigest));
    for (auto& item : cache) {
      if (!item.second.digests.empty()) item.second.digests.shift_down(base);
    }
  }
  pool.reset_counters(live);
}

}  // namespace

void DensityProtocol::on_edge_removed(graph::NodeId a, graph::NodeId b) {
  if (a >= aux_.size() || b >= aux_.size()) return;
  const auto forget = [this](graph::NodeId node, graph::NodeId gone) {
    auto& cache = aux_[node].cache;
    if (const auto it = cache.find(uids_[gone]); it != cache.end()) {
      // A clean structural eviction: the maintained count follows by
      // delta, no invalidation needed (contrast mutable_state, where the
      // caller may scribble anything).
      if (maintain_links_ && links_fresh_[node] != 0) {
        links_among_[node] -= entry_link_count(
            cache, it->first,
            {it->second.digests.data(), it->second.digests.size()});
      }
      cache.erase(it);
      if (aux_[node].digest_pool->fragmented()) {
        compact_digest_pool(*aux_[node].digest_pool, cache);
      }
      // The evicted digest row vanishes from the node's next frame, so
      // this counts as an external mutation: the node and (via the
      // stepper's closed-neighborhood wake) its neighbors must step.
      // The cache also stopped matching what perfect delivery implies,
      // so redeliveries must run full compares until the next sweep.
      resync_[node] = 1;
      externally_touched(node);
    }
  };
  forget(a, b);
  forget(b, a);
}

void DensityProtocol::tick(graph::NodeId node) {
  if (tracking_) {
    tracked_tick(node);
    return;
  }
  NodeState s = view(node);
  engine_.sweep(s);
}

void DensityProtocol::tracked_tick(graph::NodeId node) {
  const ScalarRow before = scalar_row(cols_, node);
  NodeState s = view(node);
  engine_.sweep(s);
  const ScalarRow after = scalar_row(cols_, node);
  const bool frame_diff = frame_scalars_differ(before, after);
  const bool own_diff = !rows_bitwise_equal(before, after);
  if (own_diff) step_state_changed_[node] = 1;
  if (frame_diff) step_frame_changed_[node] = 1;
  stable_[node] = own_diff ? 0 : 1;
  pending_[node] = 0;
}

bool DensityProtocol::maybe_tick(graph::NodeId node) {
  if (!tracking_) {
    tick(node);
    return true;
  }
  // Provably a no-op: the previous sweep left every shared variable
  // unchanged (so it also drew no randomness — N1 only draws when it
  // renames), and no input moved since. Sweeping again would recompute
  // identical values from identical inputs.
  if (!pending_[node] && stable_[node]) return false;
  tracked_tick(node);
  return true;
}

DensityProtocol::Activity DensityProtocol::consume_activity(
    graph::NodeId node) {
  Activity activity{step_state_changed_[node] != 0,
                    step_frame_changed_[node] != 0};
  step_state_changed_[node] = 0;
  step_frame_changed_[node] = 0;
  return activity;
}

void DensityProtocol::set_activity_tracking(bool on) {
  tracking_ = on;
  const std::size_t n = aux_.size();
  if (on) {
    // Every node starts pending: the first tracked step is a full one,
    // after which quiescence is discovered, never assumed.
    pending_.assign(n, 1);
    stable_.assign(n, 0);
    step_state_changed_.assign(n, 0);
    step_frame_changed_.assign(n, 0);
    external_mark_.assign(n, 0);
    external_list_.clear();
  } else {
    pending_.clear();
    stable_.clear();
    step_state_changed_.clear();
    step_frame_changed_.clear();
    external_mark_.clear();
    external_list_.clear();
  }
}

void DensityProtocol::externally_touched(graph::NodeId p) {
  if (!tracking_) return;
  pending_[p] = 1;
  stable_[p] = 0;
  step_state_changed_[p] = 1;
  step_frame_changed_[p] = 1;
  if (!external_mark_[p]) {
    external_mark_[p] = 1;
    external_list_.push_back(p);
  }
}

std::vector<graph::NodeId> DensityProtocol::take_external_wakes() {
  std::vector<graph::NodeId> drained;
  drained.swap(external_list_);
  for (const graph::NodeId p : drained) external_mark_[p] = 0;
  std::sort(drained.begin(), drained.end());
  return drained;
}

void DensityProtocol::end_step(graph::NodeId node) {
  auto& cache = aux_[node].cache;
  const bool maintain = maintain_links_ && links_fresh_[node] != 0;
  for (auto it = cache.begin(); it != cache.end();) {
    if (++it->second.age > config_.cache_max_age) {
      if (maintain) {
        // Evictions inside one sweep are sequential: each delta is
        // evaluated against the cache as it stands, exactly mirroring a
        // recompute after each erase.
        links_among_[node] -= entry_link_count(
            cache, it->first,
            {it->second.digests.data(), it->second.digests.size()});
      }
      if (tracking_) {
        // Eviction changes the cache (a rule input) and removes a digest
        // row from the node's next frame.
        pending_[node] = 1;
        step_state_changed_[node] = 1;
        step_frame_changed_[node] = 1;
      }
      it = cache.erase(it);
    } else {
      if (tracking_ && it->second.age >= 2) {
        // An entry nobody refreshed this step (phantom neighbor or a
        // silenced sender) is counting toward eviction: the node's
        // boundary state differs from one where the entry was fresh, so
        // it must keep stepping until the entry dies. Rule inputs are
        // untouched (ages never feed the rules), hence no `pending_`.
        step_state_changed_[node] = 1;
      }
      ++it;
    }
  }
  // Churn (evictions above, list regrowth in deliver) leaves holes in
  // the node's digest slab; re-pack once dead capacity outweighs live.
  if (aux_[node].digest_pool->fragmented()) {
    compact_digest_pool(*aux_[node].digest_pool, cache);
  }
  // The sweep that just completed ran full compares for this receiver
  // (redeliver_unchanged declines while the flag is up), so its cache
  // again matches what the engines' delivered rows imply.
  resync_[node] = 0;
}

NodeRank DensityProtocol::self_rank(const NodeState& s) const {
  return NodeRank{
      .metric = s.metric,
      .incumbent = s.head_valid != 0 && s.head == s.uid,
      .tie_id = config_.cluster.use_dag_ids
                    ? static_cast<topology::ProtocolId>(s.dag_id)
                    : s.uid,
      .uid = s.uid,
  };
}

NodeRank DensityProtocol::entry_rank(topology::ProtocolId id,
                                     const CacheEntry& e) const {
  return NodeRank{
      .metric = e.metric,
      .incumbent = e.head_valid && e.head == id,
      .tie_id = config_.cluster.use_dag_ids
                    ? static_cast<topology::ProtocolId>(e.dag_id)
                    : id,
      .uid = id,
  };
}

NodeRank DensityProtocol::digest_rank(const NeighborDigest& d) const {
  return NodeRank{
      .metric = d.metric,
      .incumbent = d.is_head,
      .tie_id = config_.cluster.use_dag_ids
                    ? static_cast<topology::ProtocolId>(d.dag_id)
                    : d.id,
      .uid = d.id,
  };
}

void DensityProtocol::rule_n1(NodeState& s) {
  // newId: keep the current name unless some cached neighbor holds it.
  bool conflict = false;
  for (const auto& [id, entry] : s.cache) {
    if (entry.dag_id != s.dag_id) continue;
    switch (config_.dag_policy) {
      case DagRedrawPolicy::N1Randomized:
        conflict = true;
        break;
      case DagRedrawPolicy::SmallerUidRedraws:
        if (s.uid < id) conflict = true;
        break;
    }
    if (conflict) break;
  }
  if (!conflict) {
    // Also re-home a corrupted name that escaped the name space.
    if (s.dag_id < name_space_) return;
  }
  // Draw uniformly from γ minus the cached neighbor names. Renaming
  // happens throughout recovery (exactly when the zero-allocation audit
  // watches the active regime), so the scratch list lives on the stack
  // for any radio-scale degree; the heap fallback covers pathological
  // fan-in only.
  constexpr std::size_t kStackNames = 128;
  std::uint64_t stack_names[kStackNames];
  std::vector<std::uint64_t> heap_names;
  std::uint64_t* taken = stack_names;
  if (s.cache.size() > kStackNames) {
    heap_names.resize(s.cache.size());
    taken = heap_names.data();
  }
  std::size_t count = 0;
  for (const auto& [id, entry] : s.cache) {
    if (entry.dag_id < name_space_) taken[count++] = entry.dag_id;
  }
  std::sort(taken, taken + count);
  count = static_cast<std::size_t>(std::unique(taken, taken + count) - taken);
  if (count >= name_space_) return;  // no free name; wait for aging
  const std::uint64_t free_count = name_space_ - count;
  std::uint64_t candidate = s.rng.below(free_count);
  for (std::size_t i = 0; i < count; ++i) {
    if (taken[i] <= candidate) ++candidate;
  }
  s.dag_id = candidate;
}

void DensityProtocol::rule_r1(NodeState& s) {
  const std::size_t degree = s.cache.size();
  if (config_.metric == ElectionMetric::Degree) {
    s.metric = static_cast<double>(degree);
    s.metric_valid = true;
    return;
  }
  // d_p = (|N_p| + e(N_p)) / |N_p| over the cached neighborhood; links
  // among neighbors are reconstructed from the relayed digests (an edge
  // q—r is believed iff either endpoint lists the other). e(N_p) comes
  // from the maintained count when it is fresh — the O(deg²) pairwise
  // recompute runs only as the oracle, as the self-check, or once after
  // an external mutation invalidated the count.
  if (degree == 0) {
    if (maintain_links_) {
      links_among_[s.node] = 0;
      links_fresh_[s.node] = 1;
    }
    s.metric = 0.0;
    s.metric_valid = true;
    return;
  }
  std::uint64_t among = 0;
  switch (maintenance_) {
    case DensityMaintenance::kRecompute:
      among = recompute_links(s.cache);
      break;
    case DensityMaintenance::kIncremental:
      if (links_fresh_[s.node] == 0) {
        links_among_[s.node] = recompute_links(s.cache);
        links_fresh_[s.node] = 1;
      }
      among = links_among_[s.node];
      break;
    case DensityMaintenance::kChecked: {
      const std::uint64_t full = recompute_links(s.cache);
      if (links_fresh_[s.node] != 0 && links_among_[s.node] != full) {
        throw std::logic_error(
            "density maintenance invariant violated at node " +
            std::to_string(s.node) + ": maintained e(N_p)=" +
            std::to_string(links_among_[s.node]) + ", recomputed " +
            std::to_string(full));
      }
      links_among_[s.node] = full;
      links_fresh_[s.node] = 1;
      among = full;
      break;
    }
  }
  const std::uint64_t links = degree + among;
  s.metric = static_cast<double>(links) / static_cast<double>(degree);
  s.metric_valid = true;
}

void DensityProtocol::rule_r2(NodeState& s) {
  if (!s.metric_valid) return;  // R1 always runs first in the sweep
  const bool inc = config_.cluster.incumbency;
  if (ranks_fresh_[s.node] == 0) {
    // An external mutation may have scribbled any entry since the last
    // repack; the memoized keys are a pure function of the entries, so
    // one pass restores the invariant before the election trusts them.
    for (auto& item : s.cache) {
      item.second.rank_key = entry_key(item.first, item.second);
    }
    ranks_fresh_[s.node] = 1;
  }
  const PackedRank me = pack_rank(self_rank(s), inc);

  // One ≺-arg-max over the memoized key column replaces both the
  // local-max scan and the join-best scan: invalid entries carry the
  // below-everything sentinel, so they lose without a validity branch,
  // and keys of valid entries are distinct (unique uid sub-keys), so the
  // winner is unique and order-insensitive. p is a local maximum iff the
  // winner does not dominate it; otherwise the winner IS max≺ N_p, the
  // neighbor to join.
  const CacheEntry* best = nullptr;
  topology::ProtocolId best_id = 0;
  PackedRank best_key{};  // sentinel
  for (const auto& [id, entry] : s.cache) {
    if (packed_precedes(best_key, entry.rank_key)) {
      best_key = entry.rank_key;
      best = &entry;
      best_id = id;
    }
  }

  if (!packed_precedes(me, best_key)) {
    // Local maximum (an empty or all-invalid cache lands here too: the
    // sentinel never dominates a valid self-rank). Fusion: search the
    // relayed digests for a dominating cluster-head in N²_p. (1-hop
    // heads cannot dominate here, or the winner above would.)
    const NeighborDigest* blocking = nullptr;
    if (config_.cluster.fusion) {
      PackedRank blocking_key{};  // sentinel
      for (const auto& [id, entry] : s.cache) {
        for (const NeighborDigest& d : entry.digests) {
          if (!d.is_head || !d.metric_valid || d.id == s.uid) continue;
          const PackedRank key = pack_rank(digest_rank(d), inc);
          if (!packed_precedes(me, key)) continue;
          if (packed_precedes(blocking_key, key)) {
            blocking_key = key;
            blocking = &d;
          }
        }
      }
    }
    if (blocking == nullptr) {
      // clusterHead = Id_p: p wins in its neighborhood.
      s.head = s.uid;
      s.head_valid = true;
      s.parent = s.uid;
      s.parent_valid = true;
      return;
    }
    // Demoted: fuse into the dominating head's cluster through the
    // ≺-best neighbor that can hear it. The key compare runs first —
    // entries that cannot beat the incumbent witness skip the
    // binary-search containment probe entirely, and invalid entries
    // (sentinel keys) never win a compare, so no validity test is
    // needed either.
    const topology::ProtocolId dominating = blocking->id;
    const CacheEntry* witness = nullptr;
    topology::ProtocolId witness_id = 0;
    PackedRank witness_key{};  // sentinel
    for (const auto& [id, entry] : s.cache) {
      if (packed_precedes(witness_key, entry.rank_key) &&
          digest_contains(entry.digests, dominating)) {
        witness_key = entry.rank_key;
        witness = &entry;
        witness_id = id;
      }
    }
    if (witness == nullptr) return;  // stale digest; retry next step
    s.parent = witness_id;
    s.parent_valid = true;
    if (witness->head_valid) {
      s.head = witness->head;
      s.head_valid = true;
    }
    return;
  }

  // clusterHead = H(max≺ N_p): join the strongest neighbor — the arg-max
  // winner — and adopt its head value (which flows down the
  // clusterization tree one hop per step).
  s.parent = best_id;
  s.parent_valid = true;
  if (best->head_valid) {
    s.head = best->head;
    s.head_valid = true;
  }
}

std::vector<char> DensityProtocol::head_flags() const {
  std::vector<char> flags(aux_.size(), 0);
  for (graph::NodeId p = 0; p < aux_.size(); ++p) {
    flags[p] =
        (cols_.head_valid[p] != 0 && cols_.head[p] == uids_[p]) ? 1 : 0;
  }
  return flags;
}

std::vector<topology::ProtocolId> DensityProtocol::head_values() const {
  return cols_.head;
}

std::vector<topology::ProtocolId> DensityProtocol::parent_values() const {
  return cols_.parent;
}

std::vector<double> DensityProtocol::metrics() const { return cols_.metric; }

std::vector<std::uint64_t> DensityProtocol::dag_id_values() const {
  return cols_.dag_id;
}

namespace {

void scramble_state(DensityProtocol::NodeState s, std::uint64_t name_space,
                    std::size_t node_count, util::Rng& rng) {
  // Scribble the maintained link count too — deterministically (an LCG
  // step of the old value) rather than from `rng`, so the corruption
  // stream feeding the shared variables stays byte-identical to the
  // pre-maintenance protocol. The caller has already invalidated the
  // count, so recovery must not depend on what is written here.
  s.links_among = s.links_among * 6364136223846793005ULL +
                  1442695040888963407ULL;
  s.dag_id = rng.below(name_space * 2);  // may even escape the name space
  s.metric = rng.uniform(0.0, 8.0);
  s.metric_valid = rng.chance(0.75);
  s.head = rng.below(node_count * 2);
  s.head_valid = rng.chance(0.75);
  s.parent = rng.below(node_count * 2);
  s.parent_valid = rng.chance(0.75);
  s.cache.clear();
  // Plant a few phantom cache entries (possibly naming nodes that do not
  // exist) with arbitrary contents; eviction and fresh frames must flush
  // them.
  const std::size_t phantoms = rng.index(4);
  for (std::size_t i = 0; i < phantoms; ++i) {
    DensityProtocol::CacheEntry entry;
    entry.dag_id = rng.below(name_space * 2);
    entry.metric = rng.uniform(0.0, 8.0);
    entry.metric_valid = rng.chance(0.8);
    entry.head = rng.below(node_count * 2);
    entry.head_valid = rng.chance(0.8);
    entry.age = 0;
    s.cache[rng.below(node_count * 2)] = std::move(entry);
  }
}

}  // namespace

void DensityProtocol::corrupt_all(util::Rng& rng) {
  for (graph::NodeId p = 0; p < aux_.size(); ++p) {
    links_fresh_[p] = 0;
    resync_[p] = 1;
    ranks_fresh_[p] = 0;
    scramble_state(view(p), name_space_, aux_.size(), rng);
    externally_touched(p);
  }
}

std::size_t DensityProtocol::corrupt_fraction(util::Rng& rng,
                                              double fraction) {
  std::size_t hit = 0;
  for (graph::NodeId p = 0; p < aux_.size(); ++p) {
    if (rng.chance(fraction)) {
      links_fresh_[p] = 0;
      resync_[p] = 1;
      ranks_fresh_[p] = 0;
      scramble_state(view(p), name_space_, aux_.size(), rng);
      externally_touched(p);
      ++hit;
    }
  }
  return hit;
}

void DensityProtocol::reset_node(graph::NodeId p) {
  links_fresh_[p] = 0;
  resync_[p] = 1;
  ranks_fresh_[p] = 0;
  NodeState s = view(p);
  s.links_among = 0;
  s.dag_id = 0;
  s.metric = 0.0;
  s.metric_valid = 0;
  s.head = 0;
  s.head_valid = 0;
  s.parent = 0;
  s.parent_valid = 0;
  s.cache.clear();
  s.last_heard_s = -1.0;
  s.deliveries = 0;
  s.dag_id = s.rng.below(name_space_);
  externally_touched(p);
}

// --- differential-harness helpers ------------------------------------

namespace {

bool cache_entries_equal(const DensityProtocol::CacheEntry& a,
                         const DensityProtocol::CacheEntry& b) {
  if (a.dag_id != b.dag_id || !double_bits_equal(a.metric, b.metric) ||
      a.metric_valid != b.metric_valid || a.head != b.head ||
      a.head_valid != b.head_valid || a.age != b.age ||
      a.digests.size() != b.digests.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.digests.size(); ++i) {
    if (!digest_bits_equal(a.digests[i], b.digests[i])) return false;
  }
  return true;
}

bool cold_state_equal(const DensityProtocol& a, const DensityProtocol& b,
                      graph::NodeId p) {
  const auto sa = a.state(p);
  const auto sb = b.state(p);
  if (sa.uid != sb.uid || !(sa.rng == sb.rng) ||
      !double_bits_equal(sa.last_heard_s, sb.last_heard_s) ||
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

}  // namespace

bool node_states_bitwise_equal(const DensityProtocol& a,
                               const DensityProtocol& b, graph::NodeId p) {
  return rows_bitwise_equal(scalar_row(a.scalars(), p),
                            scalar_row(b.scalars(), p)) &&
         cold_state_equal(a, b, p);
}

std::optional<graph::NodeId> first_divergent_node(const DensityProtocol& a,
                                                  const DensityProtocol& b) {
  if (a.node_count() != b.node_count()) return graph::NodeId{0};
  // Hot scalars first: one vectorized pass over the SoA columns finds
  // the earliest scalar divergence; cold state is then checked row by
  // row only up to that bound.
  const std::size_t scalar_first = first_divergent_row(a.scalars(), b.scalars());
  for (graph::NodeId p = 0; p < a.node_count(); ++p) {
    if (p == scalar_first) return p;
    if (!cold_state_equal(a, b, p)) return p;
  }
  if (scalar_first < a.node_count()) {
    return static_cast<graph::NodeId>(scalar_first);
  }
  return std::nullopt;
}

std::string describe_divergence(const DensityProtocol& a,
                                const DensityProtocol& b, graph::NodeId p) {
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
      if (!cache_entries_equal(entry, ib->second)) {
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

}  // namespace ssmwn::core
