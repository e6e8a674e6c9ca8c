#include "core/protocol.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/merge.hpp"

namespace ssmwn::core {

namespace {

using Ids = std::span<const topology::ProtocolId>;

/// Binary search for `id` in a sorted relayed id sequence.
bool ids_contain(Ids ids, topology::ProtocolId id) {
  return util::contains_sorted(ids.data(), ids.size(), id);
}

using Cache = FlatMap<topology::ProtocolId, DensityProtocol::CacheEntry>;

/// Every relay list of a node's cache — what its slab's compaction walks.
auto lists_of(Cache& cache) {
  return [&cache](auto&& visit) {
    for (auto& item : cache) visit(item.second.relay);
  };
}

/// A relayed neighbor the receiver keeps a head record for: its own head,
/// with a valid metric (the fusion scan ranks nothing else).
bool relays_as_head(topology::ProtocolId id,
                    const DensityProtocol::CacheEntry& e) noexcept {
  return e.head_valid && e.head == id && e.metric_valid;
}

/// Pairwise believed-link count over a cache: a pair (q, r) of cached
/// neighbors counts iff either relayed id list names the other. The
/// trusted reference the incremental count is maintained against — kept
/// in the most transparent form (same shape as the pre-maintenance R1).
std::uint64_t recompute_links(const Cache& cache) {
  std::uint64_t links = 0;
  for (auto a = cache.begin(); a != cache.end(); ++a) {
    for (auto b = std::next(a); b != cache.end(); ++b) {
      if (ids_contain(a->second.relay.ids(), b->first) ||
          ids_contain(b->second.relay.ids(), a->first)) {
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
/// inserted (list = the incoming ids, entry already in the cache) or
/// evicted (list = the stored ids, entry not yet erased).
std::uint64_t entry_link_count(const Cache& cache, topology::ProtocolId q,
                               Ids list) {
  std::uint64_t links = 0;
  std::size_t i = 0;
  for (const auto& [key, other] : cache) {
    if (key == q) continue;
    while (i < list.size() && list[i] < key) ++i;
    const bool believed = (i < list.size() && list[i] == key) ||
                          ids_contain(other.relay.ids(), q);
    links += static_cast<std::uint64_t>(believed);
  }
  return links;
}

/// ±1 contribution of one id flipping in/out of q's id list: the
/// pair (q, x) gains/loses existence only if x is another cached
/// neighbor whose own list does not already name q (the OR keeps the
/// pair alive regardless of q's side).
std::uint64_t delta_if_sole_witness(const Cache& cache, topology::ProtocolId q,
                                    topology::ProtocolId x) {
  if (x == q) return 0;  // (q, q) is not a pair
  const auto it = cache.find(x);
  if (it == cache.end()) return 0;  // x not cached: no pair either way
  return ids_contain(it->second.relay.ids(), q) ? 0 : 1;
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

  maintain_links_ = config_.metric == ElectionMetric::Density &&
                    config_.density_maintenance !=
                        DensityMaintenance::kRecompute;
  links_among_.assign(uids_.size(), 0);
  // Stale at birth: the first R1 firing per node computes the count from
  // whatever the cache then holds (trivially 0 for an empty cache).
  links_fresh_.assign(uids_.size(), 0);
  resync_.assign(uids_.size(), 0);
  // Every node starts pending: its first sweep always runs, after which
  // quiescence is discovered, never assumed.
  pending_.assign(uids_.size(), 1);
  stable_.assign(uids_.size(), 0);
  step_activity_.assign(uids_.size(), sim::Activity::kQuiet);
  external_mark_.assign(uids_.size(), 0);
  std::vector<topology::ProtocolId> sorted = uids_;
  std::sort(sorted.begin(), sorted.end());
  uids_distinct_ =
      std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();

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

std::size_t DensityProtocol::digest_count(graph::NodeId sender) const {
  const Cache& cache = aux_[sender].cache;
  std::size_t heads = 0;
  if (config_.cluster.fusion) {
    for (const auto& [id, entry] : cache) heads += relays_as_head(id, entry);
  }
  return cache.size() + kHeadWords * std::min<std::size_t>(heads, 2);
}

void DensityProtocol::make_frame(graph::NodeId sender, FrameHeader& header,
                                 std::span<Digest> row) const {
  const ConstNodeState s = const_view(sender);
  header.id = s.uid;
  header.dag_id = s.dag_id;
  header.metric = s.metric;
  header.metric_valid = s.metric_valid != 0;
  header.head = s.head;
  header.head_valid = s.head_valid != 0;
  // Map order is sorted by id. Each receiver keeps the best relayed head
  // that is not itself, so the two best heads (distinct ids: cache keys)
  // cover every receiver; they follow the ids, best first.
  std::size_t i = 0;
  HeadRecord top[2];
  PackedRank top_key[2] = {};  // sentinels
  std::uint32_t heads = 0;
  for (const auto& [id, entry] : s.cache) {
    row[i++] = id;
    if (!config_.cluster.fusion || !relays_as_head(id, entry)) continue;
    const HeadRecord record{id, entry.dag_id, entry.metric};
    const PackedRank key = head_key(record);
    ++heads;
    if (packed_precedes(top_key[0], key)) {
      top[1] = top[0];
      top_key[1] = top_key[0];
      top[0] = record;
      top_key[0] = key;
    } else if (packed_precedes(top_key[1], key)) {
      top[1] = record;
      top_key[1] = key;
    }
  }
  header.heads = std::min<std::uint32_t>(heads, 2);
  for (std::uint32_t k = 0; k < header.heads; ++k) {
    put_head(row.data() + i + kHeadWords * k, top[k]);
  }
}

const RelayWord* DensityProtocol::kept_head(graph::NodeId receiver,
                                            const FrameHeader& header,
                                            std::span<const Digest> row) const {
  const RelayWord* record =
      row.data() + (row.size() - kHeadWords * header.heads);
  for (std::uint32_t k = 0; k < header.heads; ++k, record += kHeadWords) {
    if (record[0] != uids_[receiver]) return record;
  }
  return nullptr;
}

bool DensityProtocol::deliver_payload(graph::NodeId receiver,
                                      const FrameHeader& header,
                                      std::span<const Digest> row) {
  // Resync means the engine's proof says nothing about what the cache
  // now holds; with repeated uids one entry may hold another sender's
  // row.
  if (resync_[receiver] != 0 || !uids_distinct_) return false;
  if (header.id == uids_[receiver]) return true;  // dropped either way
  NodeAux& aux = aux_[receiver];
  const auto it = aux.cache.find(header.id);
  if (it == aux.cache.end()) return false;  // evicted: reinsert via deliver
  CacheEntry& entry = it->second;
  const std::size_t ids = row.size() - kHeadWords * header.heads;
  if (entry.relay.ids().size() != ids) return false;
  entry.age = 0;
  // Engine-proved: the row differs from the one the entry holds, so
  // `deliver` would flag a rule-input change.
  pending_[receiver] = 1;
  step_activity_[receiver] = sim::Activity::kChanged;
  // Engine-proved: the stored id sequence equals the incoming one, so
  // the believed-link count cannot move and the whole delivery is the
  // header fields and the kept head record.
  entry.dag_id = header.dag_id;
  entry.metric = header.metric;
  entry.metric_valid = header.metric_valid;
  entry.head = header.head;
  entry.head_valid = header.head_valid;
  // The kept record may appear or vanish, so the span may move: the
  // (unchanged) ids are copied along.
  const RelayWord* record = kept_head(receiver, header, row);
  RelayWord* dst =
      entry.relay.rewrite(ids, record != nullptr, lists_of(aux.cache));
  std::copy_n(row.data(), ids, dst);
  if (record != nullptr) std::copy_n(record, kHeadWords, dst + ids);
  return true;
}

void DensityProtocol::deliver(graph::NodeId receiver,
                              const FrameHeader& header,
                              std::span<const Digest> row) {
  if (header.id == uids_[receiver]) return;  // defensive: never cache oneself
  NodeAux& aux = aux_[receiver];
  auto& cache = aux.cache;
  // Apply link-count deltas only while the maintained count is trusted;
  // after an external mutation the next R1 recomputes from scratch and
  // deliveries until then just write content.
  const bool maintain = maintain_links_ && links_fresh_[receiver] != 0;
  const Ids incoming = row.first(row.size() - kHeadWords * header.heads);
  const RelayWord* record = kept_head(receiver, header, row);

  // Compare-and-delta delivery. One pass over the stored ids and the
  // incoming ones yields everything at once: whether any relayed id
  // appeared/vanished (an e(N_p) delta and a rule-input change), whether
  // the kept head record moved (a rule-input change only), and — via
  // their disjunction — whether the stored span must be rewritten at all.
  auto it = cache.find(header.id);
  bool header_diff;
  bool relay_diff;
  CacheEntry* entry;
  if (it == cache.end()) {
    entry = &cache[header.id];
    entry->relay.attach(*aux.relay_slab);
    header_diff = true;
    relay_diff = true;
    if (maintain) {
      // Structural insert: the new entry's full pair contribution,
      // evaluated against the incoming list (what the entry will hold).
      links_among_[receiver] += entry_link_count(cache, header.id, incoming);
    }
  } else {
    entry = &it->second;
    entry->relay.attach(*aux.relay_slab);
    // header_diff feeds only the change bit; the fields are rewritten
    // below either way.
    header_diff = entry->dag_id != header.dag_id ||
                  !double_bits_equal(entry->metric, header.metric) ||
                  entry->metric_valid != header.metric_valid ||
                  entry->head != header.head ||
                  entry->head_valid != header.head_valid;
    const Ids olds = entry->relay.ids();
    const std::size_t na = olds.size();
    const std::size_t nb = incoming.size();
    // One branchless pass: e(N_p) depends only on the *id sequence*
    // (which neighbors the sender claims to hear), so in the common
    // active-regime delivery — header and head-record churn over a
    // stable neighborhood — the span is rewritten but no delta walk runs
    // at all.
    bool ids_diff = na != nb;
    if (!ids_diff) {
      std::uint64_t acc = 0;
      for (std::size_t k = 0; k < na; ++k) acc |= olds[k] ^ incoming[k];
      ids_diff = acc != 0;
    }
    relay_diff = ids_diff || entry->relay.has_head() != (record != nullptr);
    if (!relay_diff && record != nullptr) {
      const RelayWord* old = olds.data() + na;
      relay_diff = ((old[0] ^ record[0]) | (old[1] ^ record[1]) |
                    (old[2] ^ record[2])) != 0;
    }
    if (maintain && ids_diff) {
      // Delta walk over the two sorted id sequences, by *group* of equal
      // ids: the believed-link count has set semantics (an id listed
      // twice — possible only in a fault-planted list — still witnesses
      // its pair once), so each distinct id that flips in or out moves
      // the count by at most one.
      std::size_t i = 0, j = 0;
      while (i < na || j < nb) {
        if (j >= nb || (i < na && olds[i] < incoming[j])) {
          const topology::ProtocolId x = olds[i];  // vanished from list
          links_among_[receiver] -=
              delta_if_sole_witness(cache, header.id, x);
          do { ++i; } while (i < na && olds[i] == x);
        } else if (i >= na || incoming[j] < olds[i]) {
          const topology::ProtocolId x = incoming[j];  // newly listed
          links_among_[receiver] +=
              delta_if_sole_witness(cache, header.id, x);
          do { ++j; } while (j < nb && incoming[j] == x);
        } else {
          const topology::ProtocolId x = olds[i];  // present in both
          do { ++i; } while (i < na && olds[i] == x);
          do { ++j; } while (j < nb && incoming[j] == x);
        }
      }
    }
  }
  entry->dag_id = header.dag_id;
  entry->metric = header.metric;
  entry->metric_valid = header.metric_valid;
  entry->head = header.head;
  entry->head_valid = header.head_valid;
  if (relay_diff) {
    RelayWord* dst = entry->relay.rewrite(incoming.size(), record != nullptr,
                                          lists_of(cache));
    std::copy(incoming.begin(), incoming.end(), dst);
    if (record != nullptr) {
      std::copy_n(record, kHeadWords, dst + incoming.size());
    }
  }
  entry->age = 0;
  if (header_diff || relay_diff) {
    pending_[receiver] = 1;
    step_activity_[receiver] = sim::Activity::kChanged;
  }
}

bool DensityProtocol::redeliver_unchanged(graph::NodeId receiver,
                                          std::size_t heard) {
  if (resync_[receiver] != 0 || !uids_distinct_) return false;
  // Every heard neighbor's entry was refreshed at this receiver's last
  // sweep and has aged at most once since (engine-proved), and every
  // other entry has aged at least once since it was written (an external
  // write raises resync first). So when exactly `heard` entries are at
  // age <= 1, those are the heard neighbors'.
  auto& cache = aux_[receiver].cache;
  std::size_t fresh = 0;
  for (const auto& item : cache) fresh += item.second.age <= 1;
  if (fresh != heard) return false;
  // Only the age resets of the rows the engine proved bit-equal remain;
  // the engine delivers the other rows itself. Entries past age 1 keep
  // counting toward eviction.
  for (auto& item : cache) {
    if (item.second.age <= 1) item.second.age = 0;
  }
  return true;
}

void DensityProtocol::on_edge_removed(graph::NodeId a, graph::NodeId b) {
  if (a >= aux_.size() || b >= aux_.size()) return;
  const auto forget = [this](graph::NodeId node, graph::NodeId gone) {
    auto& cache = aux_[node].cache;
    if (const auto it = cache.find(uids_[gone]); it != cache.end()) {
      // A clean structural eviction: the maintained count follows by
      // delta, no invalidation needed (contrast mutable_state, where the
      // caller may scribble anything).
      if (maintain_links_ && links_fresh_[node] != 0) {
        links_among_[node] -=
            entry_link_count(cache, it->first, it->second.relay.ids());
      }
      cache.erase(it);
      // The evicted relay row vanishes from the node's next frame, so
      // this counts as an external mutation: the node must step, and the
      // grade of its rebuilt row wakes its neighbors.
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
  const ScalarRow before = scalar_row(cols_, node);
  NodeState s = view(node);
  engine_.sweep(s);
  const bool own_diff = !rows_bitwise_equal(before, scalar_row(cols_, node));
  if (own_diff) step_activity_[node] = sim::Activity::kChanged;
  stable_[node] = own_diff ? 0 : 1;
  pending_[node] = 0;
}

bool DensityProtocol::maybe_tick(graph::NodeId node) {
  // Provably a no-op: the previous sweep left every shared variable
  // unchanged (so it also drew no randomness — N1 only draws when it
  // renames), and no input moved since. Sweeping again would recompute
  // identical values from identical inputs.
  if (!pending_[node] && stable_[node]) return false;
  tick(node);
  return true;
}

sim::Activity DensityProtocol::consume_activity(graph::NodeId node) {
  return std::exchange(step_activity_[node], sim::Activity::kQuiet);
}

void DensityProtocol::externally_touched(graph::NodeId p) {
  pending_[p] = 1;
  stable_[p] = 0;
  step_activity_[p] = sim::Activity::kChanged;
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
        links_among_[node] -=
            entry_link_count(cache, it->first, it->second.relay.ids());
      }
      // Eviction changes the cache (a rule input).
      pending_[node] = 1;
      step_activity_[node] = sim::Activity::kChanged;
      it = cache.erase(it);
    } else {
      if (it->second.age >= 2) {
        // An entry nobody refreshed this step (phantom neighbor or a
        // silenced sender) is counting toward eviction, so the node must
        // keep stepping until the entry dies. Rule inputs are untouched
        // (ages never feed the rules), hence no `pending_`, and no frame
        // row carries an age, so the node steps without a row rebuild.
        step_activity_[node] =
            std::max(step_activity_[node], sim::Activity::kStepOnly);
      }
      ++it;
    }
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

PackedRank DensityProtocol::head_key(const HeadRecord& d) const {
  return pack_rank(
      NodeRank{
          .metric = d.metric,
          .incumbent = true,
          .tie_id = config_.cluster.use_dag_ids
                        ? static_cast<topology::ProtocolId>(d.dag_id)
                        : d.id,
          .uid = d.id,
      },
      config_.cluster.incumbency);
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
  // among neighbors are reconstructed from the relayed id lists (an edge
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
  switch (config_.density_maintenance) {
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
  const PackedRank me = pack_rank(self_rank(s), inc);

  // One ≺-arg-max over the entries' packed keys replaces both the
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
    const PackedRank key = entry_key(id, entry);
    if (packed_precedes(best_key, key)) {
      best_key = key;
      best = &entry;
      best_id = id;
    }
  }

  if (!packed_precedes(me, best_key)) {
    // Local maximum (an empty or all-invalid cache lands here too: the
    // sentinel never dominates a valid self-rank). Fusion: search the
    // relayed head records for a dominating cluster-head in N²_p — each
    // entry keeps its best one that is not p, so the best of those is the
    // best of all. (1-hop heads cannot dominate here, or the winner above
    // would.)
    bool blocked = false;
    topology::ProtocolId dominating = 0;
    if (config_.cluster.fusion) {
      PackedRank blocking_key = me;  // a record must dominate p
      for (const auto& [id, entry] : s.cache) {
        if (!entry.relay.has_head()) continue;
        const HeadRecord d = entry.relay.head();
        const PackedRank key = head_key(d);
        if (packed_precedes(blocking_key, key)) {
          blocking_key = key;
          blocked = true;
          dominating = d.id;
        }
      }
    }
    if (!blocked) {
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
    const CacheEntry* witness = nullptr;
    topology::ProtocolId witness_id = 0;
    PackedRank witness_key{};  // sentinel
    for (const auto& [id, entry] : s.cache) {
      const PackedRank key = entry_key(id, entry);
      if (packed_precedes(witness_key, key) &&
          ids_contain(entry.relay.ids(), dominating)) {
        witness_key = key;
        witness = &entry;
        witness_id = id;
      }
    }
    if (witness == nullptr) return;  // stale relay; retry next step
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
      scramble_state(view(p), name_space_, aux_.size(), rng);
      externally_touched(p);
      ++hit;
    }
  }
  return hit;
}

void DensityProtocol::plant_relay(graph::NodeId p, CacheEntry& entry,
                                  std::span<const topology::ProtocolId> ids,
                                  std::span<const HeadRecord> heads) {
  // Keep what a delivery would: the first highest-ranked record not
  // naming p, under fusion.
  const HeadRecord* best = nullptr;
  PackedRank best_key{};  // sentinel
  if (config_.cluster.fusion) {
    for (const HeadRecord& record : heads) {
      if (record.id == uids_[p]) continue;
      const PackedRank key = head_key(record);
      if (packed_precedes(best_key, key)) {
        best_key = key;
        best = &record;
      }
    }
  }
  entry.relay.attach(*aux_[p].relay_slab);
  RelayWord* dst =
      entry.relay.rewrite(ids.size(), best != nullptr, lists_of(aux_[p].cache));
  std::copy(ids.begin(), ids.end(), dst);
  if (best != nullptr) put_head(dst + ids.size(), *best);
}

void DensityProtocol::reset_node(graph::NodeId p) {
  links_fresh_[p] = 0;
  resync_[p] = 1;
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

}  // namespace ssmwn::core
