// The distributed, self-stabilizing density-clustering protocol.
//
// This is the message-passing realization of the paper's Section 4: every
// node holds the shared variables Id_p (its DAG name), d_p (density) and
// H(p) (chosen cluster-head), periodically broadcasts them together with a
// relay of its cached 1-neighborhood (the Herman–Tixeuil shared-variable
// propagation scheme, which is what gives each node its 2-neighborhood
// view), and repeatedly executes the guarded rules
//
//   N1: true → Id_p := newId(Id_p)          (constant-height DAG renaming)
//   R1: true → d_p  := density               (Definition 1, from caches)
//   R2: true → H(p) := clusterHead           (≺-max election + fusion)
//
// against whatever its caches currently contain. Nothing is assumed about
// the initial state: caches may hold garbage, shared variables arbitrary
// values — the protocol converges to the configuration computed by the
// synchronous oracle (`cluster_by_metric`) regardless, which is exactly
// the self-stabilization property the paper proves. Knowledge follows the
// paper's Table 2 schedule: neighbors after 1 step, density after 2,
// parent after 3, head after 3 + tree depth.
//
// State layout: the seven hot shared variables live structure-of-arrays
// in core::NodeScalars (soa_state.hpp) so population-wide scans and the
// per-step snapshot/diff kernels vectorize; the cold per-node state
// (neighbor cache, RNG, async observability) stays array-of-structs in
// NodeAux. `NodeState` — the type the rules, tests and the fault
// injector all manipulate — is a *view*: a bundle of references into
// both stores. Views are returned by value; bind them as `auto s =` or
// `const auto& s =` (lifetime extension keeps the temporary alive; the
// referenced storage is the protocol's own and outlives any observer).
//
// The class implements the arena Protocol concept both engines drive
// (sim/scheduler.hpp), plus the quiescence extension
// (sim::QuiescentProtocol). Its change detector is armed from
// construction: per node and per step it notes whether anything
// rule-relevant changed — delivered frame content, own shared
// variables, cache aging/eviction — and exposes the verdict through
// `consume_activity` / `maybe_tick`. A sweep whose inputs did not move
// since a sweep that changed nothing is a provable no-op, so
// `maybe_tick` skips it. Whether a node's *frame* changed is not its
// call: the synchronous engine grades every rebuilt row against the row
// before it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/dag_ids.hpp"
#include "core/flat_cache.hpp"
#include "core/options.hpp"
#include "core/rank.hpp"
#include "core/slab_pool.hpp"
#include "core/soa_state.hpp"
#include "graph/graph.hpp"
#include "sim/scheduler.hpp"
#include "stabilize/rules.hpp"
#include "topology/ids.hpp"
#include "util/rng.hpp"

namespace ssmwn::core {

/// The broadcast payload is the sender's shared variables (this header)
/// plus its relay row, in storage the engine owns: the ids of its cached
/// neighbors, sorted, then — under fusion — the head records of its two
/// highest-ranked cached neighbors that are their own heads with a valid
/// metric, best first (slab_pool.hpp has the word layout). Receivers
/// rebuild adjacency among their neighbors from the ids (R1) and keep the
/// best record not naming themselves for the fusion scan, which only
/// ever acts on the best 2-hop head; two records serve every receiver,
/// so nothing else travels. 38 bytes of fields, widest first; the last
/// two bytes of the 40 are tail padding.
struct ProtocolFrameHeader {
  topology::ProtocolId id = 0;
  std::uint64_t dag_id = 0;
  double metric = 0.0;
  topology::ProtocolId head = 0;
  /// Head records at the row's tail (0, 1 or 2); the ids fill the rest.
  std::uint32_t heads = 0;
  bool metric_valid = false;
  bool head_valid = false;
};

/// Which metric rule R1 computes. The paper's algorithm is Density; the
/// conclusion notes the whole self-stabilizing construction applies to
/// other local metrics "as for instance the node's degree", which
/// Degree realizes (and the tests verify against the degree oracle).
enum class ElectionMetric {
  Density,
  Degree,
};

/// How rule R1 obtains e(N_p), the believed-link count among cached
/// neighbors. The three modes compute bit-identical metrics; they differ
/// only in cost and checking.
enum class DensityMaintenance {
  /// Maintained per-node count, updated by delta on every cache
  /// mutation; R1 is O(1). Falls back to one full recompute after any
  /// external mutation (fault injection, `mutable_state`). The default.
  kIncremental,
  /// The pre-maintenance cost model: every R1 firing recomputes the
  /// pairwise count from the relayed id lists. The debug oracle the
  /// differential gate runs the incremental mode against.
  kRecompute,
  /// Incremental *and* recompute every firing, throwing std::logic_error
  /// on any mismatch — the self-checking mode.
  kChecked,
};

struct ProtocolConfig {
  ClusterOptions cluster;

  ElectionMetric metric = ElectionMetric::Density;

  /// |γ| for the DAG names; 0 = auto (δ² + 1 from `delta_hint`).
  std::uint64_t dag_name_space = 0;
  DagRedrawPolicy dag_policy = DagRedrawPolicy::SmallerUidRedraws;
  /// Max degree hint used only to size the auto name space. The protocol
  /// itself never needs δ; the paper assumes it is a known deployment
  /// constant.
  std::uint64_t delta_hint = 16;

  /// Steps without hearing a neighbor before its cache entry is evicted;
  /// tolerates frame loss (τ < 1) while still tracking topology changes.
  std::uint32_t cache_max_age = 8;

  /// e(N_p) cost model for R1 (Density metric only; bit-identical
  /// results in every mode).
  DensityMaintenance density_maintenance = DensityMaintenance::kIncremental;
};

/// The cache timeout (ProtocolConfig::cache_max_age) for a deployment:
/// 8 rounds on a lossless medium, 16 under loss (τ < 1). A deployment
/// whose slowest node broadcasts `daemon_slowdown` times less often than
/// the mean (periods jittered by ± `period_jitter`) needs more: a fast
/// node must not evict a live-but-slow neighbor between its frames, or
/// legitimacy flickers after convergence. The certifier caught exactly
/// that at 8 under the 8x-unfair daemon (~0.3% closure-broken trials).
/// The worst gap in the fast node's rounds is slowdown x (1+jitter) /
/// (1-jitter), stretched by loss; the timeout keeps a 2x margin for
/// jitter stacking. `daemon_slowdown` <= 1 leaves the base timeout.
[[nodiscard]] inline std::uint32_t cache_timeout(double tau,
                                                 double daemon_slowdown = 1.0,
                                                 double period_jitter = 0.0) {
  const std::uint32_t base = tau < 1.0 ? 16 : 8;
  if (daemon_slowdown <= 1.0) return base;
  const double worst_gap = daemon_slowdown * (1.0 + period_jitter) /
                           (1.0 - period_jitter) / std::max(tau, 0.05);
  return std::max<std::uint32_t>(
      base, static_cast<std::uint32_t>(2.0 * worst_gap + 1.0));
}

class DensityProtocol {
 public:
  /// Wide fields first, bools last: 56 bytes, so a cache item (key +
  /// entry) fills exactly one 64-byte line. The receive pass walks these
  /// every step; a new field should earn the line it costs.
  struct CacheEntry {
    std::uint64_t dag_id = 0;
    double metric = 0.0;
    topology::ProtocolId head = 0;
    /// What this node keeps of the neighbor's last relay row: its sorted
    /// neighbor ids and, under fusion, its best head record not naming
    /// this node — a span into the owning node's relay slab. Entries are
    /// move-only as a consequence (see slab_pool.hpp).
    RelayList relay;
    std::uint32_t age = 0;
    bool metric_valid = false;
    bool head_valid = false;
  };

  /// Cold per-node state: everything that is not one of the seven hot
  /// scalars. Kept array-of-structs — the cache dominates and is
  /// variable-sized anyway.
  struct NodeAux {
    /// Slab storage for every relay list in this node's cache. Behind a
    /// unique_ptr so its address is stable when NodeAux itself moves
    /// (the cache entries hold pointers to it). Declared before the
    /// cache: entry destructors release their spans into it. The two
    /// lead the record, where the kRecord prefetch hint covers them.
    std::unique_ptr<RelaySlab> relay_slab = std::make_unique<RelaySlab>();
    /// Sorted by id — same iteration order as the std::map it replaced,
    /// but contiguous, so the per-step rule sweeps stream memory.
    FlatMap<topology::ProtocolId, CacheEntry> cache;
    util::Rng rng{0};
    /// Async-engine observability (fed by `on_delivery`, untouched by
    /// the synchronous engines): virtual time of the last frame heard
    /// (< 0 = never) and total frames heard.
    double last_heard_s = -1.0;
    std::uint64_t deliveries = 0;
  };

  /// Mutable view of one node's full state; public so tests and the
  /// fault injector can reach every bit of it ("arbitrary initial
  /// state" means all of this). Members are references into the SoA
  /// columns and the cold store — copy the view freely, it stays a
  /// window onto the same node.
  struct NodeState {
    const topology::ProtocolId& uid;
    std::uint64_t& dag_id;
    double& metric;
    std::uint8_t& metric_valid;
    topology::ProtocolId& head;
    std::uint8_t& head_valid;
    topology::ProtocolId& parent;
    std::uint8_t& parent_valid;
    FlatMap<topology::ProtocolId, CacheEntry>& cache;
    util::Rng& rng;
    double& last_heard_s;
    std::uint64_t& deliveries;
    /// Maintained e(N_p). Writable so fault injectors can corrupt it;
    /// `mutable_state()` already marked the count stale, so whatever is
    /// written here is recomputed away at the node's next R1 firing.
    std::uint64_t& links_among;
    /// Graph index of this node (uids map to protocol ids, not indices).
    graph::NodeId node;
  };

  /// Read-only counterpart of NodeState, returned by `state()`.
  struct ConstNodeState {
    const topology::ProtocolId& uid;
    const std::uint64_t& dag_id;
    const double& metric;
    const std::uint8_t& metric_valid;
    const topology::ProtocolId& head;
    const std::uint8_t& head_valid;
    const topology::ProtocolId& parent;
    const std::uint8_t& parent_valid;
    const FlatMap<topology::ProtocolId, CacheEntry>& cache;
    const util::Rng& rng;
    const double& last_heard_s;
    const std::uint64_t& deliveries;
    const std::uint64_t& links_among;
    /// The node's relay slab (for memory censuses; relay lists are
    /// planted through `DensityProtocol::plant_relay`).
    const RelaySlab& relay_slab;
    graph::NodeId node;
  };

  /// `uids[p]` is node p's globally-unique protocol identifier; `rng`
  /// seeds the per-node generators used by the DAG renaming rule.
  DensityProtocol(topology::IdAssignment uids, ProtocolConfig config,
                  util::Rng rng);

  // --- arena protocol concept (sim::ArenaProtocol) ---------------------
  // Both engines build frames through these into storage they own and
  // reuse, so a steady-state step allocates nothing.
  using FrameHeader = ProtocolFrameHeader;
  /// A frame row is a relay span (slab_pool.hpp): the engine's digest
  /// slots are its words.
  using Digest = RelayWord;
  /// Number of row words `make_frame` will fill for `sender` right now
  /// (its cache size, plus three per relayed head record under fusion);
  /// the engine sizes its rows from these.
  [[nodiscard]] std::size_t digest_count(graph::NodeId sender) const;
  /// Writes the shared variables into `header` and exactly
  /// `digest_count(sender)` words into `row`.
  void make_frame(graph::NodeId sender, FrameHeader& header,
                  std::span<Digest> row) const;
  /// Row storage is only borrowed for the duration of the call (the
  /// cache copies what it keeps).
  void deliver(graph::NodeId receiver, const FrameHeader& header,
               std::span<const Digest> row);
  /// Sweeps the guarded rules N1, R1, R2 once, unconditionally, and
  /// notes whether the sweep moved a shared variable.
  void tick(graph::NodeId node);
  /// Ages the cache and evicts entries older than `cache_max_age`.
  void end_step(graph::NodeId node);

  // --- redelivery concept (sim::RedeliveryProtocol) --------------------
  /// Age refresh for a receiver the engine steps with valid row hints,
  /// before any of its deliveries: every heard neighbor's entry was
  /// refreshed at the receiver's last sweep, and every other entry has
  /// aged at least once since it was written, so with pairwise-distinct
  /// uids the entries at age <= 1 are the neighbors' exactly when there
  /// are `heard` of them. Then it zeroes those ages and returns true, and
  /// the engine delivers only the rows it did not prove bit-equal; older
  /// entries (phantoms, silenced senders) keep counting toward eviction.
  /// Returns false — demanding every row's delivery — when the count
  /// differs (a phantom or a fresh entry still at age <= 1), the receiver
  /// was externally mutated since the last full sweep, or uids repeat.
  bool redeliver_unchanged(graph::NodeId receiver, std::size_t heard);
  /// Fast path for a frame whose *id sequence* and length the engine
  /// proved unchanged since this receiver last consumed it, while the
  /// header or the head records differ: e(N_p) depends only on which ids
  /// each relay list names, so the delta walk and the compare both vanish
  /// and the delivery collapses to a straight payload overwrite. The
  /// engine's proof that the row differs raises the change bit `deliver`
  /// would. Returns false — demanding the full compare path — when the
  /// entry is missing, its stored list disagrees with the engine's proof,
  /// the receiver was externally mutated since the last full sweep, or
  /// uids repeat.
  bool deliver_payload(graph::NodeId receiver, const FrameHeader& header,
                       std::span<const Digest> row);
  /// The row-equality predicates (sim::RowEqualityProtocol) the engine
  /// grades rebuilt rows with — the grades back `deliver_payload` and
  /// decide whose neighbors step. A row's leading `id_prefix` words are
  /// its id sequence; the head records follow.
  [[nodiscard]] static std::size_t id_prefix(const FrameHeader& header,
                                             std::size_t row_words) noexcept {
    return row_words - kHeadWords * header.heads;
  }
  /// Bitwise frame-header equality (field-wise — padding bytes never
  /// participate).
  [[nodiscard]] static bool header_bits_equal(
      const FrameHeader& a, const FrameHeader& b) noexcept {
    return a.id == b.id && a.dag_id == b.dag_id &&
           double_bits_equal(a.metric, b.metric) &&
           a.metric_valid == b.metric_valid && a.head == b.head &&
           a.head_valid == b.head_valid && a.heads == b.heads;
  }
  /// Row words hold metrics as their bit patterns, so word equality is
  /// bit equality.
  [[nodiscard]] static bool digest_bits_equal(const Digest& a,
                                              const Digest& b) noexcept {
    return a == b;
  }

  // --- prefetch concept (sim::PrefetchProtocol) -------------------------
  /// Memory hints for a node the engine is about to build or step: its
  /// state sits behind a chain of heap blocks (`aux_[node]` → the cache
  /// items; `aux_[node].relay_slab` → the RelaySlab → its words), each a
  /// dependent miss at scale. kRecord hints `aux_[node]` itself, reading
  /// nothing; kState, issued nearer the node, reads the block pointers
  /// kRecord brought in and hints the cache items and the slab object;
  /// kRelays, nearer still, reads the slab kState brought in and hints
  /// its words up to the cursor. Reads only `node`'s own state and
  /// changes nothing.
  void prefetch(graph::NodeId node, sim::PrefetchStage stage) const noexcept {
    const NodeAux& aux = aux_[node];
    switch (stage) {
      case sim::PrefetchStage::kRecord:
        // The two members kState reads, which may straddle a line.
        prefetch_bytes(&aux, sizeof(aux.relay_slab) + sizeof(aux.cache));
        break;
      case sim::PrefetchStage::kState:
        prefetch_bytes(aux.cache.data(),
                       aux.cache.size() * sizeof(*aux.cache.data()));
        __builtin_prefetch(aux.relay_slab.get());
        break;
      case sim::PrefetchStage::kRelays: {
        const RelaySlab& slab = *aux.relay_slab;
        prefetch_bytes(slab.at(0), slab.cursor() * sizeof(RelayWord));
        break;
      }
    }
  }

  // --- dynamic-topology concept (sim::TopologyAwareProtocol) -----------
  /// Link-severed notification from a live topology change: each
  /// endpoint immediately evicts its cache entry for the other, so the
  /// next rule firing computes on the post-perturbation neighborhood
  /// instead of a ghost link (the entry would otherwise linger up to
  /// `cache_max_age` rounds). Deterministic, engine-agnostic; new links
  /// need no notification — the first heard frame creates the entry.
  void on_edge_removed(graph::NodeId a, graph::NodeId b);

  // --- async-engine concept (sim::TimestampedProtocol) -----------------
  /// Per-delivery timestamp hook: the event-driven engine calls this
  /// with the delivery's virtual time (seconds) immediately before
  /// `deliver`. The protocol's behavior stays delivery-based — the
  /// timestamp only feeds the NodeState observability fields, so tests
  /// and metrics can ask *when* a node last heard anything.
  void on_delivery(graph::NodeId receiver, double time_s) {
    NodeAux& aux = aux_[receiver];
    aux.last_heard_s = time_s;
    ++aux.deliveries;
  }

  // --- quiescence concept (sim::QuiescentProtocol) ----------------------
  /// Sweeps the guarded rules unless the sweep is provably a no-op: the
  /// previous sweep changed nothing (`self-stable`) and no input changed
  /// since (no differing frame content, no eviction, no external
  /// mutation). Returns true iff the sweep ran. Every node is pending at
  /// construction, so its first call always sweeps.
  bool maybe_tick(graph::NodeId node);

  /// Returns and clears the verdict on the step that just completed:
  /// kChanged when a rule-relevant part of the node's state changed (a
  /// differing delivery, an eviction, an own-variable change, an external
  /// mutation), kStepOnly when the only news is an entry aged past 1 —
  /// the node must step again to age it out, but no frame row carries an
  /// age — and kQuiet otherwise. Whether its frame changed is the
  /// engine's row grade, not this verdict.
  [[nodiscard]] sim::Activity consume_activity(graph::NodeId node);

  /// Nodes whose state was mutated from outside the step loop since the
  /// last call (fault injection, `mutable_state`, severed links). The
  /// synchronous stepper drains this before each step and queues each
  /// listed node, so its row is rebuilt that step and, if the frame
  /// moved, its grade wakes the neighbors that same step. Sorted
  /// ascending; one mark per node keeps the list within n entries when
  /// nobody drains it (async and lossy runs).
  [[nodiscard]] std::vector<graph::NodeId> take_external_wakes();

  // --- observation ----------------------------------------------------
  [[nodiscard]] std::size_t node_count() const noexcept {
    return aux_.size();
  }
  [[nodiscard]] ConstNodeState state(graph::NodeId p) const {
    return const_view(p);
  }
  /// Mutable access for tests and fault injectors. Conservatively marks
  /// the node externally dirty (any field may be about to change).
  [[nodiscard]] NodeState mutable_state(graph::NodeId p) {
    externally_touched(p);
    // Any field — the cache and relay lists included — may be about to
    // change, so the maintained link count can no longer be trusted; the
    // node's next R1 firing recomputes it from scratch. This is the
    // self-stabilization story for the maintained count itself: external
    // writes cannot plant a stale-but-trusted value.
    links_fresh_[p] = 0;
    // Same story for the engines' redelivery fast path: the cache may be
    // about to stop matching what perfect delivery implies, so the next
    // sweep must run full compares for this receiver (cleared by that
    // sweep's end_step).
    resync_[p] = 1;
    return view(p);
  }
  [[nodiscard]] const ProtocolConfig& config() const noexcept {
    return config_;
  }
  /// The e(N_p) cost model (`config().density_maintenance`).
  [[nodiscard]] DensityMaintenance density_maintenance() const noexcept {
    return config_.density_maintenance;
  }
  /// True iff node p's maintained link count currently carries the
  /// invariant (== pairwise recompute over its cache). Test/debug hook.
  [[nodiscard]] bool links_count_fresh(graph::NodeId p) const noexcept {
    return links_fresh_[p] != 0;
  }
  [[nodiscard]] std::uint64_t name_space() const noexcept {
    return name_space_;
  }
  /// The hot shared-variable columns, for population-scan kernels and
  /// the bitwise divergence search.
  [[nodiscard]] const NodeScalars& scalars() const noexcept { return cols_; }

  /// is_head flags (H(p) == Id_p) per graph index.
  [[nodiscard]] std::vector<char> head_flags() const;
  /// H(p) per graph index (protocol ids); head_valid must be checked via
  /// `state()` for transient reads.
  [[nodiscard]] std::vector<topology::ProtocolId> head_values() const;
  [[nodiscard]] std::vector<topology::ProtocolId> parent_values() const;
  [[nodiscard]] std::vector<double> metrics() const;
  [[nodiscard]] std::vector<std::uint64_t> dag_id_values() const;

  // --- perturbation (self-stabilization experiments) ------------------
  /// Overwrites every shared variable of every node with random values and
  /// stuffs caches with garbage entries (including phantom neighbors) —
  /// the "arbitrary initial state" a self-stabilizing algorithm must
  /// recover from.
  void corrupt_all(util::Rng& rng);
  /// Same, but only for each node independently with probability
  /// `fraction`. Returns how many nodes were hit.
  std::size_t corrupt_fraction(util::Rng& rng, double fraction);
  /// Resets a node to its freshly-booted state (empty caches, invalid
  /// variables) — models a crash/reboot.
  void reset_node(graph::NodeId p);
  /// Writes a hand-planted relay list — `ids` (sorted) and any number of
  /// `heads` — into `entry`, which must sit in node p's cache: the door
  /// for fault injectors and tests, after `mutable_state(p)`. Keeps what
  /// a delivery would: under fusion the first highest-ranked record not
  /// naming p, without fusion none.
  void plant_relay(graph::NodeId p, CacheEntry& entry,
                   std::span<const topology::ProtocolId> ids,
                   std::span<const HeadRecord> heads);

 private:
  [[nodiscard]] NodeState view(graph::NodeId p) {
    return NodeState{uids_[p],
                     cols_.dag_id[p],
                     cols_.metric[p],
                     cols_.metric_valid[p],
                     cols_.head[p],
                     cols_.head_valid[p],
                     cols_.parent[p],
                     cols_.parent_valid[p],
                     aux_[p].cache,
                     aux_[p].rng,
                     aux_[p].last_heard_s,
                     aux_[p].deliveries,
                     links_among_[p],
                     p};
  }
  [[nodiscard]] ConstNodeState const_view(graph::NodeId p) const {
    return ConstNodeState{uids_[p],
                          cols_.dag_id[p],
                          cols_.metric[p],
                          cols_.metric_valid[p],
                          cols_.head[p],
                          cols_.head_valid[p],
                          cols_.parent[p],
                          cols_.parent_valid[p],
                          aux_[p].cache,
                          aux_[p].rng,
                          aux_[p].last_heard_s,
                          aux_[p].deliveries,
                          links_among_[p],
                          *aux_[p].relay_slab,
                          p};
  }

  /// Hints every cache line of [p, p + bytes); nothing when empty.
  static void prefetch_bytes(const void* p, std::size_t bytes) noexcept {
    constexpr std::uintptr_t kLine = 64;
    const auto begin = reinterpret_cast<std::uintptr_t>(p);
    for (std::uintptr_t a = begin & ~(kLine - 1); a < begin + bytes;
         a += kLine) {
      __builtin_prefetch(reinterpret_cast<const void*>(a));
    }
  }

  [[nodiscard]] NodeRank self_rank(const NodeState& s) const;
  [[nodiscard]] NodeRank entry_rank(topology::ProtocolId id,
                                    const CacheEntry& e) const;
  /// A relayed head record's ≺ key (a head is its own incumbent).
  [[nodiscard]] PackedRank head_key(const HeadRecord& d) const;
  /// The head record of `row` that `receiver` keeps — the best one not
  /// naming it (the row's records come best first) — or nullptr.
  [[nodiscard]] const RelayWord* kept_head(graph::NodeId receiver,
                                           const FrameHeader& header,
                                           std::span<const Digest> row) const;
  /// An entry's ≺ key for the R2 election: its packed rank when valid,
  /// the below-everything sentinel otherwise (so invalid entries lose
  /// every arg-max without a branch).
  [[nodiscard]] PackedRank entry_key(topology::ProtocolId id,
                                     const CacheEntry& e) const {
    return e.metric_valid
               ? pack_rank(entry_rank(id, e), config_.cluster.incumbency)
               : PackedRank{};
  }

  void rule_n1(NodeState& s);
  void rule_r1(NodeState& s);
  void rule_r2(NodeState& s);

  /// Marks a node as mutated outside the step loop: pending, not
  /// self-stable, change bit raised, queued for `take_external_wakes`.
  void externally_touched(graph::NodeId p);

  topology::IdAssignment uids_;
  ProtocolConfig config_;
  std::uint64_t name_space_ = 1;
  NodeScalars cols_;
  std::vector<NodeAux> aux_;
  stabilize::RuleEngine<NodeState> engine_;

  // --- incremental e(N_p) maintenance ---------------------------------
  /// Deltas are applied iff this is set: Density metric and a
  /// maintaining mode (kIncremental/kChecked).
  bool maintain_links_ = true;
  /// Maintained believed-link count e(N_p) per node. Invariant: when
  /// links_fresh_[p] is set, links_among_[p] equals the pairwise
  /// recompute over p's current cache (a pair q,r counts iff either
  /// relayed id list names the other). Not protocol state — a memoization —
  /// so the differential harness does not compare it.
  std::vector<std::uint64_t> links_among_;
  /// Cleared by any external mutation (mutable_state, corrupt_*,
  /// reset_node); set again by the first R1 recompute afterwards. Kept
  /// internal so fault injectors cannot forge trust in a planted count.
  std::vector<std::uint8_t> links_fresh_;
  /// Set by any external mutation; while set, the redelivery fast paths
  /// decline so the next sweep's full compares resync this receiver's
  /// cache. Cleared by `end_step` (which runs after that sweep).
  std::vector<std::uint8_t> resync_;
  /// No two nodes share a uid — what lets a count of cache entries prove
  /// which entries it holds (`redeliver_unchanged`).
  bool uids_distinct_ = true;

  // --- quiescence machinery --------------------------------------------
  /// An input changed since the last sweep; the next sweep must run.
  std::vector<std::uint8_t> pending_;
  /// The last sweep changed none of the node's shared variables.
  std::vector<std::uint8_t> stable_;
  /// Step-scoped: the strongest activity verdict raised this step.
  std::vector<sim::Activity> step_activity_;
  std::vector<std::uint8_t> external_mark_;
  std::vector<graph::NodeId> external_list_;
};

}  // namespace ssmwn::core
