// The distributed, self-stabilizing density-clustering protocol.
//
// This is the message-passing realization of the paper's Section 4: every
// node holds the shared variables Id_p (its DAG name), d_p (density) and
// H(p) (chosen cluster-head), periodically broadcasts them together with a
// digest of its cached 1-neighborhood (the Herman–Tixeuil shared-variable
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
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/dag_ids.hpp"
#include "core/flat_cache.hpp"
#include "core/options.hpp"
#include "core/rank.hpp"
#include "core/slab_pool.hpp"
#include "core/soa_state.hpp"
#include "graph/graph.hpp"
#include "stabilize/rules.hpp"
#include "topology/ids.hpp"
#include "util/rng.hpp"

namespace ssmwn::core {

/// One cached-neighbor summary relayed inside a frame; receivers use these
/// to reconstruct adjacency among their neighbors (for R1) and to spot
/// cluster-heads at 2 hops (for the fusion rule).
struct NeighborDigest {
  topology::ProtocolId id = 0;
  std::uint64_t dag_id = 0;
  double metric = 0.0;
  bool metric_valid = false;
  bool is_head = false;
};

/// Bitwise digest equality (metric compared at the bit level, see
/// double_bits_equal) — the comparison the quiescence change detector
/// and the differential harness both use.
[[nodiscard]] inline bool digest_bits_equal(const NeighborDigest& a,
                                            const NeighborDigest& b) noexcept {
  return a.id == b.id && a.dag_id == b.dag_id &&
         double_bits_equal(a.metric, b.metric) &&
         a.metric_valid == b.metric_valid && a.is_head == b.is_head;
}

/// The broadcast payload is the sender's shared variables (this header)
/// plus its digest of its own 1-neighborhood, sorted by id. The digest
/// list lives in storage the engine owns and travels alongside the
/// header as a span.
struct ProtocolFrameHeader {
  topology::ProtocolId id = 0;
  std::uint64_t dag_id = 0;
  double metric = 0.0;
  bool metric_valid = false;
  topology::ProtocolId head = 0;
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

/// Per-node digest storage: one slab pool per node, spans handed out to
/// that node's cache entries (see slab_pool.hpp).
using DigestPool = SlabPool<NeighborDigest>;
using DigestList = PooledList<NeighborDigest>;

/// How rule R1 obtains e(N_p), the believed-link count among cached
/// neighbors. The three modes compute bit-identical metrics; they differ
/// only in cost and checking.
enum class DensityMaintenance {
  /// Maintained per-node count, updated by delta on every cache
  /// mutation; R1 is O(1). Falls back to one full recompute after any
  /// external mutation (fault injection, `mutable_state`). The default.
  kIncremental,
  /// The pre-maintenance cost model: every R1 firing recomputes the
  /// pairwise count from the digest lists. The debug oracle the
  /// differential gate runs the incremental mode against.
  kRecompute,
  /// Incremental *and* recompute every firing, throwing std::logic_error
  /// on any mismatch — the self-checking mode. `SSMWN_CHECK_DENSITY=1`
  /// upgrades kIncremental to this at construction.
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
    /// Sorted by id; a span into the owning node's digest pool. Entries
    /// are move-only as a consequence (see slab_pool.hpp).
    DigestList digests;
    std::uint32_t age = 0;
    bool metric_valid = false;
    bool head_valid = false;
  };

  /// Cold per-node state: everything that is not one of the seven hot
  /// scalars. Kept array-of-structs — the cache dominates and is
  /// variable-sized anyway.
  struct NodeAux {
    /// Slab storage for every digest list in this node's cache. Behind a
    /// unique_ptr so its address is stable when NodeAux itself moves
    /// (the cache entries hold pointers to it). Declared before the
    /// cache: entry destructors release their spans into it.
    std::unique_ptr<DigestPool> digest_pool = std::make_unique<DigestPool>();
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
    /// The node's digest slab; planting cache entries by hand requires
    /// `entry.digests.attach(s.digest_pool)` before writing the list.
    DigestPool& digest_pool;
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
    const DigestPool& digest_pool;
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
  using Digest = NeighborDigest;
  /// Number of digest slots `make_frame` will fill for `sender` right now
  /// (its current cache size); the engine sizes the pool from these.
  [[nodiscard]] std::size_t digest_count(graph::NodeId sender) const {
    return aux_[sender].cache.size();
  }
  /// Writes the shared variables into `header` and exactly
  /// `digest_count(sender)` digests into `digests`.
  void make_frame(graph::NodeId sender, FrameHeader& header,
                  std::span<Digest> digests) const;
  /// Digest storage is only borrowed for the duration of the call (the
  /// cache copies what it keeps).
  void deliver(graph::NodeId receiver, const FrameHeader& header,
               std::span<const Digest> digests);
  /// Sweeps the guarded rules N1, R1, R2 once, unconditionally, and
  /// notes whether the sweep moved a shared variable.
  void tick(graph::NodeId node);
  /// Ages the cache and evicts entries older than `cache_max_age`.
  void end_step(graph::NodeId node);

  // --- redelivery concept (sim::RedeliveryProtocol) --------------------
  /// Fast path for a receiver whose `heard` frames the engine all proved
  /// bit-identical to the ones it consumed last step, which put every
  /// neighbor's uid in its cache: with pairwise-distinct uids, a cache of
  /// exactly `heard` entries is the neighbors, and only the age resets
  /// remain. Returns false — demanding per-frame delivery — when the
  /// sizes differ (a phantom entry, an eviction), the receiver was
  /// externally mutated since the last full sweep, or uids repeat.
  bool redeliver_unchanged(graph::NodeId receiver, std::size_t heard);
  /// Fast path for a frame whose *id sequence* the engine proved unchanged
  /// since this receiver last consumed it (payloads — DAG ids, metrics,
  /// head bits — may differ): e(N_p) depends only on which ids each digest
  /// list names, so the delta walk and the compare both vanish and the
  /// delivery collapses to a straight payload overwrite. `bits_equal` says
  /// the engine proved the whole row bit-equal too: then only the age
  /// resets. Otherwise the row differs, and that proof raises the change
  /// bit `deliver` would. Returns false — demanding the full compare path —
  /// when the entry is missing, its stored list disagrees with the engine's
  /// proof, the receiver was externally mutated since the last full sweep,
  /// or uids repeat.
  bool deliver_payload(graph::NodeId receiver, const FrameHeader& header,
                       std::span<const Digest> digests, bool bits_equal);
  /// The row-equality predicates (sim::RowEqualityProtocol) the engine
  /// grades rebuilt rows with — the grades back `deliver_payload` and
  /// decide whose neighbors step. Id projection first.
  [[nodiscard]] static bool digest_id_equal(const Digest& a,
                                            const Digest& b) noexcept {
    return a.id == b.id;
  }
  /// Bitwise frame-header equality (field-wise — padding bytes never
  /// participate).
  [[nodiscard]] static bool header_bits_equal(
      const FrameHeader& a, const FrameHeader& b) noexcept {
    return a.id == b.id && a.dag_id == b.dag_id &&
           double_bits_equal(a.metric, b.metric) &&
           a.metric_valid == b.metric_valid && a.head == b.head &&
           a.head_valid == b.head_valid;
  }
  /// Digest counterpart; forwards to the namespace-scope predicate the
  /// differential harness also uses.
  [[nodiscard]] static bool digest_bits_equal(const Digest& a,
                                              const Digest& b) noexcept {
    return core::digest_bits_equal(a, b);
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

  /// Returns and clears whether any rule-relevant part of the node's
  /// state changed during the step that just completed (it must step
  /// again). Whether its frame changed is the engine's row grade, not
  /// this bit.
  [[nodiscard]] bool consume_activity(graph::NodeId node);

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
    // Any field — the cache and digest lists included — may be about to
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
  /// The resolved e(N_p) cost model (config, possibly upgraded to
  /// kChecked by SSMWN_CHECK_DENSITY at construction).
  [[nodiscard]] DensityMaintenance density_maintenance() const noexcept {
    return maintenance_;
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
                     *aux_[p].digest_pool,
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
                          *aux_[p].digest_pool,
                          p};
  }

  [[nodiscard]] NodeRank self_rank(const NodeState& s) const;
  [[nodiscard]] NodeRank entry_rank(topology::ProtocolId id,
                                    const CacheEntry& e) const;
  [[nodiscard]] NodeRank digest_rank(const NeighborDigest& d) const;
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
  /// Resolved cost model (config_.density_maintenance, possibly upgraded
  /// to kChecked by the SSMWN_CHECK_DENSITY env knob).
  DensityMaintenance maintenance_ = DensityMaintenance::kIncremental;
  /// Deltas are applied iff this is set: Density metric and a
  /// maintaining mode (kIncremental/kChecked).
  bool maintain_links_ = true;
  /// Maintained believed-link count e(N_p) per node. Invariant: when
  /// links_fresh_[p] is set, links_among_[p] equals the pairwise
  /// recompute over p's current cache (a pair q,r counts iff either
  /// digest list names the other). Not protocol state — a memoization —
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
  /// No two nodes share a uid — what lets a cache's size prove which
  /// entries it holds (`redeliver_unchanged`).
  bool uids_distinct_ = true;

  // --- quiescence machinery --------------------------------------------
  /// An input changed since the last sweep; the next sweep must run.
  std::vector<std::uint8_t> pending_;
  /// The last sweep changed none of the node's shared variables.
  std::vector<std::uint8_t> stable_;
  /// Step-scoped: some rule-relevant state changed this step.
  std::vector<std::uint8_t> step_state_changed_;
  std::vector<std::uint8_t> external_mark_;
  std::vector<graph::NodeId> external_list_;
};

// --- differential-harness helpers ------------------------------------

/// True iff node `p` holds bit-identical state in both protocols:
/// shared variables, full cache contents (including ages and relayed
/// digests), RNG state and the async observability fields.
[[nodiscard]] bool node_states_bitwise_equal(const DensityProtocol& a,
                                             const DensityProtocol& b,
                                             graph::NodeId p);

/// First node whose state differs bitwise, or nullopt when the two
/// populations are identical. Scans the SoA columns first (vectorized),
/// then the cold state of candidate rows.
[[nodiscard]] std::optional<graph::NodeId> first_divergent_node(
    const DensityProtocol& a, const DensityProtocol& b);

/// Human-readable description of how node `p` differs between the two
/// protocols (field names and both values) — the payload of a
/// divergence report from the equivalence harness.
[[nodiscard]] std::string describe_divergence(const DensityProtocol& a,
                                              const DensityProtocol& b,
                                              graph::NodeId p);

}  // namespace ssmwn::core
