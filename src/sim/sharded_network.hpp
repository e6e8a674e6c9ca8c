// The synchronous-step network runtime — the lockstep instance of the
// Scheduler seam (sim/scheduler.hpp; the event-driven instance is
// sim/async_network.hpp), and the repo's one synchronous engine.
//
// One `step()` realizes the paper's Δ(τ) time unit: every node builds a
// frame from its shared variables and locally broadcasts it; the loss
// model decides per receiver whether the frame is heard; then every node
// atomically executes its guarded rules against its (possibly stale)
// caches. Reception is double-buffered — all frames of a step are built
// from the state *before* any rule of that step fires, exactly matching
// the synchronous semantics the paper's step-count arguments use.
//
// The Protocol type supplies the node behavior through the arena
// extension (sim::ArenaProtocol): fixed-size frame headers plus
// variable-length digest lists written into flat, engine-owned buffers
// keyed by per-row offsets and lengths, reused across steps so a
// steady-state step performs zero heap allocations:
//
//   struct Protocol {
//     using FrameHeader = ...;  using Digest = ...;
//     std::size_t digest_count(NodeId sender) const;
//     void make_frame(NodeId sender, FrameHeader&,
//                     std::span<Digest>) const;    // read-only snapshot
//     void deliver(NodeId receiver, const FrameHeader&,
//                  std::span<const Digest>);
//     void tick(NodeId node);                      // run guarded rules
//     void end_step(NodeId node);                  // cache aging etc.
//   };
//
// The row-equality, redelivery, quiescence and topology-aware
// extensions (sim/scheduler.hpp) are detected with `if constexpr` and
// unlock the row grades, the redelivery fast paths, the active set
// and severed-link hooks.
//
// One stepper, two kinds of step. With the quiescence extension and a
// medium that always delivers, the engine keeps an active set. Every
// node owns one persistent row in its shard's frame arena, and after
// every build phase each row equals the frame its node would build
// then. A step rebuilds the rows of the *queued* nodes — those whose
// state changed last step (consume_activity), that were mutated from
// outside, or that a topology change woke — and grades each against the
// row before it; every other row is bit-equal by construction. The
// queued nodes step, and so does every neighbor of a rebuilt row that
// is not bit-equal: the grade is the one test of whether a frame
// changed. Every other node sits at a fixpoint with unchanged inputs,
// so skipping it is bit-identical (docs/ARCHITECTURE.md §7 has the
// induction). A *whole* step rebuilds every row, a *subset* step only
// the queued ones; the kind is a global rule on the queued count
// (kWholeBuildShare), so it never depends on shard or thread count, and
// it moves no counter but rows_rebuilt and subset_steps. A step with
// nothing queued runs no phase at all. Lossy media and protocols
// without the extension step every node with whole builds (the
// extension still lets a stepped node skip a sweep it proves a no-op).
// `set_stepping` picks only the counter definitions (and, for kDirty,
// demands a loss-free medium).
//
// Shards. The node range [0, n) is carved into contiguous ranges
// ("shards"); every parallel phase is "one task per shard". A shard owns
// its range, its frame arena and its ActivityTracker; a task writes only
// shard-owned state plus the wake mailboxes of its own row
// (wake_mb_[writer * S + reader]). Arenas are written only in the build
// phase, so after its barrier a receiver reads a remote sender's row
// straight from the owning shard's arena; grade wakes are the only
// traffic that crosses shards through mailboxes. The threads-only constructor
// cuts one contiguous shard per worker (one shard at the default single
// thread); at million-node scale callers pass bounds from
// graph::plan_spatial_shards over a cell-major renumbered world, so
// radio neighbors are range-near.
//
// Node-locality contract (what lets one task run a receiver's whole
// step): `deliver(q, ...)`, `tick(q)`, `end_step(q)` and
// `consume_activity(q)` read and write only node q's state (plus the
// engine-owned frame rows they are handed); only `make_frame` reads a
// node for someone else, and it runs before any of them.
//
// Phases. (0) prologue — serial: externally mutated nodes join the
// queue, and the queued count picks the kind of step; (1) build — each
// shard rebuilds (whole or subset) and grades its rows, and every row
// that is not bit-equal wakes its sender's neighbors, local ones in the
// shard's tracker, remote ones through the wake mailboxes; (2) loss —
// serial per-edge decisions (lossy media only); (3) receive — each
// shard drains its inbound mailboxes and promotes its wake set to the
// step's work list, then for each stepped node q in ascending order
// delivers every heard frame in ascending-sender order, then tick(q)
// (maybe_tick with the quiescence extension, which also skips a sweep
// the protocol proves a no-op), end_step(q) and, under tracking,
// consume_activity(q), whose bit queues q for the next step. Phases
// are separated by barriers.
//
// Determinism argument (the property the differential tests assert):
// every row of a step is built before the receive pass starts, so no
// rule firing can leak into a frame of the same step; by the
// node-locality contract, running q's deliveries, tick and end_step back
// to back is indistinguishable from running every node's deliveries,
// then every tick, then every end_step; each receiver pulls its heard
// rows in ascending-sender order (its sorted CSR row), from whichever
// arena owns them, so *which* bytes it sees never depends on shard or
// thread count; and wakes land only in the trackers' wake sets or the
// wake mailboxes, which begin_step sorts. Stateful loss
// models are polled serially in sender-major order, so their RNG draw
// sequence is that of the owning-frame reference stepper the tests keep
// as their oracle (tests/support/reference_stepper.hpp). Hence:
// bit-identical at any shard/thread count (docs/ARCHITECTURE.md §8).
// tests/sim/step_order_test.cpp pins the call order this argument relies
// on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "sim/activity.hpp"
#include "sim/loss.hpp"
#include "sim/parallel.hpp"
#include "sim/scheduler.hpp"

namespace ssmwn::sim {

template <typename Protocol>
class ShardedNetwork {
  static_assert(ArenaProtocol<Protocol>,
                "the synchronous engine requires the arena extension "
                "(flat frame headers + digest pools)");

 public:
  /// A step rebuilds every row once the queued rows reach
  /// 1/kWholeBuildShare of the population, and only those rows below it
  /// (docs/BENCHMARKS.md has the ablation that picked the share).
  static constexpr std::size_t kWholeBuildShare = 2;

  /// `bounds` carves [0, n) into shard-owned ranges (see
  /// graph::ShardPlan::bounds — front 0, back n, monotone; empty ranges
  /// allowed). Throws std::invalid_argument on a malformed cover.
  /// `threads` is the step-engine parallelism (1 = fully inline,
  /// 0 = hardware concurrency); shards and threads are independent —
  /// one worker can sweep many shards, and extra workers idle. The
  /// graph reference is observed, not owned; it may be swapped between
  /// steps via `set_graph`. With the quiescence extension and a medium
  /// that always delivers, construction queues every node for the first
  /// step and keeps an active set from then on.
  ShardedNetwork(const graph::Graph& g, Protocol& protocol, LossModel& loss,
                 std::vector<std::size_t> bounds, unsigned threads = 1)
      : graph_(&g), protocol_(&protocol), loss_(&loss) {
    if (bounds.size() < 2 || bounds.front() != 0 ||
        bounds.back() != g.node_count() ||
        !std::is_sorted(bounds.begin(), bounds.end())) {
      throw std::invalid_argument(
          "ShardedNetwork: bounds must be a monotone cover of [0, "
          "node_count]");
    }
    bounds_ = std::move(bounds);
    const std::size_t S = shard_count();
    shards_.resize(S);
    for (std::size_t s = 0; s < S; ++s) {
      shards_[s].begin = bounds_[s];
      shards_[s].end = bounds_[s + 1];
      // Sized once, so tracked steps never grow it.
      shards_[s].changed.reserve(bounds_[s + 1] - bounds_[s]);
    }
    wake_mb_.resize(S * S);
    threads = effective_threads(threads);
    if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
    if constexpr (QuiescentProtocol<Protocol>) {
      if (loss.always_delivers()) {
        // Quiescence is discovered, never assumed: every node steps
        // first. That step covers whatever changed before the engine
        // existed, so change bits raised before then are dropped.
        tracked_ = true;
        wake_all();
        for (graph::NodeId p = 0; p < g.node_count(); ++p) {
          (void)protocol_->consume_activity(p);
        }
      }
    }
  }

  /// One contiguous shard per effective worker (clamped to [1, max(1,
  /// n)] like graph::plan_contiguous_shards): the default single thread
  /// steps one shard inline, `threads` > 1 runs every phase in
  /// parallel. For spatial locality, build the bounds from
  /// graph::plan_spatial_shards and a permuted graph instead.
  ShardedNetwork(const graph::Graph& g, Protocol& protocol, LossModel& loss,
                 unsigned threads = 1)
      : ShardedNetwork(g, protocol, loss,
                       graph::plan_contiguous_shards(
                           g.node_count(), effective_threads(threads))
                           .bounds,
                       threads) {}

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return bounds_.size() - 1;
  }
  [[nodiscard]] std::span<const std::size_t> bounds() const noexcept {
    return bounds_;
  }

  /// Swaps (or re-announces an in-place mutated) observed graph —
  /// mobility rebuild mode. Drops the row hints (adjacency defines who
  /// consumed which row) and, under tracking, wakes every node. The node
  /// count must still match the shard bounds — a sharded run renumbers
  /// once, up front, and keeps the numbering for its lifetime.
  void set_graph(const graph::Graph& g) {
    if (g.node_count() != bounds_.back()) {
      throw std::invalid_argument(
          "ShardedNetwork::set_graph: node count must match the shard "
          "bounds the engine was built with");
    }
    graph_ = &g;
    row_hints_valid_ = false;
    if (tracked_) wake_all();
  }

  /// Selects the counter definitions (messages_delivered, activity; see
  /// there) — not a code path: with the quiescence extension and a
  /// loss-free medium both modes skip the same quiet nodes. kDirty
  /// requires exactly that (throws std::invalid_argument otherwise: a
  /// lossy medium re-randomizes every node's inputs, so no skip is ever
  /// provable). Entering kDirty wakes every node and restarts the
  /// stepped/skipped counters, so a dirty run's first step steps all n.
  void set_stepping(Stepping mode) {
    if (mode == stepping_) return;
    if (mode == Stepping::kFull) {
      stepping_ = Stepping::kFull;
      return;
    }
    if constexpr (QuiescentProtocol<Protocol>) {
      if (!tracked_) {
        throw std::invalid_argument(
            "dirty-region stepping requires a loss-free medium "
            "(loss model must report always_delivers)");
      }
      stepping_ = Stepping::kDirty;
      wake_all();
      for (Shard& sh : shards_) sh.tracker.reset_counters();
      stats_.reset_counters();
    } else {
      throw std::invalid_argument(
          "protocol does not implement the arena + quiescence "
          "extensions dirty-region stepping needs");
    }
  }

  [[nodiscard]] Stepping stepping() const noexcept { return stepping_; }

  /// Aggregate stepped/skipped counters across all shards, identical
  /// for any shard count. Under kDirty they count the nodes that really
  /// stepped (`activity().last_nodes_stepped() == 0` after a step is the
  /// quiescence property the tests assert); under kFull every step
  /// counts n stepped. The aggregate keeps no work list; per-shard lists
  /// are at `shard_activity(s)`.
  [[nodiscard]] const ActivityTracker& activity() const noexcept {
    return stats_;
  }
  [[nodiscard]] const ActivityTracker& shard_activity(
      std::size_t s) const noexcept {
    return shards_[s].tracker;
  }

  /// Seeds the activity set from outside knowledge — e.g.
  /// `graph::DynamicGraph::dirty_nodes()` after a live patch: queues each
  /// listed node and its closed neighborhood (under tracking) in the
  /// owners' trackers — callers run between steps, where every tracker
  /// is safely writable.
  void mark_dirty(std::span<const graph::NodeId> nodes) {
    if (!tracked_) return;
    for (const graph::NodeId p : nodes) {
      wake(p);
      for (const graph::NodeId r : graph_->neighbors(p)) wake(r);
    }
  }

  /// The effective worker count: 0 resolved to hardware concurrency,
  /// absurd requests clamped (see effective_threads).
  [[nodiscard]] unsigned thread_count() const noexcept {
    return pool_ ? pool_->thread_count() : 1u;
  }

  [[nodiscard]] std::size_t steps_run() const noexcept { return steps_; }

  /// Steps that rebuilt only the queued rows (the rest rebuilt every
  /// row), and frame rows rebuilt across all steps so far; functions of
  /// the active-set history alone, so identical for any shard/thread
  /// count.
  [[nodiscard]] std::size_t subset_steps() const noexcept {
    return subset_steps_;
  }
  [[nodiscard]] std::uint64_t rows_rebuilt() const noexcept {
    return rows_rebuilt_;
  }

  /// Frame receptions across all steps so far. Lossy media count the
  /// receptions that happened (post-loss); a loss-free medium counts the
  /// logical 2|E| per step under kFull, and under kDirty the in-degree
  /// sum of the nodes that stepped. Folded serially, so the value is
  /// identical for any shard/thread count.
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return messages_delivered_;
  }

  /// Sparse-change rows across all steps so far: rebuilt rows whose id
  /// sequence held, that are not bit-equal to their predecessor, and
  /// where at most half the digests changed (changed · 2 ≤ len). A work
  /// counter only — such rows are delivered like any other ids-equal
  /// row. Rows a step does not rebuild are bit-equal and never count, so
  /// the total does not depend on the kind of step. Folded serially in
  /// shard order, so identical for any shard/thread count. Zero for
  /// protocols without the row-equality extension.
  [[nodiscard]] std::uint64_t delta_rows_graded() const noexcept {
    return delta_rows_graded_;
  }

  /// Stepped receivers served by one accepted `redeliver_unchanged`
  /// call, across all steps so far; folded like delta_rows_graded (zero
  /// under loss; skipped nodes are never counted).
  [[nodiscard]] std::uint64_t receivers_refreshed() const noexcept {
    return receivers_refreshed_;
  }

  /// Notifies the runtime that the observed graph was just patched with
  /// `delta` (dynamic-topology runs; the owner mutates the graph via
  /// graph::DynamicGraph, then calls this). Topology-aware protocols get
  /// told about every severed link so the stale neighbor caches die now
  /// rather than by aging; the row hints drop; under tracking both
  /// endpoints of every patched edge are queued — they hear a different
  /// set of rows — and the grades of their rebuilt rows decide whether
  /// their neighbors step. Call between steps.
  void apply_topology_delta(const graph::EdgeDelta& delta) {
    row_hints_valid_ = false;
    if constexpr (TopologyAwareProtocol<Protocol>) {
      for (const auto& [a, b] : delta.removed) {
        protocol_->on_edge_removed(a, b);
      }
    }
    if (!tracked_) return;
    for (const auto* edges : {&delta.added, &delta.removed}) {
      for (const auto& [a, b] : *edges) {
        wake(a);
        wake(b);
      }
    }
  }

  /// Runs one synchronous broadcast-receive-compute step.
  void step() {
    const graph::Graph& g = *graph_;
    const std::size_t n = g.node_count();
    const bool tracked = tracked_;
    loss_->begin_step();

    // Prologue (tracking): externally mutated nodes join the queue — the
    // grade of their rebuilt rows decides whether their neighbors step.
    // The queued nodes are the rows to rebuild, and their count is the
    // global choice of the kind of step.
    std::size_t queued = n;
    if constexpr (QuiescentProtocol<Protocol>) {
      if (tracked) {
        for (const graph::NodeId p : protocol_->take_external_wakes()) {
          wake(p);
        }
        queued = 0;
        for (const Shard& sh : shards_) queued += sh.tracker.pending().size();
      }
    }
    const bool whole = !arena_built_ || queued * kWholeBuildShare >= n;
    subset_steps_ += whole ? 0 : 1;
    rows_rebuilt_ += whole ? n : queued;

    const auto offsets = g.csr_offsets();
    const auto flat = g.csr_neighbors();
    const bool hear_all = loss_->always_delivers();
    if (!whole && queued == 0) {
      // Nothing queued: no row changes, so no node steps.
      for (Shard& sh : shards_) sh.tracker.begin_step();
    } else {
      // Phase 1 (parallel by shard): rebuild the shard's rows (all of
      // them, or only the queued ones), grade each rebuilt row against
      // its predecessor, and wake the neighbors of every row that is not
      // bit-equal — they hear it this very step.
      if constexpr (kGraded) row_unchanged_.resize(n);
      for_shards([this, tracked, whole](std::size_t s) {
        Shard& sh = shards_[s];
        if (whole) {
          build_whole(sh);
        } else {
          build_queued(sh);
        }
        if (!tracked) return;
        for (const graph::NodeId i : sh.changed) {
          wake_neighbors(s, static_cast<graph::NodeId>(sh.begin + i));
        }
      });
      arena_built_ = true;

      // Phase 2 (serial unless τ = 1): per-edge loss decisions polled in
      // the classic sender-major order, so stateful loss models draw the
      // exact RNG sequence of the owning-frame reference stepper; the
      // decision for p → q is stored at q's incoming CSR slot via the
      // mirror index.
      if (!hear_all) {
        incoming_.resize(flat.size());
        for (std::size_t p = 0; p < n; ++p) {
          for (std::size_t e = offsets[p]; e < offsets[p + 1]; ++e) {
            const bool heard =
                loss_->delivered(static_cast<graph::NodeId>(p), flat[e]);
            incoming_[g.mirror_edge(e)] = heard;
            messages_delivered_ += heard;
          }
        }
      }

      // Phase 3 (parallel by destination shard): the receive pass over
      // the stepped nodes (every node when untracked).
      const bool hints = row_hints_valid_ && hear_all;
      for_shards([this, tracked, hints, hear_all](std::size_t t) {
        receive(t, tracked, hints, hear_all);
      });
    }

    // Serial epilogue: fold the per-shard tallies in shard order, so the
    // aggregates are identical for any thread count.
    const bool dirty = tracked && stepping_ == Stepping::kDirty;
    std::size_t stepped = tracked ? 0 : n;
    for (Shard& sh : shards_) {
      delta_rows_graded_ += std::exchange(sh.sparse_rows, 0);
      receivers_refreshed_ += std::exchange(sh.refreshed, 0);
      const std::uint64_t delivered = std::exchange(sh.delivered, 0);
      if (!tracked) continue;
      const std::size_t active = sh.tracker.active().size();
      stepped += active;
      if (dirty) {
        messages_delivered_ += delivered;
        sh.tracker.record(active, (sh.end - sh.begin) - active);
      }
    }
    // Hints are trustworthy next step only if *this* step delivered every
    // row to every listener (loss would leave some caches behind the rows
    // the grades compare against).
    row_hints_valid_ = hear_all;
    if (dirty) {
      stats_.record(stepped, n - stepped);
    } else {
      if (hear_all) messages_delivered_ += flat.size();
      stats_.record(n, 0);
    }
    ++steps_;
  }

  /// Runs `count` steps.
  void run(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) step();
  }

 private:
  /// Rows are graded whenever the protocol has the row-equality
  /// predicates (always under tracking: the quiescence extension
  /// requires them).
  static constexpr bool kGraded = RowEqualityProtocol<Protocol>;

  struct Shard {
    std::size_t begin = 0;
    std::size_t end = 0;
    // Frame arena: one row per owned node (local index) — its header and
    // the digests at pool[offsets[i], offsets[i] + lengths[i]). A whole
    // build lays the rows out back to back; a subset build may leave dead
    // digests behind (`dead` of them) until it compacts. `prev_*` is the
    // other half of the double buffer: a whole build swaps the live rows
    // there and grades the fresh rows against them, a subset build keeps
    // the old bytes of its same-length rows there, and compaction re-lays
    // the pool through it.
    std::vector<typename Protocol::FrameHeader> headers;
    std::vector<typename Protocol::Digest> pool;
    std::vector<std::size_t> offsets;
    std::vector<std::size_t> lengths;
    std::size_t dead = 0;
    std::vector<typename Protocol::FrameHeader> prev_headers;
    std::vector<typename Protocol::Digest> prev_pool;
    std::vector<std::size_t> prev_offsets;
    std::vector<std::size_t> prev_lengths;
    // The rows the last build graded not bit-equal (local indices): their
    // senders' neighbors step, and their grades revert to bit-equal at
    // the next subset build.
    std::vector<graph::NodeId> changed;
    // This step's tallies, folded serially into the engine totals.
    std::uint64_t sparse_rows = 0;
    std::uint64_t refreshed = 0;
    std::uint64_t delivered = 0;  // in-degree sum of the stepped nodes
    ActivityTracker tracker;
  };

  /// 0 = hardware concurrency; absurd counts (e.g. an unsigned-cast -1)
  /// are clamped — more workers than cores can ever help is waste.
  static unsigned effective_threads(unsigned threads) noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    if (threads == 0) threads = std::max(1u, hw);
    return std::min(threads, std::max(64u, 4u * hw));
  }

  [[nodiscard]] std::size_t shard_of(graph::NodeId p) const noexcept {
    const auto it = std::upper_bound(bounds_.begin(), bounds_.end(),
                                     static_cast<std::size_t>(p));
    return static_cast<std::size_t>(it - bounds_.begin()) - 1;
  }

  /// Maps `body(shard_index)` over all shards, inline or across the
  /// pool (one chunk per shard: shard tasks are coarse by design).
  /// Phases must write only shard-owned state and mailboxes keyed by
  /// the acting shard.
  template <typename F>
  void for_shards(F&& body) {
    const std::size_t S = shard_count();
    if (!pool_ || S < 2) {
      for (std::size_t s = 0; s < S; ++s) body(s);
      return;
    }
    pool_->parallel_for(
        S, 1,
        [](void* ctx, std::size_t begin, std::size_t end) {
          auto& f = *static_cast<std::remove_reference_t<F>*>(ctx);
          for (std::size_t s = begin; s < end; ++s) f(s);
        },
        &body);
  }

  void wake_all() {
    for (Shard& sh : shards_) sh.tracker.reset(sh.end - sh.begin, true);
  }

  /// Queues `p` in its owner's tracker; serial code only.
  void wake(graph::NodeId p) {
    Shard& sh = shards_[shard_of(p)];
    sh.tracker.wake(static_cast<graph::NodeId>(p - sh.begin));
  }

  /// Wakes the neighbors of `q`, a node of shard `t`, from shard `t`'s
  /// build task: the shard's own in its tracker, the rest through the
  /// wake mailboxes of row `t`, which their owners drain at the start of
  /// the receive pass.
  void wake_neighbors(std::size_t t, graph::NodeId q) {
    Shard& sh = shards_[t];
    const std::size_t S = shard_count();
    for (const graph::NodeId r : graph_->neighbors(q)) {
      if (r >= sh.begin && r < sh.end) {
        sh.tracker.wake(static_cast<graph::NodeId>(r - sh.begin));
      } else {
        wake_mb_[t * S + shard_of(r)].push_back(r);
      }
    }
  }

  /// Drains shard `t`'s inbound wake mailboxes into its tracker, then
  /// promotes the accumulated wake set to this step's work list.
  void promote_wakes(std::size_t t) {
    Shard& sh = shards_[t];
    const std::size_t S = shard_count();
    for (std::size_t s = 0; s < S; ++s) {
      auto& mb = wake_mb_[s * S + t];
      for (const graph::NodeId p : mb) {
        sh.tracker.wake(static_cast<graph::NodeId>(p - sh.begin));
      }
      mb.clear();
    }
    sh.tracker.begin_step();
  }

  /// The row grade of a freshly built row against its predecessor, by the
  /// protocol's own field-equality predicates: id sequence held (payload
  /// overwrite suffices — the common active regime) or whole row
  /// bit-equal (nobody needs to hear it again; an all-bit-equal receiver
  /// only resets ages — the quiescent regime). Ids-equal rows with at
  /// most half the digests moved count as sparse-change rows.
  static unsigned char grade_row(const typename Protocol::FrameHeader& h,
                                 const typename Protocol::Digest* a,
                                 std::size_t len,
                                 const typename Protocol::FrameHeader& old_h,
                                 const typename Protocol::Digest* b,
                                 std::size_t old_len, std::uint64_t& sparse) {
    if (len != old_len) return 0;
    // Past half the row the changed count no longer matters (the row can
    // be neither bit-equal nor sparse-change), so the payload compares
    // stop; the id compares must still cover the whole row — the
    // ids-equal gate is what makes redelivery sound.
    const std::size_t cap = len / 2;
    bool ids = true;
    std::size_t changed = 0;
    std::size_t k = 0;
    for (; k < len && ids; ++k) {
      ids = Protocol::digest_id_equal(a[k], b[k]);
      changed += !Protocol::digest_bits_equal(a[k], b[k]);
      if (changed > cap) break;
    }
    for (; k < len && ids; ++k) ids = Protocol::digest_id_equal(a[k], b[k]);
    if (!ids) return 0;
    if (changed == 0 && Protocol::header_bits_equal(h, old_h)) {
      return kRowIdsEqual | kRowBitsEqual;
    }
    sparse += changed * 2 <= len;
    return kRowIdsEqual;
  }

  /// Swaps the digest pool's halves and gives both the larger capacity:
  /// the halves alternate (and a subset build mirrors the live half into
  /// the other), so both reach the high-water mark together and later
  /// builds stay allocation-free.
  static void swap_pools(Shard& sh) {
    std::swap(sh.pool, sh.prev_pool);
    const std::size_t cap =
        std::max(sh.pool.capacity(), sh.prev_pool.capacity());
    sh.pool.reserve(cap);
    sh.prev_pool.reserve(cap);
  }

  /// Rebuilds every owned row, back to back. Graded protocols
  /// double-buffer: the live rows move to prev_* first, then each fresh
  /// row is graded against its predecessor (one pass over two buffers
  /// instead of a gathered per-edge compare in phase 3) — except at the
  /// first build, which grades every row 0.
  void build_whole(Shard& sh) {
    const std::size_t local_n = sh.end - sh.begin;
    if constexpr (kGraded) {
      std::swap(sh.headers, sh.prev_headers);
      swap_pools(sh);
      std::swap(sh.offsets, sh.prev_offsets);
      std::swap(sh.lengths, sh.prev_lengths);
    }
    sh.offsets.resize(local_n);
    sh.lengths.resize(local_n);
    std::size_t total = 0;
    for (std::size_t i = 0; i < local_n; ++i) {
      sh.offsets[i] = total;
      sh.lengths[i] =
          protocol_->digest_count(static_cast<graph::NodeId>(sh.begin + i));
      total += sh.lengths[i];
    }
    sh.pool.resize(total);
    sh.dead = 0;
    sh.headers.resize(local_n);
    for (std::size_t i = 0; i < local_n; ++i) {
      protocol_->make_frame(
          static_cast<graph::NodeId>(sh.begin + i), sh.headers[i],
          std::span(sh.pool.data() + sh.offsets[i], sh.lengths[i]));
    }
    if constexpr (kGraded) {
      // Each shard writes only its owned slice of the global grades.
      const bool cmp = arena_built_;
      sh.changed.clear();
      for (std::size_t i = 0; i < local_n; ++i) {
        const unsigned char grade =
            cmp ? grade_row(sh.headers[i], sh.pool.data() + sh.offsets[i],
                            sh.lengths[i], sh.prev_headers[i],
                            sh.prev_pool.data() + sh.prev_offsets[i],
                            sh.prev_lengths[i], sh.sparse_rows)
                : 0;
        row_unchanged_[sh.begin + i] = grade;
        if ((grade & kRowBitsEqual) == 0) {
          sh.changed.push_back(static_cast<graph::NodeId>(i));
        }
      }
    }
  }

  /// Rebuilds only the queued rows (the shard's pending wakes, taken
  /// before any grade wake joins them); every other row is bit-equal to
  /// its predecessor by construction and keeps the bit-equal grade. A
  /// row that keeps its length or shrinks is rebuilt in place; a row
  /// that grows moves to the end of the pool. Once a quarter of the pool
  /// is dead the live rows are re-laid back to back, so the pool stays
  /// within 4/3 of its live digests and each rebuilt row costs its own
  /// length, amortized.
  void build_queued(Shard& sh) {
    const std::size_t local_n = sh.end - sh.begin;
    if constexpr (kGraded) {
      unsigned char* grades = row_unchanged_.data() + sh.begin;
      for (const graph::NodeId i : sh.changed) {
        grades[i] = kRowIdsEqual | kRowBitsEqual;
      }
      sh.changed.clear();
      // A same-length row's old bytes, for its grade, are kept in the
      // other pool half at the same offset.
      sh.prev_pool.resize(sh.pool.size());
    }
    for (const graph::NodeId i : sh.tracker.pending()) {
      const auto p = static_cast<graph::NodeId>(sh.begin + i);
      const std::size_t len = protocol_->digest_count(p);
      const std::size_t old_len = sh.lengths[i];
      const typename Protocol::FrameHeader old_header = sh.headers[i];
      if (len > old_len) {
        sh.dead += old_len;
        sh.offsets[i] = sh.pool.size();
        sh.pool.resize(sh.pool.size() + len);
      } else {
        sh.dead += old_len - len;
      }
      sh.lengths[i] = len;
      typename Protocol::Digest* row = sh.pool.data() + sh.offsets[i];
      if (kGraded && len == old_len) {
        std::copy(row, row + len, sh.prev_pool.data() + sh.offsets[i]);
      }
      protocol_->make_frame(p, sh.headers[i], std::span(row, len));
      if constexpr (kGraded) {
        // A row whose length moved grades 0 whatever its bytes.
        const unsigned char grade =
            len == old_len
                ? grade_row(sh.headers[i], row, len, old_header,
                            sh.prev_pool.data() + sh.offsets[i], len,
                            sh.sparse_rows)
                : 0;
        row_unchanged_[sh.begin + i] = grade;
        if ((grade & kRowBitsEqual) == 0) sh.changed.push_back(i);
      }
    }
    if (sh.dead * 4 > sh.pool.size()) {
      sh.prev_pool.resize(sh.pool.size() - sh.dead);
      std::size_t total = 0;
      for (std::size_t i = 0; i < local_n; ++i) {
        std::copy(sh.pool.data() + sh.offsets[i],
                  sh.pool.data() + sh.offsets[i] + sh.lengths[i],
                  sh.prev_pool.data() + total);
        sh.offsets[i] = total;
        total += sh.lengths[i];
      }
      swap_pools(sh);
      sh.dead = 0;
    }
  }

  /// Delivers `src`'s row `i` to `q`, as a payload overwrite when `grade`
  /// proves its id sequence held (redelivery protocols; 0 = full
  /// delivery).
  void deliver_row(graph::NodeId q, const Shard& src, std::size_t i,
                   unsigned char grade) {
    const auto& header = src.headers[i];
    const auto digests =
        std::span(src.pool.data() + src.offsets[i], src.lengths[i]);
    if constexpr (RedeliveryProtocol<Protocol>) {
      if (grade != 0 && protocol_->deliver_payload(
                            q, header, digests, (grade & kRowBitsEqual) != 0)) {
        return;
      }
    }
    protocol_->deliver(q, header, digests);
  }

  /// Phase 3 for shard `t`. Each stepped receiver pulls its heard rows
  /// in ascending-sender order — local senders from the shard's arena,
  /// remote senders straight from the owner's — then runs its guarded
  /// rules and ages its caches before the pass moves on. With valid row
  /// hints (every listener consumed the graded rows' predecessors), a
  /// receiver whose heard rows are all bit-equal collapses its
  /// deliveries into one redelivery call — its cache entries already
  /// hold the bytes. Under tracking the pass starts by draining the
  /// shard's inbound wake mailboxes and promoting its wake set, and each
  /// receiver ends by reporting its change bit: a state change queues it
  /// for the next step, which rebuilds and grades its row.
  void receive(std::size_t t, bool tracked, bool hints, bool hear_all) {
    Shard& sh = shards_[t];
    const graph::Graph& g = *graph_;
    const auto offsets = g.csr_offsets();
    const auto flat = g.csr_neighbors();
    const auto step_node = [&](graph::NodeId q) {
      std::size_t e = offsets[q];
      const std::size_t end = offsets[q + 1];
      if constexpr (RedeliveryProtocol<Protocol>) {
        unsigned char quiet = hints ? kRowBitsEqual : 0;
        for (std::size_t f = e; quiet != 0 && f < end; ++f) {
          quiet &= row_unchanged_[flat[f]];
        }
        if (quiet != 0 && protocol_->redeliver_unchanged(q, end - e)) {
          ++sh.refreshed;
          e = end;  // every delivery done
        }
      }
      for (; e < end; ++e) {
        if (!hear_all && !incoming_[e]) continue;
        const graph::NodeId p = flat[e];
        unsigned char grade = 0;
        if constexpr (RedeliveryProtocol<Protocol>) {
          if (hints) grade = row_unchanged_[p];
        }
        const Shard& src =
            p >= sh.begin && p < sh.end ? sh : shards_[shard_of(p)];
        deliver_row(q, src, p - src.begin, grade);
      }
      if constexpr (QuiescentProtocol<Protocol>) {
        // A stepped node whose inputs did not move since a sweep that
        // changed nothing skips its sweep.
        protocol_->maybe_tick(q);
      } else {
        protocol_->tick(q);
      }
      protocol_->end_step(q);
    };
    if (!tracked) {
      for (std::size_t q = sh.begin; q < sh.end; ++q) {
        step_node(static_cast<graph::NodeId>(q));
      }
      return;
    }
    if constexpr (QuiescentProtocol<Protocol>) {
      promote_wakes(t);
      for (const graph::NodeId lq : sh.tracker.active()) {
        const auto q = static_cast<graph::NodeId>(sh.begin + lq);
        sh.delivered += offsets[q + 1] - offsets[q];
        step_node(q);
        if (protocol_->consume_activity(q)) sh.tracker.wake(lq);
      }
    }
  }

  const graph::Graph* graph_;
  Protocol* protocol_;
  LossModel* loss_;
  std::vector<std::size_t> bounds_;
  std::vector<Shard> shards_;
  std::size_t steps_ = 0;
  std::size_t subset_steps_ = 0;
  std::uint64_t rows_rebuilt_ = 0;
  std::uint64_t messages_delivered_ = 0;
  Stepping stepping_ = Stepping::kFull;
  bool tracked_ = false;  // the active set is kept (loss-free medium)
  std::unique_ptr<ThreadPool> pool_;
  std::vector<unsigned char> incoming_;  // per-edge decisions (lossy)
  // Global per-node row grades (graded protocols), each shard writing
  // only its owned slice in phase 1. The flags say whether the arena holds every
  // node's current row (false only before the first step) and whether
  // every listener holds the rows the grades compare against: a lossy
  // step, a topology delta or a swapped graph clears the hints for one
  // step, whose full deliveries restore them.
  std::vector<unsigned char> row_unchanged_;
  std::uint64_t delta_rows_graded_ = 0;
  std::uint64_t receivers_refreshed_ = 0;
  bool arena_built_ = false;
  bool row_hints_valid_ = false;
  ActivityTracker stats_;  // aggregate counters only
  // Cross-shard grade wakes, indexed [writer_shard * S + reader_shard]:
  // written in the build phase by the shard that graded the changed row,
  // drained by the owner at the start of the same step's receive pass.
  std::vector<std::vector<graph::NodeId>> wake_mb_;
};

}  // namespace ssmwn::sim
