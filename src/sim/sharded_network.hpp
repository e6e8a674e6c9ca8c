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
// keyed by per-step CSR-style offsets, reused across steps so a
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
// The redelivery, quiescence and topology-aware extensions
// (sim/scheduler.hpp) are detected with `if constexpr` and unlock the
// row-grading fast paths, dirty-region stepping and severed-link hooks.
//
// Shards. The node range [0, n) is carved into contiguous ranges
// ("shards"); every parallel phase is "one task per shard", and all
// cross-shard traffic is funneled through per-shard-pair mailboxes. A
// shard owns its range, its own frame arena, and — in dirty mode — its
// own ActivityTracker; each task touches only shard-owned state plus
// mailboxes it exclusively writes (keyed by source shard) or exclusively
// reads (keyed by destination shard, filled strictly before the phase
// barrier). The threads-only constructor cuts one contiguous shard per
// worker (one shard at the default single thread); at million-node
// scale callers pass bounds from graph::plan_spatial_shards over a
// cell-major renumbered world, so radio neighbors are range-near. That
// is the seam later multi-process / NUMA work plugs into: a mailbox
// flush is the message a process boundary would send.
//
// Node-locality contract (what lets one task run a receiver's whole
// step): `deliver(q, ...)`, `tick(q)`, `end_step(q)` and, under dirty
// stepping, `consume_activity(q)` read and write only node q's state
// (plus the engine-owned frame rows they are handed); only `make_frame`
// reads a node for someone else, and it runs before any of them.
//
// Phases. A full step is: (1) build — every shard snapshots its owned
// frames into its arena, grades rows against last step's, and flushes
// boundary rows into the frame mailboxes; (2) loss — serial per-edge
// decisions; (3) receive — for each owned node q in ascending order,
// deliver every heard frame in ascending-sender order, then tick(q),
// then end_step(q). A dirty step is: (0) drain wake mailboxes and
// promote the wake set; (1) discover senders and post requests;
// (2) build the requested frames and answer them; (3) receive — as
// above over the active nodes, followed per node by consume_activity(q)
// and the one-hop wake propagation. Phases are separated by barriers.
//
// Determinism argument (the property the differential tests assert):
// every frame of a step is built into engine-owned rows before the
// receive pass starts, so no rule firing can leak into a frame of the
// same step; by the node-locality contract, running q's deliveries,
// tick and end_step back to back is indistinguishable from running
// every node's deliveries, then every tick, then every end_step; and
// wakes land only in the trackers' double-buffered next sets or the
// wake mailboxes, which begin_step sorts. Each receiver pulls its heard
// frames in ascending-sender order (its sorted CSR row). Mailboxes are
// filled in a fixed (src-shard, dst-shard, admission) order — admission
// order is ascending sender id, because shard sweeps walk their range
// in order — and drained by binary search per edge, so *which* bytes a
// receiver sees never depends on shard count or thread count. Stateful
// loss models are polled serially in sender-major order, so their RNG
// draw sequence is that of the owning-frame reference stepper the tests
// keep as their oracle (tests/support/reference_stepper.hpp). Hence:
// bit-identical at any shard/thread count, full or dirty stepping
// (docs/ARCHITECTURE.md §8). tests/sim/step_order_test.cpp pins the
// call order this argument relies on.
//
// Dirty-region composition: each shard's tracker wakes and drains
// locally; a wake that crosses a shard boundary rides a wake-mailbox
// written during the receive pass and drained at the next step's first
// phase — one step of latency is exactly what the double-buffered wake
// set gives, so the union of the per-shard active sets equals the
// one-shard active set step for step. Frames a shard needs from remote
// senders are requested through a request-mailbox and answered through
// a frame-mailbox within the same step (two barriers), so quiescent
// shards with no requests do no work.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <type_traits>
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
  /// `bounds` carves [0, n) into shard-owned ranges (see
  /// graph::ShardPlan::bounds — front 0, back n, monotone; empty ranges
  /// allowed). Throws std::invalid_argument on a malformed cover.
  /// `threads` is the step-engine parallelism (1 = fully inline,
  /// 0 = hardware concurrency); shards and threads are independent —
  /// one worker can sweep many shards, and extra workers idle. The
  /// graph reference is observed, not owned; it may be swapped between
  /// steps via `set_graph`.
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
      shards_[s].boundary_out.resize(S);
    }
    frame_mb_.resize(S * S);
    req_mb_.resize(S * S);
    wake_mb_.resize(S * S);
    threads = effective_threads(threads);
    if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
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
  /// mobility rebuild mode. Rebuilds the boundary-sender lists, drops
  /// the row hints (adjacency defines who consumed which row), and under
  /// dirty stepping wakes every node. The node count must still match
  /// the shard bounds — a sharded run renumbers once, up front, and
  /// keeps the numbering for its lifetime.
  void set_graph(const graph::Graph& g) {
    if (g.node_count() != bounds_.back()) {
      throw std::invalid_argument(
          "ShardedNetwork::set_graph: node count must match the shard "
          "bounds the engine was built with");
    }
    graph_ = &g;
    boundaries_stale_ = true;
    invalidate_row_hints();
    if (stepping_ == Stepping::kDirty) {
      for (Shard& sh : shards_) {
        sh.tracker.reset(sh.end - sh.begin, /*all_active=*/true);
      }
    }
  }

  /// Selects the stepper. Dirty-region stepping requires a protocol with
  /// the quiescence extension and a loss model that always delivers
  /// (skipping a node is only provably a no-op when its inputs are
  /// deterministic; a lossy medium re-randomizes them — and skipped
  /// deliveries would desynchronize the loss model's RNG draw sequence
  /// from the full stepper's). Throws std::invalid_argument when those
  /// preconditions fail. Entering dirty mode arms the protocol's change
  /// detector and wakes every node; leaving it disarms the detector,
  /// restoring the classic byte-for-byte paths.
  void set_stepping(Stepping mode) {
    if (mode == stepping_) return;
    invalidate_row_hints();
    if constexpr (QuiescentProtocol<Protocol>) {
      if (mode == Stepping::kDirty) {
        if (!loss_->always_delivers()) {
          throw std::invalid_argument(
              "dirty-region stepping requires a loss-free medium "
              "(loss model must report always_delivers)");
        }
        stepping_ = Stepping::kDirty;
        protocol_->set_activity_tracking(true);
        for (Shard& sh : shards_) {
          sh.tracker.reset(sh.end - sh.begin, /*all_active=*/true);
          sh.tracker.reset_counters();
        }
        for (auto& mb : wake_mb_) mb.clear();
        stats_.reset(0, false);
        stats_.reset_counters();
        return;
      }
      stepping_ = Stepping::kFull;
      protocol_->set_activity_tracking(false);
      for (Shard& sh : shards_) sh.tracker.reset(0, false);
      stats_.reset(0, false);
      return;
    } else {
      if (mode == Stepping::kDirty) {
        throw std::invalid_argument(
            "protocol does not implement the arena + quiescence "
            "extensions dirty-region stepping needs");
      }
      stepping_ = Stepping::kFull;
    }
  }

  [[nodiscard]] Stepping stepping() const noexcept { return stepping_; }

  /// Aggregate stepped/skipped counters across all shards, identical
  /// for any shard count: `activity().last_nodes_stepped() == 0` after a
  /// step is the quiescence property the tests assert. The aggregate
  /// keeps no work list; per-shard lists are at `shard_activity(s)`.
  [[nodiscard]] const ActivityTracker& activity() const noexcept {
    return stats_;
  }
  [[nodiscard]] const ActivityTracker& shard_activity(
      std::size_t s) const noexcept {
    return shards_[s].tracker;
  }

  /// Seeds the activity set from outside knowledge — e.g.
  /// `graph::DynamicGraph::dirty_nodes()` after a live patch: wakes each
  /// listed node and its closed neighborhood (dirty mode only), crossing
  /// shard boundaries directly — callers run between steps, where every
  /// tracker is safely writable.
  void mark_dirty(std::span<const graph::NodeId> nodes) {
    if (stepping_ != Stepping::kDirty) return;
    for (const graph::NodeId p : nodes) wake_closed(p);
  }

  /// The effective worker count: 0 resolved to hardware concurrency,
  /// absurd requests clamped (see effective_threads).
  [[nodiscard]] unsigned thread_count() const noexcept {
    return pool_ ? pool_->thread_count() : 1u;
  }

  [[nodiscard]] std::size_t steps_run() const noexcept { return steps_; }

  /// Frame receptions that actually happened (post-loss) across all
  /// steps so far. Counted in the serial phases only, so the value is
  /// identical for any shard/thread count.
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return messages_delivered_;
  }

  /// Sparse-change rows across all steps so far: sender rows whose id
  /// sequence held, that are not bit-equal to last step's, and where at
  /// most half the digests changed (changed · 2 ≤ len). A work counter
  /// only — such rows are delivered like any other ids-equal row. Folded
  /// serially in shard order, so identical for any shard/thread count.
  /// Zero for protocols without the redelivery extension and under
  /// dirty stepping.
  [[nodiscard]] std::uint64_t delta_rows_graded() const noexcept {
    return delta_rows_graded_;
  }

  /// Receivers served by one accepted `redeliver_unchanged` call, across
  /// all steps so far; folded like delta_rows_graded (zero under loss
  /// and dirty stepping).
  [[nodiscard]] std::uint64_t receivers_refreshed() const noexcept {
    return receivers_refreshed_;
  }

  /// Notifies the runtime that the observed graph was just patched with
  /// `delta` (dynamic-topology runs; the owner mutates the graph via
  /// graph::DynamicGraph, then calls this). Topology-aware protocols get
  /// told about every severed link so the stale neighbor caches die now
  /// rather than by aging; the boundary-sender lists are marked stale (a
  /// patched edge may create or destroy a boundary crossing); under
  /// dirty stepping the closed neighborhoods of both endpoints of every
  /// patched edge wake. Call between steps.
  void apply_topology_delta(const graph::EdgeDelta& delta) {
    invalidate_row_hints();
    if constexpr (TopologyAwareProtocol<Protocol>) {
      for (const auto& [a, b] : delta.removed) {
        protocol_->on_edge_removed(a, b);
      }
    }
    boundaries_stale_ = true;
    if (stepping_ == Stepping::kDirty) {
      for (const auto& [a, b] : delta.added) {
        wake_closed(a);
        wake_closed(b);
      }
      for (const auto& [a, b] : delta.removed) {
        wake_closed(a);
        wake_closed(b);
      }
    }
  }

  /// Runs one synchronous broadcast-receive-compute step.
  void step() {
    loss_->begin_step();
    if constexpr (QuiescentProtocol<Protocol>) {
      if (stepping_ == Stepping::kDirty) {
        step_dirty();
        ++steps_;
        return;
      }
    }
    step_full();
    stats_.record(graph_->node_count(), 0);
    ++steps_;
  }

  /// Runs `count` steps.
  void run(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) step();
  }

 private:
  /// One (src-shard, dst-shard) mailbox: the src shard's boundary
  /// frames, admitted in ascending sender id. `offsets` is CSR-style
  /// over `senders`; the sorted sender list is what the destination's
  /// delivery loop binary-searches per cross-shard edge.
  struct FrameMailbox {
    std::vector<graph::NodeId> senders;
    std::vector<typename Protocol::FrameHeader> headers;
    std::vector<typename Protocol::Digest> pool;
    std::vector<std::size_t> offsets;
  };

  struct Shard {
    std::size_t begin = 0;
    std::size_t end = 0;
    // Frame arena. Full stepping: one row per owned node (local index).
    // Dirty stepping: one row per entry of `sender_list` (compact).
    std::vector<typename Protocol::FrameHeader> headers;
    std::vector<typename Protocol::Digest> pool;
    std::vector<std::size_t> offsets;
    // Last full step's arena (redelivery protocols only): swapped with
    // the live buffers at the top of phase 1, so the freshly built rows
    // can be bit-compared against what every listener consumed last
    // step. Meaningful only while the engine-level validity flags hold.
    std::vector<typename Protocol::FrameHeader> prev_headers;
    std::vector<typename Protocol::Digest> prev_pool;
    std::vector<std::size_t> prev_offsets;
    // This step's sparse-change rows among the owned senders and refreshed
    // owned receivers (redelivery protocols, full stepping), folded
    // serially into the engine totals so they are thread-count invariant.
    std::uint64_t sparse_rows = 0;
    std::uint64_t refreshed = 0;
    // Full stepping: for each destination shard, the owned nodes with at
    // least one neighbor there (ascending). Rebuilt after topology
    // changes; copied into the frame mailboxes every step.
    std::vector<std::vector<graph::NodeId>> boundary_out;
    // Dirty stepping (all indices local unless noted).
    ActivityTracker tracker;
    std::vector<std::uint8_t> sender_mark;
    std::vector<std::size_t> sender_slot;
    std::vector<graph::NodeId> sender_list;  // global ids
    std::uint64_t delivered = 0;             // this step's reception count
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

  /// Copies row `slot` of `src`'s arena to the back of `mb`.
  static void append_frame(FrameMailbox& mb, const Shard& src,
                           std::size_t slot) {
    mb.headers.push_back(src.headers[slot]);
    const std::size_t len = src.offsets[slot + 1] - src.offsets[slot];
    mb.offsets.push_back(mb.offsets.back() + len);
    mb.pool.insert(mb.pool.end(), src.pool.begin() + src.offsets[slot],
                   src.pool.begin() + src.offsets[slot] + len);
  }

  /// Delivers row `k` of `rows` — a shard arena or a frame mailbox,
  /// which share one CSR row layout — to `q`, as a payload overwrite when
  /// `grade` proves its id sequence held (redelivery protocols; 0 = full
  /// delivery). Mailbox rows are byte copies of the sender shard's arena
  /// rows, so the sender-side grade covers them too.
  template <typename Rows>
  static void deliver_row(Protocol& protocol, graph::NodeId q,
                          const Rows& rows, std::size_t k,
                          unsigned char grade) {
    const auto& header = rows.headers[k];
    const auto digests = std::span(rows.pool.data() + rows.offsets[k],
                                   rows.offsets[k + 1] - rows.offsets[k]);
    if constexpr (RedeliveryProtocol<Protocol>) {
      if (grade != 0 && protocol.deliver_payload(q, header, digests)) return;
    }
    protocol.deliver(q, header, digests);
  }

  /// Delivers `sender`'s row from mailbox `mb` (binary search over its
  /// ascending sender list).
  static void deliver_from(Protocol& protocol, graph::NodeId q,
                           const FrameMailbox& mb, graph::NodeId sender,
                           unsigned char grade) {
    const auto it =
        std::lower_bound(mb.senders.begin(), mb.senders.end(), sender);
    // A miss here means the graph changed without set_graph /
    // apply_topology_delta — the boundary lists no longer cover it.
    assert(it != mb.senders.end() && *it == sender);
    deliver_row(protocol, q, mb,
                static_cast<std::size_t>(it - mb.senders.begin()), grade);
  }

  /// Recomputes the static boundary-sender lists (full stepping) after
  /// a topology or graph change. Parallel by shard; each shard scans
  /// its own CSR rows, so admission order is ascending sender id.
  void rebuild_boundaries() {
    const graph::Graph& g = *graph_;
    for_shards([this, &g](std::size_t s) {
      Shard& sh = shards_[s];
      for (auto& list : sh.boundary_out) list.clear();
      for (std::size_t p = sh.begin; p < sh.end; ++p) {
        for (const graph::NodeId r :
             g.neighbors(static_cast<graph::NodeId>(p))) {
          const std::size_t t = shard_of(r);
          if (t == s) continue;
          auto& list = sh.boundary_out[t];
          if (list.empty() || list.back() != static_cast<graph::NodeId>(p)) {
            list.push_back(static_cast<graph::NodeId>(p));
          }
        }
      }
    });
    boundaries_stale_ = false;
  }

  void step_full() {
    const graph::Graph& g = *graph_;
    const std::size_t n = g.node_count();
    const std::size_t S = shard_count();
    auto* protocol = protocol_;
    if (boundaries_stale_) rebuild_boundaries();

    // Phase 1 (parallel by source shard): snapshot all owned frames
    // into the shard arena, then flush every boundary frame into the
    // (src, dst) mailboxes — fixed admission order because the
    // boundary lists are ascending. Redelivery protocols double-buffer
    // the arena: last step's rows move to prev_* before the build, then
    // each fresh row is bit-compared against its predecessor so phase 3
    // can skip the full delivery of provably unchanged frames.
    if constexpr (RedeliveryProtocol<Protocol>) row_unchanged_.resize(n);
    for_shards([this, protocol, S](std::size_t s) {
      Shard& sh = shards_[s];
      const std::size_t local_n = sh.end - sh.begin;
      if constexpr (RedeliveryProtocol<Protocol>) {
        std::swap(sh.headers, sh.prev_headers);
        std::swap(sh.pool, sh.prev_pool);
        std::swap(sh.offsets, sh.prev_offsets);
      }
      sh.offsets.resize(local_n + 1);
      sh.offsets[0] = 0;
      for (std::size_t i = 0; i < local_n; ++i) {
        sh.offsets[i + 1] =
            sh.offsets[i] + protocol->digest_count(static_cast<graph::NodeId>(
                                sh.begin + i));
      }
      sh.pool.resize(sh.offsets[local_n]);
      sh.headers.resize(local_n);
      for (std::size_t i = 0; i < local_n; ++i) {
        protocol->make_frame(
            static_cast<graph::NodeId>(sh.begin + i), sh.headers[i],
            std::span(sh.pool.data() + sh.offsets[i],
                      sh.offsets[i + 1] - sh.offsets[i]));
      }
      if constexpr (RedeliveryProtocol<Protocol>) {
        // Each shard writes only its owned slice of the global bitmap.
        // One streaming pass over two sequential buffers here saves a
        // gathered per-edge compare in phase 3 — each row is compared
        // once instead of once per listener. Two grades, same bitwise
        // field equality contract as the protocol's own change
        // detection: id sequence held (payload overwrite suffices — the
        // common active regime) or whole row bit-equal (an all-bit-equal
        // receiver only resets ages — the quiescent regime). Ids-equal
        // rows with at most half the digests moved are also counted as
        // sparse-change rows (delta_rows_graded); the count steers nothing.
        const bool cmp =
            prev_rows_built_ && sh.prev_offsets.size() == local_n + 1;
        sh.sparse_rows = 0;
        for (std::size_t i = 0; i < local_n; ++i) {
          unsigned char grade = 0;
          const std::size_t len = sh.offsets[i + 1] - sh.offsets[i];
          if (cmp && sh.prev_offsets[i + 1] - sh.prev_offsets[i] == len) {
            const auto* a = sh.pool.data() + sh.offsets[i];
            const auto* b = sh.prev_pool.data() + sh.prev_offsets[i];
            const bool header_bits = Protocol::header_bits_equal(
                sh.headers[i], sh.prev_headers[i]);
            // Past half the row the changed count no longer matters
            // (the row can be neither bit-equal nor sparse-change), so
            // the payload compares stop; the id compares must still
            // cover the whole row — the ids-equal gate is what makes
            // redelivery sound.
            const std::size_t cap = len / 2;
            bool ids = true;
            std::size_t changed = 0;
            std::size_t k = 0;
            for (; k < len && ids; ++k) {
              ids = Protocol::digest_id_equal(a[k], b[k]);
              changed += !Protocol::digest_bits_equal(a[k], b[k]);
              if (changed > cap) break;
            }
            for (; k < len && ids; ++k) {
              ids = Protocol::digest_id_equal(a[k], b[k]);
            }
            if (ids) {
              grade = kRowIdsEqual;
              if (header_bits && changed == 0) {
                grade |= kRowBitsEqual;
              } else if (changed * 2 <= len) {
                ++sh.sparse_rows;
              }
            }
          }
          row_unchanged_[sh.begin + i] = grade;
        }
      }
      for (std::size_t t = 0; t < S; ++t) {
        if (t == s) continue;
        FrameMailbox& mb = frame_mb_[s * S + t];
        mb.senders.assign(sh.boundary_out[t].begin(),
                          sh.boundary_out[t].end());
        mb.headers.clear();
        mb.pool.clear();
        mb.offsets.assign(1, 0);
        for (const graph::NodeId p : mb.senders) {
          append_frame(mb, sh, static_cast<std::size_t>(p) - sh.begin);
        }
      }
    });

    // Phase 2 (serial unless τ = 1): per-edge loss decisions polled in
    // the classic sender-major order, so stateful loss models draw the
    // exact RNG sequence of the owning-frame reference stepper; the
    // decision for p → q is stored at q's incoming CSR slot via the
    // mirror index.
    const auto offsets = g.csr_offsets();
    const auto flat = g.csr_neighbors();
    const bool hear_all = loss_->always_delivers();
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
    } else {
      messages_delivered_ += flat.size();
    }

    // Phase 3 (parallel by destination shard): the receive pass. Each
    // owned receiver pulls its heard frames in ascending-sender order —
    // local senders from the shard arena, remote senders from the
    // (src, dst) mailbox — then runs its guarded rules and ages its
    // caches before the pass moves on to the next receiver. With valid
    // row hints (previous step built rows AND was loss-free, so every
    // listener consumed exactly those rows), a receiver whose heard rows
    // are all bit-equal collapses its deliveries into one redelivery
    // call — its cache entries already hold the bytes.
    const bool hints = row_hints_valid_ && hear_all;
    for_shards([this, protocol, offsets, flat, hear_all, hints,
                S](std::size_t t) {
      Shard& sh = shards_[t];
      sh.refreshed = 0;
      for (std::size_t q = sh.begin; q < sh.end; ++q) {
        const auto node = static_cast<graph::NodeId>(q);
        std::size_t e = offsets[q];
        const std::size_t end = offsets[q + 1];
        if constexpr (RedeliveryProtocol<Protocol>) {
          unsigned char quiet = hints ? kRowBitsEqual : 0;
          for (std::size_t f = e; quiet != 0 && f < end; ++f) {
            quiet &= row_unchanged_[flat[f]];
          }
          if (quiet != 0 && protocol->redeliver_unchanged(node, end - e)) {
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
          if (p >= sh.begin && p < sh.end) {
            deliver_row(*protocol, node, sh, p - sh.begin, grade);
          } else {
            deliver_from(*protocol, node, frame_mb_[shard_of(p) * S + t], p,
                         grade);
          }
        }
        protocol->tick(node);
        protocol->end_step(node);
      }
    });

    if constexpr (RedeliveryProtocol<Protocol>) {
      // Serial fold of the per-shard tallies (shard order), so the
      // aggregates are identical for any thread count.
      for (const Shard& sh : shards_) delta_rows_graded_ += sh.sparse_rows;
      for (const Shard& sh : shards_) receivers_refreshed_ += sh.refreshed;
      prev_rows_built_ = true;
      // Hints are trustworthy next step only if *this* step delivered
      // every row to every listener (loss would leave some caches
      // behind the rows the compare runs against).
      row_hints_valid_ = hear_all;
    }
  }

  /// Drops the double-buffered row state (redelivery protocols): the
  /// next full step runs every delivery through the full compare path.
  void invalidate_row_hints() noexcept {
    prev_rows_built_ = false;
    row_hints_valid_ = false;
  }

  /// Wakes `p` and its neighbors across whichever shards own them.
  /// Serial contexts only (between steps / serial prologue).
  void wake_closed(graph::NodeId p) {
    wake_owned(p);
    for (const graph::NodeId r : graph_->neighbors(p)) wake_owned(r);
  }

  void wake_owned(graph::NodeId p) {
    Shard& sh = shards_[shard_of(p)];
    sh.tracker.wake(static_cast<graph::NodeId>(p - sh.begin));
  }

  /// The quiescence-aware step: only active nodes (those whose closed
  /// neighborhood changed last step) receive, tick and age; everyone
  /// else is left untouched — which is bit-identical to full stepping
  /// because a skipped node is at a boundary-state fixpoint with
  /// unchanged inputs (docs/ARCHITECTURE.md §7 has the induction).
  /// Active receivers hear *all* their neighbors — quiescent senders'
  /// frames are built on demand (make_frame is const) — so cache ages
  /// and contents evolve exactly as under the full stepper. The union
  /// of the per-shard active sets is the same at any shard count,
  /// because intra-shard wakes land directly and cross-shard wakes ride
  /// the wake mailboxes flushed at this step's end and drained before
  /// the next begin_step — the same one-step latency the
  /// double-buffered wake set already has.
  void step_dirty() {
    // Dirty mode reuses the shard arenas in compact (sender-list) form,
    // clobbering the per-node rows the redelivery compare needs.
    invalidate_row_hints();
    const graph::Graph& g = *graph_;
    const std::size_t n = g.node_count();
    const std::size_t S = shard_count();
    auto* protocol = protocol_;

    // Serial prologue: externally mutated nodes wake their closed
    // neighborhood, crossing shard boundaries directly.
    for (const graph::NodeId p : protocol_->take_external_wakes()) {
      wake_closed(p);
    }

    // Phase 0 (parallel by shard): drain inbound wake mailboxes, then
    // promote the accumulated wake set to this step's work list.
    for_shards([this, S](std::size_t t) {
      Shard& sh = shards_[t];
      for (std::size_t s = 0; s < S; ++s) {
        auto& mb = wake_mb_[s * S + t];
        for (const graph::NodeId p : mb) {
          sh.tracker.wake(static_cast<graph::NodeId>(p - sh.begin));
        }
        mb.clear();
      }
      sh.tracker.begin_step();
    });

    std::size_t total_active = 0;
    for (const Shard& sh : shards_) total_active += sh.tracker.active().size();
    if (total_active == 0) {
      for (Shard& sh : shards_) sh.tracker.record(0, sh.end - sh.begin);
      stats_.record(0, n);
      return;
    }

    // Phase 1 (parallel by destination shard): discover the sender set.
    // Local senders go straight into the compact list; remote senders
    // are requested from their owning shard via the request mailboxes
    // (sorted + deduplicated, so the owner admits them in ascending
    // order).
    for_shards([this, &g, S](std::size_t t) {
      Shard& sh = shards_[t];
      const std::size_t local_n = sh.end - sh.begin;
      sh.sender_mark.assign(local_n, 0);
      sh.sender_slot.resize(local_n);
      sh.sender_list.clear();
      sh.delivered = 0;
      for (std::size_t s = 0; s < S; ++s) {
        if (s != t) req_mb_[t * S + s].clear();
      }
      for (const graph::NodeId lq : sh.tracker.active()) {
        const auto q = static_cast<graph::NodeId>(sh.begin + lq);
        sh.delivered += g.degree(q);
        for (const graph::NodeId r : g.neighbors(q)) {
          if (r >= sh.begin && r < sh.end) {
            const std::size_t lr = static_cast<std::size_t>(r) - sh.begin;
            if (!sh.sender_mark[lr]) {
              sh.sender_mark[lr] = 1;
              sh.sender_list.push_back(r);
            }
          } else {
            req_mb_[t * S + shard_of(r)].push_back(r);
          }
        }
      }
      for (std::size_t s = 0; s < S; ++s) {
        if (s == t) continue;
        auto& req = req_mb_[t * S + s];
        std::sort(req.begin(), req.end());
        req.erase(std::unique(req.begin(), req.end()), req.end());
      }
    });

    // Phase 2 (parallel by source shard): merge remote requests into
    // the local sender set, build every needed frame once, then answer
    // each request list through the frame mailboxes.
    for_shards([this, protocol, S](std::size_t s) {
      Shard& sh = shards_[s];
      for (std::size_t t = 0; t < S; ++t) {
        if (t == s) continue;
        for (const graph::NodeId p : req_mb_[t * S + s]) {
          const std::size_t lp = static_cast<std::size_t>(p) - sh.begin;
          if (!sh.sender_mark[lp]) {
            sh.sender_mark[lp] = 1;
            sh.sender_list.push_back(p);
          }
        }
      }
      const std::size_t senders = sh.sender_list.size();
      sh.offsets.resize(senders + 1);
      sh.offsets[0] = 0;
      for (std::size_t i = 0; i < senders; ++i) {
        sh.offsets[i + 1] =
            sh.offsets[i] + protocol->digest_count(sh.sender_list[i]);
      }
      sh.pool.resize(sh.offsets[senders]);
      sh.headers.resize(senders);
      for (std::size_t i = 0; i < senders; ++i) {
        sh.sender_slot[static_cast<std::size_t>(sh.sender_list[i]) -
                       sh.begin] = i;
        protocol->make_frame(
            sh.sender_list[i], sh.headers[i],
            std::span(sh.pool.data() + sh.offsets[i],
                      sh.offsets[i + 1] - sh.offsets[i]));
      }
      for (std::size_t t = 0; t < S; ++t) {
        if (t == s) continue;
        const auto& req = req_mb_[t * S + s];
        FrameMailbox& mb = frame_mb_[s * S + t];
        mb.senders.assign(req.begin(), req.end());
        mb.headers.clear();
        mb.pool.clear();
        mb.offsets.assign(1, 0);
        for (const graph::NodeId p : req) {
          append_frame(mb, sh,
                       sh.sender_slot[static_cast<std::size_t>(p) - sh.begin]);
        }
      }
    });

    // Phase 3 (parallel by destination shard): the receive pass. Every
    // active node pulls every neighbor's frame (ascending-sender order
    // as always), ticks, ages, and then propagates its activity one hop:
    // local wakes land in the shard's own tracker's next set, wakes for
    // remote nodes ride the wake mailboxes, drained at the next step's
    // phase 0.
    for_shards([this, protocol, &g, S](std::size_t t) {
      Shard& sh = shards_[t];
      for (std::size_t s = 0; s < S; ++s) {
        if (s != t) wake_mb_[t * S + s].clear();
      }
      for (const graph::NodeId lq : sh.tracker.active()) {
        const auto q = static_cast<graph::NodeId>(sh.begin + lq);
        for (const graph::NodeId r : g.neighbors(q)) {
          if (r >= sh.begin && r < sh.end) {
            deliver_row(*protocol, q, sh,
                        sh.sender_slot[static_cast<std::size_t>(r) - sh.begin],
                        0);
          } else {
            deliver_from(*protocol, q, frame_mb_[shard_of(r) * S + t], r, 0);
          }
        }
        protocol->tick(q);
        protocol->end_step(q);
        const auto a = protocol->consume_activity(q);
        if (a.state_changed) sh.tracker.wake(lq);
        if (!a.frame_changed) continue;
        for (const graph::NodeId r : g.neighbors(q)) {
          if (r >= sh.begin && r < sh.end) {
            sh.tracker.wake(static_cast<graph::NodeId>(r - sh.begin));
          } else {
            wake_mb_[t * S + shard_of(r)].push_back(r);
          }
        }
      }
    });

    // Serial epilogue: fold the per-shard tallies in shard order.
    for (Shard& sh : shards_) {
      messages_delivered_ += sh.delivered;
      const std::size_t stepped = sh.tracker.active().size();
      sh.tracker.record(stepped, (sh.end - sh.begin) - stepped);
    }
    stats_.record(total_active, n - total_active);
  }

  const graph::Graph* graph_;
  Protocol* protocol_;
  LossModel* loss_;
  std::vector<std::size_t> bounds_;
  std::vector<Shard> shards_;
  std::size_t steps_ = 0;
  std::uint64_t messages_delivered_ = 0;
  Stepping stepping_ = Stepping::kFull;
  bool boundaries_stale_ = true;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<unsigned char> incoming_;  // per-edge decisions (lossy full)
  // Redelivery (full stepping): global per-node bitmap of "this step's
  // row is bit-identical to last step's", each shard writing only its
  // owned slice; the flags gate whether prev_* rows exist and whether
  // every listener actually consumed them (loss-free previous step).
  std::vector<unsigned char> row_unchanged_;
  std::uint64_t delta_rows_graded_ = 0;
  std::uint64_t receivers_refreshed_ = 0;
  bool prev_rows_built_ = false;
  bool row_hints_valid_ = false;
  ActivityTracker stats_;                // aggregate counters only
  // Mailboxes, all indexed [writer_shard * S + reader_shard] so every
  // parallel phase writes only its own row. frame_mb_ and wake_mb_ are
  // written by the frame/wake *source* shard; req_mb_ is written by the
  // *requesting* (destination) shard, so req_mb_[t * S + s] holds the
  // senders shard t wants from shard s.
  std::vector<FrameMailbox> frame_mb_;
  std::vector<std::vector<graph::NodeId>> req_mb_;
  std::vector<std::vector<graph::NodeId>> wake_mb_;  // cross-shard wakes
};

}  // namespace ssmwn::sim
