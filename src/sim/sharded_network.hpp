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
// One stepper, one build. Every node owns one persistent row in its
// shard's frame arena, and after every build phase each row equals the
// frame its node would build then. The first build and every step of an
// untracked run rebuild every row. With the quiescence extension and a
// medium that always delivers, the engine keeps an active set, and a
// step rebuilds only the rows of the *queued* nodes — those whose
// state changed last step (consume_activity said kChanged), that were
// mutated from outside, or that a topology change woke. Either way the
// one build routine grades each rebuilt row against the row before it;
// every other row is bit-equal by construction. The queued nodes step,
// and so does every neighbor of a rebuilt row that is not bit-equal: the
// grade is the one test of whether a frame changed. So do the
// *step-only* nodes, whose last step only aged a cache entry past 1
// (kStepOnly): they must step again to age it out, but no row carries an
// age, so theirs is not rebuilt. Every other node sits at a fixpoint
// with unchanged inputs, so skipping it is bit-identical
// (docs/ARCHITECTURE.md §7 has the induction). A step with nothing
// queued and no step-only node runs no phase at all. Lossy media and
// protocols without the extension step every node and rebuild every row
// (the extension still lets a stepped node skip a sweep it proves a
// no-op). `set_stepping` picks only the counter definitions (and, for
// kDirty, demands a loss-free medium).
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
// queue; (1) build — each shard rebuilds its queued rows (every row when
// untracked or at the first build) and grades them, and every row
// that is not bit-equal wakes its sender's neighbors, local ones in the
// shard's tracker, remote ones through the wake mailboxes; (2) loss —
// serial per-edge decisions (lossy media only); (3) receive — each
// shard drains its inbound mailboxes and its step-only list and
// promotes its wake set to the step's work list, then for each stepped
// node q in ascending order refreshes the ages of its bit-equal rows'
// entries in one call (valid row hints only; redeliver_unchanged),
// delivers the other heard frames — every one when the refresh declined
// — in ascending-sender order, then tick(q) (maybe_tick with the
// quiescence extension, which also skips a sweep the protocol proves a
// no-op), end_step(q) and, under tracking, consume_activity(q), whose
// verdict queues q for the next step's rebuild or lists it step-only.
// Phases are separated by barriers. Both per-node walks, (1)'s rows and
// (3)'s stepped nodes, hint the memory of the nodes a fixed distance
// ahead through the prefetch extension (sim::PrefetchProtocol), one
// stage per hop of the chain: at scale a node's state (and, in (3), its
// CSR row) is a chain of cold blocks, and the hints overlap its misses
// with the work on the nodes before it. Hints change no bit: the hook
// reads only a node of the acting shard and writes nothing, the engine's
// own hints read only the graph and the step's finished row grades, and
// the walk's nodes and order are the same without them.
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
#include <numeric>
#include <ranges>
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
      Shard& sh = shards_[s];
      sh.begin = bounds_[s];
      sh.end = bounds_[s + 1];
      // Sized once, so steps never grow them. Every row starts empty; the
      // first build appends each.
      const std::size_t local_n = sh.end - sh.begin;
      sh.headers.resize(local_n);
      sh.offsets.assign(local_n, 0);
      sh.lengths.assign(local_n, 0);
      sh.by_offset.resize(local_n);
      std::iota(sh.by_offset.begin(), sh.by_offset.end(), graph::NodeId{0});
      // Reserved, not touched: the list lives in the pages of its
      // high-water mark and seldom outgrows this block.
      sh.grown.reserve(local_n);
      sh.changed.reserve(local_n);
      sh.step_only.reserve(local_n);
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

  /// Frame rows rebuilt across all steps so far; a function of the
  /// active-set history alone, so identical for any shard/thread count.
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
  /// sequence and length held, that are not bit-equal to their
  /// predecessor, and where at most half the payload digests (those past
  /// the id prefix) changed. A work counter only — such rows are
  /// delivered like any other ids-equal row. Rows a step does not rebuild
  /// are bit-equal and never count, so the total does not depend on the
  /// kind of step. Folded serially in shard order, so identical for any
  /// shard/thread count. Zero for protocols without the row-equality
  /// extension.
  [[nodiscard]] std::uint64_t delta_rows_graded() const noexcept {
    return delta_rows_graded_;
  }

  /// Stepped receivers whose `redeliver_unchanged` call accepted,
  /// across all steps so far: each had the entries of its bit-equal rows
  /// refreshed in that one call and was delivered only its other rows.
  /// The engine offers the call to every receiver it steps with valid
  /// row hints, so the count moves whenever such a receiver's cache holds
  /// no phantom at age <= 1 and no resync is pending. Folded like
  /// delta_rows_graded (zero under loss; skipped nodes are never
  /// counted).
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
    // The queued nodes are the rows to rebuild; the first build and
    // untracked steps rebuild every row.
    const bool every_row = !tracked || !arena_built_;
    std::size_t queued = n;
    if constexpr (QuiescentProtocol<Protocol>) {
      if (tracked) {
        for (const graph::NodeId p : protocol_->take_external_wakes()) {
          wake(p);
        }
        if (!every_row) {
          queued = 0;
          for (const Shard& sh : shards_) {
            queued += sh.tracker.pending().size();
          }
        }
      }
    }
    rows_rebuilt_ += queued;
    const bool step_only = std::any_of(
        shards_.begin(), shards_.end(),
        [](const Shard& sh) { return !sh.step_only.empty(); });

    const auto offsets = g.csr_offsets();
    const auto flat = g.csr_neighbors();
    const bool hear_all = loss_->always_delivers();
    if (queued == 0 && !step_only) {
      // Nothing queued and no entry aging: no row changes, so no node
      // steps.
      for (Shard& sh : shards_) sh.tracker.begin_step();
    } else {
      // Phase 1 (parallel by shard): rebuild the shard's rows (all of
      // them, or only the queued ones), grade each rebuilt row against
      // its predecessor, and wake the neighbors of every row that is not
      // bit-equal — they hear it this very step.
      if constexpr (kGraded) row_unchanged_.resize(n);
      for_shards([this, tracked, every_row](std::size_t s) {
        Shard& sh = shards_[s];
        if (every_row) {
          build_rows(sh, all_rows(sh));
        } else {
          build_rows(sh, sh.tracker.pending());
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

  /// Prefetch lookahead of the per-node walks, in nodes (see walk): far
  /// enough ahead to cover a DRAM miss behind a node's work, near enough
  /// that the hinted lines are still cached when the walk gets there.
  /// Each stage leads the one that reads what it brought in, by a miss.
  /// docs/BENCHMARKS.md ("prefetch the per-node walks", "hint the node
  /// record a stage ahead") has the ablations.
  static constexpr std::size_t kRecordAhead = 24;
  static constexpr std::size_t kStateAhead = 12;
  static constexpr std::size_t kRelaysAhead = 6;
  static_assert(kRecordAhead > kStateAhead && kStateAhead > kRelaysAhead);

  struct Shard {
    std::size_t begin = 0;
    std::size_t end = 0;
    // Frame arena: one row per owned node (local index) — its header and
    // the digests at pool[offsets[i], offsets[i] + lengths[i]]. Rebuilds
    // leave dead digests behind (`dead` of them) until the pool compacts
    // in place, visiting the rows in `by_offset` order — the offset order
    // as of the last compaction, which laid the rows out up to
    // `laid_end`; `grown` lists the rows appended past it since. `row` is
    // the scratch a row is built into, so it can be graded against its old
    // bytes before it overwrites them.
    std::vector<typename Protocol::FrameHeader> headers;
    std::vector<typename Protocol::Digest> pool;
    std::vector<std::size_t> offsets;
    std::vector<std::size_t> lengths;
    std::size_t dead = 0;
    std::vector<graph::NodeId> by_offset;
    std::size_t laid_end = 0;
    std::vector<graph::NodeId> grown;
    std::vector<typename Protocol::Digest> row;
    // The rows the last build graded not bit-equal (local indices): their
    // senders' neighbors step, and their grades revert to bit-equal at
    // the next build.
    std::vector<graph::NodeId> changed;
    // Nodes whose last step only aged an entry (local indices): they step
    // next step without a row rebuild, joining the active set when the
    // wakes are promoted.
    std::vector<graph::NodeId> step_only;
    // This step's tallies, folded serially into the engine totals.
    std::uint64_t sparse_rows = 0;
    std::uint64_t refreshed = 0;
    std::uint64_t delivered = 0;  // in-degree sum of the stepped nodes
    ActivityTracker tracker;
  };

  /// Every local index of shard `sh`, ascending.
  static auto all_rows(const Shard& sh) {
    return std::views::iota(graph::NodeId{0},
                            static_cast<graph::NodeId>(sh.end - sh.begin));
  }

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
  /// pool (one chunk per shard: shard tasks are coarse by design). At
  /// stabilize-250k (16 shards, 4 workers) the receive pass's workers are
  /// busy for 91–93% of its wall time on every step of 3 ms and more
  /// (docs/BENCHMARKS.md, "hint the node record a stage ahead"), so finer
  /// tasks could win at most the rest.
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
    for (Shard& sh : shards_) {
      sh.tracker.reset(sh.end - sh.begin, true);
      sh.step_only.clear();
    }
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

  /// Drains shard `t`'s inbound wake mailboxes and its step-only list
  /// into its tracker, then promotes the accumulated wake set to this
  /// step's work list. Runs after the build phase, so step-only nodes
  /// never join the rows it rebuilt.
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
    for (const graph::NodeId i : sh.step_only) sh.tracker.wake(i);
    sh.step_only.clear();
    sh.tracker.begin_step();
  }

  /// The row grade of a freshly built row against its predecessor, by the
  /// protocol's own field-equality predicates: id sequence held (payload
  /// overwrite suffices — the common active regime) or whole row
  /// bit-equal (nobody needs to hear it again: a receiver's refresh
  /// resets its entry's age — the quiescent regime). A row whose length
  /// moved grades 0. Ids-equal rows with at most half the payload digests
  /// moved count as sparse-change rows.
  static unsigned char grade_row(const typename Protocol::FrameHeader& h,
                                 const typename Protocol::Digest* a,
                                 std::size_t len,
                                 const typename Protocol::FrameHeader& old_h,
                                 const typename Protocol::Digest* b,
                                 std::size_t old_len, std::uint64_t& sparse) {
    if (len != old_len) return 0;
    const std::size_t ids = Protocol::id_prefix(h, len);
    if (ids != Protocol::id_prefix(old_h, old_len)) return 0;
    // The ids-equal gate must cover the whole id sequence — it is what
    // makes redelivery sound — so this pass has no early exit.
    bool same_ids = true;
    for (std::size_t k = 0; k < ids; ++k) {
      same_ids &= Protocol::digest_bits_equal(a[k], b[k]);
    }
    if (!same_ids) return 0;
    std::size_t changed = 0;
    for (std::size_t k = ids; k < len; ++k) {
      changed += !Protocol::digest_bits_equal(a[k], b[k]);
    }
    if (changed == 0 && Protocol::header_bits_equal(h, old_h)) {
      return kRowIdsEqual | kRowBitsEqual;
    }
    sparse += changed * 2 <= len - ids;
    return kRowIdsEqual;
  }

  /// Rebuilds the given rows of shard `sh` (local indices) — every row at
  /// the first build and at untracked steps, the queued rows otherwise;
  /// every other row is bit-equal to its predecessor by construction and
  /// keeps the bit-equal grade. Each row is built into a scratch row and
  /// graded against its old bytes (every row grades 0 at the first build,
  /// which has none); a row that is not bit-equal is then written over
  /// them if it keeps its length or shrinks, and moves to the end of the
  /// pool if it grows. Once a quarter of the pool is dead the live rows
  /// are re-laid back to back in place, so the pool stays within 4/3 of
  /// its live digests and each rebuilt row costs its own length,
  /// amortized.
  template <typename Rows>
  void build_rows(Shard& sh, const Rows& rows) {
    if constexpr (kGraded) {
      unsigned char* grades = row_unchanged_.data() + sh.begin;
      for (const graph::NodeId i : sh.changed) {
        grades[i] = kRowIdsEqual | kRowBitsEqual;
      }
      sh.changed.clear();
    }
    typename Protocol::FrameHeader header{};
    // The build reads a sender's cache, never its relay words.
    walk(sh.begin, rows, Walk::kBuild, [&](const graph::NodeId i) {
      const auto p = static_cast<graph::NodeId>(sh.begin + i);
      const std::size_t len = protocol_->digest_count(p);
      const std::size_t old_len = sh.lengths[i];
      sh.row.resize(len);
      protocol_->make_frame(p, header, std::span(sh.row));
      if constexpr (kGraded) {
        // A row whose length moved grades 0 whatever its bytes.
        const unsigned char grade =
            arena_built_ && len == old_len
                ? grade_row(header, sh.row.data(), len, sh.headers[i],
                            sh.pool.data() + sh.offsets[i], len,
                            sh.sparse_rows)
                : 0;
        row_unchanged_[sh.begin + i] = grade;
        // A bit-equal row already holds these bytes.
        if ((grade & kRowBitsEqual) != 0) return;
        sh.changed.push_back(i);
      }
      if (len > old_len) {
        sh.dead += old_len;
        sh.offsets[i] = sh.pool.size();
        if (arena_built_) sh.grown.push_back(i);
        sh.pool.resize(sh.pool.size() + len);
      } else {
        sh.dead += old_len - len;
      }
      sh.lengths[i] = len;
      sh.headers[i] = header;
      std::copy(sh.row.begin(), sh.row.end(), sh.pool.data() + sh.offsets[i]);
    });
    // The first build appends every row in index order — `by_offset`'s
    // order at construction — so it leaves the pool laid out.
    if (!arena_built_) sh.laid_end = sh.pool.size();
    if (sh.dead * 4 > sh.pool.size()) {
      // Re-lay the live rows back to back in offset order: each row moves
      // down, over dead digests or rows already moved. `by_offset` held
      // that order at the last re-lay, and since then only rows that grew
      // moved, each to the pool's end, listed in `grown` in append order
      // (a row that grew twice, twice). So the order is the rows that did
      // not move (every empty row among them: its place holds nothing) as
      // listed, then the moved rows at their latest offsets. Walking
      // `grown` backwards, a row's latest entry comes first and its offset
      // lies below every moved row placed so far; its older entries come
      // after it, when the bound has already reached its offset.
      std::size_t kept = 0;
      for (const graph::NodeId i : sh.by_offset) {
        if (sh.lengths[i] == 0 || sh.offsets[i] < sh.laid_end) {
          sh.by_offset[kept++] = i;
        }
      }
      std::size_t slot = sh.by_offset.size();
      std::size_t bound = sh.pool.size();
      for (const graph::NodeId i : std::views::reverse(sh.grown)) {
        if (sh.lengths[i] != 0 && sh.offsets[i] < bound) {
          bound = sh.offsets[i];
          sh.by_offset[--slot] = i;
        }
      }
      sh.grown.clear();
      std::size_t total = 0;
      for (const graph::NodeId i : sh.by_offset) {
        if (sh.offsets[i] != total) {
          const auto* from = sh.pool.data() + sh.offsets[i];
          std::copy(from, from + sh.lengths[i], sh.pool.data() + total);
          sh.offsets[i] = total;
        }
        total += sh.lengths[i];
      }
      sh.pool.resize(total);
      sh.laid_end = total;
      sh.dead = 0;
    }
  }

  /// The per-node walks, by the hints they issue (see walk).
  enum class Walk : unsigned char {
    kBuild,         // the build's rows
    kReceive,       // stepped receivers
    kReceiveGated,  // stepped receivers, with valid row grades
  };

  /// Runs `body(i)` over the local indices `rows` of the shard starting
  /// at `base`, in order. With the prefetch extension it hints, while at
  /// the j-th row, the record of the node kRecordAhead rows on and the
  /// state of the node kStateAhead rows on, whose record the first hint
  /// brought in. The receive walks' calls also read the node's CSR row,
  /// hinted at the same two stages (its offsets entry, then its neighbor
  /// list), and relay words: those of the node kRelaysAhead rows on,
  /// whose state the second hint brought in — in a gated walk only if
  /// the node hears a row not graded bit-equal (one its refresh does not
  /// cover; a node that hears none refreshes ages and, as a rule, reads
  /// no relay word). Hints only: the walk visits the same nodes in the
  /// same order either way.
  template <typename Rows, typename Body>
  void walk(std::size_t base, const Rows& rows, Walk kind, Body&& body) {
    const std::size_t count = std::ranges::size(rows);
    [[maybe_unused]] const bool receive = kind != Walk::kBuild;
    [[maybe_unused]] const auto offsets = graph_->csr_offsets();
    [[maybe_unused]] const auto flat = graph_->csr_neighbors();
    [[maybe_unused]] const auto hears_changed_row = [&](std::size_t q) {
      if constexpr (RedeliveryProtocol<Protocol>) {
        for (std::size_t e = offsets[q]; e < offsets[q + 1]; ++e) {
          if ((row_unchanged_[flat[e]] & kRowBitsEqual) == 0) return true;
        }
        return false;
      } else {
        return true;
      }
    };
    for (std::size_t j = 0; j < count; ++j) {
      if constexpr (PrefetchProtocol<Protocol>) {
        if (j + kRecordAhead < count) {
          const std::size_t q = base + rows[j + kRecordAhead];
          protocol_->prefetch(static_cast<graph::NodeId>(q),
                              PrefetchStage::kRecord);
          if (receive) __builtin_prefetch(&offsets[q]);
        }
        if (j + kStateAhead < count) {
          const std::size_t q = base + rows[j + kStateAhead];
          protocol_->prefetch(static_cast<graph::NodeId>(q),
                              PrefetchStage::kState);
          if (receive) __builtin_prefetch(flat.data() + offsets[q]);
        }
        if (receive && j + kRelaysAhead < count) {
          const std::size_t q = base + rows[j + kRelaysAhead];
          if (kind == Walk::kReceive || hears_changed_row(q)) {
            protocol_->prefetch(static_cast<graph::NodeId>(q),
                                PrefetchStage::kRelays);
          }
        }
      }
      body(rows[j]);
    }
  }

  /// Delivers `src`'s row `i` to `q`, as a payload overwrite when `grade`
  /// proves its id sequence held but not the whole row (redelivery
  /// protocols); every other row takes the full delivery.
  void deliver_row(graph::NodeId q, const Shard& src, std::size_t i,
                   unsigned char grade) {
    const auto& header = src.headers[i];
    const auto digests =
        std::span(src.pool.data() + src.offsets[i], src.lengths[i]);
    if constexpr (RedeliveryProtocol<Protocol>) {
      if (grade == kRowIdsEqual &&
          protocol_->deliver_payload(q, header, digests)) {
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
  /// receiver first offers its heard count to one redelivery call; when
  /// the protocol accepts, the entries of the bit-equal rows are already
  /// refreshed, and only the other rows are delivered. Under tracking the
  /// pass starts by draining the shard's inbound wake mailboxes and
  /// promoting its wake set, and each receiver ends by reporting its
  /// verdict: a changed node is queued for the next step, which rebuilds
  /// and grades its row; a step-only node steps next step as it is.
  void receive(std::size_t t, bool tracked, bool hints, bool hear_all) {
    Shard& sh = shards_[t];
    const graph::Graph& g = *graph_;
    const auto offsets = g.csr_offsets();
    const auto flat = g.csr_neighbors();
    const auto step_node = [&](graph::NodeId q) {
      const std::size_t begin = offsets[q];
      const std::size_t end = offsets[q + 1];
      bool refreshed = false;
      if constexpr (RedeliveryProtocol<Protocol>) {
        refreshed = hints && protocol_->redeliver_unchanged(q, end - begin);
        sh.refreshed += refreshed;
      }
      for (std::size_t e = begin; e < end; ++e) {
        if (!hear_all && !incoming_[e]) continue;
        const graph::NodeId p = flat[e];
        unsigned char grade = 0;
        if constexpr (RedeliveryProtocol<Protocol>) {
          if (hints) grade = row_unchanged_[p];
          if (refreshed && (grade & kRowBitsEqual) != 0) continue;
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
    const Walk kind = hints ? Walk::kReceiveGated : Walk::kReceive;
    if (!tracked) {
      walk(sh.begin, all_rows(sh), kind, [&](const graph::NodeId lq) {
        step_node(static_cast<graph::NodeId>(sh.begin + lq));
      });
      return;
    }
    if constexpr (QuiescentProtocol<Protocol>) {
      promote_wakes(t);
      walk(sh.begin, sh.tracker.active(), kind, [&](const graph::NodeId lq) {
        const auto q = static_cast<graph::NodeId>(sh.begin + lq);
        sh.delivered += offsets[q + 1] - offsets[q];
        step_node(q);
        switch (protocol_->consume_activity(q)) {
          case Activity::kChanged:
            sh.tracker.wake(lq);
            break;
          case Activity::kStepOnly:
            sh.step_only.push_back(lq);
            break;
          case Activity::kQuiet:
            break;
        }
      });
    }
  }

  const graph::Graph* graph_;
  Protocol* protocol_;
  LossModel* loss_;
  std::vector<std::size_t> bounds_;
  std::vector<Shard> shards_;
  std::size_t steps_ = 0;
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
