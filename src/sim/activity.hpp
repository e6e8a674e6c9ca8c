// The ActivityTracker seam shared by both engines' quiescence-aware
// stepping.
//
// Dirty-region ("quiescence-aware") stepping re-runs the protocol only
// for nodes whose closed neighborhood actually changed. The tracker owns
// the two ingredients both engines need:
//
//   * the activity set — double-buffered node sets (`wake` marks a node
//     for the *next* step; `begin_step` promotes the accumulated wakes
//     to the current step's work list, sorted ascending so phase order
//     is deterministic);
//   * the stepped/skipped counters the quiescence property tests and
//     campaign reports read (`nodes_stepped == 0` is the definition of
//     true quiescence — not just "cheap ticks").
//
// The synchronous engine uses both halves; the event-driven engine has
// no step-wide set (its activations are per-node already) and uses only
// the counters.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace ssmwn::sim {

/// The stepping mode: counter definitions, not a code path, on both
/// engines. The protocol skips every sweep it proves a no-op whatever
/// the mode, and the synchronous engine skips provably quiet nodes
/// whenever the medium is loss-free. kFull counts every node (every
/// activation) as stepped and, on the synchronous engine, 2|E|
/// messages per step; kDirty counts what really ran
/// (sim/sharded_network.hpp, sim/async_network.hpp). The results are
/// bit-identical — the point of the differential harnesses in tests/sim.
enum class Stepping {
  kFull,
  kDirty,
};

class ActivityTracker {
 public:
  /// Growth ceiling for `wake` past the reset size: a node index beyond
  /// this is a corrupt id (e.g. kInvalidNode), not a late-arriving
  /// topology delta, and would turn the resize into an OOM.
  static constexpr std::size_t kMaxTrackedNode = std::size_t{1} << 31;
  static constexpr std::size_t kDenseShare = 16;

  /// Sizes the tracker for `n` nodes and empties both sets; with
  /// `all_active`, every node is queued for the next step (how a dirty
  /// run starts: quiescence is discovered, never assumed). Counters are
  /// not touched — use `reset_counters` for a fresh run.
  void reset(std::size_t n, bool all_active) {
    next_mark_.assign(n, 0);
    next_list_.clear();
    current_list_.clear();
    // Both lists swap roles every step; room for every node up front
    // keeps wakes allocation-free.
    next_list_.reserve(n);
    current_list_.reserve(n);
    if (all_active) {
      next_list_.resize(n);
      for (std::size_t p = 0; p < n; ++p) next_list_[p] = p;
      std::fill(next_mark_.begin(), next_mark_.end(), 1);
    }
  }

  void reset_counters() noexcept {
    nodes_stepped_ = nodes_skipped_ = 0;
    last_stepped_ = last_skipped_ = 0;
  }

  /// Queues `p` for the next step (idempotent). A wake past the last
  /// `reset` size is legal — a live topology delta or a shard handoff
  /// can reference nodes the tracker has not been resized for yet — and
  /// grows the mark array instead of indexing out of bounds. The assert
  /// rejects ids past kMaxTrackedNode: those are corrupt (a stray
  /// kInvalidNode would otherwise become an 8-billion-entry resize).
  void wake(graph::NodeId p) {
    if (p >= next_mark_.size()) {
      assert(p < kMaxTrackedNode &&
             "ActivityTracker::wake: node id far beyond any reset size "
             "(corrupt id?)");
      next_mark_.resize(static_cast<std::size_t>(p) + 1, 0);
    }
    if (!next_mark_[p]) {
      next_mark_[p] = 1;
      next_list_.push_back(p);
    }
  }

  /// Promotes the accumulated wakes to the current work list (sorted
  /// ascending) and starts accumulating the following step's set. A
  /// dense set (at least 1/kDenseShare of the marks) is collected by one
  /// ordered sweep of the marks instead of a sort.
  void begin_step() {
    current_list_.swap(next_list_);
    next_list_.clear();
    if (current_list_.size() * kDenseShare >= next_mark_.size()) {
      current_list_.resize(next_mark_.size());
      std::size_t k = 0;
      for (std::size_t p = 0; p < next_mark_.size(); ++p) {
        current_list_[k] = static_cast<graph::NodeId>(p);
        k += next_mark_[p];
        next_mark_[p] = 0;
      }
      current_list_.resize(k);
      return;
    }
    for (const graph::NodeId p : current_list_) next_mark_[p] = 0;
    std::sort(current_list_.begin(), current_list_.end());
  }

  /// The current step's work list; valid until the next `begin_step`.
  [[nodiscard]] std::span<const graph::NodeId> active() const noexcept {
    return current_list_;
  }
  /// The wakes accumulated for the next `begin_step`, in wake order;
  /// valid until the next `wake` or `begin_step`.
  [[nodiscard]] std::span<const graph::NodeId> pending() const noexcept {
    return next_list_;
  }

  void record(std::size_t stepped, std::size_t skipped) noexcept {
    nodes_stepped_ += stepped;
    nodes_skipped_ += skipped;
    last_stepped_ = stepped;
    last_skipped_ = skipped;
  }

  /// Cumulative node-steps actually executed / skipped.
  [[nodiscard]] std::uint64_t nodes_stepped() const noexcept {
    return nodes_stepped_;
  }
  [[nodiscard]] std::uint64_t nodes_skipped() const noexcept {
    return nodes_skipped_;
  }
  /// Same, for the most recent step (or activation) only.
  [[nodiscard]] std::size_t last_nodes_stepped() const noexcept {
    return last_stepped_;
  }
  [[nodiscard]] std::size_t last_nodes_skipped() const noexcept {
    return last_skipped_;
  }

 private:
  std::vector<std::uint8_t> next_mark_;
  std::vector<graph::NodeId> next_list_;
  std::vector<graph::NodeId> current_list_;
  std::uint64_t nodes_stepped_ = 0;
  std::uint64_t nodes_skipped_ = 0;
  std::size_t last_stepped_ = 0;
  std::size_t last_skipped_ = 0;
};

}  // namespace ssmwn::sim
