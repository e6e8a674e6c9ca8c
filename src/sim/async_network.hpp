// Event-driven asynchronous network runtime.
//
// The paper proves self-stabilization for an *asynchronous* wireless
// network; the synchronous Δ(τ) stepper (sim::Network) is only the
// abstraction its step-count bounds are phrased in. This engine
// exercises the theorem in the regime it is actually stated for: each
// node wakes on its own (jittered) broadcast period, fires its guarded
// rules against whatever its caches hold, broadcasts a frame, and each
// neighbor hears that frame after a per-link delivery delay — no global
// rounds, no two nodes in lockstep.
//
// Execution is a totally ordered event stream (sim::EventQueue):
//
//   Activation(p) at t:  maybe_tick(p) (tick without the quiescence
//                        extension) → build frame → for each neighbor q,
//                        loss model decides; heard frames are scheduled
//                        as Delivery(q) at t + link delay → end_step(p)
//                        → next Activation(p) at t + daemon delay.
//   Delivery(q)   at t:  on_delivery(q, t) hook (TimestampedProtocol,
//                        if provided) → deliver(q, frame).
//
// The *daemon* chooses activation delays — the scheduler adversary of
// the self-stabilization literature:
//
//   kSynchronous      every node wakes every period_s exactly, all in
//                     phase (the lockstep model, for cross-checking);
//   kRandomized       period jittered ±period_jitter per wake, phases
//                     staggered uniformly (the fair random daemon);
//   kUnfairRoundRobin every unfair_stride-th node is a victim that
//                     wakes unfair_slowdown× slower — adversarially
//                     unfair, but still weakly fair, so convergence
//                     must survive it.
//
// Determinism: the engine is strictly single-threaded, every random
// draw comes from the two internal streams (daemon, link delay) plus
// the loss model's own, and every draw happens in event-processing
// order — itself deterministic because the queue breaks timestamp ties
// by admission order. Same graph + config + seed ⇒ the same event
// trace, byte for byte, on any machine and under any `--threads`
// setting (the campaign layer parallelizes across runs, never inside
// one). Asserted by tests/sim/async_determinism_test.cpp.
//
// Frames in flight are reference-counted FrameBuffer slots (see
// sim/scheduler.hpp; the engine requires the arena extension): a
// broadcast may still be traveling on a slow link when the sender
// broadcasts again, so per-node storage would be wrong.
// Slots and their digest capacity are recycled through a free list, so
// the steady state allocates nothing new once the in-flight high-water
// mark has been reached.
//
// Dynamic topology (live mobility/churn runs): perturbations are
// *events* — `schedule_topology_update` admits a kTopology event whose
// callback patches the live graph (topology::LiveTopology) and whose
// processing invalidates protocol caches for severed links, so topology
// change composes with daemons, loss, and link delays in the one
// deterministic total order. In dynamic mode a delivery re-checks the
// link against the current graph: a frame whose link broke mid-flight
// is dropped (messages_expired), as the radio would lose it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"
#include "sim/activity.hpp"
#include "sim/event_queue.hpp"
#include "sim/loss.hpp"
#include "sim/scheduler.hpp"
#include "stabilize/convergence.hpp"
#include "util/rng.hpp"

namespace ssmwn::sim {

enum class DaemonKind : std::uint8_t {
  kSynchronous,
  kRandomized,
  kUnfairRoundRobin,
};

struct AsyncConfig {
  /// Mean per-node broadcast period (virtual seconds).
  double period_s = 1.0;
  /// Per-activation period jitter, as a fraction of period_s in [0, 1):
  /// each wake draws its next delay from period_s·(1 ± period_jitter).
  double period_jitter = 0.1;
  /// Mean per-link delivery delay (virtual seconds).
  double link_delay_s = 0.02;
  /// Per-delivery delay jitter, as a fraction of link_delay_s in [0, 1].
  double link_delay_jitter = 0.5;
  DaemonKind daemon = DaemonKind::kRandomized;
  /// kUnfairRoundRobin: victims wake this factor slower (≥ 1).
  double unfair_slowdown = 8.0;
  /// kUnfairRoundRobin: node indices ≡ 0 (mod stride) are victims.
  std::size_t unfair_stride = 4;
};

template <typename Protocol>
class AsyncNetwork {
 public:
  /// The graph reference is observed, not owned, and must outlive the
  /// engine. Topology is fixed unless the owner schedules updates via
  /// `schedule_topology_update` (dynamic-topology runs). All randomness
  /// — daemon wake times and link delays — derives from `rng`; the loss
  /// model brings its own stream.
  AsyncNetwork(const graph::Graph& g, Protocol& protocol, LossModel& loss,
               AsyncConfig config, util::Rng rng)
      : graph_(&g),
        protocol_(&protocol),
        loss_(&loss),
        config_(config),
        daemon_rng_(rng.split()),
        delay_rng_(rng.split()) {
    const std::size_t n = g.node_count();
    for (graph::NodeId p = 0; p < n; ++p) {
      queue_.push(Event{initial_wake(p), 0, EventKind::kActivation, p, 0, 0});
    }
  }

  /// Processes the single least event. Returns false when none is
  /// pending (only possible for an empty graph — activations reschedule
  /// themselves forever).
  bool step_event() {
    if (queue_.empty()) return false;
    const Event event = queue_.pop();
    now_ = event.time;
    if (event_log_) event_log_->push_back(event);
    ++events_processed_;
    if (event.kind == EventKind::kActivation) {
      activate(event.node, event.time);
    } else if (event.kind == EventKind::kDelivery) {
      deliver(event);
    } else {
      apply_topology(event);
    }
    return true;
  }

  /// Processes every event with time ≤ `t`, then advances the clock to
  /// exactly `t`. Returns the new clock.
  VirtualTime run_until(VirtualTime t) {
    while (!queue_.empty() && queue_.top().time <= t) step_event();
    now_ = t;
    return now_;
  }

  /// Convenience: advances by `seconds` of virtual time.
  VirtualTime run_for(double seconds) {
    return run_until(now_ + to_ticks(seconds));
  }

  [[nodiscard]] VirtualTime now() const noexcept { return now_; }
  [[nodiscard]] double now_seconds() const noexcept {
    return to_seconds(now_);
  }

  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_processed_;
  }
  /// Frames transmitted (one per activation).
  [[nodiscard]] std::uint64_t frames_broadcast() const noexcept {
    return frames_broadcast_;
  }
  /// Frame receptions that actually happened (post-loss, post-delay).
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return messages_delivered_;
  }
  /// Receptions the loss model suppressed at transmission time.
  [[nodiscard]] std::uint64_t messages_lost() const noexcept {
    return messages_lost_;
  }
  [[nodiscard]] std::size_t frames_in_flight() const noexcept {
    return slots_.size() - free_slots_.size();
  }
  [[nodiscard]] const AsyncConfig& config() const noexcept { return config_; }

  /// When set, every processed event is appended to `log` in execution
  /// order — the canonical trace the determinism tests byte-compare.
  void set_event_log(std::vector<Event>* log) noexcept { event_log_ = log; }

  // --- quiescence-aware stepping ---------------------------------------

  /// Selects the counter definitions of `activity()` and restarts the
  /// counters — not a code path. Nothing about the *event* schedule may
  /// change — skipping a broadcast or a delivery would shift the RNG
  /// draw sequences and the trace — so the only thing ever elided is the
  /// rule sweep inside an activation, whenever a protocol with the
  /// quiescence extension proves it a no-op (`maybe_tick`), under either
  /// mode. kDirty counts the sweeps that really ran and requires the
  /// extension (throws std::invalid_argument otherwise); kFull counts
  /// every activation as swept.
  void set_stepping(Stepping mode) {
    if constexpr (!QuiescentProtocol<Protocol>) {
      if (mode == Stepping::kDirty) {
        throw std::invalid_argument(
            "protocol does not implement the quiescence extension "
            "dirty-region stepping needs");
      }
    }
    stepping_ = mode;
    tracker_.reset_counters();
  }

  [[nodiscard]] Stepping stepping() const noexcept { return stepping_; }

  /// Stepped/skipped counters: one count per activation (under kDirty,
  /// did its rule sweep run?). `nodes_stepped` staying flat while
  /// activations keep firing is the async form of quiescence.
  [[nodiscard]] const ActivityTracker& activity() const noexcept {
    return tracker_;
  }

  // --- dynamic topology (live runs) ------------------------------------

  /// Schedules a topology perturbation at virtual time `t` (clamped to
  /// now; tie-broken after events already admitted at `t`). When the
  /// event fires, `apply` must patch the graph this engine observes
  /// (typically topology::LiveTopology::update → the same Graph object)
  /// and return the delta it applied; the engine then invalidates
  /// protocol state for every severed link (TopologyAwareProtocol).
  /// Topology application rides the event queue, so mobility composes
  /// with daemons, loss, and link delays in one deterministic total
  /// order — the event trace includes the perturbation itself.
  ///
  /// Scheduling any update switches the engine into dynamic mode:
  /// deliveries are thereafter checked against the *current* graph, and
  /// a frame whose link vanished mid-flight is dropped (counted in
  /// `messages_expired`), exactly as a broken radio link would lose it.
  void schedule_topology_update(
      VirtualTime t, std::function<const graph::EdgeDelta&()> apply) {
    dynamic_topology_ = true;
    // Spent slots are recycled like frame slots, so a long live run's
    // pending list stays bounded by the number of updates in flight.
    std::uint32_t slot;
    if (!free_topology_slots_.empty()) {
      slot = free_topology_slots_.back();
      free_topology_slots_.pop_back();
      pending_topology_[slot] = std::move(apply);
    } else {
      slot = static_cast<std::uint32_t>(pending_topology_.size());
      pending_topology_.push_back(std::move(apply));
    }
    queue_.push(Event{std::max(t, now_), 0, EventKind::kTopology, 0, 0, slot});
  }

  /// Topology perturbations applied so far.
  [[nodiscard]] std::uint64_t topology_updates() const noexcept {
    return topology_updates_;
  }
  /// In-flight frames dropped because their link vanished before the
  /// delivery fired (dynamic mode only).
  [[nodiscard]] std::uint64_t messages_expired() const noexcept {
    return messages_expired_;
  }

 private:
  [[nodiscard]] bool is_victim(graph::NodeId p) const noexcept {
    return config_.daemon == DaemonKind::kUnfairRoundRobin &&
           config_.unfair_stride > 0 && p % config_.unfair_stride == 0;
  }

  /// First wake time: the synchronous daemon starts every node in phase
  /// at t = 0; the random/unfair daemons stagger phases uniformly over
  /// one (victim-scaled) period so no global round ever exists.
  [[nodiscard]] VirtualTime initial_wake(graph::NodeId p) {
    if (config_.daemon == DaemonKind::kSynchronous) return 0;
    double horizon = config_.period_s;
    if (is_victim(p)) horizon *= config_.unfair_slowdown;
    return to_ticks(daemon_rng_.uniform(0.0, horizon));
  }

  /// Delay until node p's next wake after an activation.
  [[nodiscard]] double next_period(graph::NodeId p) {
    double period = config_.period_s;
    if (is_victim(p)) period *= config_.unfair_slowdown;
    if (config_.daemon != DaemonKind::kSynchronous &&
        config_.period_jitter > 0.0) {
      period *= 1.0 + config_.period_jitter * daemon_rng_.uniform(-1.0, 1.0);
    }
    return period;
  }

  [[nodiscard]] double link_delay() {
    double delay = config_.link_delay_s;
    if (config_.link_delay_jitter > 0.0 && delay > 0.0) {
      delay *= 1.0 + config_.link_delay_jitter * delay_rng_.uniform(-1.0, 1.0);
    }
    return delay;
  }

  [[nodiscard]] std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    slots_.emplace_back();
    remaining_.push_back(0);
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void activate(graph::NodeId p, VirtualTime t) {
    // Rules first: the node computes on what it has heard so far, then
    // announces the result. (The synchronous engine orders one global
    // step broadcast-then-tick; per node the cycle is the same.) The
    // sweep is skipped when the protocol proves it a no-op; the broadcast
    // still happens — neighbors' caches must age and refresh as ever.
    bool swept = true;
    if constexpr (QuiescentProtocol<Protocol>) {
      swept = protocol_->maybe_tick(p) || stepping_ == Stepping::kFull;
    } else {
      protocol_->tick(p);
    }
    tracker_.record(swept ? 1 : 0, swept ? 0 : 1);

    // Broadcast. begin_step marks one local transmission round so
    // per-sender-draw models (BroadcastCollision) stay memoryless per
    // transmission; for Perfect/Bernoulli it is a no-op.
    loss_->begin_step();
    const std::uint32_t slot = acquire_slot();
    slots_[slot].build_from(*protocol_, p);
    std::uint32_t scheduled = 0;
    for (const graph::NodeId q : graph_->neighbors(p)) {
      if (loss_->delivered(p, q)) {
        queue_.push(Event{t + to_ticks(link_delay()), 0,
                          EventKind::kDelivery, q, p, slot});
        ++scheduled;
      } else {
        ++messages_lost_;
      }
    }
    ++frames_broadcast_;
    if (scheduled == 0) {
      free_slots_.push_back(slot);
    } else {
      remaining_[slot] = scheduled;
    }

    // Cache aging is per local round, after the broadcast, so entries
    // heard since the last wake are announced before they can age out.
    protocol_->end_step(p);

    // The next wake must advance the clock by at least one tick: a
    // period that rounds to 0 ticks would reschedule at the same
    // timestamp forever and run_until would never return.
    const VirtualTime gap =
        std::max<VirtualTime>(1, to_ticks(next_period(p)));
    queue_.push(Event{t + gap, 0, EventKind::kActivation, p, 0, 0});
  }

  void deliver(const Event& event) {
    // Dynamic mode: the link that carried this frame may have broken
    // while it was in flight; the frame is then lost. Checked against
    // the live graph, so the decision is deterministic — topology
    // updates are themselves events with a fixed place in the order.
    if (dynamic_topology_ && !graph_->adjacent(event.sender, event.node)) {
      ++messages_expired_;
      if (--remaining_[event.slot] == 0) free_slots_.push_back(event.slot);
      return;
    }
    if constexpr (TimestampedProtocol<Protocol>) {
      protocol_->on_delivery(event.node, to_seconds(event.time));
    }
    slots_[event.slot].deliver_to(*protocol_, event.node);
    ++messages_delivered_;
    if (--remaining_[event.slot] == 0) free_slots_.push_back(event.slot);
  }

  void apply_topology(const Event& event) {
    // Move the callback out first: it may itself schedule the next
    // update, growing pending_topology_ and invalidating references
    // into it. The slot is recycled only after the callback returns.
    const auto apply = std::move(pending_topology_[event.slot]);
    const graph::EdgeDelta& delta = apply();
    if constexpr (TopologyAwareProtocol<Protocol>) {
      for (const auto& [a, b] : delta.removed) {
        protocol_->on_edge_removed(a, b);
      }
    } else {
      (void)delta;
    }
    free_topology_slots_.push_back(event.slot);
    ++topology_updates_;
  }

  const graph::Graph* graph_;
  Protocol* protocol_;
  LossModel* loss_;
  AsyncConfig config_;
  util::Rng daemon_rng_;
  util::Rng delay_rng_;
  EventQueue queue_;
  VirtualTime now_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t frames_broadcast_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_lost_ = 0;
  std::vector<FrameBuffer<Protocol>> slots_;
  std::vector<std::uint32_t> remaining_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Event>* event_log_ = nullptr;
  bool dynamic_topology_ = false;
  std::vector<std::function<const graph::EdgeDelta&()>> pending_topology_;
  std::vector<std::uint32_t> free_topology_slots_;
  std::uint64_t topology_updates_ = 0;
  std::uint64_t messages_expired_ = 0;
  Stepping stepping_ = Stepping::kFull;
  ActivityTracker tracker_;
};

/// The one way every driver (campaign runner, CLI, tests) measures
/// async convergence: advance one period per legitimacy check until
/// `legitimate` has held for `confirm_periods` periods or
/// `horizon_periods` have elapsed from the current clock. Message
/// counts in the report are relative to the clock at entry, so a
/// recovery phase reports only its own traffic, not the cold start's.
template <typename Protocol, typename Legitimate>
[[nodiscard]] stabilize::VirtualTimeReport settle_async(
    AsyncNetwork<Protocol>& network, Legitimate&& legitimate,
    double horizon_periods, double confirm_periods = 3.0) {
  const double period_s = network.config().period_s;
  const std::uint64_t base = network.messages_delivered();
  return stabilize::run_until_stable_virtual(
      [&network, period_s] {
        network.run_for(period_s);
        return network.now_seconds();
      },
      [&network, base] { return network.messages_delivered() - base; },
      std::forward<Legitimate>(legitimate), confirm_periods * period_s,
      network.now_seconds() + horizon_periods * period_s);
}

}  // namespace ssmwn::sim
