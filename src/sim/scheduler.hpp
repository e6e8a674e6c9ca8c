// The Scheduler seam: the engine-agnostic core of the runtime.
//
// A Protocol (see sim/sharded_network.hpp's header comment for the
// concept) exposes four operations — build a broadcast frame, deliver a
// frame, fire guarded rules, age caches. *When* those operations happen
// is the execution model, and this repo ships two of them behind the
// same seam:
//
//   * sim::ShardedNetwork — the synchronous Δ(τ) engine, alias
//                           sim::Network (lockstep broadcast → deliver
//                           → tick → end_step, the abstraction the
//                           paper's step-count bounds use);
//   * sim::AsyncNetwork   — the event-driven engine (per-node jittered
//                           broadcast periods, per-link delivery delays,
//                           pluggable daemons — the asynchronous regime
//                           the paper's self-stabilization theorem is
//                           actually stated for).
//
// This header holds what both engines share: the ArenaProtocol concept
// (zero-copy flat frames), the TimestampedProtocol concept (the
// per-delivery virtual-time hook the async engine feeds), and
// FrameBuffer — reusable storage for one in-flight frame that builds
// from / delivers to a protocol through whichever overload set the
// protocol provides. The synchronous engine's batch arena (one flat
// digest pool per shard for all frames of a step) remains its private
// optimization in sharded_network.hpp; FrameBuffer is the per-frame
// form the event-driven engine needs, where frames from different
// virtual times are in flight simultaneously.
#pragma once

#include <concepts>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"

namespace ssmwn::sim {

/// Optional zero-alloc extension of the Protocol concept: split frames
/// into a POD header plus digests written into caller-provided storage.
template <typename P>
concept ArenaProtocol =
    requires(const P& cp, P& p, graph::NodeId node,
             typename P::FrameHeader& header,
             std::span<typename P::Digest> out,
             std::span<const typename P::Digest> in) {
      { cp.digest_count(node) } -> std::convertible_to<std::size_t>;
      cp.make_frame(node, header, out);
      p.deliver(node, header, in);
    };

/// Optional redelivery extension: when an engine can prove a sender's
/// frame is bit-identical to the one every listener already consumed
/// (double-buffered arena rows + a loss-free medium), it may offer the
/// delivery as `redeliver_unchanged(receiver, header)` instead; and when
/// only the digest *payloads* changed but the id sequence held, as
/// `deliver_payload(receiver, header, digests)` — the common active
/// regime, where the protocol can skip its compare/delta machinery and
/// overwrite in place. Either call performs the delivery's remaining
/// side effects and returns true, or returns false to demand the full
/// `deliver` — both must decline when the receiver's cache was mutated
/// from outside the step loop since the last full sweep. The row
/// compares use the protocol's own equality predicates so engine and
/// protocol agree on what "unchanged" means (padding bytes never
/// participate).
///
/// Row grades the engine's phase-1 compare produces (a bitmask):
/// bit-equality implies id-equality, so the valid values are 0,
/// kRowIdsEqual and kRowIdsEqual | kRowBitsEqual.
inline constexpr unsigned char kRowIdsEqual = 1;   // id sequence held
inline constexpr unsigned char kRowBitsEqual = 2;  // whole row bit-equal

template <typename P>
concept RedeliveryProtocol =
    requires(P& p, graph::NodeId receiver,
             const typename P::FrameHeader& header,
             std::span<const typename P::Digest> in,
             const typename P::Digest& digest) {
      { p.redeliver_unchanged(receiver, header) } ->
          std::convertible_to<bool>;
      { p.deliver_payload(receiver, header, in) } -> std::convertible_to<bool>;
      { P::header_bits_equal(header, header) } -> std::convertible_to<bool>;
      { P::digest_bits_equal(digest, digest) } -> std::convertible_to<bool>;
      { P::digest_id_equal(digest, digest) } -> std::convertible_to<bool>;
    };

/// Optional async extension: the protocol is told the virtual time of
/// every delivery (seconds). Synchronous engines never call it; the
/// event-driven engine calls it immediately before `deliver`.
template <typename P>
concept TimestampedProtocol = requires(P& p, graph::NodeId receiver,
                                       double time_s) {
  p.on_delivery(receiver, time_s);
};

/// Optional dynamic-topology extension: when a live run applies an edge
/// delta, both engines tell the protocol about every severed link so it
/// can invalidate exactly the neighbor state the perturbation made
/// stale (instead of waiting for cache aging). Models a link layer
/// that reports loss of connectivity; protocols without the hook fall
/// back to pure self-stabilizing recovery through aging. Added edges
/// need no hook — they announce themselves with their first frame.
template <typename P>
concept TopologyAwareProtocol = requires(P& p, graph::NodeId a,
                                         graph::NodeId b) {
  p.on_edge_removed(a, b);
};

/// Optional quiescence extension: the protocol can detect, per node and
/// per step, whether anything rule-relevant changed, and can skip a rule
/// sweep when it is provably a no-op. Both dirty-region steppers key off
/// this concept:
///
///   * set_activity_tracking(on) arms/disarms the change detector (off,
///     the protocol's hot paths must be byte-for-byte the classic ones);
///   * maybe_tick(p) sweeps unless provably redundant, returns whether
///     it swept (the async engine's activation uses this in place of
///     tick);
///   * consume_activity(p) reports and clears what changed during the
///     step that just ran — `state_changed` keeps p itself awake,
///     `frame_changed` wakes p's neighbors (the synchronous dirty
///     stepper's one-hop activity propagation);
///   * take_external_wakes() lists nodes mutated from outside the step
///     loop (fault injection, severed links) so the stepper can wake
///     their closed neighborhoods before the next step.
template <typename P>
concept QuiescentProtocol =
    requires(P& p, const P& cp, graph::NodeId node) {
      p.set_activity_tracking(true);
      { cp.activity_tracking() } -> std::convertible_to<bool>;
      { p.maybe_tick(node) } -> std::convertible_to<bool>;
      { p.consume_activity(node).state_changed } -> std::convertible_to<bool>;
      { p.consume_activity(node).frame_changed } -> std::convertible_to<bool>;
      { p.take_external_wakes() } -> std::convertible_to<std::vector<graph::NodeId>>;
    };

/// Reusable storage for one in-flight frame. Arena protocols get a POD
/// header plus a digest vector whose capacity survives reuse (steady
/// state: zero allocations once every slot has seen its deepest frame);
/// other protocols fall back to storing an owning `Protocol::Frame`.
template <typename Protocol, bool = ArenaProtocol<Protocol>>
struct FrameBuffer {
  typename Protocol::Frame frame;

  void build_from(const Protocol& protocol, graph::NodeId sender) {
    frame = protocol.make_frame(sender);
  }
  void deliver_to(Protocol& protocol, graph::NodeId receiver) const {
    protocol.deliver(receiver, frame);
  }
};

template <typename Protocol>
struct FrameBuffer<Protocol, true> {
  typename Protocol::FrameHeader header{};
  std::vector<typename Protocol::Digest> digests;

  void build_from(const Protocol& protocol, graph::NodeId sender) {
    digests.resize(protocol.digest_count(sender));
    protocol.make_frame(sender, header,
                        std::span(digests.data(), digests.size()));
  }
  void deliver_to(Protocol& protocol, graph::NodeId receiver) const {
    protocol.deliver(receiver, header,
                     std::span<const typename Protocol::Digest>(
                         digests.data(), digests.size()));
  }
};

}  // namespace ssmwn::sim
