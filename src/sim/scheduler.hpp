// The Scheduler seam: the engine-agnostic core of the runtime.
//
// A Protocol exposes four operations through the arena extension —
// build a broadcast frame into caller-provided storage, deliver a
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
// (zero-copy flat frames) both require, the optional extensions they
// detect, and FrameBuffer — reusable storage for one in-flight frame,
// built from and delivered to a protocol through the arena calls. The
// synchronous engine's batch arena (one flat digest pool per shard for
// all frames of a step) remains its private optimization in
// sharded_network.hpp; FrameBuffer is the per-frame form the
// event-driven engine needs, where frames from different virtual times
// are in flight simultaneously.
//
// A protocol with the quiescence extension decides by itself whether a
// rule sweep is a provable no-op (`maybe_tick`); both engines call it in
// place of `tick` whenever the extension is present. Neither engine
// switches the protocol into a mode: the stepping choice
// (sim::Stepping) selects counter definitions only.
#pragma once

#include <concepts>
#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace ssmwn::sim {

/// The Protocol concept both engines require: frames split into a POD
/// header plus digests written into caller-provided storage.
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

/// Optional row-equality extension: the protocol's own equality
/// predicates over frame headers and digests (field-wise, so padding
/// bytes never participate), with which the synchronous engine grades
/// every rebuilt frame row against the row before it, so engine and
/// protocol agree on what "unchanged" means. Row grades (a bitmask):
/// bit-equality implies id-equality, so the valid values are 0,
/// kRowIdsEqual and kRowIdsEqual | kRowBitsEqual.
inline constexpr unsigned char kRowIdsEqual = 1;   // id sequence held
inline constexpr unsigned char kRowBitsEqual = 2;  // whole row bit-equal

template <typename P>
concept RowEqualityProtocol =
    requires(const typename P::FrameHeader& header,
             const typename P::Digest& digest) {
      { P::header_bits_equal(header, header) } -> std::convertible_to<bool>;
      { P::digest_bits_equal(digest, digest) } -> std::convertible_to<bool>;
      { P::digest_id_equal(digest, digest) } -> std::convertible_to<bool>;
    };

/// Optional redelivery extension: when an engine can prove every frame a
/// receiver hears bit-identical to the one it consumed last step
/// (double-buffered arena rows + a loss-free medium), it may offer them
/// all as one `redeliver_unchanged(receiver, heard)`; and a row whose id
/// sequence held as `deliver_payload(receiver, header, digests,
/// bits_equal)`, where the protocol can skip its compare/delta machinery
/// and overwrite in place (or, for a row proved bit-equal as a whole,
/// only refresh it). Either call performs the remaining side effects and
/// returns true, or returns false to demand per-frame `deliver` — both
/// must decline when the receiver's cache was mutated from outside the
/// step loop since the last full sweep.
template <typename P>
concept RedeliveryProtocol =
    RowEqualityProtocol<P> &&
    requires(P& p, graph::NodeId receiver, std::size_t heard,
             const typename P::FrameHeader& header,
             std::span<const typename P::Digest> in) {
      { p.redeliver_unchanged(receiver, heard) } -> std::convertible_to<bool>;
      { p.deliver_payload(receiver, header, in, true) } -> std::convertible_to<bool>;
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

/// Optional quiescence extension: the protocol detects, per node and
/// per step, whether anything rule-relevant changed, and skips a rule
/// sweep when it is provably a no-op. Its change detector is always
/// armed; both engines key their quiescence-aware stepping off this
/// concept:
///
///   * maybe_tick(p) sweeps unless provably redundant and returns
///     whether it swept (both engines call it in place of tick);
///   * consume_activity(p) reports and clears whether p's state changed
///     during the step that just ran — one bit, which keeps p awake and
///     queues its frame row for rebuild;
///   * take_external_wakes() lists nodes mutated from outside the step
///     loop (fault injection, severed links) so the stepper can queue
///     them before the next step.
///
/// Whether p's *frame* changed — whether p's neighbors must step — is
/// never the protocol's call: the synchronous engine grades p's rebuilt
/// row with the row-equality predicates, which the extension therefore
/// requires.
template <typename P>
concept QuiescentProtocol =
    RowEqualityProtocol<P> &&
    requires(P& p, graph::NodeId node) {
      { p.maybe_tick(node) } -> std::convertible_to<bool>;
      { p.consume_activity(node) } -> std::convertible_to<bool>;
      { p.take_external_wakes() } -> std::convertible_to<std::vector<graph::NodeId>>;
    };

/// Reusable storage for one in-flight frame: a POD header plus a digest
/// vector whose capacity survives reuse (steady state: zero allocations
/// once every slot has seen its deepest frame).
template <ArenaProtocol Protocol>
struct FrameBuffer {
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
