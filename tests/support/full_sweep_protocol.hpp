// An always-sweeping view of core::DensityProtocol: it forwards the
// base, arena, timestamped and topology-aware members and hides the
// quiescence extension, so an engine driving it calls `tick` — a full
// rule sweep — on every activation. The differential tests diff the
// engines' quiescence-aware runs against it; it is never used to
// produce results.
#pragma once

#include <cstddef>
#include <span>

#include "core/protocol.hpp"
#include "graph/graph.hpp"
#include "sim/scheduler.hpp"

namespace ssmwn::testsupport {

class FullSweepProtocol {
 public:
  using FrameHeader = core::DensityProtocol::FrameHeader;
  using Digest = core::DensityProtocol::Digest;

  explicit FullSweepProtocol(core::DensityProtocol& protocol)
      : protocol_(&protocol) {}

  [[nodiscard]] std::size_t digest_count(graph::NodeId sender) const {
    return protocol_->digest_count(sender);
  }
  void make_frame(graph::NodeId sender, FrameHeader& header,
                  std::span<Digest> digests) const {
    protocol_->make_frame(sender, header, digests);
  }
  void deliver(graph::NodeId receiver, const FrameHeader& header,
               std::span<const Digest> digests) {
    protocol_->deliver(receiver, header, digests);
  }
  void tick(graph::NodeId node) { protocol_->tick(node); }
  void end_step(graph::NodeId node) { protocol_->end_step(node); }
  void on_delivery(graph::NodeId receiver, double time_s) {
    protocol_->on_delivery(receiver, time_s);
  }
  void on_edge_removed(graph::NodeId a, graph::NodeId b) {
    protocol_->on_edge_removed(a, b);
  }

 private:
  core::DensityProtocol* protocol_;
};

static_assert(sim::ArenaProtocol<FullSweepProtocol>);
static_assert(sim::TimestampedProtocol<FullSweepProtocol>);
static_assert(sim::TopologyAwareProtocol<FullSweepProtocol>);
static_assert(!sim::QuiescentProtocol<FullSweepProtocol>);

}  // namespace ssmwn::testsupport
