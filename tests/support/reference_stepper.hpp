// The owning-frame reference stepper: the textbook Δ(τ) step with none
// of the engine's machinery — no shared arena, no row grades, no
// shards, no dirty sets. Every node's frame is snapshotted into its own
// header + digest vector (sim::FrameBuffer, through the arena calls)
// before any delivery, the loss model is polled sender-major, then
// every node ticks and ages. The differential tests and the bench
// equivalence gates step sim::ShardedNetwork in lockstep with this and
// demand bit-identical protocol state; it is never used to produce
// results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/loss.hpp"
#include "sim/scheduler.hpp"

namespace ssmwn::testsupport {

template <typename Protocol>
class ReferenceStepper {
 public:
  ReferenceStepper(const graph::Graph& g, Protocol& protocol,
                   sim::LossModel& loss)
      : graph_(&g), protocol_(&protocol), loss_(&loss) {}

  void set_graph(const graph::Graph& g) { graph_ = &g; }

  /// Severed links reach topology-aware protocols exactly as the engine
  /// reports them; the stepper itself holds no per-topology state.
  void apply_topology_delta(const graph::EdgeDelta& delta) {
    if constexpr (sim::TopologyAwareProtocol<Protocol>) {
      for (const auto& [a, b] : delta.removed) protocol_->on_edge_removed(a, b);
    }
  }

  void step() {
    const graph::Graph& g = *graph_;
    const std::size_t n = g.node_count();
    loss_->begin_step();
    // Fresh frames every step, one digest vector per node: the stepper
    // also stands in for the seed engine's cost (bench_scale_steps).
    frames_.clear();
    frames_.resize(n);
    for (graph::NodeId p = 0; p < n; ++p) frames_[p].build_from(*protocol_, p);
    for (graph::NodeId p = 0; p < n; ++p) {
      for (const graph::NodeId q : g.neighbors(p)) {
        if (loss_->delivered(p, q)) {
          frames_[p].deliver_to(*protocol_, q);
          ++messages_delivered_;
        }
      }
    }
    for (graph::NodeId p = 0; p < n; ++p) protocol_->tick(p);
    for (graph::NodeId p = 0; p < n; ++p) protocol_->end_step(p);
    ++steps_;
  }

  void run(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) step();
  }

  [[nodiscard]] std::size_t steps_run() const noexcept { return steps_; }
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return messages_delivered_;
  }

 private:
  const graph::Graph* graph_;
  Protocol* protocol_;
  sim::LossModel* loss_;
  std::vector<sim::FrameBuffer<Protocol>> frames_;
  std::size_t steps_ = 0;
  std::uint64_t messages_delivered_ = 0;
};

}  // namespace ssmwn::testsupport
