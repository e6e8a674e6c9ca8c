// Quiescence properties of the dirty-region stepper: once the protocol
// has converged and topology stops changing, *zero* nodes step — not
// "cheap steps", none — and a single injected edge delta wakes exactly
// the delta's closed neighborhood, with no false wakeups and immediate
// return to quiescence when the wake turns out to be a no-op. A fault
// wakes the neighbors only when the faulted node's frame row really
// changed: the engine's row grade, not the protocol, decides.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "core/protocol.hpp"
#include "core/soa_state.hpp"
#include "graph/dynamic.hpp"
#include "graph/graph.hpp"
#include "sim/async_network.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "support/deployments.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

core::DensityProtocol make_protocol(const testsupport::World& w,
                                    std::uint64_t seed) {
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, w.graph.max_degree());
  return core::DensityProtocol(w.ids, config, util::Rng(seed));
}

/// Steps until a step executes zero nodes; fails the test if that never
/// happens within `budget` steps.
void step_to_quiescence(sim::Network<core::DensityProtocol>& net,
                        std::size_t budget) {
  for (std::size_t s = 0; s < budget; ++s) {
    net.step();
    if (net.activity().last_nodes_stepped() == 0) return;
  }
  FAIL() << "no quiescent step within " << budget << " steps (last step ran "
         << net.activity().last_nodes_stepped() << " nodes)";
}

/// p's closed neighborhood in `g`, ascending.
std::vector<graph::NodeId> closed_neighborhood(const graph::Graph& g,
                                               std::initializer_list<graph::NodeId> seeds) {
  std::vector<graph::NodeId> out;
  for (const graph::NodeId p : seeds) {
    out.push_back(p);
    for (const graph::NodeId q : g.neighbors(p)) out.push_back(q);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The last step's work list in global ids, ascending: the union of the
/// per-shard lists (each holds shard-local indices, and shards are
/// contiguous ranges in ascending order).
std::vector<graph::NodeId> active_nodes(
    const sim::Network<core::DensityProtocol>& net) {
  std::vector<graph::NodeId> out;
  for (std::size_t s = 0; s < net.shard_count(); ++s) {
    for (const graph::NodeId local : net.shard_activity(s).active()) {
      out.push_back(static_cast<graph::NodeId>(net.bounds()[s] + local));
    }
  }
  return out;
}

TEST(Quiescence, ConvergedRunStopsSteppingEntirely) {
  const auto w = testsupport::make_deployment(120, 0.12, 77);
  auto protocol = make_protocol(w, 3);
  sim::PerfectDelivery loss;
  sim::Network net(w.graph, protocol, loss, 1);
  net.set_stepping(sim::Stepping::kDirty);

  step_to_quiescence(net, 300);
  if (HasFatalFailure()) return;

  // From here on, with no topology deltas and no faults, every step
  // must execute zero nodes, deliver zero messages, and freeze every
  // shared variable bit-for-bit.
  const core::NodeScalars frozen = protocol.scalars();
  const std::uint64_t stepped = net.activity().nodes_stepped();
  const std::uint64_t delivered = net.messages_delivered();
  for (std::size_t s = 0; s < 20; ++s) {
    net.step();
    ASSERT_EQ(net.activity().last_nodes_stepped(), 0u) << "step " << s;
    ASSERT_EQ(net.activity().last_nodes_skipped(), w.graph.node_count());
  }
  EXPECT_EQ(net.activity().nodes_stepped(), stepped);
  EXPECT_EQ(net.messages_delivered(), delivered);
  EXPECT_EQ(core::first_divergent_row(frozen, protocol.scalars()),
            frozen.size())
      << "state moved during quiescence";
}

TEST(Quiescence, RemovedEdgeWakesExactlyItsClosedNeighborhood) {
  const auto w = testsupport::make_deployment(100, 0.13, 11);
  graph::DynamicGraph dyn(w.graph);
  auto protocol = make_protocol(w, 5);
  sim::PerfectDelivery loss;
  sim::Network net(dyn.view(), protocol, loss, 1);
  net.set_stepping(sim::Stepping::kDirty);
  step_to_quiescence(net, 300);
  if (HasFatalFailure()) return;

  // Sever the first edge of the highest-degree node (guaranteed to
  // exist in a connected-ish deployment).
  graph::NodeId a = 0;
  for (graph::NodeId p = 0; p < dyn.view().node_count(); ++p) {
    if (dyn.view().degree(p) > dyn.view().degree(a)) a = p;
  }
  ASSERT_GT(dyn.view().degree(a), 0u);
  const graph::NodeId b = dyn.view().neighbors(a)[0];
  graph::EdgeDelta delta;
  delta.removed.push_back({std::min(a, b), std::max(a, b)});

  dyn.apply_delta(delta);
  net.apply_topology_delta(delta);
  net.mark_dirty(dyn.dirty_nodes());
  net.step();

  // Exactly the closed neighborhood of the severed edge (post-patch
  // graph: a and b are no longer each other's neighbors, but both are
  // in the set as endpoints).
  const auto expected = closed_neighborhood(dyn.view(), {a, b});
  EXPECT_EQ(net.activity().last_nodes_stepped(), expected.size());
  EXPECT_EQ(active_nodes(net), expected)
      << "false wakeup: active set is not the delta's closed neighborhood";
}

TEST(Quiescence, AddedEdgeWakesExactlyItsClosedNeighborhood) {
  const auto w = testsupport::make_deployment(100, 0.13, 12);
  graph::DynamicGraph dyn(w.graph);
  auto protocol = make_protocol(w, 6);
  sim::PerfectDelivery loss;
  sim::Network net(dyn.view(), protocol, loss, 1);
  net.set_stepping(sim::Stepping::kDirty);
  step_to_quiescence(net, 300);
  if (HasFatalFailure()) return;

  // Join the first non-adjacent pair.
  graph::NodeId a = 0, b = 0;
  [&] {
    for (graph::NodeId p = 0; p < dyn.view().node_count(); ++p) {
      for (graph::NodeId q = p + 1; q < dyn.view().node_count(); ++q) {
        if (!dyn.view().adjacent(p, q)) {
          a = p;
          b = q;
          return;
        }
      }
    }
  }();
  ASSERT_NE(a, b);
  graph::EdgeDelta delta;
  delta.added.push_back({a, b});

  dyn.apply_delta(delta);
  net.apply_topology_delta(delta);
  net.mark_dirty(dyn.dirty_nodes());
  net.step();

  const auto expected = closed_neighborhood(dyn.view(), {a, b});
  EXPECT_EQ(net.activity().last_nodes_stepped(), expected.size());
  EXPECT_EQ(active_nodes(net), expected);
}

TEST(Quiescence, AddedEdgeAloneStepsOnlyItsEndpoints) {
  // Without mark_dirty, a topology delta queues only the endpoints: they
  // now hear each other, but no row changed yet, so the grades wake no
  // one else.
  const auto w = testsupport::make_deployment(100, 0.13, 12);
  graph::DynamicGraph dyn(w.graph);
  auto protocol = make_protocol(w, 6);
  sim::PerfectDelivery loss;
  sim::Network net(dyn.view(), protocol, loss, 1);
  net.set_stepping(sim::Stepping::kDirty);
  step_to_quiescence(net, 300);
  if (HasFatalFailure()) return;

  graph::NodeId a = 0, b = 0;
  for (graph::NodeId q = 1; q < dyn.view().node_count() && b == 0; ++q) {
    if (!dyn.view().adjacent(a, q)) b = q;
  }
  ASSERT_NE(a, b);
  graph::EdgeDelta delta;
  delta.added.push_back({a, b});
  dyn.apply_delta(delta);
  net.apply_topology_delta(delta);
  net.step();
  EXPECT_EQ(active_nodes(net), (std::vector<graph::NodeId>{a, b}));
}

TEST(Quiescence, SpuriousWakeDiesOutInOneStep) {
  // mark_dirty on an unchanged node: its closed neighborhood re-runs
  // once, finds nothing to do, and the system is quiescent again on the
  // very next step — activity does not echo.
  const auto w = testsupport::make_deployment(80, 0.14, 13);
  auto protocol = make_protocol(w, 7);
  sim::PerfectDelivery loss;
  sim::Network net(w.graph, protocol, loss, 1);
  net.set_stepping(sim::Stepping::kDirty);
  step_to_quiescence(net, 300);
  if (HasFatalFailure()) return;

  const graph::NodeId victim = 17;
  const graph::NodeId seeds[] = {victim};
  net.mark_dirty(seeds);
  net.step();
  EXPECT_EQ(net.activity().last_nodes_stepped(),
            closed_neighborhood(w.graph, {victim}).size());
  net.step();
  EXPECT_EQ(net.activity().last_nodes_stepped(), 0u)
      << "a no-op wake must not keep echoing through the activity set";
}

/// Steps a converged tracked world once after `corrupt` mutates node `p`
/// from outside, then returns the nodes that step stepped; steps on to
/// quiescence and checks that every shared variable is back to its
/// pre-fault value.
template <typename Corrupt>
std::vector<graph::NodeId> step_after_fault(const testsupport::World& w,
                                            graph::NodeId p,
                                            Corrupt corrupt) {
  auto protocol = make_protocol(w, 8);
  sim::PerfectDelivery loss;
  sim::Network net(w.graph, protocol, loss, 1);
  net.set_stepping(sim::Stepping::kDirty);
  step_to_quiescence(net, 300);
  if (::testing::Test::HasFatalFailure()) return {};
  const core::NodeScalars frozen = protocol.scalars();

  auto s = protocol.mutable_state(p);
  corrupt(s);
  net.step();
  const auto stepped = active_nodes(net);
  step_to_quiescence(net, 50);
  EXPECT_EQ(core::first_divergent_row(frozen, protocol.scalars()),
            frozen.size())
      << "the fault did not heal back to the pre-fault state";
  return stepped;
}

/// A node of `w` with neighbors that heads no cluster.
graph::NodeId plain_member(const testsupport::World& w) {
  auto protocol = make_protocol(w, 8);
  sim::PerfectDelivery loss;
  sim::Network net(w.graph, protocol, loss, 1);
  net.run(60);
  for (graph::NodeId p = 0; p < w.graph.node_count(); ++p) {
    const auto s = protocol.state(p);
    if (w.graph.degree(p) > 0 && !(s.head_valid && s.head == s.uid)) return p;
  }
  return 0;
}

TEST(Quiescence, FrameInvisibleFaultStepsOnlyTheNode) {
  // The parent pointer never enters a frame: the node's rebuilt row
  // grades bit-equal, so its neighbors have nothing new to hear and only
  // the node itself steps.
  const auto w = testsupport::make_deployment(120, 0.12, 77);
  const graph::NodeId p = plain_member(w);
  const auto stepped = step_after_fault(w, p, [](auto& s) {
    s.parent = s.uid;
    s.parent_valid = 1;
  });
  EXPECT_EQ(stepped, std::vector<graph::NodeId>{p});
}

TEST(Quiescence, FrameVisibleFaultStepsTheClosedNeighborhood) {
  // The metric travels in the header: the rebuilt row is not bit-equal,
  // and the grade wakes every neighbor in the same step.
  const auto w = testsupport::make_deployment(120, 0.12, 77);
  const graph::NodeId p = plain_member(w);
  const auto stepped = step_after_fault(w, p, [](auto& s) {
    s.metric = s.metric / 2;
  });
  EXPECT_EQ(stepped, closed_neighborhood(w.graph, {p}));
}

TEST(Quiescence, AsyncActivationsKeepFiringButSweepsStop) {
  // The async engine never mutes events — activations, broadcasts and
  // deliveries continue forever — but once converged the rule sweeps
  // inside those activations are provable no-ops and are skipped.
  const auto w = testsupport::make_deployment(60, 0.16, 21);
  auto protocol = make_protocol(w, 9);
  sim::PerfectDelivery loss;
  sim::AsyncConfig config;
  config.daemon = sim::DaemonKind::kSynchronous;
  sim::AsyncNetwork net(w.graph, protocol, loss, config, util::Rng(22));
  net.set_stepping(sim::Stepping::kDirty);

  net.run_for(60.0);  // comfortably past convergence at n = 60
  const std::uint64_t stepped = net.activity().nodes_stepped();
  const std::uint64_t events = net.events_processed();
  const core::NodeScalars frozen = protocol.scalars();

  net.run_for(20.0);
  EXPECT_GT(net.events_processed(), events) << "activations must continue";
  EXPECT_EQ(net.activity().nodes_stepped(), stepped)
      << "converged async run must skip every rule sweep";
  EXPECT_GT(net.activity().nodes_skipped(), 0u);
  EXPECT_EQ(core::first_divergent_row(frozen, protocol.scalars()),
            frozen.size());
}

TEST(Quiescence, TrackerWakePastResetSizeGrowsInsteadOfUB) {
  // Regression: `wake` used to index `next_mark_[p]` unchecked, so a
  // live topology delta or a shard handoff referencing a node past the
  // last reset size was silent out-of-bounds UB. It must grow instead,
  // and the late-woken nodes must come out of begin_step like any other.
  sim::ActivityTracker t;
  t.reset(4, /*all_active=*/false);
  t.wake(2);
  t.wake(9);   // past the reset size: grows
  t.wake(9);   // idempotent across the growth
  t.wake(17);  // grows again
  t.begin_step();
  const auto active = t.active();
  ASSERT_EQ(active.size(), 3u);
  EXPECT_EQ(active[0], 2u);
  EXPECT_EQ(active[1], 9u);
  EXPECT_EQ(active[2], 17u);
  // The grown slots behave normally afterwards: re-wake, promote, drain.
  t.wake(17);
  t.begin_step();
  ASSERT_EQ(t.active().size(), 1u);
  EXPECT_EQ(t.active()[0], 17u);
  // A fresh reset shrinks back and clears every mark.
  t.reset(2, /*all_active=*/false);
  t.begin_step();
  EXPECT_TRUE(t.active().empty());
}

}  // namespace
}  // namespace ssmwn
