// The one synchronous stepper: with the quiescence extension and a
// loss-free medium, sim::ShardedNetwork keeps an active set and runs a
// whole step (every frame row rebuilt and graded) or a subset step (only
// the queued rows) as the queued count dictates, under either counter
// definition (kFull, kDirty). This suite plays one history — cold start,
// fault epochs, a live topology delta, a swapped graph and a planted
// phantom — on a ~20k-node world cut into 16 spatial shards, at 1 and 4
// threads and in both modes, in lockstep with the owning-frame reference
// stepper, and demands bit-identical state after every step. It also
// pins what the row hints rest on (every cache holds the bytes of its
// neighbors' rows), that both kinds of step ran, that every counter is
// shard- and thread-invariant, and the closed forms of a settled step.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "graph/partition.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "support/reference_stepper.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/incremental.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

using Engine = sim::ShardedNetwork<core::DensityProtocol>;
using Frame = sim::FrameBuffer<core::DensityProtocol>;

core::DensityProtocol make_protocol(const graph::Graph& g,
                                    const topology::IdAssignment& ids) {
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  return core::DensityProtocol(ids, config, util::Rng(5));
}

/// Poisson points at mean degree 8, renumbered cell-major into 16
/// spatial shards (the stabilize benchmark's world, scaled down).
struct World {
  std::vector<topology::Point> points;
  topology::IdAssignment ids;
  double radius = 0.0;
  std::vector<std::size_t> bounds;
};

World make_world(double lambda, std::uint64_t seed) {
  util::Rng rng(seed);
  World w;
  w.radius = std::sqrt(8.0 / (M_PI * lambda));
  const auto raw = topology::poisson_points(lambda, rng);
  const auto plan = graph::plan_spatial_shards(raw, w.radius, 16);
  w.points = graph::permuted(plan, raw);
  w.ids = graph::permuted(plan, topology::random_ids(raw.size(), rng));
  w.bounds = plan.bounds;
  return w;
}

/// Plants a cache entry for a uid no node holds, through the fault
/// injector's door (`mutable_state` raises the resync flag and queues
/// an external wake).
void plant_phantom(core::DensityProtocol& protocol, graph::NodeId q,
                   topology::ProtocolId id) {
  auto s = protocol.mutable_state(q);
  auto& entry = s.cache[id];
  entry.digests.attach(s.digest_pool);
  entry.dag_id = 7;
  entry.metric = 3.5;
  entry.metric_valid = true;
  entry.head = id;
  entry.head_valid = true;
  entry.age = 0;
}

/// The invariant the row hints rest on: after a step, every node's cache
/// holds, for each neighbor, the bytes of the row that neighbor
/// broadcast this step (`frames`, snapshotted before the step) — also
/// for the nodes the step skipped.
::testing::AssertionResult caches_hold_rows(
    const graph::Graph& g, const core::DensityProtocol& protocol,
    const std::vector<Frame>& frames) {
  for (graph::NodeId q = 0; q < g.node_count(); ++q) {
    const auto& cache = protocol.state(q).cache;
    for (const graph::NodeId p : g.neighbors(q)) {
      const auto& f = frames[p].header;
      const auto& digests = frames[p].digests;
      const auto it = cache.find(f.id);
      if (it == cache.end()) {
        return ::testing::AssertionFailure()
               << "node " << q << " holds no entry for neighbor " << p;
      }
      const auto& e = it->second;
      bool same = e.dag_id == f.dag_id &&
                  core::double_bits_equal(e.metric, f.metric) &&
                  e.metric_valid == f.metric_valid && e.head == f.head &&
                  e.head_valid == f.head_valid &&
                  e.digests.size() == digests.size();
      for (std::size_t k = 0; same && k < digests.size(); ++k) {
        same = core::digest_bits_equal(e.digests.data()[k], digests[k]);
      }
      if (!same) {
        return ::testing::AssertionFailure()
               << "node " << q << " holds a stale row of neighbor " << p;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// One engine under test with its own protocol copy (built in place:
/// the protocol's rules capture its address).
struct Lane {
  Lane(std::string lane_name, const graph::Graph& g,
       const topology::IdAssignment& ids)
      : name(std::move(lane_name)), protocol(make_protocol(g, ids)) {}
  std::string name;
  core::DensityProtocol protocol;
  sim::PerfectDelivery loss;
  std::unique_ptr<Engine> net;
};

TEST(OneStepper, BitIdenticalToReferenceAcrossKindsShardsAndThreads) {
  World w = make_world(20000.0, 20050612);
  const std::size_t n = w.points.size();
  topology::LiveTopology topo(w.points, w.radius);
  graph::Graph swapped;  // the graph set_graph hands over mid-run

  auto reference_protocol = make_protocol(topo.graph(), w.ids);
  sim::PerfectDelivery reference_loss;
  testsupport::ReferenceStepper reference(topo.graph(), reference_protocol,
                                          reference_loss);

  // Lanes 0-1 count under kFull, lanes 2-4 under kDirty; one dirty lane
  // runs unsharded, so the wakes that cross shards are checked too.
  struct Shape {
    sim::Stepping mode;
    std::size_t shards;
    unsigned threads;
  };
  std::vector<std::unique_ptr<Lane>> lanes;
  for (const auto& [mode, shards, threads] :
       {Shape{sim::Stepping::kFull, 16, 1}, Shape{sim::Stepping::kFull, 16, 4},
        Shape{sim::Stepping::kDirty, 1, 1}, Shape{sim::Stepping::kDirty, 16, 1},
        Shape{sim::Stepping::kDirty, 16, 4}}) {
    auto lane = std::make_unique<Lane>(
        std::string(mode == sim::Stepping::kFull ? "full" : "dirty") + " S" +
            std::to_string(shards) + " T" + std::to_string(threads),
        topo.graph(), w.ids);
    lane->net = std::make_unique<Engine>(
        topo.graph(), lane->protocol, lane->loss,
        shards == 1 ? std::vector<std::size_t>{0, n} : w.bounds, threads);
    lane->net->set_stepping(mode);
    lanes.push_back(std::move(lane));
  }

  const auto for_all = [&](auto&& fn) {
    fn(reference_protocol);
    for (auto& lane : lanes) fn(lane->protocol);
  };
  const graph::Graph* g = &topo.graph();
  util::Rng motion(99);
  std::vector<Frame> frames(n);
  for (std::size_t step = 0; step < 90; ++step) {
    if (step == 25 || step == 65) {
      for_all([&](core::DensityProtocol& p) {
        util::Rng chaos(step);
        p.corrupt_fraction(chaos, step == 25 ? 0.1 : 0.05);
      });
    }
    if (step == 40) {
      // A live delta: a few nodes jump, LiveTopology patches the graph.
      for (int moves = 0; moves < 40; ++moves) {
        w.points[motion.below(n)] = {motion.uniform(), motion.uniform()};
      }
      const auto& delta = topo.update(w.points);
      ASSERT_FALSE(delta.added.empty() && delta.removed.empty());
      reference.apply_topology_delta(delta);
      for (auto& lane : lanes) lane->net->apply_topology_delta(delta);
    }
    if (step == 52) {
      // A swapped graph: more nodes jump, and a fresh UDG replaces the
      // live one wholesale.
      for (int moves = 0; moves < 40; ++moves) {
        w.points[motion.below(n)] = {motion.uniform(), motion.uniform()};
      }
      swapped = topology::unit_disk_graph(w.points, w.radius);
      g = &swapped;
      reference.set_graph(swapped);
      for (auto& lane : lanes) lane->net->set_graph(swapped);
    }
    if (step == 65) {
      for_all([&](core::DensityProtocol& p) {
        for (graph::NodeId q = 3; q < n; q += 997) {
          plant_phantom(p, q, 0xFFFFFF00 + q);
        }
      });
    }
    for (graph::NodeId p = 0; p < n; ++p) {
      frames[p].build_from(reference_protocol, p);
    }
    reference.step();
    for (auto& lane : lanes) {
      lane->net->step();
      const auto div =
          core::first_divergent_node(lane->protocol, reference_protocol);
      ASSERT_EQ(div, std::nullopt)
          << lane->name << " step " << step << ":\n"
          << core::describe_divergence(lane->protocol, reference_protocol,
                                       *div);
    }
    // Bit-identical lanes hold bit-identical caches: one check per mode.
    ASSERT_TRUE(caches_hold_rows(*g, lanes.front()->protocol, frames))
        << "step " << step;
  }

  // Both kinds of step ran. The kind history, the rows rebuilt and
  // graded and the refreshed receivers are functions of the active-set
  // history alone: equal in every lane, under both counter definitions.
  const Engine& first = *lanes.front()->net;
  EXPECT_GT(first.subset_steps(), 0u);
  EXPECT_LT(first.subset_steps(), first.steps_run());
  for (const auto& lane : lanes) {
    const Engine& net = *lane->net;
    SCOPED_TRACE(lane->name);
    EXPECT_EQ(net.subset_steps(), first.subset_steps());
    EXPECT_EQ(net.rows_rebuilt(), first.rows_rebuilt());
    EXPECT_EQ(net.delta_rows_graded(), first.delta_rows_graded());
    EXPECT_EQ(net.receivers_refreshed(), first.receivers_refreshed());
    // The counter definitions: per mode, equal at any shard/thread count.
    const Engine& peer =
        *lanes[net.stepping() == sim::Stepping::kFull ? 0 : 2]->net;
    EXPECT_EQ(net.messages_delivered(), peer.messages_delivered());
    EXPECT_EQ(net.activity().nodes_stepped(), peer.activity().nodes_stepped());
    EXPECT_EQ(net.activity().nodes_skipped(), peer.activity().nodes_skipped());
  }
  EXPECT_GT(first.delta_rows_graded(), 0u);
  EXPECT_GT(first.receivers_refreshed(), 0u);
  // kFull counts the logical broadcast; kDirty what the stepped nodes
  // heard, which the skipped nodes' silence keeps strictly below it.
  EXPECT_EQ(first.messages_delivered(), reference.messages_delivered());
  EXPECT_LT(lanes[2]->net->messages_delivered(), first.messages_delivered());
  EXPECT_GT(lanes[2]->net->activity().nodes_skipped(), 0u);
  EXPECT_EQ(first.activity().nodes_skipped(), 0u);
}

/// On a settled loss-free world a step steps no node, rebuilds and
/// grades no row and refreshes no receiver; messages_delivered moves by
/// the logical 2|E| under kFull and not at all under kDirty.
TEST(OneStepper, SettledStepClosedForms) {
  const World w = make_world(3000.0, 7);
  const auto g = topology::unit_disk_graph(w.points, w.radius);
  for (const sim::Stepping mode :
       {sim::Stepping::kFull, sim::Stepping::kDirty}) {
    for (const unsigned threads : {1u, 4u}) {
      auto protocol = make_protocol(g, w.ids);
      sim::PerfectDelivery loss;
      Engine net(g, protocol, loss, w.bounds, threads);
      net.set_stepping(mode);
      std::size_t settled = 0;
      for (std::size_t step = 0; step < 200 && settled < 3; ++step) {
        const std::uint64_t rows = net.rows_rebuilt();
        const std::uint64_t graded = net.delta_rows_graded();
        const std::uint64_t refreshed = net.receivers_refreshed();
        const std::uint64_t sent = net.messages_delivered();
        const std::size_t subset = net.subset_steps();
        net.step();
        std::size_t stepped = 0;
        for (std::size_t s = 0; s < net.shard_count(); ++s) {
          stepped += net.shard_activity(s).active().size();
        }
        if (stepped != 0) {
          settled = 0;
          continue;
        }
        ++settled;
        EXPECT_EQ(net.rows_rebuilt(), rows);
        EXPECT_EQ(net.delta_rows_graded(), graded);
        EXPECT_EQ(net.receivers_refreshed(), refreshed);
        EXPECT_EQ(net.subset_steps(), subset + 1);
        EXPECT_EQ(net.messages_delivered() - sent,
                  mode == sim::Stepping::kFull ? g.csr_neighbors().size()
                                               : 0u);
        EXPECT_EQ(net.activity().last_nodes_stepped(),
                  mode == sim::Stepping::kFull ? g.node_count() : 0u);
      }
      EXPECT_EQ(settled, 3u) << "the world never settled";
    }
  }
}

}  // namespace
}  // namespace ssmwn
