// Sparse-change rows: sender rows whose id sequence held while at most
// half their digest payloads moved — the late-recovery regime. The
// engine counts them (delta_rows_graded) and delivers them through the
// ids-equal payload overwrite (deliver_payload), from the shard arena
// for local senders and from the frame mailboxes for remote ones. Like
// the other redelivery paths this is pure cost model — every test here
// pins the hint-armed engine bitwise against the reference stepper,
// which always runs the full deliver, across faults from every
// certifier class, lossy media, topology deltas, stepping-mode
// switches, and both one and many shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/protocol.hpp"
#include "graph/partition.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "sim/sharded_network.hpp"
#include "support/reference_stepper.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/incremental.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"
#include "verify/faults.hpp"

namespace ssmwn {
namespace {

core::DensityProtocol make_protocol(const graph::Graph& g,
                                    const topology::IdAssignment& ids,
                                    std::uint64_t seed) {
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  return core::DensityProtocol(ids, config, util::Rng(seed));
}

/// Hint-armed engine vs the owning-frame reference stepper (full
/// deliver every time), lockstep through settle → mass fault → recovery
/// → re-settle. The recovery tail is where sparse-change rows appear
/// (payload churn trickles down to a few digests per row before rows go
/// fully bit-equal); the counter assertion proves the run reached that
/// regime.
TEST(DeltaFrames, SparseChangeRowsBitIdenticalToReference) {
  util::Rng rng(20050612);
  const std::size_t n = 250;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.11);

  auto fast = make_protocol(g, ids, 5);
  auto slow = make_protocol(g, ids, 5);
  sim::PerfectDelivery loss_a, loss_b;
  sim::Network net_fast(g, fast, loss_a, 1);
  testsupport::ReferenceStepper net_slow(g, slow, loss_b);

  util::Rng chaos_a(77), chaos_b(77);
  for (std::size_t step = 0; step < 40; ++step) {
    if (step == 12) {
      ASSERT_EQ(fast.corrupt_fraction(chaos_a, 0.15),
                slow.corrupt_fraction(chaos_b, 0.15));
    }
    if (step == 26) {
      fast.reset_node(3);
      slow.reset_node(3);
    }
    net_fast.step();
    net_slow.step();
    const auto div = core::first_divergent_node(fast, slow);
    ASSERT_EQ(div, std::nullopt)
        << "step " << step << ":\n"
        << core::describe_divergence(fast, slow, *div);
  }
  EXPECT_EQ(net_fast.messages_delivered(), net_slow.messages_delivered());
  EXPECT_GT(net_fast.delta_rows_graded(), 0u)
      << "the run never saw a sparse-change row — the regime under test "
         "never occurred";
}

/// Every certifier fault class, injected mid-run into both executions
/// with identical RNG state: the planted state must decline the fast
/// paths (resync flags) and converge to the same bytes the hint-free
/// reference stepper produces.
TEST(DeltaFrames, AllFaultClassesRecoverBitIdentically) {
  util::Rng rng(414);
  const std::size_t n = 180;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.12);
  const verify::StateCorruptor corruptor(g, ids);

  for (const verify::FaultClass fault : verify::kAllFaultClasses) {
    auto fast = make_protocol(g, ids, 21);
    auto slow = make_protocol(g, ids, 21);
    sim::PerfectDelivery loss_a, loss_b;
    sim::Network net_fast(g, fast, loss_a, 1);
    testsupport::ReferenceStepper net_slow(g, slow, loss_b);

    net_fast.run(10);
    net_slow.run(10);

    util::Rng chaos_a(99), chaos_b(99);
    corruptor.apply(fast, fault, chaos_a);
    corruptor.apply(slow, fault, chaos_b);
    ASSERT_EQ(core::first_divergent_node(fast, slow), std::nullopt)
        << "corruptor is nondeterministic for "
        << verify::to_string(fault);

    for (std::size_t step = 0; step < 15; ++step) {
      net_fast.step();
      net_slow.step();
      const auto div = core::first_divergent_node(fast, slow);
      ASSERT_EQ(div, std::nullopt)
          << verify::to_string(fault) << " step " << step << ":\n"
          << core::describe_divergence(fast, slow, *div);
    }
  }
}

/// A lossy medium never lets the hints arm (a frame some listener missed
/// invalidates the consumed-rows induction), but the grading and the
/// sparse-change count still run every step — they must be inert.
TEST(DeltaFrames, LossyMediumStaysBitIdentical) {
  util::Rng rng(88);
  const std::size_t n = 200;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.12);

  auto fast = make_protocol(g, ids, 13);
  auto slow = make_protocol(g, ids, 13);
  sim::BernoulliDelivery loss_a(0.7, util::Rng(31));
  sim::BernoulliDelivery loss_b(0.7, util::Rng(31));
  sim::Network net_fast(g, fast, loss_a, 1);
  testsupport::ReferenceStepper net_slow(g, slow, loss_b);

  for (std::size_t step = 0; step < 30; ++step) {
    net_fast.step();
    net_slow.step();
    const auto div = core::first_divergent_node(fast, slow);
    ASSERT_EQ(div, std::nullopt)
        << "step " << step << ":\n"
        << core::describe_divergence(fast, slow, *div);
  }
  EXPECT_EQ(net_fast.messages_delivered(), net_slow.messages_delivered());
}

/// Topology deltas void the row hints (receivers prune caches, adjacency
/// changes who consumed what): the hints must drop, then re-arm after
/// one clean full sweep.
TEST(DeltaFrames, TopologyDeltasDropAndRearmHintsBitIdentically) {
  util::Rng rng(11);
  const std::size_t n = 150;
  const double radius = 0.14;
  auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);

  topology::LiveTopology topo(points, radius);
  auto fast = make_protocol(topo.graph(), ids, 9);
  auto slow = make_protocol(topo.graph(), ids, 9);
  sim::PerfectDelivery loss_a, loss_b;
  sim::Network net_fast(topo.graph(), fast, loss_a, 1);
  testsupport::ReferenceStepper net_slow(topo.graph(), slow, loss_b);

  util::Rng jitter(13);
  for (int window = 0; window < 6; ++window) {
    net_fast.run(8);
    net_slow.run(8);
    for (int moves = 0; moves < 5; ++moves) {
      const auto v = jitter.below(n);
      points[v] = {jitter.uniform(), jitter.uniform()};
    }
    const auto& delta = topo.update(points);
    net_fast.apply_topology_delta(delta);
    net_slow.apply_topology_delta(delta);
    net_fast.step();
    net_slow.step();
    const auto div = core::first_divergent_node(fast, slow);
    ASSERT_EQ(div, std::nullopt)
        << "window " << window << ":\n"
        << core::describe_divergence(fast, slow, *div);
  }
}

/// Stepping-mode switches mid-run, full → dirty → full twice: each switch
/// drops the row hints (dirty steps reuse the arena in compact form);
/// the full windows after each must re-arm onto the same bytes.
TEST(DeltaFrames, SteppingSwitchesRearmBitIdentically) {
  util::Rng rng(52);
  const std::size_t n = 200;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.11);

  auto fast = make_protocol(g, ids, 5);
  auto slow = make_protocol(g, ids, 5);
  sim::PerfectDelivery loss_a, loss_b;
  sim::Network net_fast(g, fast, loss_a, 1);
  testsupport::ReferenceStepper net_slow(g, slow, loss_b);

  util::Rng chaos_a(7), chaos_b(7);
  for (std::size_t step = 0; step < 45; ++step) {
    if (step == 10) {
      ASSERT_EQ(fast.corrupt_fraction(chaos_a, 0.2),
                slow.corrupt_fraction(chaos_b, 0.2));
    }
    if (step == 18) net_fast.set_stepping(sim::Stepping::kDirty);
    if (step == 28) net_fast.set_stepping(sim::Stepping::kFull);
    if (step == 34) net_fast.set_stepping(sim::Stepping::kDirty);
    if (step == 38) net_fast.set_stepping(sim::Stepping::kFull);
    net_fast.step();
    net_slow.step();
    const auto div = core::first_divergent_node(fast, slow);
    ASSERT_EQ(div, std::nullopt)
        << "step " << step << ":\n"
        << core::describe_divergence(fast, slow, *div);
  }
}

/// Many shards with boundary crossings: sparse-change rows of boundary
/// senders are delivered from the frame mailboxes, those of owned
/// senders from the shard-local arena; both must land on the one-shard
/// engine's bytes, and since both grade the same rows the sparse-change
/// counters must agree exactly.
TEST(DeltaFrames, ShardedSparseChangeRowsMatchOneShard) {
  util::Rng rng(606);
  const std::size_t n = 220;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.12);

  auto flat = make_protocol(g, ids, 5);
  auto sharded = make_protocol(g, ids, 5);
  sim::PerfectDelivery loss_a, loss_b;
  sim::Network net_flat(g, flat, loss_a, 1);
  sim::ShardedNetwork net_shard(
      g, sharded, loss_b, graph::plan_contiguous_shards(n, 5).bounds, 2);

  util::Rng chaos_a(17), chaos_b(17);
  for (std::size_t step = 0; step < 40; ++step) {
    if (step == 12) {
      ASSERT_EQ(flat.corrupt_fraction(chaos_a, 0.15),
                sharded.corrupt_fraction(chaos_b, 0.15));
    }
    net_flat.step();
    net_shard.step();
    const auto div = core::first_divergent_node(flat, sharded);
    ASSERT_EQ(div, std::nullopt)
        << "step " << step << ":\n"
        << core::describe_divergence(flat, sharded, *div);
  }
  EXPECT_EQ(net_flat.messages_delivered(), net_shard.messages_delivered());
  EXPECT_EQ(net_flat.delta_rows_graded(), net_shard.delta_rows_graded());
  EXPECT_GT(net_shard.delta_rows_graded(), 0u);
}

}  // namespace
}  // namespace ssmwn
