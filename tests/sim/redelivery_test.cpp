// The redelivery fast paths: when the step engine proves a sender's
// frame row unchanged since the previous step (bit-identical, or
// id-sequence-identical with churned payloads), delivery collapses to an
// age reset or a straight payload overwrite. These paths are pure cost
// model — every test here pins them bitwise against an execution that
// never takes them, including across the external mutations (faults,
// topology deltas) that must force a resync.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/protocol.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "support/reference_stepper.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/incremental.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

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

/// Arena engine (fast paths armed) vs the owning-frame reference stepper
/// (no row hints, full deliver every time), identical protocol state,
/// lockstep: any byte the fast paths fail to write shows up as a
/// divergence. Faults injected
/// mid-run are the adversarial part — a redelivery that ignored the
/// resync flag would preserve planted garbage the full path overwrites.
TEST(Redelivery, ArenaFastPathsBitIdenticalToLegacyEngine) {
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
      // Deep in the settled regime, where nearly every row redelivers.
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
}

/// Topology deltas clobber row identity (nodes hear different senders,
/// caches are pruned): the engine must drop its hints and the next sweep
/// must land on the same bytes the hint-free reference stepper produces.
TEST(Redelivery, TopologyDeltasInvalidateHintsBitIdentically) {
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
    // Nudge a few nodes; LiveTopology turns that into an edge delta.
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

/// Unit semantics of the protocol-side half of the contract.
TEST(Redelivery, ProtocolFastPathsDeclineWhenUnsafe) {
  util::Rng rng(3);
  const std::size_t n = 40;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.25);

  auto protocol = make_protocol(g, ids, 1);
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss, 1);
  network.run(10);  // settled: caches mirror neighborhoods

  graph::NodeId sender = 0, receiver = 0;
  bool found = false;
  for (graph::NodeId p = 0; p < static_cast<graph::NodeId>(n) && !found;
       ++p) {
    for (const auto q : g.neighbors(p)) {
      sender = p;
      receiver = q;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "deployment has no edge";

  core::DensityProtocol::FrameHeader header;
  std::vector<core::DensityProtocol::Digest> digests(
      protocol.digest_count(sender));
  protocol.make_frame(sender, header, digests);

  // Settled and untouched: both fast paths accept.
  EXPECT_TRUE(protocol.redeliver_unchanged(receiver, header));
  EXPECT_TRUE(protocol.deliver_payload(receiver, header, digests));

  // Unknown sender id: the receiver has no entry to refresh.
  core::DensityProtocol::FrameHeader phantom = header;
  phantom.id = 0xFFFFFFFF;  // ids are random_ids(n) values, not this
  EXPECT_FALSE(protocol.redeliver_unchanged(receiver, phantom));
  EXPECT_FALSE(protocol.deliver_payload(receiver, phantom, digests));

  // Digest-list length mismatch: the engine's proof cannot apply.
  if (!digests.empty()) {
    std::vector<core::DensityProtocol::Digest> shorter(digests.begin(),
                                                       digests.end() - 1);
    EXPECT_FALSE(protocol.deliver_payload(receiver, header, shorter));
  }

  // External mutation raises the resync flag: both paths must decline
  // until the next full sweep clears it.
  { auto s = protocol.mutable_state(receiver); (void)s; }
  EXPECT_FALSE(protocol.redeliver_unchanged(receiver, header));
  EXPECT_FALSE(protocol.deliver_payload(receiver, header, digests));
  network.step();  // full sweep: end_step clears the flag
  digests.resize(protocol.digest_count(sender));
  protocol.make_frame(sender, header, digests);
  EXPECT_TRUE(protocol.redeliver_unchanged(receiver, header));
  EXPECT_TRUE(protocol.deliver_payload(receiver, header, digests));
}

}  // namespace
}  // namespace ssmwn
