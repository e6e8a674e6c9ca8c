// The prefetch extension (sim::PrefetchProtocol): DensityProtocol's
// `prefetch(node, stage)` only issues memory hints. These tests call it on
// every node of every shape a node's state can take — empty caches and
// never-used slabs, phantom entries planted by a fault, a freshly reset
// node, the last node id — and check that it moved no bit (under
// ASan+UBSan, `ctest -L hotpath`, they also check that it reads nothing
// out of bounds); then they run the sharded engine over the protocol
// with and without the hook in lockstep and check that both leave the
// same state and count the same work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/protocol.hpp"
#include "graph/partition.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "support/deployments.hpp"
#include "support/full_sweep_protocol.hpp"
#include "support/state_fold.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

core::DensityProtocol make_protocol(const testsupport::World& w) {
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, w.graph.max_degree());
  return core::DensityProtocol(w.ids, config, util::Rng(11));
}

std::uint64_t fold(const core::DensityProtocol& protocol) {
  testsupport::Fnv h;
  testsupport::fold_state(h, protocol);
  return h.h;
}

constexpr sim::PrefetchStage kStages[] = {sim::PrefetchStage::kRecord,
                                          sim::PrefetchStage::kState,
                                          sim::PrefetchStage::kRelays};

/// Calls the three stages on every node, far stage first as the engine
/// does, and returns whether the protocol state is bit-identical
/// afterwards.
bool hints_leave_state_alone(const core::DensityProtocol& protocol) {
  const std::uint64_t before = fold(protocol);
  for (graph::NodeId p = 0; p < protocol.node_count(); ++p) {
    for (const sim::PrefetchStage stage : kStages) protocol.prefetch(p, stage);
  }
  return fold(protocol) == before;
}

static_assert(sim::PrefetchProtocol<core::DensityProtocol>);
// The always-sweeping view hides the hook, so the differential lanes
// that drive it also run the engine's plain walks.
static_assert(!sim::PrefetchProtocol<testsupport::FullSweepProtocol>);

TEST(PrefetchHook, HintsEveryNodeShapeWithoutMovingABit) {
  const auto w = testsupport::make_deployment(300, 0.1, 4242);
  auto protocol = make_protocol(w);
  const auto last = static_cast<graph::NodeId>(w.graph.node_count() - 1);

  // Fresh: every cache empty, no slab ever allocated.
  ASSERT_TRUE(protocol.state(last).cache.empty());
  EXPECT_TRUE(hints_leave_state_alone(protocol));

  sim::PerfectDelivery loss;
  sim::ShardedNetwork<core::DensityProtocol> net(
      w.graph, protocol, loss,
      graph::plan_contiguous_shards(w.graph.node_count(), 3).bounds, 2);
  net.run(12);
  ASSERT_GT(protocol.state(last).relay_slab.cursor(), 0u);
  EXPECT_TRUE(hints_leave_state_alone(protocol));

  // Phantom entries, planted with empty relays among others.
  util::Rng chaos(5);
  ASSERT_GT(protocol.corrupt_fraction(chaos, 0.5), 0u);
  EXPECT_TRUE(hints_leave_state_alone(protocol));

  // A rebooted node: empty cache over a slab that still holds words.
  protocol.reset_node(last);
  protocol.reset_node(0);
  ASSERT_TRUE(protocol.state(last).cache.empty());
  EXPECT_TRUE(hints_leave_state_alone(protocol));
  // Out of order, as at the head of a walk, where the near stages reach
  // nodes the far ones never hinted.
  const std::uint64_t before = fold(protocol);
  protocol.prefetch(last, sim::PrefetchStage::kRelays);
  protocol.prefetch(last, sim::PrefetchStage::kState);
  protocol.prefetch(last, sim::PrefetchStage::kRecord);
  EXPECT_EQ(fold(protocol), before);
}

/// DensityProtocol with every extension but the prefetch hook: the
/// engine walks it with its plain loops.
class UnhintedProtocol {
 public:
  using FrameHeader = core::DensityProtocol::FrameHeader;
  using Digest = core::DensityProtocol::Digest;
  using Base = core::DensityProtocol;

  explicit UnhintedProtocol(Base& protocol) : p_(&protocol) {}

  [[nodiscard]] std::size_t digest_count(graph::NodeId sender) const {
    return p_->digest_count(sender);
  }
  void make_frame(graph::NodeId sender, FrameHeader& header,
                  std::span<Digest> row) const {
    p_->make_frame(sender, header, row);
  }
  void deliver(graph::NodeId receiver, const FrameHeader& header,
               std::span<const Digest> row) {
    p_->deliver(receiver, header, row);
  }
  void tick(graph::NodeId node) { p_->tick(node); }
  void end_step(graph::NodeId node) { p_->end_step(node); }
  bool redeliver_unchanged(graph::NodeId receiver, std::size_t heard) {
    return p_->redeliver_unchanged(receiver, heard);
  }
  bool deliver_payload(graph::NodeId receiver, const FrameHeader& header,
                       std::span<const Digest> row) {
    return p_->deliver_payload(receiver, header, row);
  }
  static std::size_t id_prefix(const FrameHeader& header, std::size_t len) {
    return Base::id_prefix(header, len);
  }
  static bool header_bits_equal(const FrameHeader& a, const FrameHeader& b) {
    return Base::header_bits_equal(a, b);
  }
  static bool digest_bits_equal(const Digest& a, const Digest& b) {
    return Base::digest_bits_equal(a, b);
  }
  bool maybe_tick(graph::NodeId node) { return p_->maybe_tick(node); }
  sim::Activity consume_activity(graph::NodeId node) {
    return p_->consume_activity(node);
  }
  std::vector<graph::NodeId> take_external_wakes() {
    return p_->take_external_wakes();
  }

 private:
  Base* p_;
};

static_assert(sim::RedeliveryProtocol<UnhintedProtocol>);
static_assert(sim::QuiescentProtocol<UnhintedProtocol>);
static_assert(!sim::PrefetchProtocol<UnhintedProtocol>);

/// Steps the engine over `w` cut into `shards` contiguous shards on 4
/// threads, with and without the hook, through 60 steps and two faults,
/// and checks equal state after every step and equal work counters.
void expect_hinted_walks_match_plain(const testsupport::World& w,
                                     std::size_t shards) {
  auto hinted = make_protocol(w);
  auto plain = make_protocol(w);
  UnhintedProtocol view(plain);
  sim::PerfectDelivery loss_a, loss_b;
  const auto bounds =
      graph::plan_contiguous_shards(w.graph.node_count(), shards).bounds;
  sim::ShardedNetwork<core::DensityProtocol> a(w.graph, hinted, loss_a,
                                               bounds, 4);
  sim::ShardedNetwork<UnhintedProtocol> b(w.graph, view, loss_b, bounds, 4);
  util::Rng chaos_a(9), chaos_b(9);
  for (std::size_t step = 0; step < 60; ++step) {
    if (step == 20 || step == 40) {
      ASSERT_EQ(hinted.corrupt_fraction(chaos_a, 0.2),
                plain.corrupt_fraction(chaos_b, 0.2));
    }
    a.step();
    b.step();
    ASSERT_EQ(fold(hinted), fold(plain)) << "step " << step;
  }
  EXPECT_EQ(a.rows_rebuilt(), b.rows_rebuilt());
  EXPECT_EQ(a.messages_delivered(), b.messages_delivered());
  EXPECT_EQ(a.delta_rows_graded(), b.delta_rows_graded());
  EXPECT_EQ(a.receivers_refreshed(), b.receivers_refreshed());
  EXPECT_GT(a.receivers_refreshed(), 0u);
}

TEST(PrefetchHook, HintedWalksMatchPlainWalksBitForBit) {
  // Shards of ~40 nodes: the whole-shard walks run past every lead and
  // their tails, and the queued-row walks are short.
  expect_hinted_walks_match_plain(
      testsupport::make_deployment(600, 0.075, 777), 15);
}

TEST(PrefetchHook, WalksShorterThanTheRecordLeadMatchPlainWalks) {
  // Shards of ~20 nodes, under the 24-node record lead: no walk issues
  // the record stage, the state and relay stages reach nodes whose
  // record was never hinted, and every walk is all head and tail.
  expect_hinted_walks_match_plain(
      testsupport::make_deployment(300, 0.1, 4243), 15);
}

}  // namespace
}  // namespace ssmwn
