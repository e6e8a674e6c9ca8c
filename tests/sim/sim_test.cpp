// Unit tests for the radio runtime: loss models and synchronous network
// semantics (double buffering, per-receiver delivery).
#include <gtest/gtest.h>

#include <span>
#include <stdexcept>

#include "graph/graph.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ssmwn {
namespace {

/// Frames of the test protocols are header-only: the arena extension
/// with no digests, the smallest protocol the engine steps.
struct NoDigest {};

/// Minimal counting protocol: every node broadcasts its current value;
/// receivers sum what they hear; tick adds 1 to the value. Exposes the
/// exact synchronous semantics (frames snapshot pre-tick state).
struct CountingProtocol {
  struct FrameHeader {
    graph::NodeId sender;
    int value;
  };
  using Digest = NoDigest;

  explicit CountingProtocol(std::size_t n)
      : value(n, 0), received_sum(n, 0), deliveries(n, 0) {}

  std::size_t digest_count(graph::NodeId) const { return 0; }
  void make_frame(graph::NodeId sender, FrameHeader& header,
                  std::span<Digest>) const {
    header = FrameHeader{sender, value[sender]};
  }
  void deliver(graph::NodeId receiver, const FrameHeader& header,
               std::span<const Digest>) {
    received_sum[receiver] += header.value;
    ++deliveries[receiver];
  }
  void tick(graph::NodeId node) { ++value[node]; }
  void end_step(graph::NodeId) {}

  std::vector<int> value;
  std::vector<int> received_sum;
  std::vector<int> deliveries;
};

TEST(Network, PerfectDeliveryReachesAllNeighbors) {
  const auto g = graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  CountingProtocol protocol(4);
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss);
  network.step();
  EXPECT_EQ(protocol.deliveries[0], 1);  // hears node 1
  EXPECT_EQ(protocol.deliveries[1], 2);  // hears 0 and 2
  EXPECT_EQ(protocol.deliveries[2], 2);
  EXPECT_EQ(protocol.deliveries[3], 1);
  EXPECT_EQ(network.steps_run(), 1u);
}

TEST(Network, FramesSnapshotPreTickState) {
  // After step 1 every value is 1; step 2's frames must carry 1 (the
  // pre-tick snapshot), so received sums grow by degree * 1.
  const auto g = graph::from_edges(2, {{0, 1}});
  CountingProtocol protocol(2);
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss);
  network.step();  // frames carry 0
  EXPECT_EQ(protocol.received_sum[0], 0);
  network.step();  // frames carry 1
  EXPECT_EQ(protocol.received_sum[0], 1);
  network.step();  // frames carry 2
  EXPECT_EQ(protocol.received_sum[0], 3);
}

TEST(Network, RunExecutesExactly) {
  graph::Graph g(3);
  CountingProtocol protocol(3);
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss);
  network.run(7);
  EXPECT_EQ(network.steps_run(), 7u);
  for (int v : protocol.value) EXPECT_EQ(v, 7);
}

TEST(Network, GraphSwapChangesConnectivity) {
  const auto g1 = graph::from_edges(3, {{0, 1}});
  const auto g2 = graph::from_edges(3, {{1, 2}});
  CountingProtocol protocol(3);
  sim::PerfectDelivery loss;
  sim::Network network(g1, protocol, loss);
  network.step();
  EXPECT_EQ(protocol.deliveries[2], 0);
  network.set_graph(g2);
  network.step();
  EXPECT_EQ(protocol.deliveries[2], 1);
  EXPECT_EQ(protocol.deliveries[0], 1);  // only from step 1
}

TEST(Loss, BernoulliRespectsTau) {
  const auto g = graph::from_edges(2, {{0, 1}});
  const double tau = 0.3;
  CountingProtocol protocol(2);
  sim::BernoulliDelivery loss(tau, util::Rng(5));
  sim::Network network(g, protocol, loss);
  const int steps = 5000;
  network.run(steps);
  const double observed =
      static_cast<double>(protocol.deliveries[0]) / steps;
  EXPECT_NEAR(observed, tau, 0.03);
}

TEST(Loss, BernoulliRejectsBadTau) {
  EXPECT_THROW(sim::BernoulliDelivery(0.0, util::Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(sim::BernoulliDelivery(1.5, util::Rng(1)),
               std::invalid_argument);
}

TEST(Loss, BroadcastCollisionLosesWholeFrame) {
  // A triangle: when node 0's frame collides, *neither* neighbor hears
  // it that step — deliveries from node 0 to 1 and 2 are perfectly
  // correlated.
  const auto g = graph::from_edges(3, {{0, 1}, {0, 2}, {1, 2}});

  struct RecordingProtocol {
    struct FrameHeader {
      graph::NodeId sender;
    };
    using Digest = NoDigest;
    std::size_t digest_count(graph::NodeId) const { return 0; }
    void make_frame(graph::NodeId sender, FrameHeader& header,
                    std::span<Digest>) const {
      header = FrameHeader{sender};
    }
    void deliver(graph::NodeId receiver, const FrameHeader& header,
                 std::span<const Digest>) {
      if (header.sender == 0) heard_zero[receiver] = true;
    }
    void tick(graph::NodeId) {}
    void end_step(graph::NodeId) {}
    bool heard_zero[3] = {false, false, false};
  };

  RecordingProtocol protocol;
  sim::BroadcastCollision loss(0.5, 3, util::Rng(6));
  sim::Network network(g, protocol, loss);
  int mismatch = 0;
  int heard = 0;
  for (int step = 0; step < 2000; ++step) {
    protocol.heard_zero[1] = protocol.heard_zero[2] = false;
    network.step();
    if (protocol.heard_zero[1] != protocol.heard_zero[2]) ++mismatch;
    if (protocol.heard_zero[1]) ++heard;
  }
  EXPECT_EQ(mismatch, 0);
  EXPECT_NEAR(heard / 2000.0, 0.5, 0.05);
}

TEST(Loss, PerfectDeliveryAlwaysTrue) {
  sim::PerfectDelivery loss;
  EXPECT_TRUE(loss.delivered(0, 1));
}

}  // namespace
}  // namespace ssmwn
