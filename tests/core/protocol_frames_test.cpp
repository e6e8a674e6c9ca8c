// Frame-level unit tests of the distributed protocol: what goes into a
// broadcast, how caches absorb deliveries, and when entries age out.
#include <gtest/gtest.h>

#include "core/protocol.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "topology/ids.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

core::ProtocolConfig tiny_config() {
  core::ProtocolConfig config;
  config.delta_hint = 4;
  config.cache_max_age = 3;
  return config;
}

using Frame = sim::FrameBuffer<core::DensityProtocol>;

/// A frame as node `p` of `protocol` would broadcast it now.
Frame frame_of(const core::DensityProtocol& protocol, graph::NodeId p) {
  Frame frame;
  frame.build_from(protocol, p);
  return frame;
}

TEST(ProtocolFrames, FrameCarriesSharedVariables) {
  core::DensityProtocol protocol({7, 9}, tiny_config(), util::Rng(1));
  auto s = protocol.mutable_state(0);
  s.metric = 1.25;
  s.metric_valid = true;
  s.head = 7;
  s.head_valid = true;
  const auto frame = frame_of(protocol, 0);
  EXPECT_EQ(frame.header.id, 7u);
  EXPECT_DOUBLE_EQ(frame.header.metric, 1.25);
  EXPECT_TRUE(frame.header.metric_valid);
  EXPECT_EQ(frame.header.head, 7u);
  EXPECT_TRUE(frame.header.head_valid);
  EXPECT_TRUE(frame.digests.empty());  // cold cache -> no digests
}

TEST(ProtocolFrames, DigestsMirrorTheCacheSortedById) {
  core::DensityProtocol protocol({1, 2, 3}, tiny_config(), util::Rng(2));
  // Deliver frames from nodes with ids 3 then 2 into node 0's cache.
  Frame from3;
  from3.header.id = 3;
  from3.header.metric = 2.0;
  from3.header.metric_valid = true;
  from3.header.head = 3;
  from3.header.head_valid = true;
  Frame from2;
  from2.header.id = 2;
  from2.header.metric = 1.0;
  from2.header.metric_valid = true;
  from3.deliver_to(protocol, 0);
  from2.deliver_to(protocol, 0);

  const auto frame = frame_of(protocol, 0);
  ASSERT_EQ(frame.digests.size(), 2u);
  EXPECT_EQ(frame.digests[0].id, 2u);  // sorted ascending by id
  EXPECT_EQ(frame.digests[1].id, 3u);
  EXPECT_TRUE(frame.digests[1].is_head);   // head==id and valid
  EXPECT_FALSE(frame.digests[0].is_head);  // head not valid
}

TEST(ProtocolFrames, SelfFramesAreIgnored) {
  core::DensityProtocol protocol({5}, tiny_config(), util::Rng(3));
  Frame self;
  self.header.id = 5;
  self.deliver_to(protocol, 0);
  EXPECT_TRUE(protocol.state(0).cache.empty());
}

TEST(ProtocolFrames, CacheEntriesAgeOutAfterMaxAge) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  g.finalize();
  core::DensityProtocol protocol({1, 2}, tiny_config(), util::Rng(4));
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss);
  network.step();
  ASSERT_EQ(protocol.state(0).cache.size(), 1u);

  // Disconnect and run: the entry ages once in the step it arrived, so
  // it survives max_age - 1 further silent steps and is evicted on the
  // next one.
  graph::Graph empty(2);
  network.set_graph(empty);
  network.run(tiny_config().cache_max_age - 1);
  EXPECT_EQ(protocol.state(0).cache.size(), 1u);
  network.step();
  EXPECT_TRUE(protocol.state(0).cache.empty());
}

TEST(ProtocolFrames, FreshDeliveryResetsAge) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  g.finalize();
  core::DensityProtocol protocol({1, 2}, tiny_config(), util::Rng(5));
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss);
  // Run many steps with delivery every step: nothing may ever age out.
  network.run(20);
  EXPECT_EQ(protocol.state(0).cache.size(), 1u);
  EXPECT_EQ(protocol.state(1).cache.size(), 1u);
}

TEST(ProtocolFrames, DensityFromRelayedDigests) {
  // Triangle: after two steps each node must believe density 1.5, having
  // reconstructed the neighbor-neighbor link from digests.
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.finalize();
  core::DensityProtocol protocol({1, 2, 3}, tiny_config(), util::Rng(6));
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss);
  network.run(2);
  for (graph::NodeId p = 0; p < 3; ++p) {
    EXPECT_DOUBLE_EQ(protocol.state(p).metric, 1.5) << "node " << p;
  }
}

TEST(ProtocolFrames, PhantomCacheEntriesEvictEvenWithoutTraffic) {
  // A corrupted cache names nodes that do not exist; with no frames ever
  // arriving for them, aging must clear the phantoms.
  graph::Graph g(1);
  core::DensityProtocol protocol({1}, tiny_config(), util::Rng(7));
  util::Rng chaos(8);
  protocol.corrupt_all(chaos);
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss);
  network.run(tiny_config().cache_max_age + 2);
  EXPECT_TRUE(protocol.state(0).cache.empty());
  // And the lone node has elected itself.
  EXPECT_TRUE(protocol.state(0).head_valid);
  EXPECT_EQ(protocol.state(0).head, 1u);
}

}  // namespace
}  // namespace ssmwn
