// The fault-class corruptor: deterministic from its rng, class
// contracts honored (stale caches name only true neighbors, hierarchy
// loops stay on real ids, partial-frame keeps digest lists sorted), and
// the spellings round-trip (the campaign spec and the shrunk repro
// files both parse them).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/protocol.hpp"
#include "support/deployments.hpp"
#include "support/paper_example.hpp"
#include "util/enum_names.hpp"
#include "verify/faults.hpp"

namespace ssmwn {
namespace {

using verify::FaultClass;
using verify::kAllFaultClasses;

core::DensityProtocol make_protocol(const graph::Graph& g,
                                    const topology::IdAssignment& ids,
                                    std::uint64_t seed) {
  core::ProtocolConfig config;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  return core::DensityProtocol(ids, config, util::Rng(seed));
}

TEST(StateCorruptor, SpellingsRoundTrip) {
  for (const FaultClass fault : kAllFaultClasses) {
    EXPECT_EQ(util::parse_enum<FaultClass>("fault_class", to_string(fault)),
              fault);
  }
  for (const verify::Daemon daemon : verify::kAllDaemons) {
    EXPECT_EQ(util::parse_enum<verify::Daemon>("daemon", to_string(daemon)),
              daemon);
  }
  EXPECT_THROW((void)util::parse_enum<FaultClass>("fault_class", "bitflip"),
               std::invalid_argument);
  EXPECT_THROW((void)util::parse_enum<verify::Daemon>("daemon", "byzantine"),
               std::invalid_argument);
}

TEST(StateCorruptor, DeterministicFromRngState) {
  const auto w = testsupport::make_deployment(40, 0.18, 11);
  const verify::StateCorruptor corruptor(w.graph, w.ids);
  for (const FaultClass fault : kAllFaultClasses) {
    auto a = make_protocol(w.graph, w.ids, 5);
    auto b = make_protocol(w.graph, w.ids, 5);
    util::Rng rng_a(99), rng_b(99);
    const auto stats_a = corruptor.apply(a, fault, rng_a);
    const auto stats_b = corruptor.apply(b, fault, rng_b);
    EXPECT_EQ(stats_a.nodes_touched, stats_b.nodes_touched);
    EXPECT_EQ(stats_a.cache_entries_planted, stats_b.cache_entries_planted);
    EXPECT_EQ(stats_a.digests_mutated, stats_b.digests_mutated);
    for (graph::NodeId p = 0; p < w.graph.node_count(); ++p) {
      const auto& sa = a.state(p);
      const auto& sb = b.state(p);
      EXPECT_EQ(sa.dag_id, sb.dag_id) << "node " << p;
      EXPECT_EQ(sa.metric, sb.metric) << "node " << p;
      EXPECT_EQ(sa.head, sb.head) << "node " << p;
      EXPECT_EQ(sa.parent, sb.parent) << "node " << p;
      ASSERT_EQ(sa.cache.size(), sb.cache.size()) << "node " << p;
    }
  }
}

TEST(StateCorruptor, EveryClassTouchesEveryNode) {
  const auto w = testsupport::make_deployment(30, 0.2, 3);
  const verify::StateCorruptor corruptor(w.graph, w.ids);
  for (const FaultClass fault : kAllFaultClasses) {
    auto protocol = make_protocol(w.graph, w.ids, 1);
    util::Rng rng(42);
    const auto stats = corruptor.apply(protocol, fault, rng);
    EXPECT_EQ(stats.nodes_touched, w.graph.node_count())
        << verify::to_string(fault);
  }
}

TEST(StateCorruptor, StaleCacheNamesOnlyTrueNeighbors) {
  // The paper-example graph from tests/support — the shared fixture the
  // verify suite reuses instead of a private copy.
  const auto g = testsupport::paper_example_graph();
  const auto ids = testsupport::paper_example_ids();
  auto protocol = make_protocol(g, ids, 2);
  util::Rng rng(7);
  const verify::StateCorruptor corruptor(g, ids);
  (void)corruptor.apply(protocol, FaultClass::kStaleCache, rng);
  for (graph::NodeId p = 0; p < g.node_count(); ++p) {
    const auto& s = protocol.state(p);
    EXPECT_EQ(s.cache.size(), g.degree(p)) << "node " << p;
    // Valid flags all set (the "plausible" part of plausible-but-wrong).
    EXPECT_TRUE(s.metric_valid);
    EXPECT_TRUE(s.head_valid);
    EXPECT_TRUE(s.parent_valid);
    for (const auto& [id, entry] : s.cache) {
      bool is_neighbor = false;
      for (const graph::NodeId q : g.neighbors(p)) {
        is_neighbor |= ids[q] == id;
      }
      EXPECT_TRUE(is_neighbor) << "phantom id " << id << " at node " << p;
      EXPECT_LE(entry.age, protocol.config().cache_max_age);
    }
  }
}

TEST(StateCorruptor, HierarchyLoopsStayOnRealIds) {
  const auto w = testsupport::make_deployment(25, 0.25, 17);
  auto protocol = make_protocol(w.graph, w.ids, 4);
  util::Rng rng(13);
  const verify::StateCorruptor corruptor(w.graph, w.ids);
  (void)corruptor.apply(protocol, FaultClass::kHierarchyLoops, rng);
  // ids are a permutation of 0..n-1, so "real" is just < n.
  for (graph::NodeId p = 0; p < w.graph.node_count(); ++p) {
    const auto& s = protocol.state(p);
    EXPECT_TRUE(s.head_valid);
    EXPECT_TRUE(s.parent_valid);
    EXPECT_LT(s.head, w.graph.node_count());
    EXPECT_LT(s.parent, w.graph.node_count());
  }
}

TEST(StateCorruptor, PartialFrameKeepsDigestListsSorted) {
  const auto w = testsupport::make_deployment(35, 0.2, 23);
  auto protocol = make_protocol(w.graph, w.ids, 6);
  util::Rng rng(19);
  const verify::StateCorruptor corruptor(w.graph, w.ids);
  const auto stats =
      corruptor.apply(protocol, FaultClass::kPartialFrame, rng);
  EXPECT_GT(stats.digests_mutated, 0u);
  for (graph::NodeId p = 0; p < w.graph.node_count(); ++p) {
    for (const auto& [id, entry] : protocol.state(p).cache) {
      EXPECT_TRUE(std::is_sorted(
          entry.digests.begin(), entry.digests.end(),
          [](const core::NeighborDigest& a, const core::NeighborDigest& b) {
            return a.id < b.id;
          }))
          << "node " << p << " entry " << id;
    }
  }
}

TEST(StateCorruptor, ClusterIdNoiseLeavesMetricsAlone) {
  const auto w = testsupport::make_deployment(30, 0.2, 29);
  auto clean = make_protocol(w.graph, w.ids, 8);
  auto noisy = make_protocol(w.graph, w.ids, 8);
  util::Rng rng(31);
  const verify::StateCorruptor corruptor(w.graph, w.ids);
  (void)corruptor.apply(noisy, FaultClass::kClusterIdNoise, rng);
  std::size_t changed_heads = 0;
  for (graph::NodeId p = 0; p < w.graph.node_count(); ++p) {
    EXPECT_EQ(noisy.state(p).metric, clean.state(p).metric);
    EXPECT_EQ(noisy.state(p).metric_valid, clean.state(p).metric_valid);
    changed_heads += noisy.state(p).head != clean.state(p).head;
  }
  EXPECT_GT(changed_heads, 0u);
}

}  // namespace
}  // namespace ssmwn
