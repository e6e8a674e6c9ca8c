// The fault-class corruptor: deterministic from its rng, class
// contracts honored (stale caches name only true neighbors, hierarchy
// loops stay on real ids, partial-frame keeps digest lists sorted), the
// planted state pinned bit for bit and reaching the head records the
// fusion scan reads, and the spellings round-trip (the campaign spec and
// the shrunk repro files both parse them).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/protocol.hpp"
#include "support/deployments.hpp"
#include "support/state_fold.hpp"
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
      EXPECT_TRUE(std::ranges::is_sorted(entry.relay.ids()))
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

core::DensityProtocol make_fusion_protocol(const graph::Graph& g,
                                           const topology::IdAssignment& ids,
                                           std::uint64_t seed) {
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  return core::DensityProtocol(ids, config, util::Rng(seed));
}

TEST(StateCorruptor, PlantedStateIsPinned) {
  // Every class's stats and planted state (support/state_fold.hpp: all a
  // rule can act on) for one seed. The corruptors draw every digest field
  // a frame could carry — the same numbers in the same order whatever the
  // cache keeps — and these values were taken when the caches still kept
  // whole digests, so a replayed certifier trial starts from the same
  // state. random-all plants phantom entries with empty relay lists and
  // cluster-id-noise writes shared variables only, so neither mutates a
  // digest.
  struct Pin {
    FaultClass fault;
    std::size_t nodes, entries, digests;
    std::uint64_t state;
  };
  const Pin pins[] = {
      {FaultClass::kRandomAll, 60, 0, 0, 0x5a45f411fe09e871ULL},
      {FaultClass::kMetricSkew, 60, 404, 3176, 0xa54e101a57617c85ULL},
      {FaultClass::kClusterIdNoise, 60, 0, 0, 0xa25bd5be62e2adbfULL},
      {FaultClass::kStaleCache, 60, 404, 3176, 0x84ccf06345f23012ULL},
      {FaultClass::kHierarchyLoops, 60, 404, 3176, 0x539c91cb3a4e81a5ULL},
      {FaultClass::kPartialFrame, 60, 404, 525, 0x16e9860a1e13ab2eULL},
  };
  const auto w = testsupport::make_deployment(60, 0.2, 31);
  const verify::StateCorruptor corruptor(w.graph, w.ids);
  for (const Pin& pin : pins) {
    auto protocol = make_fusion_protocol(w.graph, w.ids, 7);
    util::Rng rng(101);
    const auto stats = corruptor.apply(protocol, pin.fault, rng);
    EXPECT_EQ(stats.nodes_touched, pin.nodes) << to_string(pin.fault);
    EXPECT_EQ(stats.cache_entries_planted, pin.entries) << to_string(pin.fault);
    EXPECT_EQ(stats.digests_mutated, pin.digests) << to_string(pin.fault);
    testsupport::Fnv h;
    testsupport::fold_state(h, protocol);
    EXPECT_EQ(h.h, pin.state) << to_string(pin.fault);
  }
}

TEST(StateCorruptor, DigestClassesPlantHeadRecordsTheFusionScanReads) {
  // The classes that draw head bits at random. hierarchy-loops marks a
  // relayed neighbor as head only when its bogus head is itself (about
  // one node in n), so it can plant none.
  const auto w = testsupport::make_deployment(60, 0.2, 31);
  const verify::StateCorruptor corruptor(w.graph, w.ids);
  for (const FaultClass fault : {FaultClass::kMetricSkew,
                                 FaultClass::kStaleCache,
                                 FaultClass::kPartialFrame}) {
    auto protocol = make_fusion_protocol(w.graph, w.ids, 7);
    util::Rng rng(101);
    (void)corruptor.apply(protocol, fault, rng);
    std::size_t records = 0;
    for (graph::NodeId p = 0; p < w.graph.node_count(); ++p) {
      for (const auto& item : protocol.state(p).cache) {
        if (!item.second.relay.has_head()) continue;
        ++records;
        EXPECT_NE(item.second.relay.head().id, protocol.state(p).uid)
            << "a node's fusion scan never reads a record naming itself";
      }
    }
    EXPECT_GT(records, 0u) << to_string(fault);
  }
}

TEST(StateCorruptor, PlantedDominatingHeadDemotesALocalMaximum) {
  // Node 0 (id 10) outranks its only neighbor (id 20), so it is a local
  // maximum; a head record planted in 20's relay list names a 2-hop head
  // (id 30) that outranks node 0, and node 0's first sweep fuses into
  // it through 20.
  const auto g = graph::from_edges(2, {{0, 1}});
  for (const bool planted : {false, true}) {
    auto protocol = make_fusion_protocol(g, {10, 20}, 3);
    auto s = protocol.mutable_state(0);
    auto& entry = s.cache[20];
    entry.metric = 0.5;
    entry.metric_valid = true;
    entry.head = 30;
    entry.head_valid = true;
    const topology::ProtocolId ids[] = {10, 30};
    const core::HeadRecord heads[] = {{30, 1, 9.0}};
    protocol.plant_relay(0, entry, ids,
                         planted ? std::span<const core::HeadRecord>(heads)
                                 : std::span<const core::HeadRecord>());
    protocol.tick(0);
    const auto after = protocol.state(0);
    ASSERT_TRUE(after.head_valid);
    if (planted) {
      EXPECT_EQ(after.parent, 20u);
      EXPECT_EQ(after.head, 30u);
    } else {
      EXPECT_EQ(after.head, 10u);
      EXPECT_EQ(after.parent, 10u);
    }
  }
}

}  // namespace
}  // namespace ssmwn
