// Parallel step engine: synchronous semantics must be thread-count
// invariant (the threads-only constructor cuts one shard per worker),
// and the engine must be indistinguishable from the owning-frame
// reference stepper — including the RNG draw order of stateful loss
// models.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "core/protocol.hpp"
#include "graph/graph.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "support/reference_stepper.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

static_assert(sim::ArenaProtocol<core::DensityProtocol>,
              "DensityProtocol must support the arena engine");

struct Fixture {
  graph::Graph graph;
  topology::IdAssignment ids;
};

Fixture geometric_fixture(std::size_t n, double radius, std::uint64_t seed) {
  util::Rng rng(seed);
  Fixture f;
  const auto pts = topology::uniform_points(n, rng);
  f.graph = topology::unit_disk_graph(pts, radius);
  f.ids = topology::random_ids(n, rng);
  return f;
}

core::DensityProtocol make_protocol(const Fixture& f, std::uint64_t seed) {
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;  // exercises the randomized N1 rule
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, f.graph.max_degree());
  return core::DensityProtocol(f.ids, config, util::Rng(seed));
}

bool relays_equal(const core::RelayList& a, const core::RelayList& b) {
  return a.has_head() == b.has_head() &&
         std::ranges::equal(a.words(), b.words());
}

/// Bit-identical protocol state: every shared variable, every cache entry
/// (doubles compared bitwise, not with tolerance).
::testing::AssertionResult states_identical(const core::DensityProtocol& a,
                                            const core::DensityProtocol& b) {
  if (a.node_count() != b.node_count()) {
    return ::testing::AssertionFailure() << "node counts differ";
  }
  for (graph::NodeId p = 0; p < a.node_count(); ++p) {
    const auto& sa = a.state(p);
    const auto& sb = b.state(p);
    if (sa.uid != sb.uid || sa.dag_id != sb.dag_id ||
        std::memcmp(&sa.metric, &sb.metric, sizeof(double)) != 0 ||
        sa.metric_valid != sb.metric_valid || sa.head != sb.head ||
        sa.head_valid != sb.head_valid || sa.parent != sb.parent ||
        sa.parent_valid != sb.parent_valid) {
      return ::testing::AssertionFailure()
             << "shared variables differ at node " << p;
    }
    if (sa.cache.size() != sb.cache.size()) {
      return ::testing::AssertionFailure()
             << "cache sizes differ at node " << p;
    }
    auto ita = sa.cache.begin();
    auto itb = sb.cache.begin();
    for (; ita != sa.cache.end(); ++ita, ++itb) {
      if (ita->first != itb->first || ita->second.dag_id != itb->second.dag_id ||
          std::memcmp(&ita->second.metric, &itb->second.metric,
                      sizeof(double)) != 0 ||
          ita->second.metric_valid != itb->second.metric_valid ||
          ita->second.head != itb->second.head ||
          ita->second.head_valid != itb->second.head_valid ||
          ita->second.age != itb->second.age ||
          !relays_equal(ita->second.relay, itb->second.relay)) {
        return ::testing::AssertionFailure()
               << "cache entry differs at node " << p;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ParallelStep, NThreadStateIsBitIdenticalToOneThread) {
  const auto f = geometric_fixture(250, 0.1, 99);
  for (unsigned threads : {2u, 4u, 8u}) {
    auto serial = make_protocol(f, 7);
    auto parallel = make_protocol(f, 7);
    sim::PerfectDelivery loss_a, loss_b;
    sim::Network net_serial(f.graph, serial, loss_a, 1);
    sim::Network net_parallel(f.graph, parallel, loss_b, threads);
    ASSERT_EQ(net_parallel.thread_count(), threads);

    for (int s = 0; s < 12; ++s) {
      net_serial.step();
      net_parallel.step();
      ASSERT_TRUE(states_identical(serial, parallel))
          << "threads=" << threads << " step=" << s;
    }
  }
}

TEST(ParallelStep, DeterminismSurvivesCorruptionRecovery) {
  // The self-stabilization scenario: scramble every node, then recover.
  // Both engines must walk the exact same recovery trajectory.
  const auto f = geometric_fixture(150, 0.12, 5);
  auto serial = make_protocol(f, 3);
  auto parallel = make_protocol(f, 3);
  sim::PerfectDelivery loss_a, loss_b;
  sim::Network net_serial(f.graph, serial, loss_a, 1);
  sim::Network net_parallel(f.graph, parallel, loss_b, 4);

  net_serial.run(5);
  net_parallel.run(5);
  util::Rng chaos_a(77), chaos_b(77);
  serial.corrupt_all(chaos_a);
  parallel.corrupt_all(chaos_b);
  for (int s = 0; s < 20; ++s) {
    net_serial.step();
    net_parallel.step();
    ASSERT_TRUE(states_identical(serial, parallel)) << "step " << s;
  }
}

TEST(ParallelStep, ArenaEngineMatchesLegacyEngineUnderLoss) {
  // Same seeds, one population on the owning-frame reference stepper,
  // one on the arena engine: the Bernoulli medium must draw the same
  // per-edge sequence and the protocols must stay in lockstep.
  const auto f = geometric_fixture(120, 0.12, 21);
  auto reference = make_protocol(f, 9);
  auto arena = make_protocol(f, 9);
  sim::BernoulliDelivery loss_a(0.7, util::Rng(13));
  sim::BernoulliDelivery loss_b(0.7, util::Rng(13));
  testsupport::ReferenceStepper net_ref(f.graph, reference, loss_a);
  sim::Network net_arena(f.graph, arena, loss_b, 1);

  for (int s = 0; s < 25; ++s) {
    net_ref.step();
    net_arena.step();
    ASSERT_TRUE(states_identical(reference, arena)) << "step " << s;
  }
}

TEST(ThreadPoolGrain, SmallCountsNeverStarveOrRepeatIndices) {
  // Regression for the auto-grain heuristic: when count < 4 × threads
  // the quotient underflows to 0 and only the max(1, ...) floor keeps
  // the chunk cursor advancing. Every index must be hit exactly once
  // for counts straddling that edge.
  sim::ThreadPool pool(8);
  for (std::size_t count : {1u, 2u, 3u, 7u, 31u, 32u, 33u, 100u}) {
    std::vector<std::atomic<int>> hits(count);
    for (auto& h : hits) h.store(0);
    struct Ctx {
      std::vector<std::atomic<int>>* hits;
    } ctx{&hits};
    pool.parallel_for(
        count, /*grain=*/0,
        [](void* raw, std::size_t begin, std::size_t end) {
          auto& c = *static_cast<Ctx*>(raw);
          for (std::size_t i = begin; i < end; ++i) {
            (*c.hits)[i].fetch_add(1, std::memory_order_relaxed);
          }
        },
        &ctx);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "count=" << count << " index=" << i;
    }
  }
}

TEST(ThreadPoolGrain, ZeroCountIsANoOp) {
  sim::ThreadPool pool(4);
  bool touched = false;
  pool.parallel_for(
      0, 0,
      [](void* raw, std::size_t, std::size_t) {
        *static_cast<bool*>(raw) = true;
      },
      &touched);
  EXPECT_FALSE(touched);
}

}  // namespace
}  // namespace ssmwn
