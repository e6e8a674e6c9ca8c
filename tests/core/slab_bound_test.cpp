// Bounded two-hop state. A node's relay slab compacts in place before it
// would grow, so repeated faults cannot ratchet its capacity upward:
// after recovery from any fault, Σ slab capacity stays within twice the
// live relay words (plus a small per-node floor), Σ cache capacity
// within twice the cached entries, and the slab total stops growing
// once every node has seen its largest relay lists. The unit cases pin the
// compaction itself: spans slide down in offset order over overlapping
// ranges (a memmove the sanitizer job checks), keep their words, and
// never allocate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/protocol.hpp"
#include "core/slab_pool.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

using core::RelayList;
using core::RelaySlab;
using core::RelayWord;

/// Visits every list of `lists` (the compaction's view of a cache).
auto visit_all(std::vector<RelayList>& lists) {
  return [&lists](auto&& visit) {
    for (RelayList& list : lists) visit(list);
  };
}

/// Fills `list` with `ids` consecutive words starting at `first`.
void fill(RelayList& list, std::vector<RelayList>& lists, std::size_t ids,
          RelayWord first) {
  RelayWord* dst = list.rewrite(ids, 0, visit_all(lists));
  for (std::size_t k = 0; k < ids; ++k) dst[k] = first + k;
}

bool holds(const RelayList& list, std::size_t ids, RelayWord first) {
  if (list.ids().size() != ids) return false;
  for (std::size_t k = 0; k < ids; ++k) {
    if (list.ids()[k] != first + k) return false;
  }
  return true;
}

TEST(RelaySlab, CompactsInPlaceBeforeGrowing) {
  RelaySlab slab;
  std::vector<RelayList> lists(4);
  for (RelayList& list : lists) list.attach(slab);
  // A 60-word request sizes the buffer to 90; releasing it rewinds.
  fill(lists[1], lists, 60, 0);
  ASSERT_EQ(slab.buffer_capacity(), 90u);
  lists[1] = RelayList{};
  ASSERT_EQ(slab.cursor(), 0u);
  // [0,2) list 0 | [2,5) list 2 | [5,25) list 3 | [25,65) list 1, then
  // lists 2 and 1 die: a small hole under list 3, a large one above it.
  fill(lists[0], lists, 2, 100);
  lists[2].attach(slab);
  fill(lists[2], lists, 3, 200);
  fill(lists[3], lists, 20, 300);
  lists[1].attach(slab);
  fill(lists[1], lists, 40, 400);
  lists[2] = RelayList{};
  lists[1] = RelayList{};
  ASSERT_EQ(slab.cursor(), 65u);
  ASSERT_EQ(slab.dead(), 43u);
  // 50 more words do not fit past the cursor but fit once the 43 dead
  // words are gone: list 3 slides down by 3 over its own span, and the
  // buffer does not grow.
  lists[1].attach(slab);
  fill(lists[1], lists, 50, 500);
  EXPECT_EQ(slab.buffer_capacity(), 90u);
  EXPECT_EQ(slab.dead(), 0u);
  EXPECT_EQ(slab.cursor(), 2u + 20u + 50u);
  EXPECT_TRUE(holds(lists[0], 2, 100));
  EXPECT_TRUE(holds(lists[3], 20, 300));
  EXPECT_TRUE(holds(lists[1], 50, 500));
}

TEST(RelaySlab, GrowsToOneAndAHalfTimesTheLiveWordsWhenFull) {
  RelaySlab slab;
  std::vector<RelayList> lists(3);
  for (RelayList& list : lists) list.attach(slab);
  fill(lists[0], lists, 10, 0);
  ASSERT_EQ(slab.buffer_capacity(), 16u);  // the smallest buffer
  fill(lists[1], lists, 6, 50);
  ASSERT_EQ(slab.buffer_capacity(), 16u);
  fill(lists[2], lists, 20, 90);  // 36 live words: grows to 54
  EXPECT_EQ(slab.buffer_capacity(), 54u);
  EXPECT_TRUE(holds(lists[0], 10, 0));
  EXPECT_TRUE(holds(lists[1], 6, 50));
  EXPECT_TRUE(holds(lists[2], 20, 90));
  // Releasing everything rewinds the cursor for free.
  for (RelayList& list : lists) list = RelayList{};
  EXPECT_EQ(slab.cursor(), 0u);
}

struct Totals {
  std::uint64_t slab_capacity = 0;
  std::uint64_t live_words = 0;
  std::uint64_t cache_capacity = 0;
  std::uint64_t cache_size = 0;
};

Totals census(const core::DensityProtocol& protocol) {
  Totals t;
  for (graph::NodeId p = 0; p < protocol.node_count(); ++p) {
    const auto s = protocol.state(p);
    t.slab_capacity += s.relay_slab.buffer_capacity();
    for (const auto& item : s.cache) {
      t.live_words += item.second.relay.word_count();
    }
    t.cache_capacity += s.cache.capacity();
    t.cache_size += s.cache.size();
  }
  return t;
}

TEST(RelaySlab, RepeatedFaultsDoNotRatchetCapacity) {
  const double lambda = 3000.0;
  util::Rng rng(41);
  const double radius = std::sqrt(8.0 / (M_PI * lambda));
  const auto points = topology::poisson_points(lambda, rng);
  const auto g = topology::unit_disk_graph(points, radius);
  const auto ids = topology::random_ids(g.node_count(), rng);
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  core::DensityProtocol protocol(ids, config, util::Rng(43));
  sim::PerfectDelivery loss;
  sim::ShardedNetwork<core::DensityProtocol> net(g, protocol, loss);
  net.run(40);

  // Per node, the slab's smallest buffer.
  const std::uint64_t floor = 16 * g.node_count();
  util::Rng faults(47);
  std::uint64_t after_epoch3 = 0;
  for (int epoch = 1; epoch <= 12; ++epoch) {
    protocol.corrupt_fraction(faults, 0.1);
    net.run(26);
    const Totals t = census(protocol);
    EXPECT_LE(t.slab_capacity, 2 * t.live_words + floor)
        << "epoch " << epoch;
    EXPECT_LE(t.cache_capacity, 2 * t.cache_size) << "epoch " << epoch;
    if (epoch == 3) after_epoch3 = t.slab_capacity;
    if (epoch == 12) {
      EXPECT_LE(static_cast<double>(t.slab_capacity),
                1.05 * static_cast<double>(after_epoch3));
    }
  }
}

}  // namespace
}  // namespace ssmwn
