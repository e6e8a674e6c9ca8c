// The redelivery fast paths: when the step engine proves every frame row
// a receiver hears bit-identical to last step's, its whole delivery batch
// collapses to one age reset of its cache; a row whose id sequence held
// (payloads may churn) collapses to a straight payload overwrite. These
// paths are pure cost model — every test here pins them bitwise against
// an execution that never takes them, including across the external
// mutations (faults, topology deltas) that must force a resync.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "graph/partition.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "support/divergence.hpp"
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
                                    std::uint64_t seed,
                                    std::uint32_t cache_max_age = 8) {
  core::ProtocolConfig config;
  config.cache_max_age = cache_max_age;
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
    const auto div = testsupport::first_divergent_node(fast, slow);
    ASSERT_EQ(div, std::nullopt)
        << "step " << step << ":\n"
        << testsupport::describe_divergence(fast, slow, *div);
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
    const auto div = testsupport::first_divergent_node(fast, slow);
    ASSERT_EQ(div, std::nullopt)
        << "window " << window << ":\n"
        << testsupport::describe_divergence(fast, slow, *div);
  }
}

/// Plants a cache entry for a uid no node holds, through the fault
/// injector's door (`mutable_state` raises the resync flag). A phantom
/// that claims to be a head may win elections; a silent one carries no
/// valid metric or head, so only its holder's density and row id list
/// move.
void plant_phantom(core::DensityProtocol& protocol, graph::NodeId q,
                   topology::ProtocolId id, bool claims_head = true) {
  auto s = protocol.mutable_state(q);
  auto& entry = s.cache[id];
  entry.age = 0;
  if (!claims_head) return;
  entry.dag_id = 7;
  entry.metric = 3.5;
  entry.metric_valid = true;
  entry.head = id;
  entry.head_valid = true;
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

  graph::NodeId receiver = 0;
  while (g.degree(receiver) == 0) {
    ++receiver;
    ASSERT_LT(receiver, n) << "deployment has no edge";
  }
  const graph::NodeId sender = g.neighbors(receiver)[0];
  const std::size_t heard = g.degree(receiver);
  ASSERT_EQ(protocol.state(receiver).cache.size(), heard);

  core::DensityProtocol::FrameHeader header;
  std::vector<core::DensityProtocol::Digest> digests(
      protocol.digest_count(sender));
  protocol.make_frame(sender, header, digests);

  // Settled and untouched: both fast paths accept, and the per-receiver
  // one leaves every entry freshly heard (end_step aged them to 1).
  EXPECT_TRUE(protocol.redeliver_unchanged(receiver, heard));
  for (const auto& item : protocol.state(receiver).cache) {
    EXPECT_EQ(item.second.age, 0u);
  }
  EXPECT_TRUE(protocol.deliver_payload(receiver, header, digests));

  // A heard count that is not the cache size: the engine's proof cannot
  // say which entries are the neighbors'.
  EXPECT_FALSE(protocol.redeliver_unchanged(receiver, heard + 1));
  EXPECT_FALSE(protocol.redeliver_unchanged(receiver, heard - 1));

  // Unknown sender id: the receiver has no entry to overwrite.
  core::DensityProtocol::FrameHeader stranger = header;
  stranger.id = 0xFFFFFFFF;  // ids are random_ids(n) values, not this
  EXPECT_FALSE(protocol.deliver_payload(receiver, stranger, digests));

  // Digest-list length mismatch: the engine's proof cannot apply.
  if (!digests.empty()) {
    std::vector<core::DensityProtocol::Digest> shorter(digests.begin(),
                                                       digests.end() - 1);
    EXPECT_FALSE(protocol.deliver_payload(receiver, header, shorter));
  }

  // External mutation raises the resync flag: both paths must decline
  // until the next full sweep clears it.
  { auto s = protocol.mutable_state(receiver); (void)s; }
  EXPECT_FALSE(protocol.redeliver_unchanged(receiver, heard));
  EXPECT_FALSE(protocol.deliver_payload(receiver, header, digests));
  network.step();  // full sweep: end_step clears the flag
  digests.resize(protocol.digest_count(sender));
  protocol.make_frame(sender, header, digests);
  EXPECT_TRUE(protocol.redeliver_unchanged(receiver, heard));
  EXPECT_TRUE(protocol.deliver_payload(receiver, header, digests));

  // A phantom entry outlives the resync sweep that clears the flag; the
  // cache size is what still gives it away.
  plant_phantom(protocol, receiver, 0xFFFFFFFF);
  EXPECT_FALSE(protocol.redeliver_unchanged(receiver, heard + 1));
  network.step();
  ASSERT_EQ(protocol.state(receiver).cache.size(), heard + 1);
  digests.resize(protocol.digest_count(sender));
  protocol.make_frame(sender, header, digests);
  EXPECT_TRUE(protocol.deliver_payload(receiver, header, digests))
      << "the resync sweep should have cleared the flag";
  EXPECT_FALSE(protocol.redeliver_unchanged(receiver, heard));
}

/// Age of the entry `id` in node q's cache.
std::uint32_t age_of(const core::DensityProtocol& protocol, graph::NodeId q,
                     topology::ProtocolId id) {
  const auto& cache = protocol.state(q).cache;
  const auto it = cache.find(id);
  return it == cache.end() ? 0 : it->second.age;
}

/// The refresh runs before a receiver's deliveries and counts its entries
/// at age <= 1. Every heard neighbor's entry sits there (refreshed at the
/// receiver's last sweep, aged once since), and a phantom reaches age 1
/// at the sweep that clears the resync flag, so the refresh declines
/// beside a phantom at age 1 and accepts beside one aged >= 2, whose age
/// keeps counting to eviction. The count includes age 0: an entry an
/// earlier delivery of the same step refreshed must not let a phantom at
/// age 1 pass for it.
TEST(Redelivery, RefreshAcceptsBesideAnAgingPhantomOnly) {
  util::Rng rng(3);
  const std::size_t n = 40;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.25);

  auto protocol = make_protocol(g, ids, 1);
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss, 1);
  network.run(10);  // settled: caches mirror neighborhoods

  graph::NodeId receiver = 0;
  while (g.degree(receiver) == 0) {
    ++receiver;
    ASSERT_LT(receiver, n) << "deployment has no edge";
  }
  const graph::NodeId sender = g.neighbors(receiver)[0];
  const std::size_t heard = g.degree(receiver);
  const topology::ProtocolId phantom = 0xFFFFFFFF;
  const std::uint32_t max_age = protocol.config().cache_max_age;

  plant_phantom(protocol, receiver, phantom);
  EXPECT_FALSE(protocol.redeliver_unchanged(receiver, heard))
      << "an external write raises resync";
  network.step();  // the resync sweep
  ASSERT_EQ(age_of(protocol, receiver, phantom), 1u);
  EXPECT_FALSE(protocol.redeliver_unchanged(receiver, heard))
      << "a phantom at age 1 is one fresh entry too many";

  // A delivery earlier in the same step refreshes the sender's entry to
  // age 0; the phantom at age 1 must still give itself away.
  core::DensityProtocol::FrameHeader header;
  std::vector<core::DensityProtocol::Digest> digests(
      protocol.digest_count(sender));
  protocol.make_frame(sender, header, digests);
  protocol.deliver(receiver, header, digests);
  ASSERT_EQ(age_of(protocol, receiver, protocol.state(sender).uid), 0u);
  EXPECT_FALSE(protocol.redeliver_unchanged(receiver, heard));

  network.step();  // declined in the engine too: every row delivered
  ASSERT_EQ(age_of(protocol, receiver, phantom), 2u);
  EXPECT_TRUE(protocol.redeliver_unchanged(receiver, heard));
  for (const auto& [id, entry] : protocol.state(receiver).cache) {
    EXPECT_EQ(entry.age, id == phantom ? 2u : 0u) << id;
  }
  network.step();
  EXPECT_EQ(age_of(protocol, receiver, phantom), 3u)
      << "the refresh must leave an aging phantom counting";
  network.run(max_age - 2);
  EXPECT_FALSE(protocol.state(receiver).cache.contains(phantom));
  EXPECT_EQ(protocol.state(receiver).cache.size(), heard);
}

/// Closed form of the step-only verdict on a settled world. One phantom
/// planted into each of k nodes that share no neighbor starts a wave (the
/// holders' rows name it, their densities move), which takes about ten
/// steps here, so the cache timeout is 30 rounds. Once that wave has
/// settled, the only news left is the phantoms aging toward eviction:
/// every step up to the one that evicts them steps exactly the k holders,
/// refreshes each of them in one call and rebuilds no row. Lockstep with
/// the hint-free reference stepper through the plant, the window, the
/// eviction and its wave, at one shard inline and at five shards on four
/// threads.
TEST(Redelivery, AgingPhantomsStepOnlyTheirHoldersWithoutRebuilds) {
  util::Rng rng(20050612);
  const std::size_t n = 250;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.11);

  // Holders pairwise more than two hops apart: no node hears two.
  std::vector<graph::NodeId> holders;
  std::vector<char> blocked(n, 0);
  for (graph::NodeId p = 0; p < n && holders.size() < 6; ++p) {
    if (blocked[p] || g.degree(p) == 0) continue;
    holders.push_back(p);
    blocked[p] = 1;
    for (const graph::NodeId r : g.neighbors(p)) {
      blocked[r] = 1;
      for (const graph::NodeId w : g.neighbors(r)) blocked[w] = 1;
    }
  }
  const std::size_t k = holders.size();
  ASSERT_GE(k, 3u);
  const auto phantom = [](graph::NodeId q) -> topology::ProtocolId {
    return 0xFFFFFF00 + q;
  };

  for (const auto& [shards, threads] :
       {std::pair<std::size_t, unsigned>{1, 1}, {5, 4}}) {
    SCOPED_TRACE(::testing::Message()
                 << "shards " << shards << " threads " << threads);
    auto fast = make_protocol(g, ids, 5, /*cache_max_age=*/30);
    auto slow = make_protocol(g, ids, 5, /*cache_max_age=*/30);
    sim::PerfectDelivery loss_a, loss_b;
    sim::Network net_fast(g, fast, loss_a,
                          graph::plan_contiguous_shards(n, shards).bounds,
                          threads);
    net_fast.set_stepping(sim::Stepping::kDirty);
    testsupport::ReferenceStepper net_slow(g, slow, loss_b);
    const std::uint32_t max_age = fast.config().cache_max_age;
    const auto lockstep = [&]() -> ::testing::AssertionResult {
      net_fast.step();
      net_slow.step();
      if (const auto div = testsupport::first_divergent_node(fast, slow)) {
        return ::testing::AssertionFailure()
               << testsupport::describe_divergence(fast, slow, *div);
      }
      return ::testing::AssertionSuccess();
    };

    for (std::size_t s = 0;; ++s) {
      ASSERT_LT(s, 200u) << "no quiescent step";
      ASSERT_TRUE(lockstep()) << "settling step " << s;
      if (net_fast.activity().last_nodes_stepped() == 0) break;
    }

    for (const graph::NodeId q : holders) {
      plant_phantom(fast, q, phantom(q), /*claims_head=*/false);
      plant_phantom(slow, q, phantom(q), /*claims_head=*/false);
    }
    // The plant's own wave, until a step moves k nodes and no row. A
    // holder's phantom reaches age s at the end of step s after the
    // plant, so it ages exactly when the holder steps.
    std::size_t step = 1;
    for (;; ++step) {
      ASSERT_LT(step, max_age) << "the plant's wave outlived the phantoms";
      const std::uint64_t rebuilt = net_fast.rows_rebuilt();
      ASSERT_TRUE(lockstep()) << "wave step " << step;
      if (net_fast.activity().last_nodes_stepped() == k &&
          net_fast.rows_rebuilt() == rebuilt) {
        break;
      }
    }
    EXPECT_LE(step + 3, max_age) << "a window too short to pin anything";

    // The window: up to and including the step that evicts the phantoms.
    for (++step; step <= max_age + 1; ++step) {
      const std::uint64_t rebuilt = net_fast.rows_rebuilt();
      const std::uint64_t refreshed = net_fast.receivers_refreshed();
      ASSERT_TRUE(lockstep()) << "window step " << step;
      // k nodes stepped, and each holder did (its phantom aged or died).
      EXPECT_EQ(net_fast.activity().last_nodes_stepped(), k) << step;
      EXPECT_EQ(net_fast.rows_rebuilt(), rebuilt) << step;
      EXPECT_EQ(net_fast.receivers_refreshed() - refreshed, k) << step;
      for (const graph::NodeId q : holders) {
        if (step <= max_age) {
          EXPECT_EQ(age_of(fast, q, phantom(q)), step)
              << "holder " << q << " step " << step;
        } else {
          EXPECT_FALSE(fast.state(q).cache.contains(phantom(q)))
              << "holder " << q << " step " << step;
        }
      }
    }

    // The eviction's own wave, back to quiescence.
    for (std::size_t s = 0;; ++s) {
      ASSERT_LT(s, 200u) << "no quiescent step after the eviction";
      ASSERT_TRUE(lockstep()) << "post-eviction step " << s;
      if (net_fast.activity().last_nodes_stepped() == 0) break;
    }
  }
}

/// Duplicate uids break the count argument (two senders, one entry), so
/// the per-receiver path declines for the protocol's whole life, beside
/// an aging phantom too.
TEST(Redelivery, PerReceiverPathDeclinesOnDuplicateUids) {
  const auto g = graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  auto protocol = make_protocol(g, {1, 1, 2, 3}, 4);
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss, 1);
  network.run(12);
  // Node 2 hears uids 1 and 3: its cache is exactly its neighborhood.
  ASSERT_EQ(protocol.state(2).cache.size(), g.degree(2));
  for (graph::NodeId q = 0; q < 4; ++q) {
    EXPECT_FALSE(protocol.redeliver_unchanged(q, g.degree(q))) << q;
  }
  plant_phantom(protocol, 2, 0xFFFFFFFF);
  network.run(3);
  ASSERT_GE(age_of(protocol, 2, 0xFFFFFFFF), 2u);
  for (graph::NodeId q = 0; q < 4; ++q) {
    EXPECT_FALSE(protocol.redeliver_unchanged(q, g.degree(q))) << q;
  }
  EXPECT_EQ(network.receivers_refreshed(), 0u);
}

/// The phantom and duplicate-uid scenarios end to end: the arena engine
/// (per-receiver path armed) in lockstep with the hint-free reference
/// stepper, at one shard inline and at five shards on four threads. A
/// refresh that swallowed a phantom would keep it young forever while
/// the reference ages it out.
void expect_lockstep_with_phantoms(const topology::IdAssignment& ids,
                                   bool expect_refreshes) {
  util::Rng rng(20050612);
  const std::size_t n = ids.size();
  const auto points = topology::uniform_points(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.11);
  for (const auto& [shards, threads] :
       {std::pair<std::size_t, unsigned>{1, 1}, {5, 4}}) {
    auto fast = make_protocol(g, ids, 5);
    auto slow = make_protocol(g, ids, 5);
    sim::PerfectDelivery loss_a, loss_b;
    sim::Network net_fast(g, fast, loss_a,
                          graph::plan_contiguous_shards(n, shards).bounds,
                          threads);
    testsupport::ReferenceStepper net_slow(g, slow, loss_b);
    for (std::size_t step = 0; step < 40; ++step) {
      if (step == 20 || step == 23) {
        for (graph::NodeId q = static_cast<graph::NodeId>(step); q < n;
             q += 37) {
          plant_phantom(fast, q, 0xFFFFFF00 + q);
          plant_phantom(slow, q, 0xFFFFFF00 + q);
        }
      }
      net_fast.step();
      net_slow.step();
      const auto div = testsupport::first_divergent_node(fast, slow);
      ASSERT_EQ(div, std::nullopt)
          << "shards " << shards << " threads " << threads << " step "
          << step << ":\n"
          << testsupport::describe_divergence(fast, slow, *div);
    }
    if (expect_refreshes) {
      EXPECT_GT(net_fast.receivers_refreshed(), 0u);
    } else {
      EXPECT_EQ(net_fast.receivers_refreshed(), 0u);
    }
  }
}

TEST(Redelivery, PhantomEntriesBitIdenticalAcrossShardsAndThreads) {
  util::Rng rng(41);
  expect_lockstep_with_phantoms(topology::random_ids(250, rng), true);
}

TEST(Redelivery, DuplicateUidWorldBitIdenticalAcrossShardsAndThreads) {
  util::Rng rng(42);
  auto ids = topology::random_ids(250, rng);
  for (std::size_t i = 0; i + 1 < ids.size(); i += 9) ids[i + 1] = ids[i];
  expect_lockstep_with_phantoms(ids, false);
}

/// receivers_refreshed counts the stepped receivers the per-receiver
/// path served. A settled loss-free world steps no one under either
/// counter definition, so the count stays flat while messages_delivered
/// moves by its closed form (2|E| per step under kFull, 0 under kDirty);
/// during a recovery the stepped receivers whose heard rows all held are
/// served; a lossy medium never has row hints.
TEST(Redelivery, ReceiversRefreshedCountsQuietReceivers) {
  util::Rng rng(7);
  const std::size_t n = 200;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.12);
  for (const sim::Stepping mode : {sim::Stepping::kFull,
                                   sim::Stepping::kDirty}) {
    auto protocol = make_protocol(g, ids, 2);
    sim::PerfectDelivery loss;
    sim::Network network(g, protocol, loss, 1);
    network.set_stepping(mode);
    network.run(60);
    for (int step = 0; step < 5; ++step) {
      const std::uint64_t before = network.receivers_refreshed();
      const std::uint64_t sent = network.messages_delivered();
      network.step();
      EXPECT_EQ(network.receivers_refreshed(), before) << step;
      EXPECT_EQ(network.messages_delivered() - sent,
                mode == sim::Stepping::kFull ? g.csr_neighbors().size() : 0u)
          << step;
    }
    util::Rng chaos(3);
    protocol.corrupt_fraction(chaos, 0.1);
    const std::uint64_t before = network.receivers_refreshed();
    network.run(20);
    EXPECT_GT(network.receivers_refreshed(), before);
  }
  {
    auto protocol = make_protocol(g, ids, 2);
    sim::BernoulliDelivery loss(0.9, util::Rng(8));
    sim::Network network(g, protocol, loss, 1);
    network.run(60);
    EXPECT_EQ(network.receivers_refreshed(), 0u);
  }
}

/// One cached neighbor per 64-byte line: the receive pass walks these
/// entries every step, so a field added here must fail loudly rather
/// than silently cost step time.
TEST(Redelivery, CacheItemFillsOneCacheLine) {
  if (sizeof(void*) != 8) GTEST_SKIP() << "layout pinned for LP64 only";
  EXPECT_EQ(sizeof(core::DensityProtocol::CacheEntry), 56u);
  EXPECT_EQ((sizeof(core::FlatMap<topology::ProtocolId,
                                  core::DensityProtocol::CacheEntry>::Item)),
            64u);
}

}  // namespace
}  // namespace ssmwn
