// Steady-state allocation audit for the arena step engine.
//
// The engine's contract is that once caches and arena buffers have
// reached their steady-state sizes, `Network::step()` touches the heap
// zero times: frames live in reused flat buffers, cache entries are
// updated in place, and the worker pool dispatches with a function
// pointer, not a std::function. This test links a counting global
// operator new and asserts the count stays flat across steady-state
// steps — on one thread and on a warmed-up pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/protocol.hpp"
#include "graph/graph.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  ++g_allocations;
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t padded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, padded ? padded : align)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Replace the global allocation functions for this binary. Deallocation
// stays trivial; only the allocation count matters.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace ssmwn {
namespace {

TEST(ZeroAlloc, SteadyStateStepDoesNotTouchTheHeap) {
  util::Rng rng(2005);
  const std::size_t n = 300;
  const auto pts = topology::uniform_points(n, rng);
  const auto g = topology::unit_disk_graph(pts, 0.09);
  const auto ids = topology::random_ids(n, rng);

  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;  // include the randomized N1 rule
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  core::DensityProtocol protocol(ids, config, util::Rng(4));
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss, 1);

  // Warm-up: caches fill, DAG names settle, arena buffers reach final
  // capacity.
  network.run(30);

  const std::size_t before = g_allocations.load();
  network.run(10);
  const std::size_t during = g_allocations.load() - before;
  EXPECT_EQ(during, 0u) << "steady-state steps allocated " << during
                        << " times";
}

// The active recovery regime: after a mass fault, caches already hold
// every neighbor but the payloads (DAG ids, metrics, head bits, digest
// lists) churn for many steps while the clustering re-settles. The
// pooled digest storage must absorb all of that churn in place —
// digest-list rewrites reuse each node's slab spans, cache entries are
// updated without rehashing, and the engine's double-buffered arenas
// are already at capacity. Zero heap traffic, same as steady state.
TEST(ZeroAlloc, ActiveRecoveryRegimeDoesNotTouchTheHeap) {
  util::Rng rng(2007);
  const std::size_t n = 300;
  const auto pts = topology::uniform_points(n, rng);
  const auto g = topology::unit_disk_graph(pts, 0.09);
  const auto ids = topology::random_ids(n, rng);

  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  core::DensityProtocol protocol(ids, config, util::Rng(4));
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss, 1);

  network.run(30);  // steady: caches, slabs, and arenas at high water

  // corrupt_fraction itself may allocate (it plants phantom entries and
  // oversized digest lists), and the first few steps after it still
  // reshape storage: phantom cache entries age out over the timeout
  // window and slab spans regrow where the planted lists overflowed
  // their capacity. After that structural settling, the long
  // payload-churn recovery window — the part that used to be quadratic —
  // must be allocation-free.
  util::Rng chaos(2008);
  protocol.corrupt_fraction(chaos, 0.3);
  network.run(5);
  const std::size_t before = g_allocations.load();
  const std::size_t subset_before = network.subset_steps();
  network.run(10);
  const std::size_t during = g_allocations.load() - before;
  EXPECT_EQ(during, 0u) << "active-recovery steps allocated " << during
                        << " times";
  // The window holds both kinds of step and the switches between them.
  const std::size_t subset = network.subset_steps() - subset_before;
  EXPECT_GT(subset, 0u);
  EXPECT_LT(subset, 10u);
}

// The late-recovery regime of sparse-change rows: after the structural
// settling, rows trickle toward quiescence with only a few digests
// changing per step. Grading those rows and overwriting the cached
// entries in place must run out of capacity-retained buffers — zero
// heap traffic once warm.
TEST(ZeroAlloc, SparseChangeRowsDoNotTouchTheHeap) {
  util::Rng rng(2009);
  const std::size_t n = 300;
  const auto pts = topology::uniform_points(n, rng);
  const auto g = topology::unit_disk_graph(pts, 0.09);
  const auto ids = topology::random_ids(n, rng);

  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  core::DensityProtocol protocol(ids, config, util::Rng(4));
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss, 1);

  network.run(30);  // steady: caches, slabs, arenas at high water

  // A mild fault keeps payloads churning for a while; after the first
  // few steps every buffer has seen its high-water mark and the
  // remaining recovery — where sparse-change rows dominate — allocates
  // nothing.
  util::Rng chaos(2010);
  protocol.corrupt_fraction(chaos, 0.1);
  network.run(5);
  const std::uint64_t graded_before = network.delta_rows_graded();
  const std::size_t before = g_allocations.load();
  network.run(10);
  const std::size_t during = g_allocations.load() - before;
  EXPECT_EQ(during, 0u) << "sparse-change steps allocated " << during
                        << " times";
  EXPECT_GT(network.delta_rows_graded(), graded_before)
      << "the audited window never saw a sparse-change row";
}

// The same recovery window on four workers and four shards: wakes that
// cross shards ride the wake mailboxes, remote rows are read in place,
// and the window again switches between whole and subset steps.
TEST(ZeroAlloc, ShardedRecoveryDoesNotTouchTheHeap) {
  util::Rng rng(2011);
  const std::size_t n = 300;
  const auto pts = topology::uniform_points(n, rng);
  const auto g = topology::unit_disk_graph(pts, 0.09);
  const auto ids = topology::random_ids(n, rng);

  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  core::DensityProtocol protocol(ids, config, util::Rng(4));
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss, 4);

  network.run(30);
  util::Rng chaos(2012);
  protocol.corrupt_fraction(chaos, 0.3);
  network.run(5);
  const std::size_t before = g_allocations.load();
  const std::size_t subset_before = network.subset_steps();
  network.run(10);
  const std::size_t during = g_allocations.load() - before;
  EXPECT_EQ(during, 0u) << "sharded recovery steps allocated " << during
                        << " times";
  const std::size_t subset = network.subset_steps() - subset_before;
  EXPECT_GT(subset, 0u);
  EXPECT_LT(subset, 10u);
}

TEST(ZeroAlloc, PoolDispatchDoesNotTouchTheHeap) {
  util::Rng rng(2006);
  const std::size_t n = 200;
  const auto pts = topology::uniform_points(n, rng);
  const auto g = topology::unit_disk_graph(pts, 0.1);
  const auto ids = topology::random_ids(n, rng);

  core::ProtocolConfig config;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  core::DensityProtocol protocol(ids, config, util::Rng(4));
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss, 4);  // worker pool engaged

  network.run(30);  // warm-up: pool spawned, buffers sized, caches steady

  const std::size_t before = g_allocations.load();
  network.run(10);
  const std::size_t during = g_allocations.load() - before;
  EXPECT_EQ(during, 0u) << "pooled steady-state steps allocated " << during
                        << " times";
}

}  // namespace
}  // namespace ssmwn
