// The protocol-state trajectory pin. Four fixed runs on a 2k-node
// Poisson world (mean degree 8) — the sync engine at 4 spatial shards ×
// 2 threads and the async engine under the unfair daemon at τ = 0.9,
// each with DAG names + fusion and with the basic rules — play
// `corrupt_all` + 40 steps, then `corrupt_fraction(0.1)` + 30 steps.
// After every step (every virtual second on the async engine) the whole
// population's state folds into one FNV-1a hash (support/state_fold.hpp):
// shared variables, RNG state, async observability, cache keys, entry
// fields and ages, the relayed id sequences and, under fusion, each
// entry's best relayed head record. That is every bit a rule can act on,
// and nothing the rules never read, so a change to how the two-hop state
// is stored, relayed or graded must leave these four values alone
// whatever simulator-work counters it moves.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/protocol.hpp"
#include "graph/partition.hpp"
#include "sim/async_network.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "support/state_fold.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

constexpr std::size_t kColdSteps = 40;
constexpr std::size_t kFaultSteps = 30;

struct World {
  graph::Graph graph;
  topology::IdAssignment ids;
  std::vector<std::size_t> bounds;
};

/// λ = 2000 Poisson points at mean degree 8, renumbered cell-major into
/// 4 spatial shards.
World make_world() {
  const double lambda = 2000.0;
  util::Rng rng(27);
  const double radius = std::sqrt(8.0 / (M_PI * lambda));
  const auto raw = topology::poisson_points(lambda, rng);
  const auto plan = graph::plan_spatial_shards(raw, radius, 4);
  World w;
  w.graph = topology::unit_disk_graph(graph::permuted(plan, raw), radius);
  w.ids = graph::permuted(plan, topology::random_ids(raw.size(), rng));
  w.bounds = plan.bounds;
  return w;
}

core::DensityProtocol make_protocol(const World& w, bool dag_fusion) {
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = dag_fusion;
  config.cluster.fusion = dag_fusion;
  config.delta_hint = std::max<std::uint64_t>(2, w.graph.max_degree());
  return core::DensityProtocol(w.ids, config, util::Rng(11));
}

/// Plays the two fault epochs, calling `advance()` once per step and
/// folding the state after each.
template <typename Advance>
std::uint64_t trajectory(core::DensityProtocol& protocol, Advance&& advance) {
  util::Rng faults(0xfa17);
  testsupport::Fnv h;
  protocol.corrupt_all(faults);
  for (std::size_t k = 0; k < kColdSteps; ++k) {
    advance();
    testsupport::fold_state(h, protocol);
  }
  protocol.corrupt_fraction(faults, 0.1);
  for (std::size_t k = 0; k < kFaultSteps; ++k) {
    advance();
    testsupport::fold_state(h, protocol);
  }
  return h.h;
}

std::uint64_t sync_trajectory(const World& w, bool dag_fusion) {
  auto protocol = make_protocol(w, dag_fusion);
  sim::PerfectDelivery loss;
  sim::ShardedNetwork<core::DensityProtocol> net(w.graph, protocol, loss,
                                                 w.bounds, 2);
  return trajectory(protocol, [&] { net.step(); });
}

std::uint64_t async_trajectory(const World& w, bool dag_fusion) {
  auto protocol = make_protocol(w, dag_fusion);
  sim::BernoulliDelivery loss(0.9, util::Rng(13));
  sim::AsyncConfig config;
  config.daemon = sim::DaemonKind::kUnfairRoundRobin;
  sim::AsyncNetwork<core::DensityProtocol> net(w.graph, protocol, loss,
                                               config, util::Rng(17));
  return trajectory(protocol, [&] { net.run_for(config.period_s); });
}

TEST(StateTrajectory, ProtocolStateTrajectoryIsPinned) {
  const World w = make_world();
  ASSERT_GT(w.graph.node_count(), 1800u);
  EXPECT_EQ(sync_trajectory(w, true), 0xa8d3089d978080eaULL);
  EXPECT_EQ(sync_trajectory(w, false), 0x6a982ebdf692e0e1ULL);
  EXPECT_EQ(async_trajectory(w, true), 0x4a5e849251e166a1ULL);
  EXPECT_EQ(async_trajectory(w, false), 0x1f074818a77d4100ULL);
}

}  // namespace
}  // namespace ssmwn
