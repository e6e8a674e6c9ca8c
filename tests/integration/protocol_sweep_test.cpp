// Parameterized self-stabilization sweeps of the distributed protocol:
// convergence to the oracle across rule combinations, loss rates, and
// corruption severities.
#include <gtest/gtest.h>

#include <string>

#include "core/clustering.hpp"
#include "core/protocol.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "stabilize/convergence.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

struct ProtocolParam {
  bool use_dag;
  bool fusion;
  double tau;            // 1.0 = perfect medium
  double corruption;     // fraction of nodes scrambled mid-run
};

std::string param_name(const testing::TestParamInfo<ProtocolParam>& info) {
  const auto& p = info.param;
  std::string name;
  name += p.use_dag ? "dag_" : "plain_";
  name += p.fusion ? "fusion_" : "basic_";
  name += "tau" + std::to_string(static_cast<int>(p.tau * 100));
  name += "_cor" + std::to_string(static_cast<int>(p.corruption * 100));
  return name;
}

class ProtocolSweep : public testing::TestWithParam<ProtocolParam> {};

TEST_P(ProtocolSweep, ConvergesAndRecovers) {
  const auto& param = GetParam();
  util::Rng rng(0xFACE ^ static_cast<std::uint64_t>(param.tau * 1000) ^
                static_cast<std::uint64_t>(param.corruption * 100) ^
                (param.use_dag ? 2 : 0) ^ (param.fusion ? 4 : 0));
  const auto pts = topology::uniform_points(90, rng);
  const auto g = topology::unit_disk_graph(pts, 0.14);
  const auto ids = topology::random_ids(g.node_count(), rng);

  core::ProtocolConfig config;
  config.cluster.use_dag_ids = param.use_dag;
  config.cluster.fusion = param.fusion;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  config.cache_max_age = core::cache_timeout(param.tau);
  core::DensityProtocol protocol(ids, config, rng.split());

  sim::PerfectDelivery perfect;
  sim::BernoulliDelivery lossy(param.tau < 1.0 ? param.tau : 1.0,
                               rng.split());
  sim::LossModel& medium =
      param.tau < 1.0 ? static_cast<sim::LossModel&>(lossy)
                      : static_cast<sim::LossModel&>(perfect);
  sim::Network network(g, protocol, medium);

  // Oracle head assignment (with the DAG, head identity depends on the
  // random names, so compare protocol-internal quiescence plus the
  // structural invariants instead of exact head values).
  core::ClusterOptions oracle_opt = config.cluster;
  oracle_opt.use_dag_ids = false;

  auto quiescent_and_sane = [&] {
    for (graph::NodeId p = 0; p < g.node_count(); ++p) {
      const auto& s = protocol.state(p);
      if (!s.head_valid || !s.metric_valid || !s.parent_valid) return false;
    }
    // No two adjacent heads (the paper's basic sanity property).
    const auto flags = protocol.head_flags();
    for (graph::NodeId p = 0; p < g.node_count(); ++p) {
      if (!flags[p]) continue;
      for (graph::NodeId q : g.neighbors(p)) {
        if (flags[q]) return false;
      }
    }
    // Exact oracle match when the DAG is off (deterministic target).
    if (!param.use_dag) {
      const auto oracle = core::cluster_density(g, ids, oracle_opt);
      for (graph::NodeId p = 0; p < g.node_count(); ++p) {
        if (protocol.state(p).head != oracle.head_id[p]) return false;
      }
    }
    return true;
  };

  auto settle = [&](std::size_t max_steps) {
    auto last = protocol.head_values();
    return stabilize::run_until_stable(
        [&] { network.step(); },
        [&] {
          auto now = protocol.head_values();
          const bool ok = quiescent_and_sane() && now == last;
          last = std::move(now);
          return ok;
        },
        /*confirm_steps=*/12, max_steps);
  };

  const auto cold = settle(param.tau < 1.0 ? 1500 : 300);
  ASSERT_TRUE(cold.converged) << "cold start did not settle";

  if (param.corruption > 0.0) {
    util::Rng chaos(rng());
    protocol.corrupt_fraction(chaos, param.corruption);
    const auto recovery = settle(param.tau < 1.0 ? 1500 : 300);
    EXPECT_TRUE(recovery.converged) << "did not recover from corruption";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ProtocolSweep,
    testing::Values(ProtocolParam{false, false, 1.0, 0.0},
                    ProtocolParam{false, false, 1.0, 0.5},
                    ProtocolParam{false, false, 1.0, 1.0},
                    ProtocolParam{false, true, 1.0, 0.5},
                    ProtocolParam{true, false, 1.0, 0.5},
                    ProtocolParam{true, true, 1.0, 1.0},
                    ProtocolParam{false, false, 0.7, 0.5},
                    ProtocolParam{false, true, 0.7, 0.0},
                    ProtocolParam{false, false, 0.4, 0.0}),
    param_name);

}  // namespace
}  // namespace ssmwn
