// Parameterized property sweeps: the structural invariants of the
// clustering algorithm, checked across the paper's whole parameter space
// (transmission range × deployment intensity × rule combination ×
// identifier distribution).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "core/clustering.hpp"
#include "core/dag_ids.hpp"
#include "core/density.hpp"
#include "graph/algorithms.hpp"
#include "graph/forest.hpp"
#include "metrics/cluster_metrics.hpp"
#include "support/oracles.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

enum class IdMode { Random, Sequential, Reversed };

struct SweepParam {
  double radius;
  std::size_t nodes;
  bool use_dag;
  bool incumbency;
  bool fusion;
  IdMode id_mode;
};

std::string param_name(const testing::TestParamInfo<SweepParam>& info) {
  const auto& p = info.param;
  std::string name = "R" + std::to_string(static_cast<int>(p.radius * 100)) +
                     "_n" + std::to_string(p.nodes);
  if (p.use_dag) name += "_dag";
  if (p.incumbency) name += "_inc";
  if (p.fusion) name += "_fus";
  switch (p.id_mode) {
    case IdMode::Random: name += "_rand"; break;
    case IdMode::Sequential: name += "_seq"; break;
    case IdMode::Reversed: name += "_rev"; break;
  }
  return name;
}

class ClusteringSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(ClusteringSweep, StructuralInvariantsHold) {
  const auto& param = GetParam();
  util::Rng rng(0xBEEF ^ (param.nodes * 131) ^
                static_cast<std::uint64_t>(param.radius * 1000));
  for (int trial = 0; trial < 3; ++trial) {
    const auto pts = topology::uniform_points(param.nodes, rng);
    const auto g = topology::unit_disk_graph(pts, param.radius);
    topology::IdAssignment ids;
    switch (param.id_mode) {
      case IdMode::Random:
        ids = topology::random_ids(g.node_count(), rng);
        break;
      case IdMode::Sequential:
        ids = topology::sequential_ids(g.node_count());
        break;
      case IdMode::Reversed:
        ids = topology::reversed_ids(g.node_count());
        break;
    }
    core::ClusterOptions opt;
    opt.use_dag_ids = param.use_dag;
    opt.incumbency = param.incumbency;
    opt.fusion = param.fusion;

    core::ClusteringResult r;
    if (param.use_dag) {
      const auto dag = core::build_dag_ids(g, ids, {}, rng);
      ASSERT_TRUE(dag.converged);
      r = core::cluster_density(g, ids, opt, dag.ids);
    } else {
      r = core::cluster_density(g, ids, opt);
    }

    // I1: the parent structure is an acyclic forest along radio links.
    const graph::ParentForest forest(r.parent);
    EXPECT_TRUE(forest.respects_graph(g));
    // I2: heads are exactly the roots; H is consistent along edges.
    for (graph::NodeId p = 0; p < g.node_count(); ++p) {
      EXPECT_EQ(static_cast<bool>(r.is_head[p]), forest.is_root(p));
      EXPECT_EQ(r.head_index[p], forest.root(p));
      EXPECT_EQ(r.head_index[p], r.head_index[r.parent[p]]);
      EXPECT_EQ(r.head_id[p], ids[r.head_index[p]]);
    }
    // I3: no two adjacent heads.
    for (graph::NodeId p : r.heads) {
      for (graph::NodeId q : g.neighbors(p)) {
        EXPECT_FALSE(r.is_head[q]);
      }
    }
    // I4: every connected component has at least one head.
    const auto comp = graph::connected_components(g);
    std::set<std::uint32_t> with_head;
    for (graph::NodeId p : r.heads) with_head.insert(comp[p]);
    std::set<std::uint32_t> all;
    for (std::uint32_t c : comp) all.insert(c);
    EXPECT_EQ(with_head, all);
    // I5: clusters never span components.
    for (graph::NodeId p = 0; p < g.node_count(); ++p) {
      EXPECT_EQ(comp[p], comp[r.head_index[p]]);
    }
    // I6 (fusion): heads pairwise more than 2 hops apart.
    if (param.fusion) {
      for (graph::NodeId p : r.heads) {
        for (graph::NodeId q : testsupport::two_hop_neighborhood(g, p)) {
          EXPECT_FALSE(r.is_head[q]);
        }
      }
    }
    // I7: a non-head's parent strictly dominates it unless the node is a
    // demoted local maximum (fusion); heads dominate all neighbors.
    if (!param.fusion) {
      for (graph::NodeId p = 0; p < g.node_count(); ++p) {
        if (r.parent[p] == p) continue;
        EXPECT_TRUE(core::precedes(r.rank[p], r.rank[r.parent[p]],
                                   param.incumbency))
            << "node " << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RadiusAndRules, ClusteringSweep,
    testing::Values(
        SweepParam{0.05, 400, false, false, false, IdMode::Random},
        SweepParam{0.08, 400, false, false, false, IdMode::Random},
        SweepParam{0.10, 400, false, false, false, IdMode::Random},
        SweepParam{0.08, 400, true, false, false, IdMode::Random},
        SweepParam{0.08, 400, false, true, false, IdMode::Random},
        SweepParam{0.08, 400, false, false, true, IdMode::Random},
        SweepParam{0.08, 400, false, true, true, IdMode::Random},
        SweepParam{0.08, 400, true, true, true, IdMode::Random},
        SweepParam{0.08, 400, false, false, false, IdMode::Sequential},
        SweepParam{0.08, 400, true, false, true, IdMode::Sequential},
        SweepParam{0.08, 400, false, false, false, IdMode::Reversed},
        SweepParam{0.05, 150, false, false, true, IdMode::Random},
        SweepParam{0.15, 150, true, true, true, IdMode::Random},
        SweepParam{0.25, 60, false, false, true, IdMode::Random}),
    param_name);

// ---------------------------------------------------------------------
// Determinism sweep: the solver is a pure function of its inputs.
class DeterminismSweep : public testing::TestWithParam<double> {};

TEST_P(DeterminismSweep, SameInputsSameClustering) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam() * 10000));
  const auto pts = topology::uniform_points(300, rng);
  const auto g = topology::unit_disk_graph(pts, GetParam());
  const auto ids = topology::random_ids(g.node_count(), rng);
  core::ClusterOptions opt;
  opt.fusion = true;
  const auto a = core::cluster_density(g, ids, opt);
  const auto b = core::cluster_density(g, ids, opt);
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.head_index, b.head_index);
  EXPECT_EQ(a.is_head, b.is_head);
}

INSTANTIATE_TEST_SUITE_P(Radii, DeterminismSweep,
                         testing::Values(0.05, 0.07, 0.09, 0.12),
                         [](const testing::TestParamInfo<double>& info) {
                           return "R" + std::to_string(static_cast<int>(
                                            info.param * 100));
                         });

// ---------------------------------------------------------------------
// Id-relabeling equivariance: permuting the identifier assignment can
// move tie-broken choices but never violates the invariants, and with
// tie-free metrics it must not change the head set at all.
TEST(Equivariance, TieFreeMetricsIgnoreIds) {
  util::Rng rng(77);
  const auto pts = topology::uniform_points(200, rng);
  const auto g = topology::unit_disk_graph(pts, 0.1);
  // Perturb densities to kill all ties.
  auto metric = core::compute_densities(g);
  for (std::size_t i = 0; i < metric.size(); ++i) {
    metric[i] += 1e-9 * static_cast<double>(i * 2654435761u % 977);
  }
  const auto ids_a = topology::random_ids(g.node_count(), rng);
  const auto ids_b = topology::random_ids(g.node_count(), rng);
  const auto ra = core::cluster_by_metric(g, ids_a, metric, {});
  const auto rb = core::cluster_by_metric(g, ids_b, metric, {});
  EXPECT_EQ(ra.is_head, rb.is_head);
  EXPECT_EQ(ra.parent, rb.parent);
}

}  // namespace
}  // namespace ssmwn
