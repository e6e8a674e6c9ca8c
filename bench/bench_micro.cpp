// Kernel-level micro-benchmarks for the protocol's hot paths: the
// density computation, the branchless intersection kernels under the
// balanced and skewed shapes the density rule produces, the SoA compare
// scans the differential harness runs every step, the per-step cost of
// incremental density maintenance against the full-recompute oracle, and
// the per-window UDG build and clustering oracle.
// Self-contained timing (no external benchmark framework); emits
// BENCH_micro.json via bench_support::JsonReport so the numbers join
// the tracked baseline trajectory in bench/baselines/.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "core/clustering.hpp"
#include "core/density.hpp"
#include "core/protocol.hpp"
#include "core/rank.hpp"
#include "core/soa_state.hpp"
#include "sim/network.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/merge.hpp"
#include "util/rng.hpp"

namespace {

using namespace ssmwn;
using Clock = std::chrono::steady_clock;

/// Calibrated timing: runs `op` in growing batches until the measured
/// window exceeds ~40ms, then reports seconds per call. Deterministic
/// work only — `op` must not depend on how often it runs.
template <typename Op>
double seconds_per_call(Op&& op) {
  std::size_t reps = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) op();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed > 0.04) return elapsed / static_cast<double>(reps);
    reps *= 4;
  }
}

/// Sorted unique ascending keys with pseudo-random gaps.
std::vector<std::uint64_t> sorted_keys(std::size_t n, util::Rng& rng) {
  std::vector<std::uint64_t> keys(n);
  std::uint64_t v = 0;
  for (auto& k : keys) {
    v += 1 + rng.below(16);
    k = v;
  }
  return keys;
}

volatile std::size_t sink;  // keeps the optimizer honest

}  // namespace

int main() {
  bench::print_header(
      "Micro — hot-path kernels",
      "Density computation, branchless intersection kernels (balanced "
      "and skewed), the SoA divergence scans, and a full protocol step "
      "under incremental vs recompute density maintenance",
      1);

  util::Rng root(util::bench_seed());
  bench::JsonReport json("micro");
  util::Table table("Kernel throughput (higher is better)");
  table.header({"kernel", "shape", "rate"});

  // --- intersection kernels -------------------------------------------
  // Balanced (radio-degree lists) and skewed (a short delta against a
  // long cache) — the two shapes intersect_count dispatches between.
  {
    util::Rng rng = root.split();
    struct Shape {
      const char* name;
      std::size_t na, nb;
    };
    const Shape shapes[] = {{"8x8", 8, 8},
                            {"64x64", 64, 64},
                            {"8x1024", 8, 1024}};
    for (const auto& s : shapes) {
      const auto a = sorted_keys(s.na, rng);
      const auto b = sorted_keys(s.nb, rng);
      const double linear = seconds_per_call([&] {
        sink = util::intersect_count_linear(a.data(), a.size(), b.data(),
                                            b.size());
      });
      const double gallop = seconds_per_call([&] {
        sink = util::intersect_count_gallop(a.data(), a.size(), b.data(),
                                            b.size());
      });
      const double elems =
          static_cast<double>(s.na + s.nb);
      table.row({"intersect_linear", s.name,
                 util::Table::num(elems / linear / 1e6, 1) + " Melem/s"});
      table.row({"intersect_gallop", s.name,
                 util::Table::num(elems / gallop / 1e6, 1) + " Melem/s"});
      json.add(std::string("intersect/linear/") + s.name, s.na + s.nb, 1,
               "elem/s", elems / linear);
      json.add(std::string("intersect/gallop/") + s.name, s.na + s.nb, 1,
               "elem/s", elems / gallop);
    }
  }

  // --- first_mismatch_index -------------------------------------------
  // The block-scan primitive under the SoA column compares: an all-equal
  // prefix at memory bandwidth, divergence in the last block.
  {
    util::Rng rng = root.split();
    const std::size_t n = 1 << 20;
    auto a = sorted_keys(n, rng);
    auto b = a;
    b[n - 3] ^= 1;
    const double t = seconds_per_call(
        [&] { sink = util::first_mismatch_index(a.data(), b.data(), n); });
    table.row({"first_mismatch", "1M u64",
               util::Table::num(static_cast<double>(n) / t / 1e9, 2) +
                   " Gelem/s"});
    json.add("mismatch/u64", n, 1, "elem/s", static_cast<double>(n) / t);
  }

  // --- SoA divergence scans -------------------------------------------
  {
    util::Rng rng = root.split();
    const std::size_t n = 100000;
    core::NodeScalars a;
    a.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      a.dag_id[i] = rng();
      a.metric[i] = rng.uniform();
      a.head[i] = static_cast<topology::ProtocolId>(rng() % n);
      a.parent[i] = static_cast<topology::ProtocolId>(rng() % n);
      a.metric_valid[i] = 1;
      a.head_valid[i] = static_cast<std::uint8_t>(rng() % 2);
      a.parent_valid[i] = a.head_valid[i];
    }
    core::NodeScalars b = a;
    b.head[n - 5] ^= 1;
    const double t_first = seconds_per_call(
        [&] { sink = core::first_divergent_row(a, b); });
    const double t_count = seconds_per_call(
        [&] { sink = core::count_divergent_rows(a, b); });
    table.row({"soa_first_divergent", "100k rows",
               util::Table::num(static_cast<double>(n) / t_first / 1e6, 1) +
                   " Mrow/s"});
    table.row({"soa_count_divergent", "100k rows",
               util::Table::num(static_cast<double>(n) / t_count / 1e6, 1) +
                   " Mrow/s"});
    json.add("soa/first_divergent_row", n, 1, "row/s",
             static_cast<double>(n) / t_first);
    json.add("soa/count_divergent_rows", n, 1, "row/s",
             static_cast<double>(n) / t_count);
  }

  // --- rank election: packed keys vs field-by-field scan ---------------
  // The R2 election kernel at cache/neighborhood sizes. The scalar
  // baseline is the original three-field ≺ comparison chain; the packed
  // kernel is the branchless argmax over a prepacked key column — the
  // steady-state shape, where keys are maintained incrementally on
  // cache writes (docs/ARCHITECTURE.md §9).
  {
    // Independent stream: drawing root.split() here would shift every
    // later section's instances and orphan their tracked rate series.
    util::Rng rng(util::bench_seed() ^ 0x72616e6b);  // "rank"
    for (const std::size_t n : {std::size_t{16}, std::size_t{256},
                                std::size_t{4096}}) {
      std::vector<core::NodeRank> ranks(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Coarse metric grid: ties are common, so the deeper fields of
        // the comparison chain actually execute in the scalar scan.
        ranks[i].metric = static_cast<double>(rng.index(64)) / 8.0;
        ranks[i].incumbent = rng.chance(0.1);
        ranks[i].tie_id = rng.below(1 << 20);
        ranks[i].uid = i;
      }
      const core::RankKeyColumn keys = core::pack_rank_column(ranks, true);
      const double scalar = seconds_per_call([&] {
        // Transliterated original comparison chain (incumbency on).
        std::size_t best = 0;
        for (std::size_t i = 1; i < n; ++i) {
          const core::NodeRank& p = ranks[best];
          const core::NodeRank& q = ranks[i];
          bool prec;
          if (p.metric != q.metric) {
            prec = p.metric < q.metric;
          } else if (p.incumbent != q.incumbent) {
            prec = q.incumbent;
          } else if (p.tie_id != q.tie_id) {
            prec = q.tie_id < p.tie_id;
          } else {
            prec = q.uid < p.uid;
          }
          if (prec) best = i;
        }
        sink = best;
      });
      const double packed = seconds_per_call(
          [&] { sink = core::max_rank_key_index(keys); });
      const std::string shape = std::to_string(n);
      table.row({"election_scalar", shape,
                 util::Table::num(static_cast<double>(n) / scalar / 1e6, 1) +
                     " Melem/s"});
      table.row({"election_packed", shape,
                 util::Table::num(static_cast<double>(n) / packed / 1e6, 1) +
                     " Melem/s"});
      json.add("rank/election_scalar/" + shape, n, 1, "elem/s",
               static_cast<double>(n) / scalar);
      json.add("rank/election_packed/" + shape, n, 1, "elem/s",
               static_cast<double>(n) / packed);
    }
  }

  // --- density ---------------------------------------------------------
  {
    util::Rng rng = root.split();
    const auto inst = bench::poisson_instance(
        4000.0, std::sqrt(8.0 / (3.14159 * 4000.0)), rng);
    const std::size_t nodes = inst.graph.node_count();
    const double t = seconds_per_call([&] {
      const auto d = core::compute_densities(inst.graph);
      sink = d.size();
    });
    table.row({"compute_densities", "poisson 4k deg8",
               util::Table::num(static_cast<double>(nodes) / t / 1e6, 2) +
                   " Mnode/s"});
    json.add("density/compute", nodes, 1, "node/s",
             static_cast<double>(nodes) / t);
  }

  // --- protocol step: incremental vs recompute ------------------------
  // The tentpole's cost model in one number pair: identical worlds, one
  // protocol maintaining e(N_p) by delta, one recomputing per R1 firing.
  {
    const util::Rng step_rng = root.split();
    for (const auto maintenance : {core::DensityMaintenance::kIncremental,
                                   core::DensityMaintenance::kRecompute}) {
      util::Rng rng = step_rng;  // identical world + protocol state
      const auto inst = bench::poisson_instance(
          4000.0, std::sqrt(8.0 / (3.14159 * 4000.0)), rng);
      core::ProtocolConfig config;
      config.cluster.use_dag_ids = true;
      config.cluster.fusion = true;
      config.delta_hint =
          std::max<std::uint64_t>(2, inst.graph.max_degree());
      config.density_maintenance = maintenance;
      auto protocol = core::DensityProtocol(inst.ids, config, rng.split());
      sim::PerfectDelivery loss;
      sim::Network network(inst.graph, protocol, loss, 1);
      network.run(3);  // caches full, payloads still churning
      const double t = seconds_per_call([&] { network.step(); });
      const bool inc = maintenance == core::DensityMaintenance::kIncremental;
      table.row({inc ? "step_incremental" : "step_recompute",
                 "poisson 4k deg8",
                 util::Table::num(1.0 / t, 1) + " steps/s"});
      json.add(inc ? "step/incremental" : "step/recompute",
               inst.graph.node_count(), 1, "steps/s", 1.0 / t);
    }
  }

  // --- per-window kernels: UDG build and the clustering oracle ---------
  // What every classic-window run pays each window: a fresh unit-disk
  // graph (edge-list staging + CSR finalize) and cluster_density
  // (densities + election + fusion scans). Appended after the step
  // block so the worlds drawn above keep their seeds.
  {
    util::Rng rng = root.split();
    struct UdgShape {
      const char* name;
      std::size_t n;
      double radius;
    };
    const UdgShape shapes[] = {
        {"n100_r0.14", 100, 0.14},
        {"n10k_deg8", 10000, std::sqrt(8.0 / (3.14159 * 10000.0))}};
    for (const auto& shape : shapes) {
      const auto pts = topology::uniform_points(shape.n, rng);
      const double t = seconds_per_call([&] {
        sink = topology::unit_disk_graph(pts, shape.radius).edge_count();
      });
      table.row({"unit_disk_graph", shape.name,
                 util::Table::num(static_cast<double>(shape.n) / t / 1e6, 2) +
                     " Mnode/s"});
      json.add(std::string("topology/udg/") + shape.name, shape.n, 1,
               "node/s", static_cast<double>(shape.n) / t);
    }
    const auto pts = topology::uniform_points(200, rng);
    const auto g = topology::unit_disk_graph(pts, 0.14);
    const auto ids = topology::random_ids(g.node_count(), rng);
    const double t = seconds_per_call([&] {
      sink = core::cluster_density(g, ids, core::ClusterOptions::improved())
                 .cluster_count();
    });
    table.row({"cluster_density", "improved n200 r0.14",
               util::Table::num(200.0 / t / 1e6, 2) + " Mnode/s"});
    json.add("cluster/oracle/improved_n200", 200, 1, "node/s", 200.0 / t);
  }

  bench::print(table);
  json.write();
  return 0;
}
