// Kernel-level micro-benchmarks for the protocol's hot paths: the
// density computation, the branchless intersection kernel under
// balanced and skewed shapes, the SoA compare
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
#include "core/soa_state.hpp"
#include "sim/network.hpp"
#include "support/divergence.hpp"
#include "support/merge_kernels.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
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
      "Density computation, the branchless intersection kernel (balanced "
      "and skewed), the SoA divergence scans, and a full protocol step "
      "under incremental vs recompute density maintenance",
      1);

  util::Rng root(util::bench_seed());
  bench::JsonReport json("micro");
  util::Table table("Kernel throughput (higher is better)");
  table.header({"kernel", "shape", "rate"});

  // --- intersection kernel --------------------------------------------
  // Balanced (radio-degree lists) and skewed (a short list against a
  // long one).
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
        sink = testsupport::intersect_count_linear(a.data(), a.size(),
                                                   b.data(), b.size());
      });
      const double elems =
          static_cast<double>(s.na + s.nb);
      table.row({"intersect_linear", s.name,
                 util::Table::num(elems / linear / 1e6, 1) + " Melem/s"});
      json.add(std::string("intersect/linear/") + s.name, s.na + s.nb, 1,
               "elem/s", elems / linear);
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
    const double t = seconds_per_call([&] {
      sink = testsupport::first_mismatch_index(a.data(), b.data(), n);
    });
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
        [&] { sink = testsupport::first_divergent_row(a, b); });
    table.row({"soa_first_divergent", "100k rows",
               util::Table::num(static_cast<double>(n) / t_first / 1e6, 1) +
                   " Mrow/s"});
    json.add("soa/first_divergent_row", n, 1, "row/s",
             static_cast<double>(n) / t_first);
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
  // Timed over recovery windows — corrupt a tenth of the nodes (untimed),
  // then step — since a settled step steps no node and measures nothing.
  // The two sides alternate window by window, so both see the host in
  // the same state, and each reports its median window rate.
  {
    constexpr std::size_t kWindows = 24;
    constexpr std::size_t kWindowSteps = 10;
    util::Rng rng = root.split();
    const auto inst = bench::poisson_instance(
        4000.0, std::sqrt(8.0 / (3.14159 * 4000.0)), rng);
    const util::Rng protocol_rng = rng.split();
    struct Side {
      Side(const bench::Instance& inst, core::DensityMaintenance maintenance,
           util::Rng rng)
          : protocol(inst.ids, config_for(inst, maintenance), rng),
            network(inst.graph, protocol, loss, 1) {}
      static core::ProtocolConfig config_for(
          const bench::Instance& inst, core::DensityMaintenance maintenance) {
        core::ProtocolConfig config;
        config.cluster.use_dag_ids = true;
        config.cluster.fusion = true;
        config.delta_hint =
            std::max<std::uint64_t>(2, inst.graph.max_degree());
        config.density_maintenance = maintenance;
        return config;
      }
      core::DensityProtocol protocol;
      sim::PerfectDelivery loss;
      sim::Network<core::DensityProtocol> network;
      util::Rng fault{20050612};  // the same fault stream on both sides
      std::vector<double> rates;
    };
    Side incremental(inst, core::DensityMaintenance::kIncremental,
                     protocol_rng);
    Side recompute(inst, core::DensityMaintenance::kRecompute, protocol_rng);
    Side* sides[] = {&incremental, &recompute};
    for (Side* side : sides) side->network.run(20);  // settled
    for (std::size_t w = 0; w < kWindows; ++w) {
      for (std::size_t k = 0; k < 2; ++k) {
        Side& side = *sides[(w + k) % 2];
        side.protocol.corrupt_fraction(side.fault, 0.1);
        const auto start = Clock::now();
        side.network.run(kWindowSteps);
        const double t =
            std::chrono::duration<double>(Clock::now() - start).count();
        side.rates.push_back(static_cast<double>(kWindowSteps) / t);
      }
    }
    for (Side* side : sides) {
      std::sort(side->rates.begin(), side->rates.end());
      const double median = (side->rates[kWindows / 2 - 1] +
                             side->rates[kWindows / 2]) / 2.0;
      const bool inc = side == &incremental;
      table.row({inc ? "step_incremental" : "step_recompute",
                 "poisson 4k deg8 recovery",
                 util::Table::num(median, 1) + " steps/s"});
      json.add(inc ? "step/incremental" : "step/recompute",
               inst.graph.node_count(), 1, "steps/s", median);
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
