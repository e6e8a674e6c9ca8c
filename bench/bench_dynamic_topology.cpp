// Dynamic-topology throughput: incremental edge deltas vs rebuilding
// the unit-disk graph from scratch every mobility tick.
//
// The dynamic-topology runtime (topology/incremental.hpp +
// graph/dynamic.hpp) claims that topology *change* is cheap: per tick,
// a skin/Verlet candidate scan plus an in-place CSR patch, instead of
// re-bucketing all n nodes, re-staging the edge list, re-sorting and
// re-packing a whole new Graph. This bench measures both pipelines
// — mobility step + topology maintenance, nothing else — at n ∈ {1k,
// 10k, 100k} for the paper's pedestrian (0–1.6 m/s) and vehicular
// (0–10 m/s) speed ranges, and verifies on every configuration that the
// incremental graph is edge-for-edge identical to the rebuild (exiting
// nonzero on divergence, so the CI smoke doubles as an equivalence
// gate).
//
// Environment:
//   SSMWN_DYNTOPO_MAX_N  cap on n (default 100000; CI smoke uses 1000)
//   SSMWN_SEED           experiment seed
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_support.hpp"
#include "graph/graph.hpp"
#include "mobility/mobility.hpp"
#include "topology/incremental.hpp"

namespace {

using namespace ssmwn;

struct Profile {
  const char* name;
  double speed_max_mps;
};

std::size_t ticks_for(std::size_t n) {
  if (n >= 100000) return 20;
  if (n >= 10000) return 80;
  return 300;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  const auto max_n = static_cast<std::size_t>(
      util::env_int("SSMWN_DYNTOPO_MAX_N", 100000));
  // Mobility tick. Fine-grained on purpose: at n=100k the radio range
  // is ~5.6 m, so 0.1 s (≤16 cm of pedestrian motion) approximates
  // continuous movement; coarser ticks make every pipeline see
  // teleporting nodes.
  const double dt_s = 0.1;
  const double world_m = 1000.0;

  bench::print_header(
      "Dynamic topology — incremental UDG deltas vs rebuild per tick",
      "Per-perturbation topology maintenance for the live re-convergence "
      "runtime (radius set for mean degree ~10 at every n)",
      1);

  util::Rng root(util::bench_seed());
  bench::JsonReport json("dynamic_topology");
  util::Table table(
      "Topology maintenance ticks per second (higher is better)");
  table.header({"profile", "n", "mean deg", "rebuild t/s", "incr t/s",
                "speedup", "cand rebuilds", "skin"});

  const std::size_t sizes[] = {1000, 10000, 100000};
  const Profile profiles[] = {{"pedestrian", 1.6}, {"vehicular", 10.0}};
  bool equivalent = true;

  for (const std::size_t n : sizes) {
    if (n > max_n) continue;
    // Density held constant across n: mean degree ≈ 10.
    const double radius =
        std::sqrt(10.0 / (3.14159265358979 * static_cast<double>(n)));
    const std::size_t ticks = ticks_for(n);

    for (const Profile& profile : profiles) {
      util::Rng rng = root.split();
      const auto points0 = topology::uniform_points(n, rng);
      const util::Rng mover_rng = rng.split();
      const mobility::SpeedRange speeds{0.0, profile.speed_max_mps};

      // Rebuild pipeline: mobility step + full unit_disk_graph.
      double rebuild_tps = 0.0;
      {
        auto points = points0;
        mobility::RandomDirection mover(n, speeds, world_m, mover_rng);
        graph::Graph g = topology::unit_disk_graph(points, radius);
        for (int w = 0; w < 8; ++w) {  // warm-up, same for both pipelines
          mover.step(points, dt_s);
          g = topology::unit_disk_graph(points, radius);
        }
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t t = 0; t < ticks; ++t) {
          mover.step(points, dt_s);
          g = topology::unit_disk_graph(points, radius);
        }
        rebuild_tps = static_cast<double>(ticks) / seconds_since(start);
      }

      // Incremental pipeline: mobility step + delta scan + CSR patch.
      double incr_tps = 0.0;
      std::uint64_t cand_rebuilds = 0;
      double skin = 0.0;
      double mean_degree = 0.0;
      {
        auto points = points0;
        mobility::RandomDirection mover(n, speeds, world_m, mover_rng);
        topology::LiveTopology topo(points, radius);
        for (int w = 0; w < 8; ++w) {  // warm-up: adaptive skin settles
          mover.step(points, dt_s);
          topo.update(points);
        }
        const std::uint64_t rebuilds_before = topo.index().rebuilds();
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t t = 0; t < ticks; ++t) {
          mover.step(points, dt_s);
          topo.update(points);
        }
        incr_tps = static_cast<double>(ticks) / seconds_since(start);
        cand_rebuilds = topo.index().rebuilds() - rebuilds_before;
        skin = topo.index().skin_fraction();
        mean_degree = 2.0 *
                      static_cast<double>(topo.graph().edge_count()) /
                      static_cast<double>(n);

        // Equivalence gate: after the timed run, the delta-applied graph
        // must equal a fresh rebuild of the final positions.
        const graph::Graph reference =
            topology::unit_disk_graph(points, radius);
        if (topo.graph().edges() != reference.edges()) {
          std::printf("FAIL: incremental graph diverged from rebuild at "
                      "n=%zu %s\n",
                      n, profile.name);
          equivalent = false;
        }
      }

      const double speedup = incr_tps / rebuild_tps;
      table.row({profile.name,
                 util::Table::integer(static_cast<long long>(n)),
                 util::Table::num(mean_degree, 1),
                 util::Table::num(rebuild_tps, 1),
                 util::Table::num(incr_tps, 1),
                 util::Table::num(speedup, 2) + "x",
                 util::Table::integer(static_cast<long long>(cand_rebuilds)),
                 util::Table::num(skin, 2)});
      json.add(profile.name, n, 1, "rebuild_ticks_per_s", rebuild_tps);
      json.add(profile.name, n, 1, "incremental_ticks_per_s", incr_tps);
      json.add(profile.name, n, 1, "speedup", speedup);
    }
  }

  table.note("both pipelines run the identical mobility trajectory; "
             "'cand rebuilds' = candidate-list rebuilds in the timed "
             "window, 'skin' = final adaptive skin fraction");
  table.note("dt = 0.1 s per tick, unit square = 1000 m, radius sized "
             "for mean degree ~10");
  bench::print(table);
  json.write();
  if (!equivalent) return 1;
  return 0;
}
