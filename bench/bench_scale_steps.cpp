// Step-engine throughput at scale — the hot path this repo's north star
// rides on.
//
// The paper's step-count results (Table 2: neighbors after 1 step,
// density after 2, head after 3 + tree depth) are interesting exactly
// when a "step" over the whole field is cheap. This bench measures
// step() throughput through a recovery window — a warmed-up field,
// corrupt_fraction(0.1), then a fixed number of steps — for the
// distributed density protocol on grid and random-geometric deployments
// at n ∈ {1k, 10k, 100k}, for three configurations:
//
//   * seed    — the owning-frame reference stepper the tests keep as
//               their oracle (tests/support/reference_stepper.hpp):
//               per-step owning frames, one digest-vector heap
//               allocation per node per step
//   * arena   — the step engine (sim::ShardedNetwork) on one thread:
//               flat preallocated frame buffers, zero steady-state
//               allocations
//   * arena×T — the same engine on T workers, one contiguous shard each
//
// Steps/sec and speedups vs the seed stepper are reported per topology.
//
// Environment:
//   SSMWN_SCALE_MAX_N  cap on n (default 100000; CI smoke uses 1000)
//   SSMWN_THREADS      worker count for the parallel row (default:
//                      hardware concurrency)
//   SSMWN_SEED         experiment seed
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench_support.hpp"
#include "core/protocol.hpp"
#include "sim/sharded_network.hpp"
#include "support/reference_stepper.hpp"

namespace {

using namespace ssmwn;

core::DensityProtocol make_protocol(const bench::Instance& inst,
                                    util::Rng& rng) {
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, inst.graph.max_degree());
  return core::DensityProtocol(inst.ids, config, rng.split());
}

/// Recovery-window steps/sec: 20 untimed warm-up steps (caches full, the
/// clustering mostly settled), one identically seeded
/// corrupt_fraction(0.1), then `steps` timed steps. A settled step is
/// no work for the engine (no node steps), so timing one measures
/// nothing.
template <typename Stepper>
double time_recovery(Stepper& stepper, core::DensityProtocol& protocol,
                     std::size_t steps) {
  stepper.run(20);
  util::Rng fault(20050612);
  protocol.corrupt_fraction(fault, 0.1);

  const auto start = std::chrono::steady_clock::now();
  stepper.run(steps);
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(steps) / elapsed;
}

/// `reference` times the owning-frame reference stepper, otherwise the
/// engine at `threads` workers.
double measure(const bench::Instance& inst, util::Rng& rng, bool reference,
               unsigned threads, std::size_t steps) {
  util::Rng local = rng;  // identical protocol state for every engine
  auto protocol = make_protocol(inst, local);
  sim::PerfectDelivery loss;
  if (reference) {
    testsupport::ReferenceStepper stepper(inst.graph, protocol, loss);
    return time_recovery(stepper, protocol, steps);
  }
  sim::ShardedNetwork network(inst.graph, protocol, loss, threads);
  return time_recovery(network, protocol, steps);
}

std::size_t steps_for(std::size_t n) {
  if (n >= 100000) return 3;
  if (n >= 10000) return 10;
  return 30;
}

struct TopologyRow {
  const char* name;
  bench::Instance instance;
};

}  // namespace

int main() {
  const auto max_n = static_cast<std::size_t>(
      util::env_int("SSMWN_SCALE_MAX_N", 100000));
  auto threads =
      static_cast<unsigned>(util::env_int("SSMWN_THREADS", 0));
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }

  bench::print_header(
      "Scale — recovery-window step throughput (CSR + frame arena + "
      "workers)",
      "Engine for the Table 2 knowledge schedule at production scale; "
      "same protocol state for every engine (determinism asserted by "
      "tests/sim/parallel_step_test)",
      1);

  util::Rng root(util::bench_seed());
  bench::JsonReport json("scale_steps");
  const std::size_t sizes[] = {1000, 10000, 100000};

  util::Table table("Steps per second, recovery window (higher is better)");
  table.header({"topology", "n", "mean deg", "seed 1t",
                "arena 1t", "arena " + std::to_string(threads) + "t",
                "arena/seed", "parallel/seed"});

  for (const std::size_t n : sizes) {
    if (n > max_n) continue;
    const std::size_t steps = steps_for(n);
    util::Rng rng = root.split();

    // Grid: the paper's adversarial deployment. Points are spaced 1/side
    // apart in the unit square; radius 1.2/side connects the
    // 4-neighborhood but not the diagonals.
    const auto side = static_cast<std::size_t>(std::llround(std::sqrt(
        static_cast<double>(n))));
    TopologyRow rows[] = {
        {"grid", bench::grid_instance(
                     side, 1.2 / static_cast<double>(side))},
        {"random geometric", bench::poisson_instance(
                                 static_cast<double>(n),
                                 std::sqrt(8.0 / (3.14159 *
                                                  static_cast<double>(n))),
                                 rng)},
    };

    for (auto& row : rows) {
      const auto& inst = row.instance;
      const std::size_t nodes = inst.graph.node_count();
      const double mean_degree =
          nodes == 0 ? 0.0
                     : 2.0 * static_cast<double>(inst.graph.edge_count()) /
                           static_cast<double>(nodes);
      const double seed_sps = measure(inst, rng, /*reference=*/true, 1, steps);
      const double arena_sps =
          measure(inst, rng, /*reference=*/false, 1, steps);
      const double par_sps =
          measure(inst, rng, /*reference=*/false, threads, steps);
      table.row({row.name, util::Table::integer(
                               static_cast<long long>(nodes)),
                 util::Table::num(mean_degree, 1),
                 util::Table::num(seed_sps, 1), util::Table::num(arena_sps, 1),
                 util::Table::num(par_sps, 1),
                 util::Table::num(arena_sps / seed_sps, 2) + "x",
                 util::Table::num(par_sps / seed_sps, 2) + "x"});
      json.add(std::string(row.name) + "/seed", nodes, 1, "steps_per_s",
               seed_sps);
      json.add(std::string(row.name) + "/arena", nodes, 1, "steps_per_s",
               arena_sps);
      json.add(std::string(row.name) + "/parallel", nodes, threads,
               "steps_per_s", par_sps);
    }
  }
  table.note("seed = per-step owning frames (reference stepper); arena = "
             "the engine's flat reusable buffers; xT = the engine on T "
             "threads, one shard each");
  table.note("all engines step the identical protocol state: 20 warm-up "
             "steps, corrupt_fraction(0.1), then the timed steps");
  bench::print(table);
  json.write();
  return 0;
}
