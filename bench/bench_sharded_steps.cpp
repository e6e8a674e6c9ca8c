// Spatially sharded step-engine throughput toward million-node runs.
//
// The sharded engine exists so one synchronous step over the whole
// field stays cheap when the field no longer fits one worker's cache:
// nodes are renumbered cell-major (graph::plan_spatial_shards), each
// shard owns a contiguous range plus its own frame arena, and all
// cross-shard traffic rides per-shard-pair mailboxes. This bench runs
// the full equivalence gate first — the engine must be bit-identical to
// the owning-frame reference stepper at one shard and at SSMWN_SHARDS
// shards, or the numbers are meaningless — then measures steady-state
// steps/sec for one shard ("unsharded") against the spatial shards on
// random-geometric deployments at n ∈ {10k, 100k, 1M, 10M}.
//
// Environment:
//   SSMWN_SHARD_MAX_N  cap on n (default 1000000; CI smoke uses 10000)
//   SSMWN_SHARDS       shard count for the sharded rows (default 16)
//   SSMWN_THREADS      step-engine workers (default: hardware
//                      concurrency; 1 on the reference machine)
//   SSMWN_SEED         experiment seed
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench_support.hpp"
#include "core/protocol.hpp"
#include "graph/partition.hpp"
#include "sim/sharded_network.hpp"
#include "support/reference_stepper.hpp"

namespace {

using namespace ssmwn;

core::DensityProtocol make_protocol(const bench::Instance& inst,
                                    const util::Rng& rng) {
  util::Rng local = rng;  // identical protocol state for every engine
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, inst.graph.max_degree());
  return core::DensityProtocol(inst.ids, config, local.split());
}

/// Steady-state steps/sec over an already constructed engine.
template <typename Network>
double time_steps(Network& network, std::size_t warm, std::size_t steps) {
  network.run(warm);
  const auto start = std::chrono::steady_clock::now();
  network.run(steps);
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(steps) / elapsed;
}

/// Renumbers `inst` cell-major for `shards` spatial shards. Falls back
/// to contiguous chunks when the plan degenerates (n = 0).
struct ShardedInstance {
  bench::Instance instance;
  std::vector<std::size_t> bounds;
};

ShardedInstance shard_instance(const bench::Instance& inst, double radius,
                               std::size_t shards) {
  ShardedInstance out;
  const auto plan = graph::plan_spatial_shards(inst.points, radius, shards);
  if (!plan.valid()) {
    out.instance = inst;
    out.bounds =
        graph::plan_contiguous_shards(inst.graph.node_count(), shards).bounds;
    return out;
  }
  out.instance.points = graph::permuted(plan, inst.points);
  out.instance.graph = graph::permute_graph(inst.graph, plan);
  out.instance.ids = graph::permuted(plan, inst.ids);
  out.bounds = plan.bounds;
  return out;
}

/// The gate: lockstep steps on a mid-size world must stay
/// bit-identical (state and message counters) or the bench aborts —
/// a fast sharded engine that drifts is a bug, not a result. Three
/// steppers run side by side: the owning-frame reference stepper (no
/// fast paths), the engine on one shard, and the engine on the spatial
/// shards. After 20 clean steps a mass fault is injected into all three
/// so the recovery window exercises the redelivery fast paths. The
/// sparse-change row counters must also agree across the two engine
/// runs and must actually fire.
bool equivalence_gate(util::Rng& rng, std::size_t shards, unsigned threads) {
  const auto inst = bench::poisson_instance(2000.0, 0.035, rng);
  const auto sharded_inst = shard_instance(inst, 0.035, shards);
  auto reference = make_protocol(sharded_inst.instance, rng);
  auto one = make_protocol(sharded_inst.instance, rng);
  auto candidate = make_protocol(sharded_inst.instance, rng);
  sim::PerfectDelivery loss_a, loss_b, loss_c;
  testsupport::ReferenceStepper net_ref(sharded_inst.instance.graph,
                                        reference, loss_a);
  sim::ShardedNetwork net_one(sharded_inst.instance.graph, one, loss_b);
  sim::ShardedNetwork net_shard(sharded_inst.instance.graph, candidate,
                                loss_c, sharded_inst.bounds, threads);
  const auto check = [&](std::size_t s, const core::DensityProtocol& other,
                         const char* label) -> bool {
    if (const auto div = core::first_divergent_node(reference, other)) {
      std::fprintf(stderr,
                   "EQUIVALENCE FAILURE (%s) at step %zu, node %u:\n%s",
                   label, s, static_cast<unsigned>(*div),
                   core::describe_divergence(reference, other, *div).c_str());
      return false;
    }
    return true;
  };
  for (std::size_t s = 0; s < 35; ++s) {
    if (s == 20) {
      // One mass fault, identically seeded for all three protocols, so
      // the remaining steps replay the recovery regime where the
      // payload fast path carries the traffic.
      util::Rng f1(20050612), f2(20050612), f3(20050612);
      reference.corrupt_fraction(f1, 0.2);
      one.corrupt_fraction(f2, 0.2);
      candidate.corrupt_fraction(f3, 0.2);
    }
    net_ref.step();
    net_one.step();
    net_shard.step();
    if (!check(s, one, "one shard") || !check(s, candidate, "sharded")) {
      return false;
    }
  }
  if (net_ref.messages_delivered() != net_one.messages_delivered() ||
      net_ref.messages_delivered() != net_shard.messages_delivered()) {
    std::fprintf(stderr, "EQUIVALENCE FAILURE: message counters diverged\n");
    return false;
  }
  if (net_one.delta_rows_graded() == 0 ||
      net_one.delta_rows_graded() != net_shard.delta_rows_graded()) {
    std::fprintf(stderr,
                 "EQUIVALENCE FAILURE: sparse-change row counters diverged "
                 "(one shard %llu, sharded %llu; both must be nonzero)\n",
                 static_cast<unsigned long long>(net_one.delta_rows_graded()),
                 static_cast<unsigned long long>(net_shard.delta_rows_graded()));
    return false;
  }
  std::printf("equivalence gate: PASS (n=%zu, %zu shards, %u threads, "
              "35 steps bit-identical across reference/one-shard/sharded, "
              "%llu sparse-change rows agree)\n\n",
              sharded_inst.instance.graph.node_count(), shards, threads,
              static_cast<unsigned long long>(net_one.delta_rows_graded()));
  return true;
}

std::size_t steps_for(std::size_t n) {
  if (n >= 1000000) return 3;
  if (n >= 100000) return 5;
  return 20;
}

/// A step's cost depends on the regime (the redelivery fast paths
/// collapse deliveries of settled rows), so one number does not
/// characterize it. Measured per shard layout, in one run:
///   active — steps 3..5: caches full, id sequences held, but nearly
///            every digest payload still churning (the post-fault /
///            post-cold-start recovery regime);
///   steady — steps 10+: the clustering has converged (metric-degree-8
///            Poisson worlds settle ≈99% of frame rows by step 10), the
///            regime the old warm-up never reached at n = 1M.
struct RegimeSps {
  double active = 0.0;
  double steady = 0.0;
};

template <typename Network>
RegimeSps time_regimes(Network& network, std::size_t steps) {
  RegimeSps out;
  out.active = time_steps(network, 3, 3);
  out.steady = time_steps(network, 4, steps);
  return out;
}

}  // namespace

int main() {
  const auto max_n = static_cast<std::size_t>(
      util::env_int("SSMWN_SHARD_MAX_N", 1000000));
  const auto shards = static_cast<std::size_t>(
      util::env_int("SSMWN_SHARDS", 16));
  auto threads = static_cast<unsigned>(util::env_int("SSMWN_THREADS", 0));
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }

  bench::print_header(
      "Sharded — spatial shards + boundary mailboxes at scale",
      "Cell-major renumbered shards, each with its own frame arena; "
      "cross-shard frames ride per-shard-pair mailboxes "
      "(docs/ARCHITECTURE.md §8). Bit-identical to the reference stepper "
      "at any shard count — gated below before any timing",
      1);

  util::Rng root(util::bench_seed());
  util::Rng gate_rng = root.split();
  if (!equivalence_gate(gate_rng, shards, threads)) return 1;

  bench::JsonReport json("sharded_steps");
  util::Table table("Steps per second by regime (higher is better)");
  const std::string shard_tag =
      std::to_string(shards) + "s/" + std::to_string(threads) + "t";
  table.header({"n", "mean deg", "unsharded active", "unsharded steady",
                "sharded " + shard_tag + " active",
                "sharded " + shard_tag + " steady"});

  const std::size_t sizes[] = {10000, 100000, 1000000, 10000000};
  for (const std::size_t n : sizes) {
    if (n > max_n) continue;
    util::Rng rng = root.split();
    // Mean degree 8 — the regime where clustering is informative and a
    // step is delivery-dominated.
    const double radius =
        std::sqrt(8.0 / (3.14159 * static_cast<double>(n)));
    const auto inst =
        bench::poisson_instance(static_cast<double>(n), radius, rng);
    const auto sharded_inst = shard_instance(inst, radius, shards);
    const std::size_t nodes = sharded_inst.instance.graph.node_count();
    const double mean_degree =
        nodes == 0
            ? 0.0
            : 2.0 *
                  static_cast<double>(sharded_inst.instance.graph.edge_count()) /
                  static_cast<double>(nodes);
    const std::size_t steps = steps_for(n);

    RegimeSps flat;
    {
      auto protocol = make_protocol(sharded_inst.instance, rng);
      sim::PerfectDelivery loss;
      sim::ShardedNetwork network(sharded_inst.instance.graph, protocol,
                                  loss);
      flat = time_regimes(network, steps);
    }
    RegimeSps shard;
    {
      auto protocol = make_protocol(sharded_inst.instance, rng);
      sim::PerfectDelivery loss;
      sim::ShardedNetwork network(sharded_inst.instance.graph, protocol,
                                  loss, sharded_inst.bounds, threads);
      shard = time_regimes(network, steps);
    }

    table.row({util::Table::integer(static_cast<long long>(nodes)),
               util::Table::num(mean_degree, 1),
               util::Table::num(flat.active, 2),
               util::Table::num(flat.steady, 2),
               util::Table::num(shard.active, 2),
               util::Table::num(shard.steady, 2)});
    json.add("poisson/unsharded-active", nodes, 1, "steps/s", flat.active);
    json.add("poisson/unsharded", nodes, 1, "steps/s", flat.steady);
    json.add("poisson/sharded-active", nodes, threads, "steps/s",
             shard.active);
    json.add("poisson/sharded", nodes, threads, "steps/s", shard.steady);
  }

  table.note("both rows step the identical protocol state on the "
             "cell-major renumbered world; unsharded = one shard on one "
             "thread, the sharded rows use " +
             std::to_string(shards) + " spatial shards");
  table.note("active = steps 3..5 (recovery regime: full payload churn "
             "over settled id sequences); steady = steps 10 onward (the "
             "converged regime the table's former single number claimed "
             "but, at n = 1M, never warmed up to)");
  table.note("single-worker machines measure the sharding overhead "
             "(mailboxes + per-shard arenas); the parallel win needs "
             "SSMWN_THREADS > 1");
  bench::print(table);
  json.write();
  return 0;
}
