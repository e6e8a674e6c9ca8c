// Spatially sharded step-engine throughput toward million-node runs.
//
// The sharded engine exists so one synchronous step over the whole
// field stays cheap when the field no longer fits one worker's cache:
// nodes are renumbered cell-major (graph::plan_spatial_shards), each
// shard owns a contiguous range plus its own frame arena, and a
// receiver reads a remote sender's row in place from the owner's arena.
// This bench runs
// the full equivalence gate first — the engine must be bit-identical to
// the owning-frame reference stepper at one shard and at SSMWN_SHARDS
// shards, or the numbers are meaningless — then measures steps/sec in
// two regimes (active, recovery) for one shard ("unsharded") against the
// spatial shards on random-geometric deployments at n ∈ {10k, 100k, 1M,
// 10M}.
//
// Environment:
//   SSMWN_SHARD_MAX_N  cap on n (default 1000000; CI smoke uses 10000)
//   SSMWN_SHARDS       shard count for the sharded rows (default 16)
//   SSMWN_THREADS      step-engine workers (default: hardware
//                      concurrency; 1 on the reference machine)
//   SSMWN_SEED         experiment seed
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench_support.hpp"
#include "core/protocol.hpp"
#include "graph/partition.hpp"
#include "sim/sharded_network.hpp"
#include "support/divergence.hpp"
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

/// Steps/sec of `steps` steps after `warm` untimed ones.
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
/// so the recovery window exercises the redelivery fast paths, and a
/// second one 4 steps later, so receivers holding the first fault's
/// phantoms (aged >= 2: the refresh accepts, the holder steps without a
/// rebuild) sit beside the second's (at age <= 1: it declines). The run
/// goes on until every phantom of both faults is evicted. The work
/// counters (sparse-change rows, rows rebuilt, receivers refreshed) must
/// agree across the two engine runs, and the sparse-change rows and
/// refreshes must actually fire.
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
    if (const auto div = testsupport::first_divergent_node(reference, other)) {
      std::fprintf(
          stderr, "EQUIVALENCE FAILURE (%s) at step %zu, node %u:\n%s", label,
          s, static_cast<unsigned>(*div),
          testsupport::describe_divergence(reference, other, *div).c_str());
      return false;
    }
    return true;
  };
  // A phantom planted at step s is evicted by step s + cache_max_age;
  // the last steps run with none left.
  constexpr std::size_t kFirstFault = 20;
  constexpr std::size_t kSecondFault = kFirstFault + 4;
  const std::size_t steps =
      kSecondFault + reference.config().cache_max_age + 3;
  for (std::size_t s = 0; s < steps; ++s) {
    if (s == kFirstFault || s == kSecondFault) {
      // Mass faults, identically seeded for all three protocols, so the
      // remaining steps replay the recovery regime where the payload
      // fast path carries the traffic.
      const std::uint64_t seed = 20050612 + (s - kFirstFault);
      util::Rng f1(seed), f2(seed), f3(seed);
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
  // Every phantom is gone: a settled cache holds exactly the node's
  // neighbors, each refreshed at its last step.
  const auto& g = sharded_inst.instance.graph;
  for (graph::NodeId p = 0; p < g.node_count(); ++p) {
    const auto& cache = reference.state(p).cache;
    const bool aging = std::any_of(cache.begin(), cache.end(),
                                   [](const auto& item) {
                                     return item.second.age > 1;
                                   });
    if (cache.size() != g.degree(p) || aging) {
      std::fprintf(stderr,
                   "EQUIVALENCE FAILURE: node %u still holds a phantom after "
                   "%zu steps\n",
                   static_cast<unsigned>(p), steps);
      return false;
    }
  }
  if (net_ref.messages_delivered() != net_one.messages_delivered() ||
      net_ref.messages_delivered() != net_shard.messages_delivered()) {
    std::fprintf(stderr, "EQUIVALENCE FAILURE: message counters diverged\n");
    return false;
  }
  const auto counters = [](const auto& net) {
    return std::array<std::uint64_t, 3>{net.delta_rows_graded(),
                                        net.rows_rebuilt(),
                                        net.receivers_refreshed()};
  };
  const auto one_counts = counters(net_one);
  const auto shard_counts = counters(net_shard);
  if (one_counts != shard_counts || one_counts[0] == 0 ||
      one_counts[2] == 0) {
    std::fprintf(stderr,
                 "EQUIVALENCE FAILURE: work counters diverged (one shard / "
                 "sharded: sparse-change rows %llu / %llu, rows rebuilt "
                 "%llu / %llu, receivers refreshed %llu / %llu; "
                 "sparse-change rows and refreshes must be nonzero)\n",
                 static_cast<unsigned long long>(one_counts[0]),
                 static_cast<unsigned long long>(shard_counts[0]),
                 static_cast<unsigned long long>(one_counts[1]),
                 static_cast<unsigned long long>(shard_counts[1]),
                 static_cast<unsigned long long>(one_counts[2]),
                 static_cast<unsigned long long>(shard_counts[2]));
    return false;
  }
  std::printf("equivalence gate: PASS (n=%zu, %zu shards, %u threads, "
              "faults at steps %zu and %zu, %zu steps bit-identical across "
              "reference/one-shard/sharded, every phantom evicted; "
              "%llu sparse-change rows, %llu rows rebuilt, %llu receivers "
              "refreshed agree)\n\n",
              g.node_count(), shards, threads, kFirstFault, kSecondFault,
              steps, static_cast<unsigned long long>(one_counts[0]),
              static_cast<unsigned long long>(one_counts[1]),
              static_cast<unsigned long long>(one_counts[2]));
  return true;
}

std::size_t steps_for(std::size_t n) {
  if (n >= 1000000) return 3;
  if (n >= 100000) return 5;
  return 20;
}

/// A step's cost depends on the regime (the redelivery fast paths
/// collapse deliveries of settled rows, and a node whose inputs did not
/// move does not step at all), so one number does not characterize it.
/// Measured per shard layout, in one run:
///   active   — steps 3..5: caches full, id sequences held, but nearly
///              every digest payload still churning (the post-cold-start
///              regime);
///   recovery — at step 10, corrupt_fraction(0.1), then `steps` steps:
///              the fault-then-recover window stabilize-250k times. (A
///              converged step steps no node, so timing one measures no
///              work.)
struct RegimeSps {
  double active = 0.0;
  double recovery = 0.0;
};

template <typename Network>
RegimeSps time_regimes(Network& network, core::DensityProtocol& protocol,
                       std::size_t steps) {
  RegimeSps out;
  out.active = time_steps(network, 3, 3);
  network.run(4);
  util::Rng fault(20050612);
  protocol.corrupt_fraction(fault, 0.1);
  out.recovery = time_steps(network, 0, steps);
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
      "Sharded — spatial shards at scale",
      "Cell-major renumbered shards, each with its own frame arena; "
      "cross-shard rows are read in place from the owner's arena "
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
  table.header({"n", "mean deg", "unsharded active", "unsharded recovery",
                "sharded " + shard_tag + " active",
                "sharded " + shard_tag + " recovery"});

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
      flat = time_regimes(network, protocol, steps);
    }
    RegimeSps shard;
    {
      auto protocol = make_protocol(sharded_inst.instance, rng);
      sim::PerfectDelivery loss;
      sim::ShardedNetwork network(sharded_inst.instance.graph, protocol,
                                  loss, sharded_inst.bounds, threads);
      shard = time_regimes(network, protocol, steps);
    }

    table.row({util::Table::integer(static_cast<long long>(nodes)),
               util::Table::num(mean_degree, 1),
               util::Table::num(flat.active, 2),
               util::Table::num(flat.recovery, 2),
               util::Table::num(shard.active, 2),
               util::Table::num(shard.recovery, 2)});
    json.add("poisson/unsharded-active", nodes, 1, "steps/s", flat.active);
    json.add("poisson/unsharded", nodes, 1, "steps/s", flat.recovery);
    json.add("poisson/sharded-active", nodes, threads, "steps/s",
             shard.active);
    json.add("poisson/sharded", nodes, threads, "steps/s", shard.recovery);
  }

  table.note("both rows step the identical protocol state on the "
             "cell-major renumbered world; unsharded = one shard on one "
             "thread, the sharded rows use " +
             std::to_string(shards) + " spatial shards");
  table.note("active = steps 3..5 (full payload churn over settled id "
             "sequences); recovery = corrupt_fraction(0.1) at step 10, "
             "then 20 steps (5 at 100k, 3 from 1M); a converged step steps "
             "no node, so none is timed alone");
  table.note("single-worker machines measure the sharding overhead "
             "(per-shard arenas, cross-shard reads); the parallel win needs "
             "SSMWN_THREADS > 1");
  bench::print(table);
  json.write();
  return 0;
}
