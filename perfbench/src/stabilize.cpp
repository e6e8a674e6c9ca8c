// stabilize-250k — self-stabilization at scale ("from any state").
//
// World: Poisson points, λ = 250k in the unit square, radius for mean
// degree 8, random protocol ids, DAG names + fusion, renumbered
// cell-major into 16 spatial shards, stepped by sim::ShardedNetwork with
// full stepping on 4 threads. The run repeats epochs: corrupt a seeded
// fraction of the nodes (outside the op), then a fixed number of steps.
//
//   op      = one ShardedNetwork::step()
//   regimes = active (the first kActiveSteps steps after the fault) and
//             steady (the rest of the epoch)
//   correct = every epoch ends legitimate with heads equal to the
//             core::cluster_density oracle over the protocol's DAG names
//   setup   = generation, UDG build, partition, protocol + engine
//             construction and the cold start to the first legitimate
//             state; the median of kSetups identical set-ups
//   memory  = peak RSS after set-up and the first kMinEpochs epochs
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "common.hpp"
#include "core/clustering.hpp"
#include "core/legitimacy.hpp"
#include "core/protocol.hpp"
#include "graph/partition.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "workloads.hpp"

namespace ssmwn::perfbench {

namespace {

constexpr double kLambda = 250000.0;
constexpr double kMeanDegree = 8.0;
constexpr std::size_t kShards = 16;
constexpr unsigned kThreads = 4;
// Recovery from a 10% fault reaches legitimacy in 19-21 steps; the
// epoch leaves room for the two closing checks. The first kActiveSteps
// steps (a fifth of the epoch) are the active regime, so p90 lies in
// the middle of the active steps and p50 among the steady ones.
constexpr double kCorruptFraction = 0.1;
constexpr std::size_t kEpochSteps = 26;
constexpr std::size_t kActiveSteps = 5;
constexpr std::size_t kMinEpochs = 4;
constexpr std::size_t kColdStartCap = 400;
constexpr int kSetups = 3;
// Traced script: 2 × kTraceEpochs epochs, alternately untraced and traced.
constexpr std::size_t kTraceEpochs = 3;

using Engine = sim::ShardedNetwork<core::DensityProtocol>;

core::ClusterOptions cluster_options() {
  core::ClusterOptions options;
  options.use_dag_ids = true;
  options.fusion = true;
  return options;
}

/// The world and the engine stepping it; members are declared in
/// dependency order (the engine references graph, protocol and loss).
struct Instance {
  std::vector<topology::Point> points;
  graph::Graph graph;
  topology::IdAssignment ids;
  std::unique_ptr<core::DensityProtocol> protocol;
  sim::PerfectDelivery loss;
  std::unique_ptr<Engine> engine;
  std::size_t cold_start_steps = 0;
};

/// Heads equal the oracle computed over the protocol's current DAG
/// names, and the structural predicate holds.
bool matches_oracle(const Instance& inst) {
  const auto dag = inst.protocol->dag_id_values();
  const auto oracle =
      core::cluster_density(inst.graph, inst.ids, cluster_options(), dag);
  core::LegitimacyCheck check(inst.graph, *inst.protocol, &oracle);
  (void)check.check();  // baseline for the quiescence clause
  return check.check();
}

std::unique_ptr<Instance> set_up(std::uint64_t seed, Tracer& tracer) {
  auto inst = std::make_unique<Instance>();
  util::Rng rng(seed);
  const double radius = std::sqrt(kMeanDegree / (M_PI * kLambda));
  {
    auto span = tracer.span("topology.generate");
    inst->points = topology::poisson_points(kLambda, rng);
  }
  graph::Graph raw;
  {
    auto span = tracer.span("topology.udg_build");
    raw = topology::unit_disk_graph(inst->points, radius);
  }
  const auto raw_ids = topology::random_ids(raw.node_count(), rng);
  graph::ShardPlan plan;
  {
    auto span = tracer.span("graph.partition");
    plan = graph::plan_spatial_shards(inst->points, radius, kShards);
    inst->points = graph::permuted(plan, inst->points);
    inst->graph = graph::permute_graph(raw, plan);
    inst->ids = graph::permuted(plan, raw_ids);
  }
  raw = graph::Graph();
  {
    auto span = tracer.span("core.protocol_init");
    core::ProtocolConfig config;
    config.cluster = cluster_options();
    config.delta_hint = std::max<std::uint64_t>(2, inst->graph.max_degree());
    inst->protocol = std::make_unique<core::DensityProtocol>(inst->ids, config,
                                                             rng.split());
    inst->engine = std::make_unique<Engine>(inst->graph, *inst->protocol,
                                            inst->loss, plan.bounds, kThreads);
  }
  {
    auto span = tracer.span("sim.cold_start");
    core::LegitimacyCheck legit(inst->graph, *inst->protocol);
    while (!legit.check()) {
      if (inst->cold_start_steps == kColdStartCap) {
        throw std::runtime_error("cold start did not reach legitimacy");
      }
      inst->engine->step();
      ++inst->cold_start_steps;
    }
  }
  if (!matches_oracle(*inst)) {
    throw std::runtime_error("cold start ended away from the oracle");
  }
  return inst;
}

struct EpochLog {
  std::vector<Op> ops;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> steps_to_legit;
  std::uint64_t active_delta_rows = 0;
  std::uint64_t active_steps = 0;
  std::uint64_t steady_deliveries = 0;
  std::uint64_t steady_steps = 0;
  std::vector<double> step_ms_by_index = std::vector<double>(kEpochSteps, 0.0);
  std::size_t epochs = 0;
};

/// One epoch: fault outside the op, then kEpochSteps timed steps. The
/// structural legitimacy check runs after the last two steps (its
/// quiescence clause needs a baseline) and, when `probe` is set, after
/// every step to find how many steps recovery took. The epoch passes
/// when it ends legitimate and on the oracle.
void run_epoch(Instance& inst, util::Rng& fault_rng, Tracer& tracer,
               std::int64_t op_base, bool probe, EpochLog& log) {
  {
    auto span = tracer.span("core.corrupt_fraction");
    inst.protocol->corrupt_fraction(fault_rng, kCorruptFraction);
  }
  core::LegitimacyCheck legit(inst.graph, *inst.protocol);
  std::size_t legit_from = 0;  // steps after which legitimacy held to the end
  bool legit_now = false;
  for (std::size_t k = 0; k < kEpochSteps; ++k) {
    const std::uint64_t rows0 = inst.engine->delta_rows_graded();
    const std::uint64_t msgs0 = inst.engine->messages_delivered();
    const auto t0 = Clock::now();
    {
      auto span =
          tracer.span("sim.step", op_base + static_cast<std::int64_t>(k));
      inst.engine->step();
    }
    const double ms = ms_between(t0, Clock::now());
    const bool active = k < kActiveSteps;
    log.ops.push_back({ms, active ? 1 : 0});
    log.step_ms_by_index[k] += ms;
    if (active) {
      log.active_delta_rows += inst.engine->delta_rows_graded() - rows0;
      ++log.active_steps;
    } else {
      log.steady_deliveries += inst.engine->messages_delivered() - msgs0;
      ++log.steady_steps;
    }
    if (probe || k + 2 >= kEpochSteps) {
      auto span = tracer.span("core.legitimacy_check");
      const bool ok = legit.check();
      if (ok && !legit_now) legit_from = k + 1;
      legit_now = ok;
    }
  }
  bool ok = legit_now;
  {
    auto span = tracer.span("core.oracle_check");
    ok = ok && matches_oracle(inst);
  }
  log.attempted += kEpochSteps;
  if (!ok) log.failed += kEpochSteps;
  if (probe) log.steps_to_legit.push_back(static_cast<double>(legit_from));
  ++log.epochs;
}

void print_profile(const EpochLog& log) {
  std::printf("stabilize-250k mean step ms by index after the fault:");
  for (std::size_t k = 0; k < kEpochSteps; ++k) {
    std::printf(" %.1f", log.step_ms_by_index[k] /
                             static_cast<double>(std::max<std::size_t>(1, log.epochs)));
  }
  std::printf("\n");
}

}  // namespace

Result run_stabilize(const Options& options) {
  Tracer tracer(options.trace);
  Tracer off(false);
  Result result;
  std::unique_ptr<Instance> inst;
  // In the traced run one set-up suffices: setup_s is end-to-end only.
  const int setups = options.trace ? 1 : kSetups;
  const double setup_s = median_setup_s(setups, [&](int) {
    inst.reset();  // free the previous world before building the next
    const auto t0 = Clock::now();
    inst = set_up(options.seed, tracer);
    return seconds_between(t0, Clock::now());
  });
  std::printf("stabilize-250k: n=%zu, %zu edges, cold start %zu steps\n",
              inst->graph.node_count(), inst->graph.edge_count(),
              inst->cold_start_steps);

  util::Rng fault_rng(options.seed ^ 0x5ab1e5ab1e5ab1eULL);
  EpochLog log;
  if (!options.trace) {
    // Memory grows with every epoch's fault (~50 MB per epoch), so the
    // reported peak is taken after a fixed kMinEpochs, and a slow host
    // still runs kMinEpochs epochs (> 100 timed steps).
    double rss_mb = 0.0;
    const auto start = Clock::now();
    while (log.epochs < kMinEpochs ||
           seconds_between(start, Clock::now()) < options.seconds) {
      run_epoch(*inst, fault_rng, off, -1, false, log);
      if (log.epochs == kMinEpochs) rss_mb = peak_rss_mb();
    }
    print_profile(log);
    double total_ms = 0.0;
    for (const Op& op : log.ops) total_ms += op.ms;
    result.correct = regime_census("stabilize-250k", log.ops, {"steady", "active"});
    result.attempted = log.attempted;
    result.failed = log.failed;
    result.add_end_to_end(log.ops,
                          1e3 * static_cast<double>(log.ops.size()) / total_ms,
                          setup_s, rss_mb);
    return result;
  }

  // Traced script: epochs alternate untraced and traced, so both halves
  // share the host's state.
  EpochLog untraced;
  for (std::size_t e = 0; e < 2 * kTraceEpochs; ++e) {
    if (e % 2 == 1) {
      run_epoch(*inst, fault_rng, tracer,
                static_cast<std::int64_t>(e * kEpochSteps), true, log);
    } else {
      run_epoch(*inst, fault_rng, off, -1, true, untraced);
    }
  }
  print_profile(log);
  std::printf("stabilize-250k steps to legitimacy per epoch:");
  for (const double v : log.steps_to_legit) std::printf(" %.0f", v);
  std::printf("\n");
  std::vector<double> active_ms, steady_ms, traced_ms, untraced_ms;
  for (const Op& op : log.ops) {
    (op.regime == 1 ? active_ms : steady_ms).push_back(op.ms);
    traced_ms.push_back(op.ms);
  }
  for (const Op& op : untraced.ops) untraced_ms.push_back(op.ms);
  const auto one = [&](const char* name) {
    const auto d = tracer.durations_ms(name);
    return d.empty() ? 0.0 : d.front() / 1e3;
  };
  result.correct = log.failed == 0 && untraced.failed == 0;
  result.attempted = log.attempted + untraced.attempted;
  result.failed = log.failed + untraced.failed;
  result.add("topology.udg_build_s", one("topology.udg_build"), "s");
  result.add("graph.partition_s", one("graph.partition"), "s");
  result.add("core.protocol_init_s", one("core.protocol_init"), "s");
  result.add("sim.cold_start_steps", static_cast<double>(inst->cold_start_steps),
             "count");
  result.add("sim.step_active_ms", mean(active_ms), "ms");
  result.add("sim.delta_rows_per_step",
             static_cast<double>(log.active_delta_rows) /
                 static_cast<double>(std::max<std::uint64_t>(1, log.active_steps)),
             "count");
  result.add("sim.step_steady_ms", mean(steady_ms), "ms");
  result.add("sim.deliveries_per_step",
             static_cast<double>(log.steady_deliveries) /
                 static_cast<double>(std::max<std::uint64_t>(1, log.steady_steps)),
             "count");
  result.add("stabilize.steps_to_legit", mean(log.steps_to_legit), "count");
  result.add("trace.overhead_pct.stabilize-250k",
             100.0 * (median(traced_ms) / median(untraced_ms) - 1.0), "%");
  tracer.write(options.trace_out);
  return result;
}

}  // namespace ssmwn::perfbench
