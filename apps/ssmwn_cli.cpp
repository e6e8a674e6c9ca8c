// ssmwn — command-line driver for clustering experiments.
//
//   ssmwn cluster  --n 500 --radius 0.08 [--grid] [--dag] [--fusion]
//                  [--metric density|degree|lowest-id|max-min]
//                  [--seed S] [--dot out.dot] [--csv out.csv] [--map]
//   ssmwn protocol --n 200 --radius 0.1 [--tau 0.8] [--steps 100]
//                  [--corrupt 0.3] [--dag] [--threads 4] [--shards 8]
//                  [--scheduler sync|async] [--daemon randomized|...]
//                  [--period 1.0] [--period-jitter 0.1] [--link-delay 0.02]
//   ssmwn routing  --n 500 --radius 0.08 [--pairs 300]
//   ssmwn campaign spec-file [--threads 4] [--shards 8] [--csv F] [--json F]
//                  [--checkpoint F] [--checkpoint-every N] [--resume F]
//   ssmwn serve    [--port N] [--threads 4] [--shards 8]
//   ssmwn submit   spec-file --port N
//
// `cluster` builds a deployment, clusters it, and prints the metrics of
// the paper's evaluation (optionally a DOT file, a per-node CSV, or an
// ASCII map for grid deployments). `protocol` runs the distributed
// self-stabilizing protocol and reports convergence. `routing` compares
// flat vs hierarchical routing. `campaign` expands a declarative
// experiment spec into a replication grid and runs it sharded across a
// worker pool (src/campaign/), optionally publishing resumable
// checkpoints. `serve` is the long-running daemon form of `campaign`:
// specs stream in over a framed TCP protocol, results stream back;
// `submit` is the matching client.
//
// Exit codes: 0 success, 1 run failure (a simulation ran but did not
// meet its success condition, or an output file could not be written),
// 2 bad arguments, a malformed spec, or an unusable checkpoint.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "mobility/mobility.hpp"
#include "cluster/baselines.hpp"
#include "cluster/max_min.hpp"
#include "core/clustering.hpp"
#include "core/dag_ids.hpp"
#include "core/legitimacy.hpp"
#include "core/protocol.hpp"
#include "graph/dot.hpp"
#include "graph/partition.hpp"
#include "metrics/cluster_metrics.hpp"
#include "routing/routing.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sim/async_network.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "sim/trace.hpp"
#include "stabilize/convergence.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/incremental.hpp"
#include "topology/udg.hpp"
#include "util/args.hpp"
#include "util/atomic_file.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "verify/certifier.hpp"
#include "verify/shrink.hpp"

namespace {

using namespace ssmwn;

constexpr int kExitOk = 0;
constexpr int kExitRunFailure = 1;
constexpr int kExitUsage = 2;

/// Validates a --threads value shared by `protocol`, `campaign`, and
/// `serve` (0 = hardware concurrency — a deliberate in-range meaning,
/// not a degenerate value). Returns the parsed value or throws the
/// bad-arguments exception.
unsigned parse_threads(const util::Args& args) {
  return static_cast<unsigned>(args.get_int_in("threads", 1, 0, 65536));
}

/// `--seed` is consumed as uint64, so a negative value would wrap
/// through the cast into a surprising (and irreproducible-looking)
/// seed; reject it instead.
std::uint64_t parse_seed(const util::Args& args, std::int64_t fallback) {
  return static_cast<std::uint64_t>(args.get_int_in(
      "seed", fallback, 0, std::numeric_limits<std::int64_t>::max()));
}

/// Validates the --shards execution knob shared by `protocol` and
/// `campaign`. Like --threads it must never influence results: <= 1
/// keeps the default shape (one shard per step-engine worker), >= 2
/// cuts that many contiguous shards, and the trajectory is bit-identical
/// at any value (tests/sim/sharded_equivalence_test.cpp), so
/// pre-existing outputs stay byte-for-byte unchanged.
std::size_t parse_shards(const util::Args& args) {
  return static_cast<std::size_t>(args.get_int_in("shards", 0, 0, 1'000'000));
}

struct Deployment {
  std::vector<topology::Point> points;
  graph::Graph graph;
  topology::IdAssignment ids;
  std::size_t grid_side = 0;  // nonzero iff --grid
};

Deployment make_deployment(const util::Args& args, util::Rng& rng) {
  Deployment d;
  // Both feed size_t/geometry code paths: a negative --n would wrap
  // through the cast into a ~2^64 allocation, a non-positive radius
  // yields an empty graph that *looks* like a result.
  const auto n =
      static_cast<std::size_t>(args.get_int_in("n", 500, 1, 10'000'000));
  const double radius = args.get_double_in("radius", 0.08, 1e-9, 1e9);
  if (args.get_bool("grid", false)) {
    d.grid_side = topology::grid_side_for(n);
    d.points = topology::grid_points(d.grid_side);
    d.ids = topology::sequential_ids(d.points.size());
  } else {
    d.points = topology::uniform_points(n, rng);
    d.ids = topology::random_ids(n, rng);
  }
  d.graph = topology::unit_disk_graph(d.points, radius);
  return d;
}

int run_cluster(const util::Args& args, util::Rng& rng) {
  const auto d = make_deployment(args, rng);
  core::ClusterOptions options;
  options.fusion = args.get_bool("fusion", false);
  options.incumbency = args.get_bool("incumbency", false);
  options.use_dag_ids = args.get_bool("dag", false);

  const std::string metric = args.get("metric", "density");
  core::ClusteringResult result;
  if (metric == "density") {
    if (options.use_dag_ids) {
      const auto dag = core::build_dag_ids(d.graph, d.ids, {}, rng);
      result = core::cluster_density(d.graph, d.ids, options, dag.ids);
    } else {
      result = core::cluster_density(d.graph, d.ids, options);
    }
  } else if (metric == "degree") {
    result = cluster::cluster_highest_degree(d.graph, d.ids, options);
  } else if (metric == "lowest-id") {
    result = cluster::cluster_lowest_id(d.graph, d.ids, options);
  } else if (metric == "max-min") {
    result = cluster::cluster_max_min(
        d.graph, d.ids, static_cast<std::size_t>(args.get_int_in("d", 2, 1, 64)));
  } else {
    std::fprintf(stderr, "unknown --metric '%s'\n", metric.c_str());
    return 2;
  }

  const auto stats = metrics::analyze(d.graph, result);
  std::printf("nodes=%zu links=%zu max_degree=%zu\n", d.graph.node_count(),
              d.graph.edge_count(), d.graph.max_degree());
  std::printf("clusters=%zu mean_size=%.1f head_ecc=%.2f tree_depth=%.2f "
              "min_head_sep=%zu fairness=%.2f\n",
              stats.cluster_count, stats.mean_cluster_size,
              stats.mean_head_eccentricity, stats.mean_tree_depth,
              stats.min_head_separation,
              metrics::cluster_size_fairness(result));

  if (args.has("map") && d.grid_side > 0) {
    std::fputs(metrics::render_grid_clusters(d.grid_side, result).c_str(),
               stdout);
  }
  if (const auto path = args.get("dot", ""); !path.empty()) {
    graph::DotOptions dot_options;
    dot_options.positions.reserve(d.points.size());
    for (const auto& p : d.points) {
      dot_options.positions.emplace_back(p.x, p.y);
    }
    dot_options.cluster_of = result.head_index;
    dot_options.is_head = result.is_head;
    dot_options.parent = result.parent;
    std::ofstream out(path);
    out << graph::to_dot(d.graph, dot_options);
    std::printf("wrote %s\n", path.c_str());
  }
  if (const auto path = args.get("csv", ""); !path.empty()) {
    std::ofstream out(path);
    out << "node,id,density,head,parent,is_head\n";
    for (graph::NodeId p = 0; p < d.graph.node_count(); ++p) {
      out << p << ',' << d.ids[p] << ',' << result.metric[p] << ','
          << result.head_id[p] << ',' << d.ids[result.parent[p]] << ','
          << int{result.is_head[p]} << '\n';
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

/// Parses and validates the async-engine knobs (--period,
/// --period-jitter, --link-delay, --daemon) shared by the async and
/// live-async paths — every path must apply the same range checks.
sim::AsyncConfig parse_async_config(const util::Args& args,
                                    double default_period) {
  sim::AsyncConfig async;
  async.period_s = args.get_double("period", default_period);
  // Half-open ranges: the largest double below the open bound.
  async.period_jitter = args.get_double_in("period-jitter", 0.1, 0.0,
                                           std::nextafter(1.0, 0.0));
  async.link_delay_s = args.get_double_in("link-delay", 0.02, 0.0,
                                          std::nextafter(1e9, 0.0));
  // Lower bound = one virtual-time tick (1 µs): a sub-tick period
  // cannot advance the event clock.
  if (!(async.period_s >= 1e-6) || async.period_s >= 1e9) {
    throw std::invalid_argument("--period must be in [1e-6, 1e9) seconds");
  }
  const std::string daemon = args.get("daemon", "randomized");
  if (daemon == "synchronous") {
    async.daemon = sim::DaemonKind::kSynchronous;
  } else if (daemon == "randomized") {
    async.daemon = sim::DaemonKind::kRandomized;
  } else if (daemon == "unfair") {
    async.daemon = sim::DaemonKind::kUnfairRoundRobin;
  } else {
    throw std::invalid_argument(
        "--daemon must be synchronous|randomized|unfair (got '" + daemon +
        "')");
  }
  return async;
}

/// `--stepping full|dirty` (protocol subcommand): selects the classic
/// full sweep or the quiescence-aware dirty-region stepper. Results are
/// bit-identical; only the per-tick cost changes.
sim::Stepping parse_stepping_flag(const util::Args& args) {
  const std::string stepping = args.get("stepping", "full");
  if (stepping == "full") return sim::Stepping::kFull;
  if (stepping == "dirty") return sim::Stepping::kDirty;
  throw std::invalid_argument("--stepping must be full|dirty (got '" +
                              stepping + "')");
}

/// Rejects the async-only flags when the selected mode never reads them
/// — a silently ignored --daemon would mislabel an experiment.
void reject_async_flags(const util::Args& args) {
  for (const char* async_only :
       {"daemon", "period", "period-jitter", "link-delay"}) {
    if (args.has(async_only)) {
      throw std::invalid_argument(std::string("--") + async_only +
                                  " requires --scheduler async");
    }
  }
}

/// `protocol --scheduler async`: the event-driven engine. Runs the
/// protocol from a cold start (and optionally from a corrupted state)
/// under the chosen daemon and reports virtual-time convergence and
/// messages-to-convergence instead of step counts.
int run_protocol_async(const util::Args& args, const Deployment& d,
                       core::DensityProtocol& protocol, util::Rng& rng) {
  const sim::AsyncConfig async = parse_async_config(args, 1.0);
  const std::string daemon = args.get("daemon", "randomized");

  const double tau = args.get_double_in("tau", 1.0, 1e-9, 1.0);
  const auto medium = sim::make_loss_model(tau, rng.split());
  sim::AsyncNetwork network(d.graph, protocol, *medium, async, rng.split());
  const sim::Stepping stepping = parse_stepping_flag(args);
  network.set_stepping(stepping);

  // Shared legitimacy definition (core/legitimacy.hpp) — the CLI and
  // the campaign runner must agree on what "converged" means.
  const bool exact =
      core::head_identity_is_deterministic(protocol.config().cluster);
  core::ClusteringResult oracle;
  if (exact) {
    oracle = core::cluster_density(d.graph, d.ids,
                                   protocol.config().cluster);
  }
  core::LegitimacyCheck legitimacy(d.graph, protocol,
                                   exact ? &oracle : nullptr);

  const auto periods =
      static_cast<double>(args.get_int_in("steps", 100, 1, 1'000'000));
  auto settle = [&](const char* label) {
    legitimacy.reset();
    // settle_async counts messages relative to the phase start, so a
    // recovery phase reports only its own traffic, not the cold
    // start's.
    const auto report = sim::settle_async(
        network, [&] { return legitimacy.check(); }, periods);
    std::printf("%s: %s at t=%.2fs (virtual), %llu messages to "
                "convergence, %llu delivered this phase, %llu events\n",
                label, report.converged ? "converged" : "NOT converged",
                report.stabilization_time_s,
                static_cast<unsigned long long>(report.messages_to_converge),
                static_cast<unsigned long long>(report.messages_total),
                static_cast<unsigned long long>(network.events_processed()));
    return report.converged;
  };

  std::printf("scheduler=async daemon=%s period=%gs jitter=%g "
              "link_delay=%gs\n",
              daemon.c_str(), async.period_s, async.period_jitter,
              async.link_delay_s);
  bool ok = settle("cold start");

  const double corrupt = args.get_double_in("corrupt", 0.0, 0.0, 1.0);
  if (corrupt > 0.0) {
    util::Rng chaos(rng());
    const auto hit = protocol.corrupt_fraction(chaos, corrupt);
    std::printf("corrupted %zu nodes\n", hit);
    ok = settle("recovery") && ok;
  }
  std::size_t heads = 0;
  for (const char flag : protocol.head_flags()) heads += flag != 0;
  std::printf("final cluster-heads: %zu\n", heads);
  if (stepping == sim::Stepping::kDirty) {
    std::printf("dirty stepping: %llu rule sweeps run, %llu elided\n",
                static_cast<unsigned long long>(network.activity().nodes_stepped()),
                static_cast<unsigned long long>(network.activity().nodes_skipped()));
  }
  return ok ? kExitOk : kExitRunFailure;
}

/// `protocol --live`: protocol-under-mobility re-convergence, on either
/// engine. Each window moves the nodes by --window-s seconds of the
/// chosen mobility model, applies the topology change to the *running*
/// network (--topology incremental: edge deltas + eager stale-link
/// invalidation; rebuild: fresh graph, recovery by cache aging alone),
/// and measures the time and messages to re-reach legitimacy.
int run_protocol_live(const util::Args& args, const Deployment& d,
                      core::DensityProtocol& protocol, util::Rng& rng,
                      bool async_engine) {
  const std::string update = args.get("topology", "incremental");
  if (update != "incremental" && update != "rebuild") {
    throw std::invalid_argument(
        "--topology must be incremental|rebuild (got '" + update + "')");
  }
  const bool incremental = update == "incremental";
  const double radius = args.get_double_in("radius", 0.08, 1e-9, 1e9);
  const double speed_min =
      args.get_double_in("speed-min", 0.0, 0.0, std::nextafter(1e9, 0.0));
  const double speed_max =
      args.get_double_in("speed-max", 1.6, 0.0, std::nextafter(1e9, 0.0));
  if (speed_max < speed_min) {
    throw std::invalid_argument(
        "--speed-min/--speed-max must satisfy min <= max");
  }
  const double window_s = args.get_double("window-s", 2.0);
  if (!(window_s >= 1e-6) || window_s >= 1e9) {
    throw std::invalid_argument("--window-s must be in [1e-6, 1e9) seconds");
  }
  const auto windows_raw = args.get_int("windows", 20);
  if (windows_raw < 1 || windows_raw > 1'000'000) {
    throw std::invalid_argument("--windows must be in [1, 1e6]");
  }
  const int windows = static_cast<int>(windows_raw);  // fits %d after check
  const auto horizon_rounds =
      static_cast<double>(args.get_int_in("steps", 100, 1, 1'000'000));

  const mobility::SpeedRange speeds{speed_min, speed_max};
  const std::string mobility = args.get("mobility", "random-direction");
  auto points = d.points;
  std::unique_ptr<mobility::MobilityModel> mover;
  if (mobility == "random-direction") {
    mover = std::make_unique<mobility::RandomDirection>(
        points.size(), speeds, 1000.0, rng.split());
  } else if (mobility == "random-waypoint") {
    mover = std::make_unique<mobility::RandomWaypoint>(points.size(), speeds,
                                                       1000.0, rng.split());
  } else {
    throw std::invalid_argument(
        "--mobility must be random-direction|random-waypoint (got '" +
        mobility + "')");
  }

  // One Graph object lives for the whole run; both engines observe it.
  std::optional<topology::LiveTopology> live;
  graph::DynamicGraph rebuilt;
  if (incremental) {
    live.emplace(points, radius);
  } else {
    rebuilt.reset(topology::unit_disk_graph(points, radius));
  }
  const graph::Graph& g = incremental ? live->graph() : rebuilt.view();

  const double tau = args.get_double_in("tau", 1.0, 1e-9, 1.0);
  const auto medium = sim::make_loss_model(tau, rng.split());

  const bool exact =
      core::head_identity_is_deterministic(protocol.config().cluster);
  core::ClusteringResult oracle;
  auto recompute_oracle = [&] {
    if (exact) {
      oracle = core::cluster_density(g, d.ids, protocol.config().cluster);
    }
  };
  recompute_oracle();
  core::LegitimacyCheck legitimacy(g, protocol, exact ? &oracle : nullptr);

  std::printf("live mode: %s engine, topology=%s, %s %g-%g m/s, %d windows "
              "of %gs\n",
              async_engine ? "async" : "sync", update.c_str(),
              mobility.c_str(), speed_min, speed_max, windows, window_s);

  // Per-phase settle, unified across engines (sync rounds are scaled by
  // window_s so both report virtual seconds).
  std::optional<sim::ShardedNetwork<core::DensityProtocol>> sync_net;
  std::optional<sim::AsyncNetwork<core::DensityProtocol>> async_net;
  const sim::Stepping stepping = parse_stepping_flag(args);
  const bool dirty = stepping == sim::Stepping::kDirty;
  if (async_engine) {
    async_net.emplace(g, protocol, *medium, parse_async_config(args, window_s),
                      rng.split());
    async_net->set_stepping(stepping);
  } else {
    reject_async_flags(args);
    if (dirty && tau < 1.0) {
      throw std::invalid_argument(
          "--stepping dirty on the synchronous engine requires --tau 1 "
          "(use --scheduler async for lossy dirty runs)");
    }
    sync_net.emplace(g, protocol, *medium, parse_threads(args));
    sync_net->set_stepping(stepping);
  }
  auto settle = [&] {
    legitimacy.reset();
    if (async_engine) {
      const double start_s = async_net->now_seconds();
      auto report = sim::settle_async(
          *async_net, [&] { return legitimacy.check(); }, horizon_rounds);
      report.stabilization_time_s -= start_s;
      report.time_simulated_s -= start_s;
      return report;
    }
    std::size_t rounds = 0;
    const std::uint64_t base = sync_net->messages_delivered();
    return stabilize::run_until_stable_virtual(
        [&] {
          sync_net->step();
          return static_cast<double>(++rounds) * window_s;
        },
        [&] { return sync_net->messages_delivered() - base; },
        [&] { return legitimacy.check(); }, 3.0 * window_s,
        horizon_rounds * window_s);
  };

  const auto cold = settle();
  std::printf("cold start: %s at t=%.2fs (virtual), %llu messages\n",
              cold.converged ? "converged" : "NOT converged",
              cold.converged ? cold.stabilization_time_s
                             : cold.time_simulated_s,
              static_cast<unsigned long long>(
                  cold.converged ? cold.messages_to_converge
                                 : cold.messages_total));

  std::size_t reconverged = 0;
  double time_sum = 0.0, msg_sum = 0.0;
  for (int w = 0; w < windows; ++w) {
    mover->step(points, window_s);
    std::size_t grew = 0, broke = 0;
    if (async_engine) {
      async_net->schedule_topology_update(
          async_net->now(), [&]() -> const graph::EdgeDelta& {
            if (incremental) {
              const auto& delta = live->update(points);
              grew = delta.added.size();
              broke = delta.removed.size();
              return delta;
            }
            static const graph::EdgeDelta kNoDelta;
            rebuilt.reset(topology::unit_disk_graph(points, radius));
            return kNoDelta;
          });
      async_net->run_until(async_net->now());  // fire before the oracle
    } else if (incremental) {
      const auto& delta = live->update(points);
      grew = delta.added.size();
      broke = delta.removed.size();
      sync_net->apply_topology_delta(delta);
    } else {
      // In-place rebuild carries no delta, so re-announce the graph:
      // the engine rebuilds its boundary-sender lists and drops its row
      // hints, and under dirty stepping every node wakes to the change.
      rebuilt.reset(topology::unit_disk_graph(points, radius));
      sync_net->set_graph(g);
    }
    recompute_oracle();
    const auto report = settle();
    const double t = report.converged ? report.stabilization_time_s
                                      : report.time_simulated_s;
    const auto msgs = report.converged ? report.messages_to_converge
                                       : report.messages_total;
    reconverged += report.converged;
    time_sum += t;
    msg_sum += static_cast<double>(msgs);
    std::printf("window %3d: +%zu/-%zu edges, %s in %.2fs, %llu messages\n",
                w + 1, grew, broke,
                report.converged ? "re-converged" : "NOT re-converged", t,
                static_cast<unsigned long long>(msgs));
  }
  std::printf("re-converged %zu/%d windows; mean %.2fs, mean %.0f messages "
              "per perturbation\n",
              reconverged, windows, time_sum / windows, msg_sum / windows);
  std::size_t heads = 0;
  for (const char flag : protocol.head_flags()) heads += flag != 0;
  std::printf("final cluster-heads: %zu\n", heads);
  if (dirty) {
    const auto stepped = async_engine ? async_net->activity().nodes_stepped()
                                      : sync_net->activity().nodes_stepped();
    const auto skipped = async_engine ? async_net->activity().nodes_skipped()
                                      : sync_net->activity().nodes_skipped();
    std::printf("dirty stepping: %llu rule sweeps run, %llu elided\n",
                static_cast<unsigned long long>(stepped),
                static_cast<unsigned long long>(skipped));
  }
  return cold.converged ? kExitOk : kExitRunFailure;
}

int run_protocol(const util::Args& args, util::Rng& rng) {
  const auto d = make_deployment(args, rng);
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = args.get_bool("dag", false);
  config.cluster.fusion = args.get_bool("fusion", false);
  config.delta_hint = std::max<std::uint64_t>(2, d.graph.max_degree());
  const double tau = args.get_double_in("tau", 1.0, 1e-9, 1.0);
  config.cache_max_age = tau < 1.0 ? 16 : 8;

  core::DensityProtocol protocol(d.ids, config, rng.split());

  const std::string scheduler = args.get("scheduler", "sync");
  if (scheduler != "sync" && scheduler != "async") {
    throw std::invalid_argument("--scheduler must be sync|async (got '" +
                                scheduler + "')");
  }
  if (args.has("shards") &&
      (args.get_bool("live", false) || scheduler == "async")) {
    throw std::invalid_argument(
        "--shards applies to the synchronous batch engine only (drop "
        "--live / --scheduler async)");
  }
  if (args.get_bool("live", false)) {
    return run_protocol_live(args, d, protocol, rng, scheduler == "async");
  }
  for (const char* live_only : {"topology", "mobility", "speed-min",
                                "speed-max", "windows", "window-s"}) {
    if (args.has(live_only)) {
      throw std::invalid_argument(std::string("--") + live_only +
                                  " requires --live");
    }
  }
  if (scheduler == "async") {
    return run_protocol_async(args, d, protocol, rng);
  }
  reject_async_flags(args);

  const auto medium = sim::make_loss_model(tau, rng.split());
  // --threads N parallelizes the step engine; 0 = hardware concurrency.
  // Results are bit-identical for any value (see docs/ARCHITECTURE.md).
  const unsigned threads = parse_threads(args);
  const sim::Stepping stepping = parse_stepping_flag(args);
  if (stepping == sim::Stepping::kDirty && tau < 1.0) {
    throw std::invalid_argument(
        "--stepping dirty on the synchronous engine requires --tau 1 "
        "(use --scheduler async for lossy dirty runs)");
  }
  // --shards >= 2 cuts that many contiguous shards; otherwise the engine
  // takes one shard per worker. The trajectory is bit-identical either
  // way, so every line below prints the same bytes.
  const std::size_t shards = parse_shards(args);
  auto network =
      shards >= 2
          ? sim::ShardedNetwork(
                d.graph, protocol, *medium,
                graph::plan_contiguous_shards(d.graph.node_count(), shards)
                    .bounds,
                threads)
          : sim::ShardedNetwork(d.graph, protocol, *medium, threads);
  network.set_stepping(stepping);
  if (threads != 1) {
    // Report the effective size: 0 resolves to hardware concurrency and
    // oversized requests are clamped by the engine.
    std::printf("step engine threads: %u\n", network.thread_count());
  }

  const auto steps =
      static_cast<std::size_t>(args.get_int_in("steps", 100, 1, 1'000'000));
  sim::HeadTrace trace;
  trace.observe(protocol.head_values());
  for (std::size_t s = 0; s < steps; ++s) {
    network.step();
    trace.observe(protocol.head_values());
  }
  std::printf("cold start: %zu head changes, quiescent since step %zu\n",
              trace.changes().size(), trace.quiescent_since());

  const double corrupt = args.get_double_in("corrupt", 0.0, 0.0, 1.0);
  if (corrupt > 0.0) {
    util::Rng chaos(rng());
    const auto hit = protocol.corrupt_fraction(chaos, corrupt);
    sim::HeadTrace recovery;
    recovery.observe(protocol.head_values());
    for (std::size_t s = 0; s < steps; ++s) {
      network.step();
      recovery.observe(protocol.head_values());
    }
    std::printf("corrupted %zu nodes: %zu head changes during recovery, "
                "quiescent since step %zu\n",
                hit, recovery.changes().size(), recovery.quiescent_since());
    if (recovery.quiescent_since() >= steps) return 1;
  }
  std::size_t heads = 0;
  for (char flag : protocol.head_flags()) heads += flag != 0;
  std::printf("final cluster-heads: %zu\n", heads);
  if (stepping == sim::Stepping::kDirty) {
    std::printf(
        "dirty stepping: %llu rule sweeps run, %llu elided\n",
        static_cast<unsigned long long>(network.activity().nodes_stepped()),
        static_cast<unsigned long long>(network.activity().nodes_skipped()));
  }
  return trace.quiescent_since() < steps ? 0 : 1;
}

int run_routing(const util::Args& args, util::Rng& rng) {
  const auto d = make_deployment(args, rng);
  const auto clustering = core::cluster_density(d.graph, d.ids, {});
  routing::FlatRouter flat(d.graph);
  routing::HierarchicalRouter hier(d.graph, clustering);
  const auto pairs =
      static_cast<std::size_t>(args.get_int_in("pairs", 300, 1, 10'000'000));
  const auto stats = routing::compare_routers(d.graph, flat, hier, pairs, rng);
  std::printf("clusters=%zu sampled_pairs=%zu failures=%zu\n",
              hier.cluster_count(), stats.pairs, stats.failures);
  std::printf("mean_flat=%.2f mean_hier=%.2f mean_stretch=%.2f "
              "max_stretch=%.2f\n",
              stats.mean_flat_length, stats.mean_hier_length,
              stats.mean_stretch, stats.max_stretch);
  const graph::NodeId probe = 0;
  std::printf("table entries @node0: flat=%zu hier=%zu\n",
              flat.table_entries(probe), hier.table_entries(probe));
  return stats.failures == 0 ? 0 : 1;
}

/// `ssmwn verify`: the self-stabilization certifier. Runs seeded
/// arbitrary-state trials per fault class — each trial corrupts the
/// protocol state, plays it to fixpoint on BOTH engines (the async half
/// under a rotating daemon), and checks legitimacy, closure, and
/// cross-engine agreement. On any violation the failing tuple is shrunk
/// to a minimal spec and (with --repro FILE) written out as a
/// replayable campaign spec.
int run_verify(const util::Args& args, util::Rng& rng) {
  (void)rng;  // the certifier derives everything from --seed directly
  verify::CertifierConfig config;
  config.seed = parse_seed(args, 20050612);
  const auto trials = args.get_int("trials", 200);
  if (trials < 1 || trials > 10'000'000) {
    throw std::invalid_argument("--trials must be in [1, 1e7]");
  }
  config.trials_per_class = static_cast<std::size_t>(trials);
  const auto n_min = args.get_int("n-min", 8);
  const auto n_max = args.get_int("n-max", 64);
  if (n_min < 1 || n_max < n_min || n_max > 1'000'000) {
    throw std::invalid_argument(
        "--n-min/--n-max must satisfy 1 <= min <= max <= 1e6");
  }
  config.n_min = static_cast<std::size_t>(n_min);
  config.n_max = static_cast<std::size_t>(n_max);
  config.radius = args.get_double("radius", 0.16);
  if (!(config.radius > 0.0) || config.radius >= 1e9) {
    throw std::invalid_argument("--radius must be positive");
  }
  config.tau = args.get_double("tau", 1.0);
  if (!(config.tau > 0.0) || config.tau > 1.0) {
    throw std::invalid_argument("--tau must be in (0, 1]");
  }
  const auto horizon = args.get_int("steps", 240);
  if (horizon < static_cast<std::int64_t>(verify::kMinHorizonRounds) ||
      horizon > 1'000'000) {
    throw std::invalid_argument(
        "--steps must be in [" +
        std::to_string(verify::kMinHorizonRounds) +
        ", 1e6] (below that no trial can confirm legitimacy)");
  }
  config.horizon_rounds = static_cast<std::size_t>(horizon);
  config.threads = parse_threads(args);

  if (const auto classes = args.get("classes", "all"); classes != "all") {
    config.classes.clear();
    std::size_t start = 0;
    while (start <= classes.size()) {
      const auto comma = classes.find(',', start);
      const auto piece =
          classes.substr(start, comma == std::string::npos
                                    ? std::string::npos
                                    : comma - start);
      config.classes.push_back(verify::parse_fault_class(piece));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  if (const auto variant = args.get("variant", "basic"); true) {
    (void)verify::cluster_options_for(variant);  // validate spelling
    config.variants = {variant};
  }

  const bool quiet = args.get_bool("quiet", false);
  if (!quiet) {
    std::printf("certifying self-stabilization: %zu fault class(es) x %zu "
                "trial(s), n in [%zu, %zu], variant %s, tau %g, horizon "
                "%zu rounds, seed %llu\n",
                config.classes.size(), config.trials_per_class,
                config.n_min, config.n_max, config.variants.front().c_str(),
                config.tau, config.horizon_rounds,
                static_cast<unsigned long long>(config.seed));
  }

  const auto report = verify::certify(config);

  util::Table table("Self-stabilization certification — " +
                    std::to_string(report.trials_total) + " trial(s), " +
                    std::to_string(report.failures_total) + " violation(s)");
  table.header({"fault class", "trials", "passed", "sync steps", "sync msgs",
                "async t(s)", "async msgs"});
  for (const auto& stats : report.per_class) {
    table.row({std::string(verify::to_string(stats.fault)),
               util::Table::integer(static_cast<long long>(stats.trials)),
               util::Table::integer(static_cast<long long>(stats.passed)),
               util::Table::num(stats.sync_steps.mean(), 1) + " ±" +
                   util::Table::num(stats.sync_steps.stddev(), 1),
               util::Table::num(stats.sync_messages.mean(), 0),
               util::Table::num(stats.async_time_s.mean(), 2) + " ±" +
                   util::Table::num(stats.async_time_s.stddev(), 2),
               util::Table::num(stats.async_messages.mean(), 0)});
  }
  table.note("every trial: corrupt -> fixpoint on BOTH engines -> check "
             "legitimacy + closure + cross-engine agreement; daemons "
             "rotate synchronous/randomized/unfair per trial");
  if (!quiet) std::fputs(table.render().c_str(), stdout);

  if (report.certified()) {
    if (!quiet) std::puts("CERTIFIED: no violations");
    return kExitOk;
  }

  // Shrink the first failure to a minimal replayable spec.
  const auto& [spec, violation] = report.failures.front();
  std::fprintf(stderr,
               "VIOLATION (%s): fault=%s daemon=%s n=%zu seed=%llu — "
               "shrinking...\n",
               std::string(verify::to_string(violation)).c_str(),
               std::string(verify::to_string(spec.fault)).c_str(),
               std::string(verify::to_string(spec.daemon)).c_str(), spec.n,
               static_cast<unsigned long long>(spec.seed));
  const auto shrunk = verify::shrink(spec);
  const auto repro = verify::make_repro(shrunk.minimal, violation);
  std::fprintf(stderr,
               "minimal repro: n=%zu fault=%s daemon=%s variant=%s "
               "(%zu attempt(s), %zu shrink(s), campaign replay %s)\n",
               shrunk.minimal.n,
               std::string(verify::to_string(shrunk.minimal.fault)).c_str(),
               std::string(verify::to_string(shrunk.minimal.daemon)).c_str(),
               shrunk.minimal.variant.c_str(), shrunk.attempts,
               shrunk.shrinks, repro.reproduces ? "verified" : "UNVERIFIED");
  if (const auto path = args.get("repro", ""); !path.empty()) {
    std::ofstream out(path);
    out << repro.text;
    if (!out.flush()) {
      throw std::runtime_error("failed writing repro spec '" + path + "'");
    }
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fputs(repro.text.c_str(), stderr);
  }
  return kExitRunFailure;
}

int run_campaign(const util::Args& args) {
  const auto& positional = args.positional();
  if (positional.size() < 2) {
    std::fprintf(stderr, "campaign: missing <spec-file> argument\n");
    return kExitUsage;
  }
  auto spec = campaign::load_spec(positional[1]);
  // CLI overrides for the two knobs one typically varies per invocation.
  if (args.has("replications")) {
    spec.replications = static_cast<std::size_t>(
        args.get_int_in("replications", 16, 1, 1'000'000'000));
  }
  if (args.has("seed")) {
    spec.seed_base = parse_seed(args, 0);
  }
  const unsigned threads = parse_threads(args);

  const auto plan = campaign::expand(spec);

  // Resume must be validated before anything runs or any output opens:
  // a checkpoint for a different spec, or a torn file, aborts with the
  // bad-arguments exit and zero partial execution.
  const std::string resume_path = args.get("resume", "");
  campaign::CheckpointState resume_state;
  if (!resume_path.empty()) {
    resume_state = campaign::load_checkpoint(resume_path, plan);
  }
  campaign::CheckpointOptions ckpt;
  // --resume without --checkpoint keeps checkpointing to the same file,
  // so a twice-interrupted sweep resumes twice without extra flags.
  ckpt.path = args.get("checkpoint", resume_path);
  ckpt.every_runs = static_cast<std::size_t>(
      args.get_int_in("checkpoint-every", 64, 1, 1'000'000'000));

  // Stage the output files *before* running: an unwritable path must
  // abort up front, not after hours of simulation whose results it
  // would then discard (invalid_argument → the bad-arguments exit
  // code). Staging through AtomicFile also means a crash mid-report can
  // never tear the destination — it gets the complete new bytes at
  // commit() or keeps its old content.
  struct PendingOutput {
    std::unique_ptr<util::AtomicFile> file;
    void (*writer)(std::ostream&, const campaign::CampaignPlan&,
                   const std::vector<campaign::ScenarioAggregate>&);
  };
  std::vector<PendingOutput> outputs;
  for (const auto& [flag, writer] :
       {std::pair{"csv", &campaign::write_csv},
        std::pair{"json", &campaign::write_json}}) {
    const auto path = args.get(flag, "");
    if (path.empty()) continue;
    outputs.push_back({std::make_unique<util::AtomicFile>(path), writer});
  }

  campaign::ExecutionOptions exec;
  exec.shards = parse_shards(args);
  campaign::CampaignRunner runner(threads, exec);
  if (!args.get_bool("quiet", false)) {
    std::printf("campaign '%s': %zu scenario(s) x %zu replication(s) = %zu "
                "run(s) on %u thread(s)\n",
                plan.name.c_str(), plan.grid.size(), plan.replications,
                plan.runs.size(), runner.thread_count());
    if (!resume_path.empty()) {
      std::printf("resuming from %s: %zu/%zu run(s) already complete\n",
                  resume_path.c_str(), resume_state.completed_count(),
                  plan.runs.size());
    }
  }
  const auto results = runner.run(
      plan, ckpt, resume_path.empty() ? nullptr : &resume_state);

  // Feed the aggregator in plan order — never in completion order — so
  // the floating-point sums (and the files below) are thread-count
  // independent.
  campaign::MetricsAggregator aggregator(plan.grid.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    aggregator.add(plan.runs[i].grid_index, results[i]);
  }
  const auto aggregates = aggregator.summarize();

  if (!args.get_bool("quiet", false)) {
    std::fputs(campaign::summary_table(plan, aggregates).render().c_str(),
               stdout);
  }
  for (auto& output : outputs) {
    output.writer(output.file->stream(), plan, aggregates);
    output.file->commit();  // throws runtime_error → run-failure exit
    std::printf("wrote %s\n", output.file->path().c_str());
  }
  return kExitOk;
}

serve::Server* g_server = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();  // async-signal-safe
}

int run_serve(const util::Args& args) {
  serve::ServerOptions options;
  options.port =
      static_cast<std::uint16_t>(args.get_int_in("port", 0, 0, 65535));
  options.threads = parse_threads(args);
  options.exec.shards = parse_shards(args);

  serve::Server server(options);
  g_server = &server;
  // SIGTERM/SIGINT start the graceful drain; SIGPIPE must not kill the
  // daemon when a client disconnects mid-stream.
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGPIPE, SIG_IGN);

  // Scripts parse this line for the resolved port (--port 0 = ephemeral).
  std::printf("ssmwn serve: listening on 127.0.0.1:%u (%u worker thread(s))\n",
              static_cast<unsigned>(server.port()),
              options.threads == 0 ? std::thread::hardware_concurrency()
                                   : options.threads);
  std::fflush(stdout);
  server.run();
  g_server = nullptr;
  std::puts("ssmwn serve: drained, exiting");
  return kExitOk;
}

/// Wire client for `serve`: sends one spec, closes its write side (the
/// server sees EOF after the spec, so the response ends with EOF too),
/// prints result lines to stdout. Keeping the client in the CLI makes
/// the daemon scriptable with nothing but this binary.
int run_submit(const util::Args& args) {
  const auto& positional = args.positional();
  if (positional.size() < 2) {
    std::fprintf(stderr, "submit: missing <spec-file> argument\n");
    return kExitUsage;
  }
  if (!args.has("port")) {
    throw std::invalid_argument("submit: --port is required");
  }
  const auto port =
      static_cast<std::uint16_t>(args.get_int_in("port", 0, 1, 65535));

  std::ifstream in(positional[1], std::ios::binary);
  if (!in) {
    throw std::invalid_argument("cannot read spec file '" + positional[1] +
                                "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string spec_text = buffer.str();

  std::signal(SIGPIPE, SIG_IGN);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error("submit: cannot create socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("submit: cannot connect to 127.0.0.1:" +
                             std::to_string(port));
  }
  int exit_code = kExitRunFailure;  // until an end frame proves success
  try {
    serve::write_frame(fd, serve::FrameType::kSpec, spec_text);
    ::shutdown(fd, SHUT_WR);
    serve::Frame frame;
    bool failed = false;
    while (serve::read_frame(fd, frame)) {
      switch (frame.type) {
        case serve::FrameType::kResult:
          std::printf("%s\n", frame.body.c_str());
          break;
        case serve::FrameType::kError:
          std::fprintf(stderr, "error: %s\n", frame.body.c_str());
          failed = true;
          break;
        case serve::FrameType::kEnd:
          exit_code = failed ? kExitRunFailure : kExitOk;
          break;
        default:
          std::fprintf(stderr, "submit: unexpected frame type\n");
          failed = true;
          break;
      }
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return exit_code;
}

void usage() {
  std::puts(
      "usage: ssmwn <command> [flags]\n"
      "commands:\n"
      "  cluster  --n N --radius R [--grid] [--seed S]\n"
      "           [--metric density|degree|lowest-id|max-min] [--d D]\n"
      "           [--dag] [--fusion] [--incumbency]\n"
      "           [--dot F] [--csv F] [--map]\n"
      "  protocol --n N --radius R [--grid] [--seed S] [--tau T]\n"
      "           [--steps K] [--corrupt FRAC] [--dag] [--fusion]\n"
      "           [--threads N] [--shards N] [--scheduler sync|async]\n"
      "           [--daemon synchronous|randomized|unfair]\n"
      "           [--period SECS] [--period-jitter FRAC]\n"
      "           [--link-delay SECS]\n"
      "           [--live] [--topology incremental|rebuild]\n"
      "           [--mobility random-direction|random-waypoint]\n"
      "           [--speed-min MPS] [--speed-max MPS]\n"
      "           [--windows W] [--window-s SECS]\n"
      "           [--stepping full|dirty]\n"
      "  routing  --n N --radius R [--grid] [--seed S] [--pairs K]\n"
      "  campaign <spec-file> [--threads N] [--shards N] [--csv F]\n"
      "           [--json F] [--quiet] [--replications N] [--seed S]\n"
      "           [--checkpoint F] [--checkpoint-every N] [--resume F]\n"
      "  serve    [--port N] [--threads N] [--shards N]\n"
      "  submit   <spec-file> --port N\n"
      "  verify   [--trials N] [--classes all|c1,c2,...] [--n-min A]\n"
      "           [--n-max B] [--radius R] [--variant V] [--tau T]\n"
      "           [--steps H] [--seed S] [--threads N] [--repro F]\n"
      "           [--quiet]\n"
      "flags:\n"
      "  --threads N  step-engine / runner parallelism; 0 = hardware\n"
      "               concurrency, default 1; results are identical\n"
      "               for any value\n"
      "  --shards N   spatially sharded sync engine (protocol/campaign):\n"
      "               0/1 = unsharded (default), >= 2 carves the node\n"
      "               range into N shards with per-pair boundary\n"
      "               mailboxes; bit-identical results at any value\n"
      "  --seed S     experiment seed (campaign: overrides seed_base)\n"
      "  --scheduler  execution engine: sync (lockstep steps, default)\n"
      "               or async (event-driven: per-node jittered\n"
      "               broadcast periods, per-link delays, pluggable\n"
      "               daemon; reports virtual convergence time and\n"
      "               messages-to-convergence; --steps bounds the\n"
      "               horizon in periods)\n"
      "  verify       self-stabilization certifier: --trials seeded\n"
      "               arbitrary-state trials per fault class (random-all,\n"
      "               metric-skew, cluster-id-noise, stale-cache,\n"
      "               hierarchy-loops, partial-frame), each played to\n"
      "               fixpoint on BOTH engines under rotating daemons and\n"
      "               checked for legitimacy, closure, and cross-engine\n"
      "               agreement; violations are shrunk to a minimal\n"
      "               replayable campaign spec (--repro FILE)\n"
      "  --live       protocol-under-mobility: the protocol keeps\n"
      "               running while nodes move (--windows perturbations\n"
      "               of --window-s seconds each); per-perturbation\n"
      "               re-convergence time and messages are reported.\n"
      "               --topology incremental patches live edge deltas\n"
      "               (eager stale-link invalidation); rebuild swaps in\n"
      "               a fresh graph (recovery by cache aging alone)\n"
      "  --stepping   full (default) re-runs every node each tick; dirty\n"
      "               runs only nodes whose closed neighborhood changed\n"
      "               (bit-identical results, large steady-state speedup;\n"
      "               sync engine requires --tau 1)\n"
      "  --checkpoint F        campaign: publish resumable checkpoints to\n"
      "               F (atomic rename; snapshot every --checkpoint-every\n"
      "               completed runs, default 64, plus a final one)\n"
      "  --resume F   campaign: skip runs already recorded in checkpoint\n"
      "               F; output is byte-identical to an uninterrupted run\n"
      "               at any --threads. Keeps checkpointing to F unless\n"
      "               --checkpoint overrides. Rejects checkpoints whose\n"
      "               spec hash does not match the spec file\n"
      "  serve        long-running daemon on 127.0.0.1 (--port 0 =\n"
      "               ephemeral, printed on stdout): framed spec in,\n"
      "               framed per-run results out, shared FIFO run\n"
      "               pool; SIGTERM drains gracefully\n"
      "exit codes: 0 success, 1 run failure, 2 bad arguments or spec");
}

/// Marks every flag the command understands as consumed and reports
/// anything left over. Runs *before* dispatch: a mistyped flag must
/// abort up front, not after a multi-hour campaign already ran with
/// the flag's default. kKnownFlags is the flag source of truth for
/// rejection — keep it in sync with usage() above and with the get_*
/// calls in the run_* handlers when adding a flag.
const std::map<std::string, std::vector<std::string>> kKnownFlags = {
    {"cluster",
     {"n", "radius", "grid", "metric", "d", "dag", "fusion", "incumbency",
      "dot", "csv", "map"}},
    {"protocol",
     {"n", "radius", "grid", "tau", "steps", "corrupt", "dag", "fusion",
      "threads", "shards", "scheduler", "daemon", "period", "period-jitter",
      "link-delay", "live", "topology", "mobility", "speed-min", "speed-max",
      "windows", "window-s", "stepping"}},
    {"routing", {"n", "radius", "grid", "pairs"}},
    {"campaign",
     {"threads", "shards", "csv", "json", "quiet", "replications",
      "checkpoint", "checkpoint-every", "resume"}},
    {"serve", {"port", "threads", "shards"}},
    {"submit", {"port"}},
    {"verify",
     {"trials", "classes", "n-min", "n-max", "radius", "variant", "tau",
      "steps", "threads", "repro", "quiet"}},
};

bool reject_unknown_flags(const std::string& command,
                          const util::Args& args) {
  for (const auto& flag : kKnownFlags.at(command)) (void)args.has(flag);
  (void)args.has("seed");  // common to every command
  const auto unknown = args.unknown();
  for (const auto& flag : unknown) {
    std::fprintf(stderr, "unrecognized flag --%s\n", flag.c_str());
  }
  return unknown.empty();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    if (args.positional().empty()) {
      usage();
      return kExitUsage;
    }
    util::Rng rng(parse_seed(args, 20050612));
    const std::string command = args.positional().front();
    if (!kKnownFlags.count(command)) {
      std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
      usage();
      return kExitUsage;
    }
    if (!reject_unknown_flags(command, args)) return kExitUsage;
    if (command == "cluster") return run_cluster(args, rng);
    if (command == "protocol") return run_protocol(args, rng);
    if (command == "routing") return run_routing(args, rng);
    if (command == "verify") return run_verify(args, rng);
    if (command == "serve") return run_serve(args);
    if (command == "submit") return run_submit(args);
    return run_campaign(args);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return kExitUsage;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return kExitRunFailure;
  }
}
