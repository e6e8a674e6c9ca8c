// ssmwn — command-line driver for clustering experiments. Each command
// (kCommands) and each flag (kFlags) is declared once, at the end of
// this file; `ssmwn` with no command prints the usage generated from
// them.
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
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/protocol_run.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "cluster/baselines.hpp"
#include "cluster/max_min.hpp"
#include "core/clustering.hpp"
#include "core/dag_ids.hpp"
#include "graph/dot.hpp"
#include "metrics/cluster_metrics.hpp"
#include "routing/routing.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sim/trace.hpp"
#include "topology/generators.hpp"
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

struct Deployment : campaign::Deployment {
  graph::Graph graph;
  std::size_t grid_side = 0;  // nonzero iff --grid
};

Deployment make_deployment(const util::Args& args, util::Rng& rng) {
  const auto n = static_cast<std::size_t>(args.integer("n"));
  const bool grid = args.boolean("grid");
  Deployment d{campaign::draw_deployment(
      grid ? campaign::TopologyKind::kGrid : campaign::TopologyKind::kUniform,
      n, rng)};
  if (grid) d.grid_side = topology::grid_side_for(n);
  d.graph = topology::unit_disk_graph(d.points, args.real("radius"));
  return d;
}

/// Stages output file `--name F` (null when not given) *before* any
/// work: an unwritable path must abort up front (invalid_argument → exit
/// 2), not after hours of simulation whose results it would discard.
/// Through AtomicFile a crash mid-report never tears the destination:
/// it gets the complete new bytes at commit() or keeps its old content.
std::unique_ptr<util::AtomicFile> stage_output(const util::Args& args,
                                               const std::string& name) {
  if (!args.has(name)) return nullptr;
  return std::make_unique<util::AtomicFile>(args.text(name));
}

/// Commits a staged output and reports it.
void publish(util::AtomicFile& file) {
  file.commit();  // throws runtime_error → run-failure exit
  std::printf("wrote %s\n", file.path().c_str());
}

int run_cluster(const util::Args& args) {
  auto dot = stage_output(args, "dot");
  auto csv = stage_output(args, "csv");
  util::Rng rng(static_cast<std::uint64_t>(args.integer("seed")));
  const auto d = make_deployment(args, rng);
  core::ClusterOptions options;
  options.fusion = args.boolean("fusion");
  options.incumbency = args.boolean("incumbency");
  options.use_dag_ids = args.boolean("dag");

  const std::string& metric = args.text("metric");
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
  } else {
    result = cluster::cluster_max_min(
        d.graph, d.ids, static_cast<std::size_t>(args.integer("d")));
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

  if (args.boolean("map") && d.grid_side > 0) {
    std::fputs(metrics::render_grid_clusters(d.grid_side, result).c_str(),
               stdout);
  }
  if (dot) {
    graph::DotOptions dot_options;
    dot_options.positions.reserve(d.points.size());
    for (const auto& p : d.points) {
      dot_options.positions.emplace_back(p.x, p.y);
    }
    dot_options.cluster_of = result.head_index;
    dot_options.is_head = result.is_head;
    dot_options.parent = result.parent;
    dot->stream() << graph::to_dot(d.graph, dot_options);
    publish(*dot);
  }
  if (csv) {
    auto& out = csv->stream();
    out << "node,id,density,head,parent,is_head\n";
    for (graph::NodeId p = 0; p < d.graph.node_count(); ++p) {
      out << p << ',' << d.ids[p] << ',' << result.metric[p] << ','
          << result.head_id[p] << ',' << d.ids[result.parent[p]] << ','
          << int{result.is_head[p]} << '\n';
    }
    publish(*csv);
  }
  return 0;
}

/// The async-engine knobs shared by the async and live-async paths.
sim::AsyncConfig async_config(const util::Args& args) {
  sim::AsyncConfig async;
  async.period_s = args.real("period");
  async.period_jitter = args.real("period-jitter");
  async.link_delay_s = args.real("link-delay");
  async.daemon = verify::sim_daemon(verify::parse_daemon(args.text("daemon")));
  return async;
}

/// The report's closing lines, the same for every engine and mode.
void print_final(const campaign::ProtocolRun& run) {
  std::printf("final cluster-heads: %zu\n", run.head_count());
  if (run.recipe().stepping == sim::Stepping::kDirty) {
    std::printf(
        "dirty stepping: %llu rule sweeps run, %llu elided\n",
        static_cast<unsigned long long>(run.activity().nodes_stepped()),
        static_cast<unsigned long long>(run.activity().nodes_skipped()));
  }
}

/// `protocol` on the synchronous engine: --steps rounds from a cold
/// start (and as many again after corrupting --corrupt of the nodes);
/// reports head changes and the step each phase went quiet.
int print_sync(const util::Args& args, campaign::ProtocolRun& run,
               util::Rng& rng) {
  if (run.recipe().threads != 1) {
    // Report the effective size: 0 resolves to hardware concurrency and
    // oversized requests are clamped by the engine.
    std::printf("step engine threads: %u\n", run.thread_count());
  }
  const auto steps = static_cast<std::size_t>(args.integer("steps"));
  const auto trace_steps = [&] {
    sim::HeadTrace trace;
    trace.observe(run.protocol().head_values());
    for (std::size_t s = 0; s < steps; ++s) {
      run.round();
      trace.observe(run.protocol().head_values());
    }
    return trace;
  };
  const auto cold = trace_steps();
  std::printf("cold start: %zu head changes, quiescent since step %zu\n",
              cold.changes().size(), cold.quiescent_since());

  const double corrupt = args.real("corrupt");
  if (corrupt > 0.0) {
    util::Rng chaos(rng());
    const auto hit = run.protocol().corrupt_fraction(chaos, corrupt);
    const auto recovery = trace_steps();
    std::printf("corrupted %zu nodes: %zu head changes during recovery, "
                "quiescent since step %zu\n",
                hit, recovery.changes().size(), recovery.quiescent_since());
    if (recovery.quiescent_since() >= steps) return kExitRunFailure;
  }
  print_final(run);
  return cold.quiescent_since() < steps ? kExitOk : kExitRunFailure;
}

/// `protocol --scheduler async`: the event-driven engine. Runs the
/// protocol from a cold start (and optionally from a corrupted state)
/// under the chosen daemon and reports virtual-time convergence and
/// messages-to-convergence instead of step counts.
int print_async(const util::Args& args, campaign::ProtocolRun& run,
                util::Rng& rng) {
  const sim::AsyncConfig& async = *run.recipe().async;
  std::printf("scheduler=async daemon=%s period=%gs jitter=%g "
              "link_delay=%gs\n",
              args.text("daemon").c_str(), async.period_s, async.period_jitter,
              async.link_delay_s);
  const auto periods = static_cast<double>(args.integer("steps"));
  auto settle = [&](const char* label) {
    // Message counts are relative to the phase start, so a recovery
    // phase reports only its own traffic, not the cold start's; times
    // are on the engine's clock. A phase that did not converge reports
    // its horizon and all its traffic (Settled::messages).
    const auto settled = run.settle(periods);
    const auto& report = settled.report;
    std::printf("%s: %s at t=%.2fs (virtual), %llu messages to "
                "convergence, %llu delivered this phase, %llu events\n",
                label, report.converged ? "converged" : "NOT converged",
                report.converged ? report.stabilization_time_s
                                 : report.time_simulated_s,
                static_cast<unsigned long long>(settled.messages()),
                static_cast<unsigned long long>(report.messages_total),
                static_cast<unsigned long long>(run.events_processed()));
    return report.converged;
  };
  bool ok = settle("cold start");

  const double corrupt = args.real("corrupt");
  if (corrupt > 0.0) {
    util::Rng chaos(rng());
    const auto hit = run.protocol().corrupt_fraction(chaos, corrupt);
    std::printf("corrupted %zu nodes\n", hit);
    ok = settle("recovery") && ok;
  }
  print_final(run);
  return ok ? kExitOk : kExitRunFailure;
}

/// `protocol --live`: protocol-under-mobility re-convergence, on either
/// engine. Each window moves the nodes by --window-s seconds of the
/// chosen mobility model, applies the topology change to the *running*
/// network (--topology incremental: edge deltas + eager stale-link
/// invalidation; rebuild: fresh graph, recovery by cache aging alone),
/// and measures the time and messages to re-reach legitimacy.
int print_live(const util::Args& args, campaign::ProtocolRun& run) {
  const double window_s = args.real("window-s");
  const auto windows = static_cast<int>(args.integer("windows"));
  std::printf("live mode: %s engine, topology=%s, %s %g-%g m/s, %d windows "
              "of %gs\n",
              run.recipe().async ? "async" : "sync",
              args.text("topology").c_str(), args.text("mobility").c_str(),
              args.real("speed-min"), args.real("speed-max"), windows,
              window_s);

  bool cold_converged = false;
  std::size_t reconverged = 0;
  double time_sum = 0.0, msg_sum = 0.0;
  run.live(static_cast<std::size_t>(windows),
           static_cast<double>(args.integer("steps")),
           [&](std::size_t window, campaign::EdgeChange edges,
               const campaign::Settled& settled) {
             const bool converged = settled.report.converged;
             const auto msgs =
                 static_cast<unsigned long long>(settled.messages());
             if (window == 0) {
               cold_converged = converged;
               std::printf("cold start: %s at t=%.2fs (virtual), %llu "
                           "messages\n",
                           converged ? "converged" : "NOT converged",
                           settled.time_s(), msgs);
               return;
             }
             reconverged += converged;
             time_sum += settled.time_s();
             msg_sum += static_cast<double>(settled.messages());
             std::printf("window %3zu: +%zu/-%zu edges, %s in %.2fs, %llu "
                         "messages\n",
                         window, edges.added, edges.removed,
                         converged ? "re-converged" : "NOT re-converged",
                         settled.time_s(), msgs);
           });
  std::printf("re-converged %zu/%d windows; mean %.2fs, mean %.0f messages "
              "per perturbation\n",
              reconverged, windows, time_sum / windows, msg_sum / windows);
  print_final(run);
  return cold_converged ? kExitOk : kExitRunFailure;
}

int run_protocol(const util::Args& args) {
  const double tau = args.real("tau");
  const bool async_engine = args.text("scheduler") == "async";
  const bool live = args.boolean("live");
  const sim::Stepping stepping = args.text("stepping") == "dirty"
                                     ? sim::Stepping::kDirty
                                     : sim::Stepping::kFull;
  if (!async_engine && stepping == sim::Stepping::kDirty && tau < 1.0) {
    throw std::invalid_argument(
        "--stepping dirty on the synchronous engine requires --tau 1 "
        "(use --scheduler async for lossy dirty runs)");
  }
  if (live && args.real("speed-max") < args.real("speed-min")) {
    throw std::invalid_argument(
        "--speed-min/--speed-max must satisfy min <= max");
  }

  util::Rng rng(static_cast<std::uint64_t>(args.integer("seed")));
  auto d = make_deployment(args, rng);
  campaign::RunRecipe recipe;
  recipe.cluster.use_dag_ids = args.boolean("dag");
  recipe.cluster.fusion = args.boolean("fusion");
  recipe.tau = tau;
  // --threads N parallelizes the sync engine (0 = hardware concurrency);
  // --shards >= 2 cuts that many contiguous shards. The trajectory is
  // bit-identical for any value, so every line prints the same bytes.
  recipe.threads = static_cast<unsigned>(args.integer("threads"));
  recipe.shards = static_cast<std::size_t>(args.integer("shards"));
  recipe.stepping = stepping;

  // Stream order: protocol, mover (live), medium, async engine; the
  // corruption stream is drawn after all of them.
  campaign::RunStreams streams;
  streams.protocol = rng.split();
  campaign::RunWorld world{.graph = live ? nullptr : &d.graph};
  if (live) {
    recipe.window_s = args.real("window-s");
    world.points = &d.points;
    world.radius = args.real("radius");
    world.incremental = args.text("topology") == "incremental";
    world.mover = campaign::make_mover(
        args.text("mobility") == "random-waypoint"
            ? campaign::MobilityKind::kRandomWaypoint
            : campaign::MobilityKind::kRandomDirection,
        d.points.size(), {args.real("speed-min"), args.real("speed-max")},
        1000.0, rng.split());
  }
  streams.loss = rng.split();
  if (async_engine) {
    recipe.async = async_config(args);
    // Live nodes broadcast once per window unless --period is given.
    if (live && !args.has("period")) recipe.async->period_s = recipe.window_s;
    streams.engine = rng.split();
  }

  campaign::ProtocolRun run(std::move(world), d.ids, std::move(recipe),
                            streams);
  if (live) return print_live(args, run);
  return async_engine ? print_async(args, run, rng)
                      : print_sync(args, run, rng);
}

int run_routing(const util::Args& args) {
  util::Rng rng(static_cast<std::uint64_t>(args.integer("seed")));
  const auto d = make_deployment(args, rng);
  const auto clustering = core::cluster_density(d.graph, d.ids, {});
  routing::FlatRouter flat(d.graph);
  routing::HierarchicalRouter hier(d.graph, clustering);
  const auto pairs = static_cast<std::size_t>(args.integer("pairs"));
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
int run_verify(const util::Args& args) {
  auto repro_file = stage_output(args, "repro");
  verify::CertifierConfig config;
  config.seed = static_cast<std::uint64_t>(args.integer("seed"));
  config.trials_per_class = static_cast<std::size_t>(args.integer("trials"));
  config.n_min = static_cast<std::size_t>(args.integer("n-min"));
  config.n_max = static_cast<std::size_t>(args.integer("n-max"));
  if (config.n_max < config.n_min) {
    throw std::invalid_argument("--n-max must be at least --n-min");
  }
  config.radius = args.real("radius");
  config.tau = args.real("tau");
  config.horizon_rounds = static_cast<std::size_t>(args.integer("steps"));
  config.threads = static_cast<unsigned>(args.integer("threads"));
  config.variants = {campaign::parse_variant(args.text("variant"))};

  if (const auto& classes = args.text("classes"); classes != "all") {
    config.classes.clear();
    for (std::size_t start = 0, comma = 0; comma != std::string::npos;
         start = comma + 1) {
      comma = classes.find(',', start);
      config.classes.push_back(verify::parse_fault_class(
          classes.substr(start, comma - start)));  // npos - start: the rest
    }
  }

  const bool quiet = args.boolean("quiet");
  if (!quiet) {
    std::printf("certifying self-stabilization: %zu fault class(es) x %zu "
                "trial(s), n in [%zu, %zu], variant %s, tau %g, horizon "
                "%zu rounds, seed %llu\n",
                config.classes.size(), config.trials_per_class,
                config.n_min, config.n_max,
                std::string(campaign::to_string(config.variants.front()))
                    .c_str(),
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
               std::string(campaign::to_string(shrunk.minimal.variant)).c_str(),
               shrunk.attempts,
               shrunk.shrinks, repro.reproduces ? "verified" : "UNVERIFIED");
  if (repro_file) {
    repro_file->stream() << repro.text;
    publish(*repro_file);
  } else {
    std::fputs(repro.text.c_str(), stderr);
  }
  return kExitRunFailure;
}

int run_campaign(const util::Args& args) {
  auto spec = campaign::load_spec(args.positional().front());
  // CLI overrides for the two knobs one typically varies per invocation.
  if (args.has("replications")) {
    spec.replications = static_cast<std::size_t>(args.integer("replications"));
  }
  if (args.has("seed")) {
    spec.seed_base = static_cast<std::uint64_t>(args.integer("seed"));
  }

  const auto plan = campaign::expand(spec);

  // Resume must be validated before anything runs or any output opens:
  // a checkpoint for a different spec, or a torn file, aborts with the
  // bad-arguments exit and zero partial execution.
  const std::string& resume_path = args.text("resume");
  campaign::CheckpointState resume_state;
  if (!resume_path.empty()) {
    resume_state = campaign::load_checkpoint(resume_path, plan);
  }
  campaign::CheckpointOptions ckpt;
  // --resume without --checkpoint keeps checkpointing to the same file,
  // so a twice-interrupted sweep resumes twice without extra flags.
  ckpt.path = args.has("checkpoint") ? args.text("checkpoint") : resume_path;
  ckpt.every_runs = static_cast<std::size_t>(args.integer("checkpoint-every"));

  auto csv = stage_output(args, "csv");
  auto json = stage_output(args, "json");

  campaign::ExecutionOptions exec;
  exec.shards = static_cast<std::size_t>(args.integer("shards"));
  campaign::CampaignRunner runner(
      static_cast<unsigned>(args.integer("threads")), exec);
  if (!args.boolean("quiet")) {
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

  if (!args.boolean("quiet")) {
    std::fputs(campaign::summary_table(plan, aggregates).render().c_str(),
               stdout);
  }
  if (csv) {
    campaign::write_csv(csv->stream(), plan, aggregates);
    publish(*csv);
  }
  if (json) {
    campaign::write_json(json->stream(), plan, aggregates);
    publish(*json);
  }
  return kExitOk;
}

serve::Server* g_server = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();  // async-signal-safe
}

int run_serve(const util::Args& args) {
  serve::ServerOptions options;
  options.port = static_cast<std::uint16_t>(args.integer("port"));
  options.threads = static_cast<unsigned>(args.integer("threads"));
  options.exec.shards = static_cast<std::size_t>(args.integer("shards"));

  serve::Server server(options);
  g_server = &server;
  // SIGTERM/SIGINT start the graceful drain; SIGPIPE must not kill the
  // daemon when a client disconnects mid-stream.
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGPIPE, SIG_IGN);

  // Scripts parse this line for the resolved port (--port 0 = ephemeral).
  std::printf("ssmwn serve: listening on 127.0.0.1:%u (%u worker thread(s))\n",
              static_cast<unsigned>(server.port()), server.thread_count());
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
  if (!args.has("port")) {
    throw std::invalid_argument("submit: --port is required");
  }
  const auto port = static_cast<std::uint16_t>(args.integer("port"));

  const std::string& spec_path = args.positional().front();
  std::ifstream in(spec_path, std::ios::binary);
  if (!in) {
    throw std::invalid_argument("cannot read spec file '" + spec_path + "'");
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

// Each command's bit in a flag row's command set.
enum : unsigned {
  kCluster = 1, kProtocol = 2, kRouting = 4, kCampaign = 8, kServe = 16,
  kSubmit = 32, kVerify = 64, kDeploy = kCluster | kProtocol | kRouting,
};

struct FlagRow {
  unsigned commands;
  util::Flag flag;
};

using enum util::Flag::Kind;
const double kBelow1 = std::nextafter(1.0, 0.0);
const double kBelow1e9 = std::nextafter(1e9, 0.0);
const double kTiny = std::numeric_limits<double>::denorm_min();
const double kMaxSeed = 0x1p63;  // 2^63: every int64 seed >= 0 fits

// Every flag of every command: {name, kind, default, help, min, max,
// choices, needs}. A name has two rows only where two commands give it
// a different default or range. A need rejects the flag in a mode that
// never reads it.
const std::vector<FlagRow> kFlags = {
    {kDeploy, {"n", kInt, "500", "number of nodes", 1, 1e7}},
    {kDeploy, {"radius", kReal, "0.08", "radio range", 1e-9, 1e9}},
    {kDeploy, {"grid", kBool, "false", "square grid, sequential ids"}},
    {kDeploy | kVerify,
     {"seed", kInt, "20050612", "experiment seed", 0, kMaxSeed}},
    {kCampaign, {"seed", kInt, "", "override seed_base", 0, kMaxSeed}},
    {kCluster, {"metric", kChoice, "density", "head election metric", 0, 0,
                {"density", "degree", "lowest-id", "max-min"}}},
    {kCluster, {"d", kInt, "2", "max-min radius in hops", 1, 64, {},
                {{"metric", "max-min"}}}},
    {kCluster | kProtocol, {"dag", kBool, "false", "DAG ids (paper 4.1)"}},
    {kCluster | kProtocol,
     {"fusion", kBool, "false", "fuse heads < 3 hops apart (paper 4.3)"}},
    {kCluster, {"incumbency", kBool, "false", "heads keep ties (paper 4.3)"}},
    {kCluster, {"dot", kText, "", "write the clustering as DOT"}},
    {kCluster | kCampaign, {"csv", kText, "", "write per-node/scenario CSV"}},
    {kCluster, {"map", kBool, "false", "ASCII map (with --grid)"}},
    {kRouting, {"pairs", kInt, "300", "sampled node pairs", 1, 1e7}},
    {kProtocol | kVerify,
     {"tau", kReal, "1", "per-link delivery probability", kTiny, 1}},
    {kProtocol, {"steps", kInt, "100", "steps (async, live: periods)", 1, 1e6}},
    {kVerify, {"steps", kInt, "240", "trial horizon in rounds",
               verify::kMinHorizonRounds, 1e6}},
    {kProtocol, {"corrupt", kReal, "0", "corrupt this node share, recover",
                 0, 1, {}, {{"live", "false"}}}},
    {kProtocol | kCampaign | kServe | kVerify,
     {"threads", kInt, "1", "workers, 0 = all; same results", 0, 65536, {},
      {{"scheduler", "sync"}}}},
    {kProtocol | kCampaign | kServe,
     {"shards", kInt, "0", "shards, 0 = per worker; same results", 0, 1e6,
      {}, {{"scheduler", "sync"}, {"live", "false"}}}},
    {kProtocol, {"scheduler", kChoice, "sync", "lockstep or event-driven", 0,
                 0, {"sync", "async"}}},
    {kProtocol, {"daemon", kChoice, "randomized", "async activation order", 0,
                 0, {"randomized", "synchronous", "unfair"},
                 {{"scheduler", "async"}}}},
    // 1e-6 s is one virtual-time tick: a shorter period cannot advance
    // the event clock.
    {kProtocol, {"period", kReal, "1", "broadcast period in s (live: "
                 "--window-s)", 1e-6, kBelow1e9, {}, {{"scheduler", "async"}}}},
    {kProtocol, {"period-jitter", kReal, "0.1", "period jitter", 0, kBelow1,
                 {}, {{"scheduler", "async"}}}},
    {kProtocol, {"link-delay", kReal, "0.02", "link delay in s", 0, kBelow1e9,
                 {}, {{"scheduler", "async"}}}},
    {kProtocol, {"live", kBool, "false", "keep running while nodes move"}},
    {kProtocol, {"topology", kChoice, "incremental", "per-window update", 0,
                 0, {"incremental", "rebuild"}, {{"live", "true"}}}},
    {kProtocol, {"mobility", kChoice, "random-direction", "mobility model",
                 0, 0, {"random-direction", "random-waypoint"},
                 {{"live", "true"}}}},
    {kProtocol, {"speed-min", kReal, "0", "slowest node in m/s", 0,
                 kBelow1e9, {}, {{"live", "true"}}}},
    {kProtocol, {"speed-max", kReal, "1.6", "fastest node in m/s", 0,
                 kBelow1e9, {}, {{"live", "true"}}}},
    {kProtocol, {"windows", kInt, "20", "mobility windows", 1, 1e6, {},
                 {{"live", "true"}}}},
    {kProtocol, {"window-s", kReal, "2", "seconds per window", 1e-6,
                 kBelow1e9, {}, {{"live", "true"}}}},
    {kProtocol, {"stepping", kChoice, "full", "dirty: changed nodes only", 0,
                 0, {"full", "dirty"}}},
    {kCampaign, {"json", kText, "", "write per-scenario JSON"}},
    {kCampaign | kVerify, {"quiet", kBool, "false", "no progress or table"}},
    {kCampaign, {"replications", kInt, "", "override replications", 1, 1e9}},
    {kCampaign, {"checkpoint", kText, "", "publish resumable checkpoints"}},
    {kCampaign, {"checkpoint-every", kInt, "64", "runs per checkpoint", 1,
                 1e9}},
    {kCampaign, {"resume", kText, "", "skip the runs a checkpoint holds"}},
    {kServe, {"port", kInt, "0", "127.0.0.1 port, 0 = ephemeral", 0, 65535}},
    {kSubmit, {"port", kInt, "", "the daemon's port (required)", 1, 65535}},
    {kVerify, {"trials", kInt, "200", "trials per fault class", 1, 1e7}},
    {kVerify, {"classes", kText, "all", "all, or a comma list"}},
    {kVerify, {"n-min", kInt, "8", "smallest trial world", 1, 1e6}},
    {kVerify, {"n-max", kInt, "64", "largest trial world", 1, 1e6}},
    {kVerify, {"radius", kReal, "0.16", "trial radio range", kTiny,
               kBelow1e9}},
    {kVerify, {"variant", kChoice, "basic", "protocol variant", 0, 0,
               {"basic", "dag", "improved", "full"}}},
    {kVerify, {"repro", kText, "", "write a shrunk violation's spec"}},
};

struct Command {
  const char* name;
  unsigned bit;
  std::vector<std::string> operands;
  const char* summary;
  int (*run)(const util::Args&);
};

const std::vector<Command> kCommands = {
    {"cluster", kCluster, {}, "cluster one deployment", run_cluster},
    {"protocol", kProtocol, {}, "run the distributed protocol", run_protocol},
    {"routing", kRouting, {}, "flat vs cluster-based routing", run_routing},
    {"campaign", kCampaign, {"<spec-file>"}, "run a spec's grid", run_campaign},
    {"serve", kServe, {}, "daemon: specs in, results out", run_serve},
    {"submit", kSubmit, {"<spec-file>"}, "send a spec to serve", run_submit},
    {"verify", kVerify, {}, "certify self-stabilization", run_verify},
};

std::vector<util::Flag> flags_of(const Command& command) {
  std::vector<util::Flag> flags;
  for (const auto& row : kFlags) {
    if (row.commands & command.bit) flags.push_back(row.flag);
  }
  return flags;
}

void usage() {
  std::puts("usage: ssmwn <command> [operands] [--flag value ...]\n"
            "a bool flag is bare --flag or --flag=false");
  for (const auto& command : kCommands) {
    std::string head = command.name;
    for (const auto& operand : command.operands) head += " " + operand;
    std::printf("\n%s: %s\n", head.c_str(), command.summary);
    for (const auto& flag : flags_of(command)) {
      std::string left = "  --" + flag.name;
      if (flag.kind == kInt) left += " N";
      if (flag.kind == kReal) left += " X";
      if (flag.kind == kText) left += " TEXT";
      for (const auto& choice : flag.choices) {
        left += (&choice == &flag.choices.front() ? " " : "|") + choice;
      }
      if (left.size() >= 24) left += "\n" + std::string(24, ' ');
      std::string help = flag.help;
      if (flag.kind != kBool && !flag.fallback.empty()) {
        help += " (default " + flag.fallback + ")";
      }
      std::printf("%-24s%s\n", left.c_str(), help.c_str());
    }
  }
  std::puts("\nexit codes: 0 success, 1 run failure, 2 bad arguments or spec");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    for (const auto& command : kCommands) {
      if (argc > 1 && std::string(argv[1]) == command.name) {
        return command.run(util::Args(argc - 1, argv + 1, flags_of(command),
                                      command.operands));
      }
    }
    if (argc > 1) std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
    usage();
    return kExitUsage;
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return kExitUsage;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return kExitRunFailure;
  }
}
