#include "campaign/report.hpp"

#include <cstdio>
#include <locale>
#include <ostream>
#include <sstream>
#include <string>

namespace ssmwn::campaign {

namespace {

/// All numeric text in the reports flows through format_double (locale-
/// free by construction) or integer insertion on a stream pinned to the
/// classic locale by this helper — never through the global locale.
std::ostringstream classic_stream() {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  return out;
}

void append_escaped_json(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// The config columns of a plan's report: every grid-point row whose
/// gate is on at some point of the plan, in table order.
std::vector<const Axis*> config_columns(const CampaignPlan& plan) {
  std::vector<const Axis*> columns;
  for (const Axis& row : spec_axes()) {
    if (row.bind.text != nullptr && plan_uses(plan, row.gate)) {
      columns.push_back(&row);
    }
  }
  return columns;
}

/// Whether a point fills its cell of `row`: a row under a gate that does
/// not apply here gets an empty CSV cell and no JSON key, not the
/// arbitrary first value of its swept list, so nobody groups a sync
/// baseline under one particular link_delay slice.
bool cell_written(const Axis& row, const ScenarioConfig& c) noexcept {
  return row.toggle || gate_applies(row.gate, c);
}

std::string config_fields_csv(const ScenarioConfig& c,
                              const std::vector<const Axis*>& columns) {
  std::string out;
  for (const Axis* row : columns) {
    if (row != columns.front()) out += ',';
    if (cell_written(*row, c)) out += row->bind.text(c);
  }
  return out;
}

std::string config_json(const ScenarioConfig& c,
                        const std::vector<const Axis*>& columns) {
  std::string out;
  for (const Axis* row : columns) {
    if (!cell_written(*row, c)) continue;
    const char* quote = row->bind.kind == AxisKind::kEnum ? "\"" : "";
    out.append(out.empty() ? "\"" : ", \"").append(row->key).append("\": ");
    out.append(quote).append(row->bind.text(c)).append(quote);
  }
  return out;
}

std::string summary_json(const MetricSummary& s) {
  std::ostringstream out = classic_stream();
  out << "{\"count\": " << s.count << ", \"mean\": " << format_double(s.mean)
      << ", \"stddev\": " << format_double(s.stddev)
      << ", \"p50\": " << format_double(s.p50)
      << ", \"p95\": " << format_double(s.p95)
      << ", \"min\": " << format_double(s.min)
      << ", \"max\": " << format_double(s.max) << "}";
  return out.str();
}

/// Compact human label for a grid point; fixed function of the config.
std::string short_label(const ScenarioConfig& c) {
  std::ostringstream out = classic_stream();
  out << to_string(c.topology) << " n=" << c.n << " r="
      << format_double(c.radius) << ' ' << to_string(c.variant);
  if (c.scheduler == SchedulerKind::kAsync) {
    out << " async d=" << format_double(c.link_delay) << "s";
  }
  if (c.protocol_live) {
    out << " live/"
        << (c.topology_update == TopologyUpdateKind::kIncremental ? "inc"
                                                                  : "rb");
  }
  if (c.verify_faults) {
    out << " verify/" << verify::to_string(c.fault_class) << '/'
        << verify::to_string(c.daemon);
  }
  if (stepping_applies(c) && c.stepping == SteppingKind::kDirty) {
    out << " dirty";
  }
  if (c.mobility != MobilityKind::kNone) {
    out << ' ' << (c.mobility == MobilityKind::kRandomDirection ? "rd" : "rwp")
        << ' ' << format_double(c.speed_min) << '-'
        << format_double(c.speed_max) << "m/s";
  }
  if (c.tau < 1.0) out << " tau=" << format_double(c.tau);
  if (c.churn_down > 0.0) out << " churn=" << format_double(c.churn_down);
  return out.str();
}

}  // namespace

bool plan_uses(const CampaignPlan& plan, Gate gate) noexcept {
  for (const auto& point : plan.grid) {
    if (gate_on(gate, point.config)) return true;
  }
  return false;
}

std::size_t report_metric_count(const CampaignPlan& plan) noexcept {
  if (plan_uses(plan, Gate::kVerify)) return kMetricNames.size();
  if (plan_uses(plan, Gate::kLive)) return kLiveMetricCount;
  return plan_uses(plan, Gate::kAsync) ? kAsyncMetricCount : kSyncMetricCount;
}

void write_csv(std::ostream& out, const CampaignPlan& plan,
               const std::vector<ScenarioAggregate>& aggregates) {
  out.imbue(std::locale::classic());
  const auto columns = config_columns(plan);
  const std::size_t metric_count = report_metric_count(plan);
  out << "campaign,";
  for (const Axis* row : columns) out << row->key << ',';
  out << "metric,count,mean,stddev,p50,p95,min,max\n";
  for (const auto& aggregate : aggregates) {
    const auto& config = plan.grid[aggregate.grid_index].config;
    const std::string fields = config_fields_csv(config, columns);
    // Only metrics the run actually measured (see metric_applies): no
    // fabricated converge_time=0 for sync points, no fabricated
    // delta=0 for async points.
    const bool async_point = config.scheduler != SchedulerKind::kSync;
    for (std::size_t m = 0; m < metric_count; ++m) {
      if (!metric_applies(m, async_point, config.protocol_live,
                          config.verify_faults)) {
        continue;
      }
      const MetricSummary& s = aggregate.metrics[m];
      out << plan.name << ',' << fields << ',' << kMetricNames[m] << ','
          << s.count << ',' << format_double(s.mean) << ','
          << format_double(s.stddev) << ',' << format_double(s.p50) << ','
          << format_double(s.p95) << ',' << format_double(s.min) << ','
          << format_double(s.max) << '\n';
    }
  }
}

void write_json(std::ostream& out, const CampaignPlan& plan,
                const std::vector<ScenarioAggregate>& aggregates) {
  out.imbue(std::locale::classic());
  const auto columns = config_columns(plan);
  const std::size_t metric_count = report_metric_count(plan);
  std::string name;
  append_escaped_json(name, plan.name);
  out << "{\n  \"campaign\": \"" << name << "\",\n  \"seed_base\": "
      << plan.seed_base << ",\n  \"replications\": " << plan.replications
      << ",\n  \"scenarios\": [";
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    const auto& aggregate = aggregates[i];
    const auto& config = plan.grid[aggregate.grid_index].config;
    out << (i == 0 ? "\n" : ",\n") << "    {"
        << config_json(config, columns) << ", \"metrics\": {";
    // As in write_csv: only the metrics this run actually measured.
    const bool async_point = config.scheduler != SchedulerKind::kSync;
    bool first = true;
    for (std::size_t m = 0; m < metric_count; ++m) {
      if (!metric_applies(m, async_point, config.protocol_live,
                          config.verify_faults)) {
        continue;
      }
      out << (first ? "" : ", ") << '"' << kMetricNames[m]
          << "\": " << summary_json(aggregate.metrics[m]);
      first = false;
    }
    out << "}}";
  }
  out << "\n  ]\n}\n";
}

util::Table summary_table(const CampaignPlan& plan,
                          const std::vector<ScenarioAggregate>& aggregates) {
  util::Table table("Campaign '" + plan.name + "' — " +
                    std::to_string(plan.grid.size()) + " scenario(s) x " +
                    std::to_string(plan.replications) + " replication(s)");
  const bool extended = plan_uses(plan, Gate::kAsync);
  const bool live = plan_uses(plan, Gate::kLive);
  const bool verify = plan_uses(plan, Gate::kVerify);
  if (verify) {
    table.header({"scenario", "pass rate", "clusters", "async t(s)",
                  "async msgs", "sync steps", "sync msgs"});
  } else if (live) {
    table.header({"scenario", "stability", "clusters", "conv t(s)", "msgs",
                  "reconv t(s)", "re-msgs"});
  } else if (extended) {
    table.header({"scenario", "stability", "delta", "reaffil", "clusters",
                  "conv t(s)", "msgs"});
  } else {
    table.header({"scenario", "stability", "delta", "reaffil", "clusters",
                  "p95 stab"});
  }
  for (const auto& aggregate : aggregates) {
    const auto& config = plan.grid[aggregate.grid_index].config;
    const bool async = config.scheduler != SchedulerKind::kSync;
    const bool live_point = config.protocol_live;
    if (verify) {
      const bool verify_point = config.verify_faults;
      table.row(
          {short_label(config),
           util::Table::num(aggregate.stability().mean, 3) + " ±" +
               util::Table::num(aggregate.stability().stddev, 3),
           util::Table::num(aggregate.cluster_count().mean, 1),
           verify_point
               ? util::Table::num(aggregate.converge_time().mean, 2)
               : std::string("-"),
           verify_point ? util::Table::num(aggregate.messages().mean, 0)
                        : std::string("-"),
           verify_point
               ? util::Table::num(aggregate.sync_converge_steps().mean, 1)
               : std::string("-"),
           verify_point
               ? util::Table::num(aggregate.sync_messages().mean, 0)
               : std::string("-")});
      continue;
    }
    if (live) {
      const bool conv = async || live_point;
      table.row(
          {short_label(config),
           util::Table::num(aggregate.stability().mean, 3) + " ±" +
               util::Table::num(aggregate.stability().stddev, 3),
           util::Table::num(aggregate.cluster_count().mean, 1),
           conv ? util::Table::num(aggregate.converge_time().mean, 2)
                : std::string("-"),
           conv ? util::Table::num(aggregate.messages().mean, 0)
                : std::string("-"),
           live_point ? util::Table::num(aggregate.reconverge_time().mean, 2)
                      : std::string("-"),
           live_point
               ? util::Table::num(aggregate.reconverge_messages().mean, 0)
               : std::string("-")});
      continue;
    }
    std::vector<std::string> row{
        short_label(config),
        util::Table::num(aggregate.stability().mean, 3) + " ±" +
            util::Table::num(aggregate.stability().stddev, 3),
        async ? std::string("-") : util::Table::num(aggregate.delta().mean, 3),
        async ? std::string("-")
              : util::Table::num(aggregate.reaffiliation().mean, 3),
        util::Table::num(aggregate.cluster_count().mean, 1)};
    if (extended) {
      row.push_back(async ? util::Table::num(aggregate.converge_time().mean, 2)
                          : std::string("-"));
      row.push_back(async ? util::Table::num(aggregate.messages().mean, 0)
                          : std::string("-"));
    } else {
      row.push_back(util::Table::num(aggregate.stability().p95, 3));
    }
    table.row(std::move(row));
  }
  if (verify) {
    table.note(
        "pass rate = fraction of certification trials in which BOTH "
        "engines reached and held a legitimate configuration and agreed; "
        "async t / msgs = event-engine convergence (virtual s, "
        "deliveries); sync steps / msgs = lockstep-engine convergence");
  } else if (live) {
    table.note(
        "stability = fraction of perturbations re-converged (live rows) or "
        "converged fraction (async); conv t / msgs = cold-start convergence; "
        "reconv t / re-msgs = mean per-perturbation re-convergence time "
        "(virtual s) and messages, live rows only");
  } else {
    table.note(extended
                   ? "stability = head re-election ratio (sync) or converged "
                     "fraction (async); conv t / msgs = virtual convergence "
                     "time and messages-to-convergence, async rows only"
                   : "stability = head re-election ratio per window; delta = "
                     "fraction of nodes changing cluster; reaffil = fraction "
                     "changing parent");
  }
  return table;
}

}  // namespace ssmwn::campaign
