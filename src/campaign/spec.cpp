#include "campaign/spec.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <locale>
#include <set>
#include <sstream>

#include "util/rng.hpp"
#include "verify/trial.hpp"

namespace ssmwn::campaign {

namespace {

[[noreturn]] void fail(const std::string& message) { throw SpecError(message); }

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> split_list(std::string_view value) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto comma = value.find(',', start);
    out.push_back(trim(value.substr(start, comma - start)));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return out;
}

double parse_number(const std::string& key, const std::string& raw) {
  // std::from_chars, not std::stod: strtod honors LC_NUMERIC, so under
  // a de_DE global locale "0.08" would stop parsing at the '.' and the
  // spec would be rejected — the input-side twin of the locale-free
  // output formatting in format_double below. A single leading '+'
  // (which strtod accepted but from_chars rejects) is still allowed.
  const char* first = raw.data();
  const char* last = raw.data() + raw.size();
  if (last - first > 1 && *first == '+' && *(first + 1) != '-' &&
      *(first + 1) != '+') {
    ++first;
  }
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec == std::errc::result_out_of_range) {
    fail(key + ": number '" + raw + "' is out of range");
  }
  if (ec != std::errc{}) fail(key + ": expected a number, got '" + raw + "'");
  if (ptr != raw.data() + raw.size()) {
    fail(key + ": trailing junk in number '" + raw + "'");
  }
  return v;
}

std::size_t parse_count(const std::string& key, const std::string& raw) {
  const double v = parse_number(key, raw);
  if (v < 0.0 || v != std::floor(v)) {
    fail(key + ": expected a non-negative integer, got '" + raw + "'");
  }
  // Bound before casting: double→size_t above SIZE_MAX is UB, and any
  // count near it is a typo, not a campaign.
  if (v > 1e15) fail(key + ": value '" + raw + "' is absurdly large");
  return static_cast<std::size_t>(v);
}

TopologyKind parse_topology(const std::string& raw) {
  if (raw == "uniform") return TopologyKind::kUniform;
  if (raw == "grid") return TopologyKind::kGrid;
  if (raw == "poisson") return TopologyKind::kPoisson;
  fail("topology: expected uniform|grid|poisson, got '" + raw + "'");
}

MobilityKind parse_mobility(const std::string& raw) {
  if (raw == "none") return MobilityKind::kNone;
  if (raw == "random-direction") return MobilityKind::kRandomDirection;
  if (raw == "random-waypoint") return MobilityKind::kRandomWaypoint;
  fail("mobility: expected none|random-direction|random-waypoint, got '" +
       raw + "'");
}

SchedulerKind parse_scheduler(const std::string& raw) {
  if (raw == "sync") return SchedulerKind::kSync;
  if (raw == "async") return SchedulerKind::kAsync;
  fail("scheduler: expected sync|async, got '" + raw + "'");
}

bool parse_bool(const std::string& key, const std::string& raw) {
  if (raw == "true") return true;
  if (raw == "false") return false;
  fail(key + ": expected true|false, got '" + raw + "'");
}

TopologyUpdateKind parse_topology_update(const std::string& raw) {
  if (raw == "rebuild") return TopologyUpdateKind::kRebuild;
  if (raw == "incremental") return TopologyUpdateKind::kIncremental;
  fail("topology_update: expected rebuild|incremental, got '" + raw + "'");
}

SteppingKind parse_stepping(const std::string& raw) {
  if (raw == "full") return SteppingKind::kFull;
  if (raw == "dirty") return SteppingKind::kDirty;
  fail("stepping: expected full|dirty, got '" + raw + "'");
}

// The verify-axis spellings live with the taxonomy (verify/faults.cpp);
// rethrow their invalid_argument as SpecError so the parser's error
// contract (and the CLI's exit-code mapping) stays uniform.
verify::FaultClass parse_fault_class_or_fail(const std::string& raw) {
  try {
    return verify::parse_fault_class(raw);
  } catch (const std::invalid_argument& error) {
    fail(error.what());
  }
}

verify::Daemon parse_daemon_or_fail(const std::string& raw) {
  try {
    return verify::parse_daemon(raw);
  } catch (const std::invalid_argument& error) {
    fail(error.what());
  }
}

void require_scalar(const std::string& key,
                    const std::vector<std::string>& values) {
  if (values.size() != 1) {
    fail(key + ": this key does not support sweep lists");
  }
}

}  // namespace

std::string format_double(double value) {
  // Shortest round-trip-exact decimal; the precision-17 fallback
  // guarantees distinct values never serialize identically. Formatting
  // and the round-trip check go through std::to_chars/from_chars, which
  // are defined on the "C" locale regardless of LC_NUMERIC — an
  // LC_NUMERIC=de_DE process must not emit "0,08" into canonical
  // serializations (seeds!) or CSV/JSON (byte-identical replay).
  // to_chars with chars_format::general and explicit precision formats
  // exactly as printf "%.*g" does in the C locale, so the emitted bytes
  // are unchanged from the snprintf implementation this replaces.
  char buf[64];
  for (const int precision : {9, 17}) {
    const auto result = std::to_chars(buf, buf + sizeof buf - 1, value,
                                      std::chars_format::general, precision);
    *result.ptr = '\0';
    double parsed = 0.0;
    std::from_chars(buf, result.ptr, parsed);
    if (parsed == value) break;
  }
  return buf;
}

std::string_view to_string(TopologyKind kind) noexcept {
  switch (kind) {
    case TopologyKind::kUniform: return "uniform";
    case TopologyKind::kGrid: return "grid";
    case TopologyKind::kPoisson: return "poisson";
  }
  return "?";
}

std::string_view to_string(MobilityKind kind) noexcept {
  switch (kind) {
    case MobilityKind::kNone: return "none";
    case MobilityKind::kRandomDirection: return "random-direction";
    case MobilityKind::kRandomWaypoint: return "random-waypoint";
  }
  return "?";
}

Variant parse_variant(const std::string& raw) {
  if (raw == "basic") return Variant::kBasic;
  if (raw == "dag") return Variant::kDag;
  if (raw == "improved") return Variant::kImproved;
  if (raw == "full") return Variant::kFull;
  fail("variant: expected basic|dag|improved|full, got '" + raw + "'");
}

core::ClusterOptions cluster_options(Variant variant) noexcept {
  switch (variant) {
    case Variant::kBasic: return core::ClusterOptions::basic();
    case Variant::kDag: return core::ClusterOptions::with_dag();
    case Variant::kImproved: return core::ClusterOptions::improved();
    case Variant::kFull: return core::ClusterOptions::full();
  }
  return {};
}

std::string_view to_string(Variant variant) noexcept {
  switch (variant) {
    case Variant::kBasic: return "basic";
    case Variant::kDag: return "dag";
    case Variant::kImproved: return "improved";
    case Variant::kFull: return "full";
  }
  return "?";
}

std::string_view to_string(SchedulerKind kind) noexcept {
  switch (kind) {
    case SchedulerKind::kSync: return "sync";
    case SchedulerKind::kAsync: return "async";
  }
  return "?";
}

std::string_view to_string(TopologyUpdateKind kind) noexcept {
  switch (kind) {
    case TopologyUpdateKind::kRebuild: return "rebuild";
    case TopologyUpdateKind::kIncremental: return "incremental";
  }
  return "?";
}

std::string_view to_string(SteppingKind kind) noexcept {
  switch (kind) {
    case SteppingKind::kFull: return "full";
    case SteppingKind::kDirty: return "dirty";
  }
  return "?";
}

std::string canonical_config(const ScenarioConfig& c) {
  std::ostringstream out;
  // Integer formatting also honors the stream's locale (grouping, e.g.
  // "1.000" under de_DE); pin the classic locale so canonical strings —
  // and therefore seeds — never depend on the process environment.
  out.imbue(std::locale::classic());
  out << "topology=" << to_string(c.topology) << ";n=" << c.n
      << ";radius=" << format_double(c.radius)
      << ";variant=" << to_string(c.variant)
      << ";mobility=" << to_string(c.mobility)
      << ";speed_min=" << format_double(c.speed_min)
      << ";speed_max=" << format_double(c.speed_max)
      << ";tau=" << format_double(c.tau)
      << ";churn_down=" << format_double(c.churn_down)
      << ";churn_up=" << format_double(c.churn_up) << ";steps=" << c.steps
      << ";window_s=" << format_double(c.window_s)
      << ";world_m=" << format_double(c.world_m);
  // Appended only for async points — see the header comment: this keeps
  // every pre-existing synchronous campaign's seeds bit-stable.
  if (c.scheduler != SchedulerKind::kSync) {
    out << ";scheduler=" << to_string(c.scheduler)
        << ";period_jitter=" << format_double(c.period_jitter)
        << ";link_delay=" << format_double(c.link_delay);
  }
  // Same release-boundary discipline for the dynamic-topology axis: a
  // non-live point serializes exactly as it did before the axis existed.
  if (c.protocol_live) {
    out << ";protocol_live=true;topology_update="
        << to_string(c.topology_update) << ";live_horizon=" << c.live_horizon;
  }
  // And for the certification axis: only verify points carry it.
  if (c.verify_faults) {
    out << ";verify_faults=true;fault_class="
        << verify::to_string(c.fault_class)
        << ";daemon=" << verify::to_string(c.daemon);
  }
  // Quiescence axis: serialized only when it both applies and deviates
  // from the default. `stepping=full` is never written — full stepping
  // is what every campaign ran before the axis existed, so even
  // pre-existing *live and async* points keep their exact canonical
  // strings (and seeds, and outputs) across this release boundary.
  if (stepping_applies(c) && c.stepping == SteppingKind::kDirty) {
    out << ";stepping=dirty";
  }
  return out.str();
}

CampaignSpec parse_spec_text(std::string_view text) {
  std::istringstream in{std::string(text)};
  return parse_spec(in);
}

CampaignSpec parse_spec(std::istream& in) {
  CampaignSpec spec;
  std::set<std::string> seen;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;
    const auto eq = stripped.find('=');
    if (eq == std::string::npos) {
      fail("line " + std::to_string(line_no) + ": expected 'key = value', got '" +
           stripped + "'");
    }
    const std::string key = trim(stripped.substr(0, eq));
    const auto values = split_list(stripped.substr(eq + 1));
    if (key.empty()) fail("line " + std::to_string(line_no) + ": empty key");
    for (const auto& v : values) {
      if (v.empty()) {
        fail(key + ": empty value (line " + std::to_string(line_no) + ")");
      }
    }
    if (!seen.insert(key).second) fail("duplicate key '" + key + "'");

    if (key == "name") {
      require_scalar(key, values);
      spec.name = values.front();
    } else if (key == "replications") {
      require_scalar(key, values);
      spec.replications = parse_count(key, values.front());
    } else if (key == "seed_base") {
      require_scalar(key, values);
      const std::string& raw = values.front();
      // Strict like every other key: stoull alone would wrap negatives
      // modulo 2^64 and silently drop trailing junk.
      try {
        std::size_t used = 0;
        if (raw.front() == '-') throw std::invalid_argument(raw);
        spec.seed_base = std::stoull(raw, &used);
        if (used != raw.size()) throw std::invalid_argument(raw);
      } catch (const std::exception&) {
        fail("seed_base: expected an unsigned integer, got '" + raw + "'");
      }
    } else if (key == "window_s") {
      require_scalar(key, values);
      spec.window_s = parse_number(key, values.front());
    } else if (key == "world_m") {
      require_scalar(key, values);
      spec.world_m = parse_number(key, values.front());
    } else if (key == "topology") {
      spec.topology.clear();
      for (const auto& v : values) spec.topology.push_back(parse_topology(v));
    } else if (key == "n") {
      spec.n.clear();
      for (const auto& v : values) spec.n.push_back(parse_count(key, v));
    } else if (key == "radius") {
      spec.radius.clear();
      for (const auto& v : values) spec.radius.push_back(parse_number(key, v));
    } else if (key == "variant") {
      spec.variant.clear();
      for (const auto& v : values) spec.variant.push_back(parse_variant(v));
    } else if (key == "mobility") {
      spec.mobility.clear();
      for (const auto& v : values) spec.mobility.push_back(parse_mobility(v));
    } else if (key == "speed_min") {
      spec.speed_min.clear();
      for (const auto& v : values) {
        spec.speed_min.push_back(parse_number(key, v));
      }
    } else if (key == "speed_max") {
      spec.speed_max.clear();
      for (const auto& v : values) {
        spec.speed_max.push_back(parse_number(key, v));
      }
    } else if (key == "tau") {
      spec.tau.clear();
      for (const auto& v : values) spec.tau.push_back(parse_number(key, v));
    } else if (key == "churn_down") {
      spec.churn_down.clear();
      for (const auto& v : values) {
        spec.churn_down.push_back(parse_number(key, v));
      }
    } else if (key == "churn_up") {
      spec.churn_up.clear();
      for (const auto& v : values) {
        spec.churn_up.push_back(parse_number(key, v));
      }
    } else if (key == "steps") {
      spec.steps.clear();
      for (const auto& v : values) spec.steps.push_back(parse_count(key, v));
    } else if (key == "scheduler") {
      spec.scheduler.clear();
      for (const auto& v : values) spec.scheduler.push_back(parse_scheduler(v));
    } else if (key == "period_jitter") {
      spec.period_jitter.clear();
      for (const auto& v : values) {
        spec.period_jitter.push_back(parse_number(key, v));
      }
    } else if (key == "link_delay") {
      spec.link_delay.clear();
      for (const auto& v : values) {
        spec.link_delay.push_back(parse_number(key, v));
      }
    } else if (key == "protocol_live") {
      spec.protocol_live.clear();
      for (const auto& v : values) {
        spec.protocol_live.push_back(parse_bool(key, v));
      }
    } else if (key == "topology_update") {
      spec.topology_update.clear();
      for (const auto& v : values) {
        spec.topology_update.push_back(parse_topology_update(v));
      }
    } else if (key == "live_horizon") {
      require_scalar(key, values);
      spec.live_horizon = parse_count(key, values.front());
    } else if (key == "verify_faults") {
      spec.verify_faults.clear();
      for (const auto& v : values) {
        spec.verify_faults.push_back(parse_bool(key, v));
      }
    } else if (key == "fault_class") {
      spec.fault_class.clear();
      for (const auto& v : values) {
        spec.fault_class.push_back(parse_fault_class_or_fail(v));
      }
    } else if (key == "daemon") {
      spec.daemon.clear();
      for (const auto& v : values) {
        spec.daemon.push_back(parse_daemon_or_fail(v));
      }
    } else if (key == "stepping") {
      spec.stepping.clear();
      for (const auto& v : values) spec.stepping.push_back(parse_stepping(v));
    } else {
      fail("unknown key '" + key + "' (line " + std::to_string(line_no) + ")");
    }
  }
  validate(spec);
  return spec;
}

CampaignSpec load_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open spec file '" + path + "'");
  return parse_spec(in);
}

void validate(const CampaignSpec& spec) {
  if (spec.replications == 0) fail("replications: must be at least 1");
  // Negated comparisons so NaN fails every range check.
  if (!(spec.window_s > 0.0)) fail("window_s: must be positive");
  if (!(spec.world_m > 0.0)) fail("world_m: must be positive");
  if (spec.name.empty()) fail("name: must be non-empty");
  auto check_each = [](const char* key, const auto& values, auto&& ok,
                       const char* what) {
    if (values.empty()) fail(std::string(key) + ": needs at least one value");
    for (const auto& v : values) {
      if (!ok(v)) {
        fail(std::string(key) + ": " + what);
      }
    }
  };
  check_each("n", spec.n, [](std::size_t v) { return v >= 1; },
             "node count must be at least 1");
  check_each("radius", spec.radius, [](double v) { return v > 0.0 && v < 1e9; },
             "radius must be positive");
  check_each("tau", spec.tau, [](double v) { return v > 0.0 && v <= 1.0; },
             "delivery probability must be in (0, 1]");
  check_each("churn_down", spec.churn_down,
             [](double v) { return v >= 0.0 && v <= 1.0; },
             "probability must be in [0, 1]");
  check_each("churn_up", spec.churn_up,
             [](double v) { return v >= 0.0 && v <= 1.0; },
             "probability must be in [0, 1]");
  check_each("speed_min", spec.speed_min,
             [](double v) { return v >= 0.0 && v < 1e9; },
             "speed must be non-negative");
  check_each("speed_max", spec.speed_max,
             [](double v) { return v >= 0.0 && v < 1e9; },
             "speed must be non-negative");
  check_each("steps", spec.steps, [](std::size_t v) { return v >= 1; },
             "at least one snapshot window is required");
  check_each("period_jitter", spec.period_jitter,
             [](double v) { return v >= 0.0 && v < 1.0; },
             "jitter fraction must be in [0, 1)");
  check_each("link_delay", spec.link_delay,
             [](double v) { return v >= 0.0 && v < 1e9; },
             "delay must be non-negative seconds");
  if (spec.live_horizon == 0) {
    fail("live_horizon: must be at least 1 round");
  }
  // Empty axes for the enum fields can only arise programmatically.
  if (spec.topology.empty()) fail("topology: needs at least one value");
  if (spec.variant.empty()) fail("variant: needs at least one value");
  if (spec.mobility.empty()) fail("mobility: needs at least one value");
  if (spec.scheduler.empty()) fail("scheduler: needs at least one value");
  if (spec.protocol_live.empty()) {
    fail("protocol_live: needs at least one value");
  }
  if (spec.topology_update.empty()) {
    fail("topology_update: needs at least one value");
  }
  if (spec.verify_faults.empty()) {
    fail("verify_faults: needs at least one value");
  }
  if (spec.fault_class.empty()) fail("fault_class: needs at least one value");
  if (spec.daemon.empty()) fail("daemon: needs at least one value");
  if (spec.stepping.empty()) fail("stepping: needs at least one value");
}

std::uint64_t run_seed(std::uint64_t seed_base, std::string_view canonical,
                       std::uint64_t replication) noexcept {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64-bit
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  // Finalize through SplitMix64 so nearby (seed_base, rep) pairs land in
  // unrelated parts of the seed space.
  std::uint64_t state = seed_base;
  const std::uint64_t base = util::splitmix64(state);
  state = h ^ base;
  const std::uint64_t point = util::splitmix64(state);
  state = point + replication * 0x9e3779b97f4a7c15ULL;
  return util::splitmix64(state);
}

CampaignPlan expand(const CampaignSpec& spec) {
  validate(spec);
  CampaignPlan plan;
  plan.name = spec.name;
  plan.replications = spec.replications;
  plan.seed_base = spec.seed_base;

  // Fixed axis nesting (outermost first). The order here — not the order
  // of lines in the spec file — defines grid indices, so two files with
  // reordered fields expand to identical plans. The newest (verify)
  // axes nest innermost of all; they are applied in a second, shallow
  // stage below so this ladder stops growing a level per release.
  std::vector<ScenarioConfig> base_points;
  for (const auto topology : spec.topology) {
    for (const auto n : spec.n) {
      for (const auto radius : spec.radius) {
        for (const auto variant : spec.variant) {
          for (const auto mobility : spec.mobility) {
            for (const auto speed_min : spec.speed_min) {
              for (const auto speed_max : spec.speed_max) {
                for (const auto tau : spec.tau) {
                  for (const auto churn_down : spec.churn_down) {
                    for (const auto churn_up : spec.churn_up) {
                      for (const auto steps : spec.steps) {
                        // New axes nest innermost so a sync-only spec's
                        // grid order is exactly what it was before the
                        // scheduler axis existed.
                        for (const auto scheduler : spec.scheduler) {
                          for (const auto period_jitter : spec.period_jitter) {
                            for (const auto link_delay : spec.link_delay) {
                              // The async knobs don't affect a sync run
                              // (or its canonical string); emit each
                              // sync point once, not once per knob
                              // combination, so seeds stay unique.
                              if (scheduler == SchedulerKind::kSync &&
                                  (period_jitter !=
                                       spec.period_jitter.front() ||
                                   link_delay != spec.link_delay.front())) {
                                continue;
                              }
                              // Newest axes innermost, same discipline:
                              // a non-live point ignores topology_update
                              // (and doesn't serialize it), so emit it
                              // once per knob value set.
                              for (const bool protocol_live :
                                   spec.protocol_live) {
                                for (const auto topology_update :
                                     spec.topology_update) {
                                  if (!protocol_live &&
                                      topology_update !=
                                          spec.topology_update.front()) {
                                    continue;
                                  }
                              ScenarioConfig config;
                              config.topology = topology;
                              config.n = n;
                              config.radius = radius;
                              config.variant = variant;
                              config.mobility = mobility;
                              config.speed_min = speed_min;
                              config.speed_max = speed_max;
                              config.tau = tau;
                              config.churn_down = churn_down;
                              config.churn_up = churn_up;
                              config.steps = steps;
                              config.window_s = spec.window_s;
                              config.world_m = spec.world_m;
                              config.scheduler = scheduler;
                              config.period_jitter = period_jitter;
                              config.link_delay = link_delay;
                              config.protocol_live = protocol_live;
                              config.topology_update = topology_update;
                              config.live_horizon = spec.live_horizon;
                              if (config.speed_min > config.speed_max) {
                                fail("speed_min " +
                                     format_double(config.speed_min) +
                                     " exceeds speed_max " +
                                     format_double(config.speed_max));
                              }
                              if (config.scheduler == SchedulerKind::kAsync &&
                                  !config.protocol_live &&
                                  (config.mobility != MobilityKind::kNone ||
                                   config.churn_down > 0.0)) {
                                fail("scheduler=async with mobility/churn "
                                     "requires protocol_live=true (the "
                                     "dynamic-topology mode); without it the "
                                     "event-driven engine runs a fixed "
                                     "deployment from an adversarial initial "
                                     "state");
                              }
                              if (config.scheduler == SchedulerKind::kAsync &&
                                  config.window_s < 1e-6) {
                                fail("scheduler=async requires window_s >= "
                                     "1e-6 (one virtual-time tick; window_s "
                                     "is the async broadcast period)");
                              }
                              if (config.protocol_live &&
                                  config.window_s < 1e-6) {
                                fail("protocol_live=true requires window_s >= "
                                     "1e-6 (window_s is the perturbation "
                                     "period and the live broadcast round)");
                              }
                              base_points.push_back(config);
                                }
                              }
                            }
                          }
                        }
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }

  // Stage 2: the certification axes, innermost of all (same
  // release-boundary discipline as every prior axis: a non-verify point
  // ignores fault_class and daemon, so emit it once per value set).
  // Base-major, verify-minor iteration — identical grid order to
  // splicing three more loops into the nest above, without deepening it.
  for (const ScenarioConfig& base : base_points) {
    for (const bool verify_faults : spec.verify_faults) {
      for (const auto fault_class : spec.fault_class) {
        for (const auto daemon : spec.daemon) {
          if (!verify_faults && (fault_class != spec.fault_class.front() ||
                                 daemon != spec.daemon.front())) {
            continue;
          }
          // The stepping axis nests innermost of all. It only sweeps on
          // points that have a stepper (live or async, never verify);
          // everywhere else the point is emitted once, with the axis
          // collapsed to its first value.
          for (const auto stepping : spec.stepping) {
          ScenarioConfig config = base;
          config.verify_faults = verify_faults;
          config.fault_class = fault_class;
          config.daemon = daemon;
          config.stepping = stepping;
          if (!stepping_applies(config) &&
              stepping != spec.stepping.front()) {
            continue;
          }
          if (config.stepping == SteppingKind::kDirty &&
              config.protocol_live &&
              config.scheduler == SchedulerKind::kSync && config.tau < 1.0) {
            // The synchronous dirty stepper elides whole nodes per tick,
            // which is only bit-identical when the medium is loss-free
            // (sim::Network::set_stepping enforces the same at runtime).
            fail("stepping=dirty on the synchronous engine requires tau=1 "
                 "(a lossy medium draws per-link randomness for skipped "
                 "nodes; use scheduler=async for lossy dirty runs)");
          }
          if (config.verify_faults) {
            // A certification trial is one corrupted fixed deployment
            // played on BOTH engines; every axis that would change that
            // shape is rejected loudly rather than silently ignored.
            if (config.protocol_live) {
              fail("verify_faults=true is incompatible with "
                   "protocol_live=true (a trial runs a fixed deployment)");
            }
            if (config.scheduler != SchedulerKind::kSync) {
              fail("verify_faults=true runs both engines itself; drop the "
                   "scheduler axis (use daemon= for the async half)");
            }
            if (config.mobility != MobilityKind::kNone ||
                config.churn_down > 0.0) {
              fail("verify_faults=true is incompatible with mobility/churn "
                   "(a trial runs a fixed deployment)");
            }
            if (config.topology != TopologyKind::kUniform) {
              fail("verify_faults=true requires topology=uniform (trials "
                   "draw their own uniform deployments)");
            }
            if (config.steps < verify::kMinHorizonRounds) {
              // Below this no trial can ever confirm legitimacy, so
              // every replication would report a "violation" that is
              // really a budget impossibility.
              fail("verify_faults=true requires steps >= " +
                   std::to_string(verify::kMinHorizonRounds) +
                   " (the horizon must cover the " +
                   std::to_string(verify::kDefaultConfirmRounds) +
                   "-round confirmation window plus the quiescence "
                   "baseline)");
            }
          }
          plan.grid.push_back({config, canonical_config(config)});
          }
        }
      }
    }
  }

  plan.runs.reserve(plan.grid.size() * spec.replications);
  for (std::size_t g = 0; g < plan.grid.size(); ++g) {
    for (std::size_t rep = 0; rep < spec.replications; ++rep) {
      plan.runs.push_back(
          {g, rep, run_seed(spec.seed_base, plan.grid[g].canonical, rep)});
    }
  }
  return plan;
}

std::size_t run_count_bound(const CampaignSpec& spec) noexcept {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::size_t bound = spec.replications;
  // Every list-valued field of CampaignSpec: a new sweep axis joins here.
  for (const std::size_t len :
       {spec.topology.size(), spec.n.size(), spec.radius.size(),
        spec.variant.size(), spec.mobility.size(), spec.speed_min.size(),
        spec.speed_max.size(), spec.tau.size(), spec.churn_down.size(),
        spec.churn_up.size(), spec.steps.size(), spec.scheduler.size(),
        spec.period_jitter.size(), spec.link_delay.size(),
        spec.protocol_live.size(), spec.topology_update.size(),
        spec.verify_faults.size(), spec.fault_class.size(),
        spec.daemon.size(), spec.stepping.size()}) {
    bound = (len != 0 && bound > kMax / len) ? kMax : bound * len;
  }
  return bound;
}

}  // namespace ssmwn::campaign
