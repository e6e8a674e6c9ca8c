#include "campaign/spec.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <type_traits>

#include "util/enum_names.hpp"
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

std::uint64_t parse_seed(const std::string& key, const std::string& raw) {
  // stoull alone would wrap negatives modulo 2^64 and silently drop
  // trailing junk.
  try {
    std::size_t used = 0;
    if (raw.front() == '-') throw std::invalid_argument(raw);
    const std::uint64_t seed = std::stoull(raw, &used);
    if (used == raw.size()) return seed;
  } catch (const std::exception&) {
  }
  fail(key + ": expected an unsigned integer, got '" + raw + "'");
}

bool parse_bool(const std::string& key, const std::string& raw) {
  if (raw == "true") return true;
  if (raw == "false") return false;
  fail(key + ": expected true|false, got '" + raw + "'");
}

// One spelling array per enum, indexed by the enumerator's value.
constexpr std::array<std::string_view, 3> kTopologyNames{"uniform", "grid",
                                                         "poisson"};
constexpr std::array<std::string_view, 3> kMobilityNames{
    "none", "random-direction", "random-waypoint"};
constexpr std::array<std::string_view, 4> kVariantNames{"basic", "dag",
                                                        "improved", "full"};
constexpr std::array<std::string_view, 2> kSchedulerNames{"sync", "async"};
constexpr std::array<std::string_view, 2> kTopologyUpdateNames{
    "rebuild", "incremental"};
constexpr std::array<std::string_view, 2> kSteppingNames{"full", "dirty"};

template <std::size_t N, typename E>
std::string_view spell(const std::array<std::string_view, N>& names,
                       E value) noexcept {
  const auto i = static_cast<std::size_t>(value);
  return i < N ? names[i] : "?";
}

std::string value_text(std::size_t v) { return std::to_string(v); }
std::string value_text(double v) { return format_double(v); }
std::string value_text(bool v) { return v ? "true" : "false"; }
template <typename E>
  requires std::is_enum_v<E>
std::string value_text(E v) {
  return std::string(to_string(v));
}

// A repeated value would expand to a second grid point with the same
// canonical string, so the same seeds. A daemon parses lists of any
// length a client sends, so repeats are found by sorting positions by
// value, O(k log k); the value reported is the earliest that repeats one
// before it, as a left-to-right scan would find.
template <typename T>
void reject_repeats(const std::string& key, const std::vector<T>& values) {
  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&values](std::size_t a, std::size_t b) {
                     if constexpr (std::is_floating_point_v<T>) {
                       // NaNs sort last, so the order stays strict weak.
                       if (std::isnan(values[a])) return false;
                       if (std::isnan(values[b])) return true;
                     }
                     return values[a] < values[b];
                   });
  std::size_t first = values.size();
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (values[order[i]] == values[order[i - 1]]) {
      first = std::min(first, order[i]);
    }
  }
  if (first != values.size()) {
    fail(key + ": value '" + value_text(values[first]) + "' is repeated");
  }
}

template <typename T>
struct ListOf : std::false_type {
  using Value = T;
};
template <typename T>
struct ListOf<std::vector<T>> : std::true_type {
  using Value = T;
};

template <typename Class, typename Member>
Member member_type(Member Class::*);

/// The type-erased accessors of a row binding CampaignSpec::*SpecField
/// and (unless it is null) ScenarioConfig::*ConfigField.
template <auto SpecField, auto ConfigField>
struct Accessors {
  using Stored = decltype(member_type(SpecField));
  using T = typename ListOf<Stored>::Value;
  static constexpr bool kSweep = ListOf<Stored>::value;

  static T at(const CampaignSpec& spec, std::size_t i) {
    if constexpr (kSweep) {
      return (spec.*SpecField)[i];
    } else {
      return spec.*SpecField;
    }
  }

  static std::size_t length(const CampaignSpec& spec) noexcept {
    if constexpr (kSweep) {
      return (spec.*SpecField).size();
    } else {
      return 1;
    }
  }

  static T parse_value(const Axis& row, const std::string& raw) {
    const std::string key(row.key);
    if constexpr (std::is_same_v<T, std::string>) {
      return raw;
    } else if constexpr (std::is_same_v<T, bool>) {
      return parse_bool(key, raw);
    } else if constexpr (std::is_same_v<T, double>) {
      return parse_number(key, raw);
    } else if constexpr (std::is_enum_v<T>) {
      return util::parse_enum<T, SpecError>(key, raw);
    } else {
      return row.bind.kind == AxisKind::kSeed ? parse_seed(key, raw)
                                              : parse_count(key, raw);
    }
  }

  static void parse(const Axis& row, CampaignSpec& spec,
                    const std::vector<std::string>& values) {
    if constexpr (kSweep) {
      auto& list = spec.*SpecField;
      list.clear();
      for (const auto& raw : values) list.push_back(parse_value(row, raw));
    } else {
      if (values.size() != 1) {
        fail(std::string(row.key) + ": this key does not support sweep lists");
      }
      spec.*SpecField = parse_value(row, values.front());
    }
  }

  static bool accepts(const Axis& row, const T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      return !v.empty();
    } else if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
      return row.range.contains(static_cast<double>(v));
    } else {
      return true;
    }
  }

  static void check(const Axis& row, const CampaignSpec& spec) {
    const std::string key(row.key);
    const std::size_t count = length(spec);
    if (count == 0) fail(key + ": needs at least one value");
    for (std::size_t i = 0; i < count; ++i) {
      if (row.what != nullptr && !accepts(row, at(spec, i))) {
        fail(key + ": " + row.what);
      }
    }
    if constexpr (kSweep) reject_repeats(key, spec.*SpecField);
  }

  static void assign(const CampaignSpec& spec, std::size_t i,
                     ScenarioConfig& config) {
    config.*ConfigField = at(spec, i);
  }

  static std::string text(const ScenarioConfig& config) {
    return value_text(config.*ConfigField);
  }
};

template <auto SpecField, auto ConfigField = nullptr,
          AxisKind kCountKind = AxisKind::kCount>
constexpr Axis::Binding fields() {
  using A = Accessors<SpecField, ConfigField>;
  using T = typename A::T;
  AxisKind kind = kCountKind;
  if constexpr (std::is_same_v<T, std::string>) kind = AxisKind::kText;
  if constexpr (std::is_same_v<T, bool>) kind = AxisKind::kBool;
  if constexpr (std::is_same_v<T, double>) kind = AxisKind::kNumber;
  if constexpr (std::is_enum_v<T>) kind = AxisKind::kEnum;
  Axis::Binding binding{kind,      A::kSweep, &A::parse, &A::check,
                        &A::length, nullptr,  nullptr};
  if constexpr (!std::is_null_pointer_v<decltype(ConfigField)>) {
    binding.assign = &A::assign;
    binding.text = &A::text;
  }
  return binding;
}

using S = CampaignSpec;
using C = ScenarioConfig;
constexpr AxisRange kAtLeastOne{.lo = 1};
constexpr AxisRange kPositive{.lo_open = true};
constexpr AxisRange kUnit{.hi = 1};                         // [0, 1]
constexpr AxisRange kPhysical{.hi = 1e9, .hi_open = true};  // [0, 1e9)

// The axis table. Adding an axis is one row here (plus its CampaignSpec
// and ScenarioConfig members and the code that consumes it): a new
// grid-point row goes last, so it nests innermost and lands last in the
// canonical string and the report, under a gate that is off on every
// existing point — no existing seed or report byte moves.
constexpr std::array kAxes{
    Axis{.key = "name", .what = "must be non-empty",
         .bind = fields<&S::name>()},
    Axis{.key = "replications", .range = kAtLeastOne,
         .what = "must be at least 1", .bind = fields<&S::replications>()},
    Axis{.key = "seed_base",
         .bind = fields<&S::seed_base, nullptr, AxisKind::kSeed>()},
    Axis{.key = "topology", .bind = fields<&S::topology, &C::topology>()},
    Axis{.key = "n", .range = kAtLeastOne,
         .what = "node count must be at least 1",
         .bind = fields<&S::n, &C::n>()},
    Axis{.key = "radius",
         .range = {.hi = 1e9, .lo_open = true, .hi_open = true},
         .what = "radius must be positive",
         .bind = fields<&S::radius, &C::radius>()},
    Axis{.key = "variant", .bind = fields<&S::variant, &C::variant>()},
    Axis{.key = "mobility", .bind = fields<&S::mobility, &C::mobility>()},
    Axis{.key = "speed_min", .range = kPhysical,
         .what = "speed must be non-negative",
         .bind = fields<&S::speed_min, &C::speed_min>()},
    Axis{.key = "speed_max", .range = kPhysical,
         .what = "speed must be non-negative",
         .bind = fields<&S::speed_max, &C::speed_max>()},
    Axis{.key = "tau", .range = {.lo = 0, .hi = 1, .lo_open = true},
         .what = "delivery probability must be in (0, 1]",
         .bind = fields<&S::tau, &C::tau>()},
    Axis{.key = "churn_down", .range = kUnit,
         .what = "probability must be in [0, 1]",
         .bind = fields<&S::churn_down, &C::churn_down>()},
    Axis{.key = "churn_up", .range = kUnit,
         .what = "probability must be in [0, 1]",
         .bind = fields<&S::churn_up, &C::churn_up>()},
    Axis{.key = "steps", .range = kAtLeastOne,
         .what = "at least one snapshot window is required",
         .bind = fields<&S::steps, &C::steps>()},
    Axis{.key = "window_s", .range = kPositive, .what = "must be positive",
         .bind = fields<&S::window_s, &C::window_s>()},
    Axis{.key = "world_m", .range = kPositive, .what = "must be positive",
         .bind = fields<&S::world_m, &C::world_m>()},
    Axis{.key = "scheduler", .gate = Gate::kAsync, .toggle = true,
         .bind = fields<&S::scheduler, &C::scheduler>()},
    Axis{.key = "period_jitter", .gate = Gate::kAsync,
         .range = {.hi = 1, .hi_open = true},
         .what = "jitter fraction must be in [0, 1)",
         .bind = fields<&S::period_jitter, &C::period_jitter>()},
    Axis{.key = "link_delay", .gate = Gate::kAsync, .range = kPhysical,
         .what = "delay must be non-negative seconds",
         .bind = fields<&S::link_delay, &C::link_delay>()},
    Axis{.key = "protocol_live", .gate = Gate::kLive, .toggle = true,
         .bind = fields<&S::protocol_live, &C::protocol_live>()},
    Axis{.key = "topology_update", .gate = Gate::kLive,
         .bind = fields<&S::topology_update, &C::topology_update>()},
    Axis{.key = "live_horizon", .gate = Gate::kLive, .range = kAtLeastOne,
         .what = "must be at least 1 round",
         .bind = fields<&S::live_horizon, &C::live_horizon>()},
    Axis{.key = "verify_faults", .gate = Gate::kVerify, .toggle = true,
         .bind = fields<&S::verify_faults, &C::verify_faults>()},
    Axis{.key = "fault_class", .gate = Gate::kVerify,
         .bind = fields<&S::fault_class, &C::fault_class>()},
    Axis{.key = "daemon", .gate = Gate::kVerify,
         .bind = fields<&S::daemon, &C::daemon>()},
    Axis{.key = "stepping", .gate = Gate::kStepping,
         .bind = fields<&S::stepping, &C::stepping>()},
};

using Odometer = std::array<std::size_t, kAxes.size()>;

/// Turns the odometer one notch, innermost row first, and refreshes the
/// rows that moved in `config`; false once every row has wrapped.
bool advance(const CampaignSpec& spec, Odometer& at, ScenarioConfig& config) {
  for (std::size_t r = kAxes.size(); r-- > 0;) {
    const Axis::Binding& row = kAxes[r].bind;
    if (!row.sweepable) continue;
    at[r] = (at[r] + 1) % row.length(spec);
    row.assign(spec, at[r], config);
    if (at[r] != 0) return true;
  }
  return false;
}

/// True when a row sits past its first value on a point where its gate
/// does not apply: the value changes neither the run nor its canonical
/// string, so the point was already emitted with the first value.
bool collapsed(const Odometer& at, const ScenarioConfig& config) {
  for (std::size_t r = 0; r < kAxes.size(); ++r) {
    if (at[r] != 0 && !kAxes[r].toggle &&
        !gate_applies(kAxes[r].gate, config)) {
      return true;
    }
  }
  return false;
}

// The cross-axis rejections: combinations no single row can see.
void reject_unrunnable(const ScenarioConfig& config) {
  if (config.speed_min > config.speed_max) {
    fail("speed_min " + format_double(config.speed_min) +
         " exceeds speed_max " + format_double(config.speed_max));
  }
  if (config.scheduler == SchedulerKind::kAsync && !config.protocol_live &&
      (config.mobility != MobilityKind::kNone || config.churn_down > 0.0)) {
    fail("scheduler=async with mobility/churn requires protocol_live=true "
         "(the dynamic-topology mode); without it the event-driven engine "
         "runs a fixed deployment from an adversarial initial state");
  }
  if (config.scheduler == SchedulerKind::kAsync && config.window_s < 1e-6) {
    fail("scheduler=async requires window_s >= 1e-6 (one virtual-time "
         "tick; window_s is the async broadcast period)");
  }
  if (config.protocol_live && config.window_s < 1e-6) {
    fail("protocol_live=true requires window_s >= 1e-6 (window_s is the "
         "perturbation period and the live broadcast round)");
  }
}

void reject_unsound(const ScenarioConfig& config) {
  if (config.stepping == SteppingKind::kDirty && config.protocol_live &&
      config.scheduler == SchedulerKind::kSync && config.tau < 1.0) {
    // The synchronous dirty stepper elides whole nodes per tick, which is
    // only bit-identical when the medium is loss-free
    // (sim::Network::set_stepping enforces the same at runtime).
    fail("stepping=dirty on the synchronous engine requires tau=1 (a lossy "
         "medium draws per-link randomness for skipped nodes; use "
         "scheduler=async for lossy dirty runs)");
  }
  if (!config.verify_faults) return;
  // A certification trial is one corrupted fixed deployment played on
  // BOTH engines; every axis that would change that shape is rejected
  // loudly rather than silently ignored.
  if (config.protocol_live) {
    fail("verify_faults=true is incompatible with protocol_live=true (a "
         "trial runs a fixed deployment)");
  }
  if (config.scheduler != SchedulerKind::kSync) {
    fail("verify_faults=true runs both engines itself; drop the scheduler "
         "axis (use daemon= for the async half)");
  }
  if (config.mobility != MobilityKind::kNone || config.churn_down > 0.0) {
    fail("verify_faults=true is incompatible with mobility/churn (a trial "
         "runs a fixed deployment)");
  }
  if (config.topology != TopologyKind::kUniform) {
    fail("verify_faults=true requires topology=uniform (trials draw their "
         "own uniform deployments)");
  }
  if (config.steps < verify::kMinHorizonRounds) {
    // Below this no trial can ever confirm legitimacy, so every
    // replication would report a "violation" that is really a budget
    // impossibility.
    fail("verify_faults=true requires steps >= " +
         std::to_string(verify::kMinHorizonRounds) +
         " (the horizon must cover the " +
         std::to_string(verify::kDefaultConfirmRounds) +
         "-round confirmation window plus the quiescence baseline)");
  }
}

}  // namespace

std::span<const Axis> spec_axes() noexcept { return kAxes; }

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
  return spell(kTopologyNames, kind);
}
std::string_view to_string(MobilityKind kind) noexcept {
  return spell(kMobilityNames, kind);
}
std::string_view to_string(Variant variant) noexcept {
  return spell(kVariantNames, variant);
}
std::string_view to_string(SchedulerKind kind) noexcept {
  return spell(kSchedulerNames, kind);
}
std::string_view to_string(TopologyUpdateKind kind) noexcept {
  return spell(kTopologyUpdateNames, kind);
}
std::string_view to_string(SteppingKind kind) noexcept {
  return spell(kSteppingNames, kind);
}

Variant parse_variant(const std::string& raw) {
  return util::parse_enum<Variant, SpecError>("variant", raw);
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

std::string canonical_config(const ScenarioConfig& c) {
  // Integers go through std::to_string and doubles through
  // format_double: neither depends on the process locale, so neither do
  // canonical strings — and therefore seeds.
  std::string out;
  for (const Axis& row : kAxes) {
    if (row.bind.text == nullptr || !gate_on(row.gate, c)) continue;
    if (!out.empty()) out += ';';
    out.append(row.key).append("=").append(row.bind.text(c));
  }
  return out;
}

CampaignSpec parse_spec_text(std::string_view text) {
  std::istringstream in{std::string(text)};
  return parse_spec(in);
}

CampaignSpec parse_spec(std::istream& in) {
  CampaignSpec spec;
  std::array<bool, kAxes.size()> seen{};
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
    std::size_t r = 0;
    while (r < kAxes.size() && kAxes[r].key != key) ++r;
    if (r == kAxes.size()) {
      fail("unknown key '" + key + "' (line " + std::to_string(line_no) + ")");
    }
    if (seen[r]) fail("duplicate key '" + key + "'");
    seen[r] = true;
    kAxes[r].bind.parse(kAxes[r], spec, values);
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
  for (const Axis& row : kAxes) row.bind.check(row, spec);
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

  // One odometer over the table, the last row turning fastest. The table
  // order — not the order of lines in the spec file — defines grid
  // indices, so two files with reordered fields expand to identical plans.
  Odometer at{};
  ScenarioConfig config;
  for (const Axis& row : kAxes) {
    if (row.bind.assign != nullptr) row.bind.assign(spec, 0, config);
  }
  do {
    if (!collapsed(at, config)) {
      plan.grid.push_back({config, canonical_config(config)});
    }
  } while (advance(spec, at, config));

  // All points pass the first list before any meets the second, so a
  // spec with several faults is reported by the same first message as
  // ever.
  for (const GridPoint& point : plan.grid) reject_unrunnable(point.config);
  for (const GridPoint& point : plan.grid) reject_unsound(point.config);

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
  for (const Axis& row : kAxes) {
    if (!row.bind.sweepable) continue;
    const std::size_t len = row.bind.length(spec);
    bound = (len != 0 && bound > kMax / len) ? kMax : bound * len;
  }
  return bound;
}

}  // namespace ssmwn::campaign
