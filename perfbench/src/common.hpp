// Shared plumbing for the perfbench workloads: options, op timing,
// percentiles, the regime census, the span tracer and the one-line JSON
// result every workload process prints last.
//
// Timing discipline: every workload times its ops with
// std::chrono::steady_clock around calls into the library's public API.
// Spans (the traced run) are recorded only from these benchmark files,
// around the calls into each layer; nothing inside the library is
// instrumented.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace ssmwn::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return 1e3 * seconds_between(a, b);
}

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (one JSON line per span).
  std::string trace_out;
};

/// Peak resident set of this process so far, MiB.
[[nodiscard]] inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Linear-interpolated percentile (numpy's default) of unsorted values.
[[nodiscard]] inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

[[nodiscard]] inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// 64-bit FNV-1a, fed incrementally; the workloads digest result bits
/// with it to compare two executions of the same inputs.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// One timed op: its latency and the regime it belongs to (index into
/// the workload's regime names).
struct Op {
  double ms = 0.0;
  int regime = 0;
};

/// Regime census: the share of ops per regime, and where p50 and p90 sit
/// relative to the regime boundary. With two regimes whose medians
/// differ, the faster regime fills the low percentiles, so the boundary
/// sits at percentile 100 × share(faster). A percentile within
/// kMarginPoints of that boundary would straddle two populations and
/// drift with the seed, so the census fails and the run is marked
/// incorrect. Prints one human-readable line per fact.
inline bool regime_census(const char* workload, const std::vector<Op>& ops,
                          const std::vector<std::string>& names) {
  constexpr double kMarginPoints = 5.0;
  const std::size_t k = names.size();
  std::vector<std::vector<double>> by(k);
  for (const Op& op : ops) by[static_cast<std::size_t>(op.regime)].push_back(op.ms);
  std::printf("census %s:", workload);
  for (std::size_t r = 0; r < k; ++r) {
    std::printf(" %s %.1f%% (n=%zu, p50 %.3f ms)", names[r].c_str(),
                100.0 * static_cast<double>(by[r].size()) /
                    static_cast<double>(std::max<std::size_t>(1, ops.size())),
                by[r].size(), median(by[r]));
  }
  std::printf("\n");
  std::vector<std::size_t> present;
  for (std::size_t r = 0; r < k; ++r) {
    if (!by[r].empty()) present.push_back(r);
  }
  if (present.size() < 2) {
    std::printf("census %s: single regime, p50 and p90 inside it\n", workload);
    return true;
  }
  // Order regimes fastest first; boundaries are the cumulative shares.
  std::sort(present.begin(), present.end(), [&](std::size_t a, std::size_t b) {
    return median(by[a]) < median(by[b]);
  });
  std::vector<double> bounds;  // percentile where regime i+1 starts
  double cumulative = 0.0;
  for (std::size_t i = 0; i + 1 < present.size(); ++i) {
    cumulative += 100.0 * static_cast<double>(by[present[i]].size()) /
                  static_cast<double>(ops.size());
    bounds.push_back(cumulative);
  }
  bool ok = true;
  for (const double p : {50.0, 90.0}) {
    std::size_t slot = 0;
    while (slot < bounds.size() && p >= bounds[slot]) ++slot;
    double margin = 1e9;
    for (const double b : bounds) margin = std::min(margin, std::fabs(p - b));
    const bool inside = margin >= kMarginPoints;
    ok = ok && inside;
    std::printf("census %s: p%.0f in regime %s, %.1f points from the nearest "
                "boundary%s\n",
                workload, p, names[present[slot]].c_str(), margin,
                inside ? "" : "  <-- STRADDLES A REGIME BOUNDARY");
  }
  if (!ok) {
    std::fprintf(stderr,
                 "perfbench %s: a percentile sits within %.0f points of a "
                 "regime boundary; its value would drift between runs\n",
                 workload, kMarginPoints);
  }
  return ok;
}

/// In-memory span recorder for the traced run. A span is (name, start,
/// end, parent, op); spans of one op share the op id. Spans are kept in
/// memory and written out when the workload ends. Disabled tracers make
/// `Span` an inert object that reads no clock.
class Tracer {
 public:
  struct Record {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  // index of the enclosing span, -1 = root
    std::int64_t op = -1;
  };

  class Span {
   public:
    Span() = default;
    Span(Tracer* tracer, const char* name, std::int64_t op)
        : tracer_(tracer), index_(tracer->open(name, op)) {}
    ~Span() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    std::int64_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
    if (enabled_) records_.reserve(1 << 16);
  }

  /// Opens a span closed when the returned object dies. Spans opened on
  /// one thread nest under that thread's innermost open span.
  [[nodiscard]] Span span(const char* name, std::int64_t op = -1) {
    return enabled_ ? Span(this, name, op) : Span();
  }

  /// Durations (ms) of every closed span with this name.
  [[nodiscard]] std::vector<double> durations_ms(const char* name) const {
    std::vector<double> out;
    for (const Record& r : records_) {
      if (r.end_ns >= r.start_ns && std::strcmp(r.name, name) == 0) {
        out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
      }
    }
    return out;
  }

  /// Writes every span as one JSON line; best effort.
  void write(const std::string& path) const {
    if (!enabled_ || path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"op\":%lld}\n",
                   i, r.name, static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns),
                   static_cast<long long>(r.parent),
                   static_cast<long long>(r.op));
    }
    std::fclose(f);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  std::int64_t open(const char* name, std::int64_t op) {
    const std::int64_t start = now_ns();
    const std::scoped_lock lock(mutex_);
    auto& stack = stacks_[std::this_thread::get_id()];
    const std::int64_t parent = stack.empty() ? -1 : stack.back();
    if (op < 0 && parent >= 0) op = records_[static_cast<std::size_t>(parent)].op;
    records_.push_back({name, start, -1, parent, op});
    const auto index = static_cast<std::int64_t>(records_.size() - 1);
    stack.push_back(index);
    return index;
  }

  void close(std::int64_t index) {
    const std::int64_t end = now_ns();
    const std::scoped_lock lock(mutex_);
    records_[static_cast<std::size_t>(index)].end_ns = end;
    auto& stack = stacks_[std::this_thread::get_id()];
    if (!stack.empty() && stack.back() == index) stack.pop_back();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::mutex mutex_;  // guards records_ and stacks_
  std::vector<Record> records_;
  std::map<std::thread::id, std::vector<std::int64_t>> stacks_;
};

/// The workload's result, printed as the process's last stdout line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }

  /// Adds the five end-to-end metrics common to every workload;
  /// `rss_mb` defaults to the process's peak so far.
  void add_end_to_end(const std::vector<Op>& ops, double ops_per_s,
                      double setup_s, double rss_mb = peak_rss_mb()) {
    std::vector<double> ms;
    ms.reserve(ops.size());
    for (const Op& op : ops) ms.push_back(op.ms);
    const double p90 = percentile(ms, 90.0);
    std::size_t beyond = 0;
    for (const double v : ms) beyond += v > p90;
    std::printf("ops timed: %zu, samples beyond p90: %zu\n", ms.size(), beyond);
    add("ops_per_s", ops_per_s, "1/s");
    add("op_p50_ms", percentile(ms, 50.0), "ms");
    add("op_p90_ms", p90, "ms");
    add("setup_s", setup_s, "s");
    add("peak_rss_mb", rss_mb, "MB");
  }

  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, vu] = metrics[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", name.c_str(), vu.first,
                  vu.second.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

/// Median of `runs` invocations of `setup`, each returning its own
/// duration in seconds.
template <typename F>
[[nodiscard]] double median_setup_s(int runs, F&& setup) {
  std::vector<double> s;
  for (int i = 0; i < runs; ++i) s.push_back(setup(i));
  std::printf("set-ups (s):");
  for (const double v : s) std::printf(" %.4f", v);
  std::printf("\n");
  return median(s);
}

}  // namespace ssmwn::perfbench
