#include "util/args.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <utility>

namespace ssmwn::util {

namespace {

// Numbers parse with std::from_chars: locale-independent (strto* honor
// LC_NUMERIC, so "--radius 0.08" would fail under a de_DE global
// locale) and strict — trailing junk like "5x" is an error, not a
// silent prefix parse. One strtod nicety is kept: a single leading
// '+', which from_chars alone rejects.
template <typename T>
bool parse_strict(const std::string& raw, T& value) {
  const char* first = raw.data();
  const char* last = raw.data() + raw.size();
  if (last - first > 1 && *first == '+' && *(first + 1) != '-' &&
      *(first + 1) != '+') {
    ++first;
  }
  const auto [ptr, ec] = std::from_chars(first, last, value);
  return ec == std::errc{} && ptr == last;
}

// Shortest round-trip rendering: std::to_string's fixed %f turns a 1e-9
// bound into "0.000000", which makes a rejected 0 look in-range. Integer
// bounds print in fixed notation ("10000000", not "1e+07").
std::string format_bound(double value, Flag::Kind kind) {
  char buf[32];
  const auto res = kind == Flag::Kind::kInt
                       ? std::to_chars(buf, buf + sizeof buf, value,
                                       std::chars_format::fixed)
                       : std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

/// Checks `raw` against the row; returns its canonical text.
std::string check(const Flag& flag, const std::string& raw) {
  const std::string name = "--" + flag.name;
  double value = 0.0;
  switch (flag.kind) {
    case Flag::Kind::kBool:
      if (raw == "true" || raw == "1" || raw == "yes" || raw == "on") {
        return "true";
      }
      if (raw == "false" || raw == "0" || raw == "no" || raw == "off") {
        return "false";
      }
      throw std::invalid_argument(name + ": expected a boolean, got '" + raw +
                                  "'");
    case Flag::Kind::kInt:
      if (std::int64_t n = 0; parse_strict(raw, n)) {
        value = static_cast<double>(n);
        break;
      }
      throw std::invalid_argument(name + ": expected an integer, got '" + raw +
                                  "'");
    case Flag::Kind::kReal:
      if (parse_strict(raw, value)) break;
      throw std::invalid_argument(name + ": expected a number, got '" + raw +
                                  "'");
    case Flag::Kind::kChoice: {
      if (std::count(flag.choices.begin(), flag.choices.end(), raw)) {
        return raw;
      }
      std::string all;
      for (const auto& choice : flag.choices) all += "|" + choice;
      throw std::invalid_argument(name + " must be " + all.substr(1) +
                                  " (got '" + raw + "')");
    }
    case Flag::Kind::kText:
      return raw;
  }
  // Negated so that NaN, which fails every comparison, is rejected.
  if (!(value >= flag.min && value <= flag.max)) {
    throw std::invalid_argument(
        name + " must be in [" + format_bound(flag.min, flag.kind) + ", " +
        format_bound(flag.max, flag.kind) + "] (got " + raw + ")");
  }
  return raw;
}

}  // namespace

Args::Args(int argc, const char* const* argv, std::vector<Flag> flags,
           const std::vector<std::string>& operands)
    : flags_(std::move(flags)) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      if (positional_.size() == operands.size()) {
        throw std::invalid_argument("unexpected argument '" + token + "'");
      }
      positional_.push_back(token);
      continue;
    }
    const auto eq = token.find('=');
    const std::string name = token.substr(2, eq - 2);
    const Flag* flag = find(name);
    if (flag == nullptr) throw std::invalid_argument("unknown flag --" + name);
    std::string raw = "true";
    if (eq != std::string::npos) {
      raw = token.substr(eq + 1);
    } else if (flag->kind != Flag::Kind::kBool) {
      if (i + 1 == argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        throw std::invalid_argument("--" + name + " needs a value");
      }
      raw = argv[++i];
    }
    if (raw.empty()) {
      values_.erase(name);
    } else {
      values_[name] = check(*flag, raw);
    }
  }
  if (positional_.size() < operands.size()) {
    throw std::invalid_argument("missing " + operands[positional_.size()]);
  }
  for (const auto& given : values_) {
    for (const auto& [other, wanted] : find(given.first)->needs) {
      // A need on a flag this command does not take holds: a row shared
      // by several commands may carry a need only some of them declare.
      const Flag* flag = find(other);
      if (flag == nullptr) continue;
      const auto it = values_.find(other);
      if ((it == values_.end() ? flag->fallback : it->second) != wanted) {
        throw std::invalid_argument("--" + given.first + " requires --" +
                                    other + "=" + wanted);
      }
    }
  }
}

const Flag* Args::find(const std::string& name) const {
  for (const auto& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

const std::string& Args::value(const std::string& name,
                               std::initializer_list<Flag::Kind> kinds) const {
  const Flag* flag = find(name);
  if (flag == nullptr ||
      (kinds.size() > 0 &&
       std::count(kinds.begin(), kinds.end(), flag->kind) == 0)) {
    throw std::logic_error("--" + name + " is not declared with that kind");
  }
  const auto it = values_.find(name);
  return it == values_.end() ? flag->fallback : it->second;
}

bool Args::has(const std::string& name) const {
  (void)value(name, {});
  return values_.count(name) > 0;
}

bool Args::boolean(const std::string& name) const {
  return value(name, {Flag::Kind::kBool}) == "true";
}

std::int64_t Args::integer(const std::string& name) const {
  std::int64_t result = 0;
  if (parse_strict(value(name, {Flag::Kind::kInt}), result)) return result;
  throw std::logic_error("--" + name + " has no value");
}

double Args::real(const std::string& name) const {
  double result = 0.0;
  if (parse_strict(value(name, {Flag::Kind::kReal}), result)) return result;
  throw std::logic_error("--" + name + " has no value");
}

const std::string& Args::text(const std::string& name) const {
  return value(name, {Flag::Kind::kText, Flag::Kind::kChoice});
}

}  // namespace ssmwn::util
