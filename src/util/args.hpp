// Table-driven command-line flags for the CLI driver (`apps/ssmwn`).
// A command declares each flag once, as a `Flag` row, and `Args` reads
// argv against those rows, rejecting bad input before the command does
// any work. No external dependencies.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ssmwn::util {

struct Flag {
  enum class Kind { kBool, kInt, kReal, kText, kChoice };

  std::string name;
  Kind kind = Kind::kText;
  std::string fallback;  // the default as text; "" = none
  std::string help;
  double min = 0.0, max = 0.0;         // inclusive range of a kInt / kReal
  std::vector<std::string> choices{};  // the values a kChoice accepts
  /// {flag, value} pairs that must hold (given or by default; a bool
  /// reads "true"/"false") for this flag to be given at all.
  std::vector<std::pair<std::string, std::string>> needs{};
};

class Args {
 public:
  /// Reads argv[1..argc) against `flags`: `--name value` or
  /// `--name=value`, except that a bool takes a value only as
  /// `--name=value`. An empty value means the default; the last value
  /// wins. Takes exactly `operands.size()` positional arguments (the
  /// names serve the error messages). Throws std::invalid_argument,
  /// naming the flag, on an unknown flag, a missing or malformed value,
  /// a value outside the row's range or choices (NaN included), an unmet
  /// need, or a missing or extra positional argument. Defaults are not
  /// range-checked.
  Args(int argc, const char* const* argv, std::vector<Flag> flags,
       const std::vector<std::string>& operands = {});

  /// Whether the flag was given (with a non-empty value).
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] bool boolean(const std::string& name) const;
  [[nodiscard]] std::int64_t integer(const std::string& name) const;
  [[nodiscard]] double real(const std::string& name) const;
  /// The value of a kText or kChoice flag.
  [[nodiscard]] const std::string& text(const std::string& name) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  /// The value (given, else default) of a declared flag of one of
  /// `kinds` (empty: any kind); std::logic_error otherwise — a slip in
  /// the caller, not bad input.
  const std::string& value(const std::string& name,
                           std::initializer_list<Flag::Kind> kinds) const;
  const Flag* find(const std::string& name) const;

  std::vector<Flag> flags_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace ssmwn::util
