// One spelling lookup for every enum that is read from text (spec keys,
// CLI flags).
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace ssmwn::util {

/// The enumerator of E spelled `raw`. E's enumerators run 0..N-1 and its
/// `to_string` (found by argument-dependent lookup) spells every value
/// past the last as "?". Any other text throws Error("key: expected
/// a|b|c, got 'raw'").
template <typename E, typename Error = std::invalid_argument>
E parse_enum(std::string_view key, std::string_view raw) {
  std::string choices;
  for (int i = 0; to_string(static_cast<E>(i)) != "?"; ++i) {
    const auto value = static_cast<E>(i);
    if (raw == to_string(value)) return value;
    if (i != 0) choices += '|';
    choices += to_string(value);
  }
  throw Error(std::string(key) + ": expected " + choices + ", got '" +
              std::string(raw) + "'");
}

}  // namespace ssmwn::util
