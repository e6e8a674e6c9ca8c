// Branchless kernels over sorted sequences — the primitives behind the
// protocol's digest-list membership tests.
//
// Everything here operates on contiguous sorted-unique-key ranges and
// uses the branch-free "shrink by half, conditionally advance the base"
// binary search. All entry points take a key projection so the same
// kernels serve plain id arrays (`std::identity`) and digest structs
// (`d.id`). The counting merge and the blocked mismatch scan that only
// the tests use live in tests/support/merge_kernels.hpp.
#pragma once

#include <cstddef>
#include <functional>

namespace ssmwn::util {

/// Branch-free lower bound: first index in [0, n) whose key is >= `key`,
/// or n. The loop executes exactly ceil(log2(n)) iterations; the only
/// data-dependent operation is a conditional base advance, which compiles
/// to a cmov.
template <typename T, typename Key, typename Proj = std::identity>
[[nodiscard]] constexpr std::size_t lower_bound_index(const T* data,
                                                      std::size_t n,
                                                      const Key& key,
                                                      Proj proj = {}) noexcept {
  const T* base = data;
  while (n > 1) {
    const std::size_t half = n / 2;
    base += (proj(base[half - 1]) < key) ? half : 0;
    n -= half;
  }
  return (n == 1 && proj(base[0]) < key) ? static_cast<std::size_t>(base - data) + 1
                                         : static_cast<std::size_t>(base - data);
}

/// Membership test on a sorted range via the branch-free lower bound.
template <typename T, typename Key, typename Proj = std::identity>
[[nodiscard]] constexpr bool contains_sorted(const T* data, std::size_t n,
                                             const Key& key,
                                             Proj proj = {}) noexcept {
  const std::size_t i = lower_bound_index(data, n, key, proj);
  return i < n && proj(data[i]) == key;
}

}  // namespace ssmwn::util
