// Branchless kernels over sorted sequences — the primitives behind the
// protocol's hot loops (digest-list membership, the density oracle's
// intersections, the SoA divergence search).
//
// Everything here operates on contiguous sorted-unique-key ranges and is
// written in the two forms the optimizer handles best:
//
//   * counting merges advance both cursors with arithmetic on comparison
//     results (`i += (ka <= kb)`) instead of three-way if/else chains, so
//     there is no unpredictable branch per element and the loop body is a
//     handful of flag-setting instructions;
//   * searches use the branch-free "shrink by half, conditionally advance
//     the base" binary search.
//
// All entry points take a key projection so the same kernels serve plain
// id arrays (`std::identity`) and digest structs (`d.id`).
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

/// |a ∩ b| by branchless linear merge — both cursors advance by the
/// comparison flags, no three-way branch.
template <typename TA, typename TB, typename ProjA = std::identity,
          typename ProjB = std::identity>
[[nodiscard]] constexpr std::size_t intersect_count_linear(
    const TA* a, std::size_t na, const TB* b, std::size_t nb, ProjA pa = {},
    ProjB pb = {}) noexcept {
  std::size_t i = 0, j = 0, count = 0;
  while (i < na && j < nb) {
    const auto ka = pa(a[i]);
    const auto kb = pb(b[j]);
    count += static_cast<std::size_t>(ka == kb);
    i += static_cast<std::size_t>(ka <= kb);
    j += static_cast<std::size_t>(kb <= ka);
  }
  return count;
}

/// First index where two same-typed arrays differ bitwise, or n. Scans
/// in blocks with a branch-free OR accumulator so the common all-equal
/// prefix runs at memory bandwidth, then refines inside the differing
/// block. For doubles callers pass the arrays reinterpreted as u64 —
/// bitwise is the contract here, not IEEE ==.
template <typename T>
[[nodiscard]] constexpr std::size_t first_mismatch_index(const T* a,
                                                         const T* b,
                                                         std::size_t n) noexcept {
  constexpr std::size_t kBlock = 32;
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    bool any = false;
    for (std::size_t k = 0; k < kBlock; ++k) {
      any |= (a[i + k] != b[i + k]);
    }
    if (any) break;
  }
  for (; i < n; ++i) {
    if (a[i] != b[i]) return i;
  }
  return n;
}

}  // namespace ssmwn::util
