// Branchless sorted-sequence and compare kernels only the tests and the
// micro-benchmarks use: the intersection count behind the reference
// density (oracles.hpp) and the blocked mismatch scan behind the SoA
// divergence search (divergence.hpp). No production path calls them, so
// they live with the tests; util/merge.hpp keeps the kernels the
// protocol runs.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>

namespace ssmwn::testsupport {

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
/// block. Doubles compare as bit patterns — bitwise is the contract
/// here, not IEEE ==.
template <typename T>
[[nodiscard]] constexpr std::size_t first_mismatch_index(const T* a,
                                                         const T* b,
                                                         std::size_t n) noexcept {
  const auto differ = [](const T& x, const T& y) {
    if constexpr (std::is_same_v<T, double>) {
      return std::bit_cast<std::uint64_t>(x) != std::bit_cast<std::uint64_t>(y);
    } else {
      return x != y;
    }
  };
  constexpr std::size_t kBlock = 32;
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    bool any = false;
    for (std::size_t k = 0; k < kBlock; ++k) {
      any |= differ(a[i + k], b[i + k]);
    }
    if (any) break;
  }
  for (; i < n; ++i) {
    if (differ(a[i], b[i])) return i;
  }
  return n;
}

}  // namespace ssmwn::testsupport
