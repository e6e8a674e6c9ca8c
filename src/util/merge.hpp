// Branchless kernels over sorted sequences — the primitives behind the
// protocol's hot loops (density intersections, digest-list diffs, the
// SoA divergence search).
//
// Everything here operates on contiguous sorted-unique-key ranges and is
// written in the two forms the optimizer handles best:
//
//   * counting merges advance both cursors with arithmetic on comparison
//     results (`i += (ka <= kb)`) instead of three-way if/else chains, so
//     there is no unpredictable branch per element and the loop body is a
//     handful of flag-setting instructions;
//   * searches use the branch-free "shrink by half, conditionally advance
//     the base" binary search, and the galloping variants bound the probe
//     window exponentially first, which wins when one side is much
//     shorter than the other (a digest delta against a full cache).
//
// All entry points take a key projection so the same kernels serve plain
// id arrays (`std::identity`) and digest structs (`d.id`). Sizes picked
// by `intersect_count` follow the classic merge-vs-gallop crossover: when
// the length ratio exceeds kGallopRatio the linear merge wastes O(long)
// work and galloping's O(short·log(long)) wins.
#pragma once

#include <cstddef>
#include <functional>

namespace ssmwn::util {

/// Linear-to-gallop crossover: gallop when one side is at least this many
/// times longer than the other. 16 is the usual sweet spot (see e.g.
/// timsort's galloping mode); at radio degrees both sides are tiny and
/// the linear merge wins, so the exact value is not load-bearing.
inline constexpr std::size_t kGallopRatio = 16;

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

/// Galloping lower bound: exponential probe from `from`, then the
/// branch-free binary search inside the bracketed window. O(log d) where
/// d is the distance to the answer — the primitive behind the skewed
/// intersection path.
template <typename T, typename Key, typename Proj = std::identity>
[[nodiscard]] constexpr std::size_t gallop_lower_bound(const T* data,
                                                       std::size_t n,
                                                       std::size_t from,
                                                       const Key& key,
                                                       Proj proj = {}) noexcept {
  if (from >= n) return n;
  std::size_t step = 1;
  std::size_t lo = from;
  while (lo + step < n && proj(data[lo + step]) < key) {
    lo += step;
    step *= 2;
  }
  const std::size_t hi = (lo + step < n) ? lo + step + 1 : n;
  return lo + lower_bound_index(data + lo, hi - lo, key, proj);
}

/// |a ∩ b| by branchless linear merge — both cursors advance by the
/// comparison flags, no three-way branch. Best when sizes are balanced.
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

/// |a ∩ b| by galloping the short side through the long side. Requires
/// na <= nb to be profitable; correct either way.
template <typename TA, typename TB, typename ProjA = std::identity,
          typename ProjB = std::identity>
[[nodiscard]] constexpr std::size_t intersect_count_gallop(
    const TA* a, std::size_t na, const TB* b, std::size_t nb, ProjA pa = {},
    ProjB pb = {}) noexcept {
  std::size_t count = 0;
  std::size_t j = 0;
  for (std::size_t i = 0; i < na && j < nb; ++i) {
    const auto key = pa(a[i]);
    j = gallop_lower_bound(b, nb, j, key, pb);
    if (j < nb && pb(b[j]) == key) {
      ++count;
      ++j;
    }
  }
  return count;
}

/// |a ∩ b| picking linear merge for balanced sizes and galloping for
/// skewed ones — the entry point the density kernels use.
template <typename TA, typename TB, typename ProjA = std::identity,
          typename ProjB = std::identity>
[[nodiscard]] constexpr std::size_t intersect_count(const TA* a,
                                                    std::size_t na,
                                                    const TB* b,
                                                    std::size_t nb,
                                                    ProjA pa = {},
                                                    ProjB pb = {}) noexcept {
  if (na * kGallopRatio < nb) return intersect_count_gallop(a, na, b, nb, pa, pb);
  if (nb * kGallopRatio < na) return intersect_count_gallop(b, nb, a, na, pb, pa);
  return intersect_count_linear(a, na, b, nb, pa, pb);
}

/// Single-pass symmetric difference over two sorted-unique-key ranges:
/// calls `only_a(elem)` for keys present only in `a`, `only_b(elem)` for
/// keys present only in `b`, and `both(ea, eb)` for matched keys. This is
/// the shape of the digest-delta walk in `deliver`: one merge yields the
/// removed ids, the added ids, and the payload-compare pairs together.
template <typename TA, typename TB, typename OnlyA, typename OnlyB,
          typename Both, typename ProjA = std::identity,
          typename ProjB = std::identity>
constexpr void merge_walk(const TA* a, std::size_t na, const TB* b,
                          std::size_t nb, OnlyA&& only_a, OnlyB&& only_b,
                          Both&& both, ProjA pa = {}, ProjB pb = {}) {
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const auto ka = pa(a[i]);
    const auto kb = pb(b[j]);
    if (ka < kb) {
      only_a(a[i++]);
    } else if (kb < ka) {
      only_b(b[j++]);
    } else {
      both(a[i++], b[j++]);
    }
  }
  while (i < na) only_a(a[i++]);
  while (j < nb) only_b(b[j++]);
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
