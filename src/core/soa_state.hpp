// Structure-of-arrays storage for the protocol's per-node shared
// variables, plus the flat compare kernels built on top of it.
//
// The paper's shared variables (Id_p, d_p, H(p), the parent pointer and
// their valid bits) used to live inside one per-node struct. Splitting
// them into parallel flat arrays buys two things:
//
//   * the snapshot/diff kernels the quiescence machinery and the
//     differential test harness run every step become straight-line
//     loops over contiguous same-typed memory, which the compiler
//     vectorizes under -O3 (bench_micro measures exactly these loops);
//   * a whole-population scan (head census, metric sweep, divergence
//     search) touches only the columns it needs instead of dragging
//     every node's cache and RNG state through the cache lines.
//
// The cold per-node state (neighbor cache, RNG, async observability)
// stays in an array-of-structs next door in DensityProtocol; only the
// seven hot scalars move here.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/rank.hpp"
#include "topology/ids.hpp"
#include "util/merge.hpp"

namespace ssmwn::core {

/// Bit-level double equality: the equivalence guarantee of the
/// dirty-region stepper is *bitwise*, so NaNs compare equal to
/// themselves and +0.0 differs from -0.0 (IEEE `==` would get both
/// wrong for this purpose).
[[nodiscard]] inline bool double_bits_equal(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The seven hot per-node scalars, column-major. Sized once by the
/// protocol constructor; never resized on the hot path.
struct NodeScalars {
  std::vector<std::uint64_t> dag_id;
  std::vector<double> metric;
  std::vector<topology::ProtocolId> head;
  std::vector<topology::ProtocolId> parent;
  std::vector<std::uint8_t> metric_valid;
  std::vector<std::uint8_t> head_valid;
  std::vector<std::uint8_t> parent_valid;

  void resize(std::size_t n) {
    dag_id.assign(n, 0);
    metric.assign(n, 0.0);
    head.assign(n, 0);
    parent.assign(n, 0);
    metric_valid.assign(n, 0);
    head_valid.assign(n, 0);
    parent_valid.assign(n, 0);
  }

  [[nodiscard]] std::size_t size() const noexcept { return dag_id.size(); }
};

/// A value copy of one row — the before-image the tracked rule sweep
/// diffs against to decide whether a node's shared variables moved.
struct ScalarRow {
  std::uint64_t dag_id = 0;
  double metric = 0.0;
  topology::ProtocolId head = 0;
  topology::ProtocolId parent = 0;
  std::uint8_t metric_valid = 0;
  std::uint8_t head_valid = 0;
  std::uint8_t parent_valid = 0;
};

[[nodiscard]] inline ScalarRow scalar_row(const NodeScalars& cols,
                                          std::size_t i) noexcept {
  return ScalarRow{cols.dag_id[i],     cols.metric[i],
                   cols.head[i],       cols.parent[i],
                   cols.metric_valid[i], cols.head_valid[i],
                   cols.parent_valid[i]};
}

/// True iff every shared variable of the two rows is bit-equal (doubles
/// compare as bit patterns).
[[nodiscard]] inline bool rows_bitwise_equal(const ScalarRow& a,
                                             const ScalarRow& b) noexcept {
  return a.dag_id == b.dag_id && double_bits_equal(a.metric, b.metric) &&
         a.metric_valid == b.metric_valid && a.head == b.head &&
         a.head_valid == b.head_valid && a.parent == b.parent &&
         a.parent_valid == b.parent_valid;
}

namespace detail {

/// First index where two same-length columns disagree, or `n` if none.
/// Delegates to the blocked branch-free scan in util/merge.hpp — the
/// all-equal prefix (the common case in a divergence search) runs as a
/// vectorized OR reduction. Doubles compare as bit patterns (the
/// harness contract is bitwise, not IEEE ==).
template <typename T>
[[nodiscard]] std::size_t first_column_mismatch(const std::vector<T>& a,
                                                const std::vector<T>& b) {
  const std::size_t n = a.size();
  if constexpr (std::is_same_v<T, double>) {
    const auto* pa = reinterpret_cast<const std::uint64_t*>(a.data());
    const auto* pb = reinterpret_cast<const std::uint64_t*>(b.data());
    return util::first_mismatch_index(pa, pb, n);
  } else {
    return util::first_mismatch_index(a.data(), b.data(), n);
  }
}

}  // namespace detail

/// First row where two scalar populations diverge bitwise, or
/// `a.size()` when they are identical. Column-major: seven flat scans,
/// each one a vectorizable loop, instead of one gather-heavy row loop.
[[nodiscard]] inline std::size_t first_divergent_row(const NodeScalars& a,
                                                     const NodeScalars& b) {
  std::size_t first = a.size();
  first = std::min(first, detail::first_column_mismatch(a.dag_id, b.dag_id));
  first = std::min(first, detail::first_column_mismatch(a.metric, b.metric));
  first = std::min(first, detail::first_column_mismatch(a.head, b.head));
  first = std::min(first, detail::first_column_mismatch(a.parent, b.parent));
  first = std::min(first,
                   detail::first_column_mismatch(a.metric_valid, b.metric_valid));
  first =
      std::min(first, detail::first_column_mismatch(a.head_valid, b.head_valid));
  first = std::min(first, detail::first_column_mismatch(a.parent_valid,
                                                        b.parent_valid));
  return first;
}

/// A packed rank-key column: one PackedRank per node, the eighth hot
/// column. The clustering oracle fills it once per run (pack_rank_column)
/// and every ≺ scan afterwards — local-max tests, the fusion sort, parent
/// selection — is an integer compare against it. The protocol's R2
/// election packs each cache entry into the same encoding as it scans
/// (DensityProtocol::entry_key), so it is the same reduction.
using RankKeyColumn = std::vector<PackedRank>;

/// Packs every rank in `ranks` for the given incumbency mode.
[[nodiscard]] inline RankKeyColumn pack_rank_column(
    std::span<const NodeRank> ranks, bool incumbency) {
  RankKeyColumn keys(ranks.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    keys[i] = pack_rank(ranks[i], incumbency);
  }
  return keys;
}

/// Index of the ≺-maximum over a packed column (which must be non-empty).
/// Branchless conditional-select reduction: each step is one wide compare
/// plus three selects, no data-dependent branches for the predictor to
/// miss on shuffled metric data.
[[nodiscard]] inline std::size_t max_rank_key_index(
    std::span<const PackedRank> keys) noexcept {
  std::size_t best = 0;
  PackedRank best_key = keys.empty() ? PackedRank{} : keys[0];
  for (std::size_t i = 1; i < keys.size(); ++i) {
    const bool better = packed_precedes(best_key, keys[i]);
    best = better ? i : best;
    best_key.hi = better ? keys[i].hi : best_key.hi;
    best_key.lo = better ? keys[i].lo : best_key.lo;
    best_key.sub = better ? keys[i].sub : best_key.sub;
  }
  return best;
}

/// Number of rows whose scalars differ — the population analogue of
/// `rows_bitwise_equal`, used by bench_micro to measure the diff kernel
/// at scale.
[[nodiscard]] inline std::size_t count_divergent_rows(const NodeScalars& a,
                                                      const NodeScalars& b) {
  const std::size_t n = a.size();
  std::size_t count = 0;
  const auto* ma = reinterpret_cast<const std::uint64_t*>(a.metric.data());
  const auto* mb = reinterpret_cast<const std::uint64_t*>(b.metric.data());
  for (std::size_t i = 0; i < n; ++i) {
    const bool differs =
        (a.dag_id[i] != b.dag_id[i]) | (ma[i] != mb[i]) |
        (a.head[i] != b.head[i]) | (a.parent[i] != b.parent[i]) |
        (a.metric_valid[i] != b.metric_valid[i]) |
        (a.head_valid[i] != b.head_valid[i]) |
        (a.parent_valid[i] != b.parent_valid[i]);
    count += differs;
  }
  return count;
}

}  // namespace ssmwn::core
