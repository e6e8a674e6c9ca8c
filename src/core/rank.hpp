// The ≺ total order on nodes.
//
// Section 4.2 defines: p ≺ q  ⇔  d_p < d_q  ∨  (d_p = d_q ∧ Id_q < Id_p)
// — higher density dominates; ties go to the smaller identifier.
//
// Section 4.3 (incumbency) refines the tie case: an incumbent cluster-head
// beats a non-incumbent of the same density. The paper's predicate is
// silent when *both* tied nodes are incumbents; we complete it with the
// identifier tie-break so ≺ stays total (DESIGN.md deviation D1).
//
// When the constant-height DAG of Section 4.1 is active, the identifier
// compared is the locally-unique DAG name. DAG names may coincide beyond
// 1 hop (the name space is only δ²), so the globally-unique protocol
// identifier remains as a final fallback, keeping ≺ a strict total order
// on any comparison the algorithm performs (including the 2-hop fusion
// checks).
//
// ── Packed representation ────────────────────────────────────────────
//
// The four-field comparison above is branchy and the R2 election runs it
// O(deg) (local-max scan) to O(deg²) (fusion blocking scan) times per
// node per step. PackedRank folds the whole order into integers whose
// lexicographic comparison IS ≺:
//
//     key  (64+64 bits, compared as one 128-bit word):
//       [ sortable(metric) : 64 ][ incumbent : 1 ][ ~tie_id : 63 ]
//     sub  (64 bits, consulted only when key ties):
//       [ ~uid : 64 ]
//
// sortable() is the standard order-preserving map from IEEE-754 doubles
// to unsigned integers: flip all bits of negative values, flip only the
// sign bit of non-negative ones. −0.0 is canonicalized to +0.0 before
// mapping (they are IEEE-equal, so ≺ must treat them as a tie). The
// identifier fields are complemented because *smaller* ids dominate.
//
// Domain contract (debug-asserted in pack_rank):
//   · metric is not NaN — ≺ itself is not total on NaN, and nothing in
//     the protocol produces one (densities are finite ratios, fault
//     injectors draw from uniform(0, 8));
//   · tie_id < 2^63 — DAG names live in [0, 2·name_space) and protocol
//     ids are a permutation of [0, n); the 63-bit field is complemented
//     against 2^63−1 so the mapping is exact on that domain.
// uid is exact over all 64 bits. Within one node's cache, entry keys are
// always distinct (unique uids ⇒ distinct sub), so a single arg-max pass
// is order-insensitive and replaces every pairwise election scan.
//
// A value-initialized PackedRank{} is a sentinel strictly below every
// domain key: primary 0 would require metric bits of all-ones, which is
// a negative NaN and thus outside the domain. Columnar reductions use it
// for "no candidate" slots (e.g. cache entries with metric_valid=false).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <span>

#include "topology/ids.hpp"

namespace ssmwn::core {

/// The ≺-relevant attributes of a node.
struct NodeRank {
  double metric = 0.0;             ///< density (or a baseline metric)
  bool incumbent = false;          ///< currently its own cluster-head
  topology::ProtocolId tie_id = 0; ///< DAG name if in use, else protocol id
  topology::ProtocolId uid = 0;    ///< globally-unique protocol id

  friend bool operator==(const NodeRank&, const NodeRank&) = default;
};

/// Order-preserving integer encoding of a NodeRank (see header comment).
/// Lexicographic (hi, lo, sub) comparison is exactly ≺; value-initialized
/// is a below-everything sentinel.
struct PackedRank {
  std::uint64_t hi = 0;   ///< sortable(metric)
  std::uint64_t lo = 0;   ///< [incumbent:1][~tie_id:63]
  std::uint64_t sub = 0;  ///< ~uid, consulted only when (hi,lo) ties

  friend bool operator==(const PackedRank&, const PackedRank&) = default;
};

/// Maps a double to an unsigned integer whose natural order matches the
/// IEEE-754 total order on non-NaN values (−inf < … < −0 = +0 < … < +inf).
[[nodiscard]] inline std::uint64_t sortable_double_bits(double value) noexcept {
  assert(value == value && "NaN metric is outside the ≺ domain");
  // +0.0 and −0.0 compare equal under ≺; canonicalize before mapping.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value + 0.0);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

/// Encodes `rank` for the given incumbency mode. With incumbency off the
/// incumbent bit is packed as zero so it cannot influence the order.
[[nodiscard]] inline PackedRank pack_rank(const NodeRank& rank,
                                          bool incumbency) noexcept {
  constexpr std::uint64_t kTieMax = (std::uint64_t{1} << 63) - 1;
  assert(rank.tie_id <= kTieMax && "tie_id outside the 63-bit ≺ domain");
  const std::uint64_t incumbent_bit =
      (incumbency && rank.incumbent) ? (std::uint64_t{1} << 63) : 0;
  return PackedRank{sortable_double_bits(rank.metric),
                    incumbent_bit | (kTieMax - (rank.tie_id & kTieMax)),
                    ~rank.uid};
}

/// True iff p ≺ q on packed keys: one wide integer compare.
[[nodiscard]] inline bool packed_precedes(const PackedRank& p,
                                          const PackedRank& q) noexcept {
#if defined(__SIZEOF_INT128__)
  const auto wide = [](const PackedRank& r) {
    return (static_cast<unsigned __int128>(r.hi) << 64) | r.lo;
  };
  const unsigned __int128 a = wide(p);
  const unsigned __int128 b = wide(q);
  return a != b ? a < b : p.sub < q.sub;
#else
  if (p.hi != q.hi) return p.hi < q.hi;
  if (p.lo != q.lo) return p.lo < q.lo;
  return p.sub < q.sub;
#endif
}

/// True iff p ≺ q (q dominates p). With `incumbency` false this is exactly
/// the Section 4.2 order; with it true, the Section 4.3 refinement.
/// Implemented over the packed encoding — there is exactly one ordering
/// implementation in the codebase (packed_precedes).
[[nodiscard]] bool precedes(const NodeRank& p, const NodeRank& q,
                            bool incumbency) noexcept;

}  // namespace ssmwn::core
