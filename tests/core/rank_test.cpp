// Tests for the ≺ total order (Section 4.2 and the Section 4.3
// incumbency refinement).
#include "core/rank.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/soa_state.hpp"
#include "support/oracles.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

core::NodeRank rank(double metric, bool incumbent, topology::ProtocolId tie,
                    topology::ProtocolId uid) {
  return core::NodeRank{metric, incumbent, tie, uid};
}

TEST(Rank, HigherDensityDominates) {
  const auto low = rank(1.0, false, 5, 5);
  const auto high = rank(1.5, false, 9, 9);
  EXPECT_TRUE(core::precedes(low, high, false));
  EXPECT_FALSE(core::precedes(high, low, false));
}

TEST(Rank, TieGoesToSmallerId) {
  // p ≺ q iff (d_p = d_q) ∧ (Id_q < Id_p): the smaller id dominates.
  const auto small_id = rank(1.25, false, 3, 3);
  const auto large_id = rank(1.25, false, 8, 8);
  EXPECT_TRUE(core::precedes(large_id, small_id, false));
  EXPECT_FALSE(core::precedes(small_id, large_id, false));
}

TEST(Rank, IncumbentWinsTiesOnlyWhenEnabled) {
  const auto incumbent = rank(1.25, true, 9, 9);
  const auto challenger = rank(1.25, false, 3, 3);
  // Incumbency order: the current head beats the smaller-id challenger.
  EXPECT_TRUE(core::precedes(challenger, incumbent, true));
  EXPECT_FALSE(core::precedes(incumbent, challenger, true));
  // Plain order ignores the flag: smaller id wins.
  EXPECT_TRUE(core::precedes(incumbent, challenger, false));
}

TEST(Rank, IncumbencyNeverOverridesDensity) {
  const auto strong = rank(2.0, false, 9, 9);
  const auto weak_incumbent = rank(1.0, true, 1, 1);
  EXPECT_TRUE(core::precedes(weak_incumbent, strong, true));
}

TEST(Rank, BothIncumbentsFallBackToId) {
  // Deviation D1: the paper's predicate is silent here; we complete the
  // order with the id tie-break.
  const auto a = rank(1.0, true, 4, 4);
  const auto b = rank(1.0, true, 2, 2);
  EXPECT_TRUE(core::precedes(a, b, true));
  EXPECT_FALSE(core::precedes(b, a, true));
}

TEST(Rank, UidBreaksDagNameCollisions) {
  // Same density, same DAG name (possible at 2 hops): the protocol id
  // keeps the order total.
  const auto a = rank(1.0, false, 7, 100);
  const auto b = rank(1.0, false, 7, 50);
  EXPECT_TRUE(core::precedes(a, b, false));
  EXPECT_FALSE(core::precedes(b, a, false));
}

TEST(Rank, IrreflexiveAndAsymmetric) {
  const auto a = rank(1.3, true, 2, 2);
  EXPECT_FALSE(core::precedes(a, a, false));
  EXPECT_FALSE(core::precedes(a, a, true));
}

TEST(Rank, IsStrictTotalOrderOnRandomSamples) {
  // Property check: for random distinct-uid ranks, exactly one of p ≺ q,
  // q ≺ p holds, and transitivity is preserved under std::sort's checks.
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<core::NodeRank> ranks;
    for (topology::ProtocolId uid = 0; uid < 40; ++uid) {
      ranks.push_back(rank(static_cast<double>(rng.index(5)) / 4.0,
                           rng.chance(0.3), rng.below(8), uid));
    }
    for (const bool inc : {false, true}) {
      for (std::size_t i = 0; i < ranks.size(); ++i) {
        for (std::size_t j = 0; j < ranks.size(); ++j) {
          if (i == j) continue;
          EXPECT_NE(core::precedes(ranks[i], ranks[j], inc),
                    core::precedes(ranks[j], ranks[i], inc));
        }
      }
      // std::sort with a non-strict-weak-order comparator would be UB;
      // sorting and checking adjacent pairs gives a cheap consistency
      // sweep (libstdc++ debug checks aside).
      auto sorted = ranks;
      std::sort(sorted.begin(), sorted.end(),
                [inc](const core::NodeRank& x, const core::NodeRank& y) {
                  return core::precedes(x, y, inc);
                });
      for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
        EXPECT_FALSE(core::precedes(sorted[i + 1], sorted[i], inc));
      }
    }
  }
}

TEST(Rank, MaxRankIndexPicksTheDominator) {
  std::vector<core::NodeRank> ranks{
      rank(1.0, false, 4, 4),
      rank(1.5, false, 9, 9),
      rank(1.5, false, 2, 2),  // tie with index 1; smaller id dominates
      rank(0.5, false, 1, 1),
  };
  EXPECT_EQ(testsupport::max_rank_index(ranks, false), 2u);
}

// ---- Packed sortable keys (docs/ARCHITECTURE.md §9) ----
//
// The production ≺ now routes through pack_rank / packed_precedes, so the
// oracle these tests compare against is a transliteration of the original
// field-by-field comparison chain — the definition, kept verbatim here.
bool reference_precedes(const core::NodeRank& p, const core::NodeRank& q,
                        bool incumbency) {
  if (p.metric != q.metric) return p.metric < q.metric;
  if (incumbency && p.incumbent != q.incumbent) return q.incumbent;
  if (p.tie_id != q.tie_id) return q.tie_id < p.tie_id;
  if (p.uid != q.uid) return q.uid < p.uid;
  return false;  // identical rank: not strictly preceding
}

void expect_packed_matches(std::span<const core::NodeRank> ranks) {
  for (const bool inc : {false, true}) {
    std::vector<core::PackedRank> keys;
    for (const auto& r : ranks) keys.push_back(core::pack_rank(r, inc));
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      for (std::size_t j = 0; j < ranks.size(); ++j) {
        EXPECT_EQ(core::packed_precedes(keys[i], keys[j]),
                  reference_precedes(ranks[i], ranks[j], inc))
            << "inc=" << inc << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(Rank, PackedOrderMatchesReferenceOnExtremeValues) {
  // Every boundary of the packed domain: metric sign flips around ±0.0,
  // denormals, infinities; tie_id at the 63-bit domain edges; uid over
  // the full 64-bit range (including values with the top bit set, which
  // the ~uid sub-key must keep in order).
  const double metrics[] = {-std::numeric_limits<double>::infinity(),
                            -1.0e300,
                            -1.5,
                            -5e-324,  // negative denormal
                            -0.0,
                            0.0,
                            5e-324,  // positive denormal
                            1.5,
                            1.0e300,
                            std::numeric_limits<double>::infinity()};
  const topology::ProtocolId ties[] = {0, 1, (std::uint64_t{1} << 62),
                                       (std::uint64_t{1} << 63) - 1};
  const topology::ProtocolId uids[] = {0, 1, (std::uint64_t{1} << 63),
                                       ~std::uint64_t{0}};
  std::vector<core::NodeRank> ranks;
  util::Rng rng(7);
  for (const double m : metrics) {
    for (const auto t : ties) {
      // Full cross products explode; cover every (metric, tie) with a
      // sampled uid/incumbent and every (metric, uid) with a sampled tie.
      ranks.push_back(rank(m, rng.chance(0.5), t, uids[rng.index(4)]));
    }
    for (const auto u : uids) {
      ranks.push_back(rank(m, rng.chance(0.5), ties[rng.index(4)], u));
    }
  }
  expect_packed_matches(ranks);
}

TEST(Rank, PackedOrderMatchesReferenceExhaustiveSmallDomain) {
  // Exhaustive cross-check on a small domain: 3 metrics × 2 incumbent
  // flags × 3 tie ids × 3 uids = 54 ranks, all 54² ordered pairs, both
  // incumbency modes. Equal metrics, ties and uids all collide here, so
  // every arm of the comparison chain is exercised, including the
  // "identical rank" reflexive case.
  std::vector<core::NodeRank> ranks;
  for (const double m : {0.0, 0.5, 1.0}) {
    for (const bool head : {false, true}) {
      for (topology::ProtocolId t = 0; t < 3; ++t) {
        for (topology::ProtocolId u = 0; u < 3; ++u) {
          ranks.push_back(rank(m, head, t, u));
        }
      }
    }
  }
  expect_packed_matches(ranks);
}

TEST(Rank, PackedOrderMatchesReferenceRandomized) {
  util::Rng rng(2026);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<core::NodeRank> ranks;
    for (int i = 0; i < 24; ++i) {
      // Coarse metric grid so metric ties are common; occasional huge
      // uids/ties to stress the complement encodings.
      ranks.push_back(rank(
          static_cast<double>(rng.index(4)) / 2.0 - 1.0, rng.chance(0.4),
          rng.chance(0.2) ? (std::uint64_t{1} << 63) - 1 - rng.below(3)
                          : rng.below(6),
          rng.chance(0.2) ? ~rng.below(1000) : rng.below(1000)));
    }
    expect_packed_matches(ranks);
  }
}

TEST(Rank, ValueInitializedKeyIsBelowEveryValidKey) {
  // PackedRank{} is the "no entry" sentinel the R2 scan folds over: it
  // must never dominate a packable rank (its hi field, zero, would
  // require negative-NaN metric bits, which the domain excludes).
  const core::PackedRank sentinel{};
  const core::NodeRank worst =
      rank(-std::numeric_limits<double>::infinity(), false,
           (std::uint64_t{1} << 63) - 1, ~std::uint64_t{0});
  for (const bool inc : {false, true}) {
    const core::PackedRank key = core::pack_rank(worst, inc);
    EXPECT_TRUE(core::packed_precedes(sentinel, key));
    EXPECT_FALSE(core::packed_precedes(key, sentinel));
  }
  EXPECT_FALSE(core::packed_precedes(sentinel, sentinel));
}

TEST(Rank, MaxRankIndexMatchesReferenceArgmax) {
  util::Rng rng(11);
  for (const bool inc : {false, true}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<core::NodeRank> ranks;
      const std::size_t n = 1 + rng.index(50);
      for (std::size_t i = 0; i < n; ++i) {
        // Distinct uids (the protocol invariant), everything else ties.
        ranks.push_back(rank(static_cast<double>(rng.index(3)),
                             rng.chance(0.3), rng.below(4), i));
      }
      std::size_t expected = 0;
      for (std::size_t i = 1; i < n; ++i) {
        if (reference_precedes(ranks[expected], ranks[i], inc)) expected = i;
      }
      EXPECT_EQ(testsupport::max_rank_index(ranks, inc), expected);
      // The columnar kernels must agree with the scalar entry point.
      const core::RankKeyColumn keys = core::pack_rank_column(ranks, inc);
      EXPECT_EQ(testsupport::max_rank_key_index(keys), expected);
    }
  }
}

}  // namespace
}  // namespace ssmwn
