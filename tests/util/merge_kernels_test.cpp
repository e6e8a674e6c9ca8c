// The branchless merge/intersection kernels in util/merge.hpp and
// support/merge_kernels.hpp against
// their std:: references, across randomized sorted inputs (balanced and
// skewed lengths) and the projection path the protocol uses on digest
// structs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "support/merge_kernels.hpp"
#include "util/merge.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

std::vector<std::uint64_t> sorted_unique(std::size_t n, std::uint64_t gap,
                                         util::Rng& rng) {
  std::vector<std::uint64_t> v(n);
  std::uint64_t x = 0;
  for (auto& e : v) {
    x += 1 + rng.below(gap);
    e = x;
  }
  return v;
}

std::size_t reference_intersection(const std::vector<std::uint64_t>& a,
                                   const std::vector<std::uint64_t>& b) {
  std::vector<std::uint64_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out.size();
}

TEST(MergeKernels, IntersectCountMatchesStdAcrossShapes) {
  util::Rng rng(7);
  const std::size_t sizes[] = {0, 1, 2, 7, 8, 31, 64, 300};
  for (const std::size_t na : sizes) {
    for (const std::size_t nb : sizes) {
      for (const std::uint64_t gap : {2ull, 16ull}) {
        const auto a = sorted_unique(na, gap, rng);
        const auto b = sorted_unique(nb, gap, rng);
        const std::size_t want = reference_intersection(a, b);
        EXPECT_EQ(
            testsupport::intersect_count_linear(a.data(), na, b.data(), nb),
            want)
            << "na=" << na << " nb=" << nb;
      }
    }
  }
}

TEST(MergeKernels, IntersectCountWithProjection) {
  struct Digestish {
    std::uint64_t id;
    double payload;
  };
  util::Rng rng(11);
  const auto keys_a = sorted_unique(40, 8, rng);
  const auto keys_b = sorted_unique(25, 8, rng);
  std::vector<Digestish> a, b;
  for (const auto k : keys_a) a.push_back({k, rng.uniform()});
  for (const auto k : keys_b) b.push_back({k, rng.uniform()});
  const auto proj = [](const Digestish& d) { return d.id; };
  const std::size_t want = reference_intersection(keys_a, keys_b);
  EXPECT_EQ(testsupport::intersect_count_linear(a.data(), a.size(), b.data(),
                                                b.size(), proj, proj),
            want);
}

TEST(MergeKernels, LowerBoundAndContainsMatchStd) {
  util::Rng rng(13);
  const auto v = sorted_unique(100, 4, rng);
  for (std::uint64_t probe = 0; probe <= v.back() + 2; ++probe) {
    const auto want = static_cast<std::size_t>(
        std::lower_bound(v.begin(), v.end(), probe) - v.begin());
    EXPECT_EQ(util::lower_bound_index(v.data(), v.size(), probe), want)
        << "probe " << probe;
    EXPECT_EQ(util::contains_sorted(v.data(), v.size(), probe),
              std::binary_search(v.begin(), v.end(), probe))
        << "probe " << probe;
  }
}

TEST(MergeKernels, FirstMismatchIndexMatchesStdMismatch) {
  util::Rng rng(19);
  // Lengths straddling the 32-element block boundary, mismatch at every
  // position including none.
  for (const std::size_t n : {0ull, 1ull, 31ull, 32ull, 33ull, 100ull}) {
    std::vector<std::uint64_t> a(n);
    for (auto& e : a) e = rng();
    // identical
    std::vector<std::uint64_t> b = a;
    EXPECT_EQ(testsupport::first_mismatch_index(a.data(), b.data(), n), n);
    for (std::size_t at = 0; at < n; ++at) {
      b = a;
      b[at] ^= 0x8000000000000000ull;  // sign-bit flip: bitwise, not ==
      const auto want = static_cast<std::size_t>(
          std::mismatch(a.begin(), a.end(), b.begin()).first - a.begin());
      EXPECT_EQ(testsupport::first_mismatch_index(a.data(), b.data(), n), want)
          << "n=" << n << " at=" << at;
    }
  }
}

}  // namespace
}  // namespace ssmwn
