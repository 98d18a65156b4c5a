#include "simt/sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "simt/packed.hpp"
#include "simt/visited.hpp"

namespace wknng::simt {
namespace {

class SortTest : public ::testing::Test {
 protected:
  WarpScratch scratch_;
  Stats stats_;
  Warp warp_{0, scratch_, stats_};
};

TEST_F(SortTest, BitonicSortsReversedInput) {
  Lanes<std::uint64_t> v;
  for (int l = 0; l < kWarpSize; ++l) {
    v[l] = static_cast<std::uint64_t>(kWarpSize - l);
  }
  bitonic_sort_lanes(warp_, v);
  for (int l = 0; l < kWarpSize; ++l) {
    EXPECT_EQ(v[l], static_cast<std::uint64_t>(l + 1));
  }
}

TEST_F(SortTest, BitonicSortsRandomInputs) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    Lanes<std::uint64_t> v;
    for (auto& x : v) x = rng.next_u64();
    auto expect = v;
    bitonic_sort_lanes(warp_, v);
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(v, expect) << "trial " << trial;
  }
}

TEST_F(SortTest, BitonicSortsWithDuplicates) {
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    Lanes<std::uint64_t> v;
    for (auto& x : v) x = rng.next_below(4);
    auto expect = v;
    bitonic_sort_lanes(warp_, v);
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(v, expect);
  }
}

TEST_F(SortTest, BitonicHandlesEmptyPadding) {
  Lanes<std::uint64_t> v;
  v.fill(Packed::kEmpty);
  for (int l = 0; l < 5; ++l) v[l] = static_cast<std::uint64_t>(100 - l);
  bitonic_sort_lanes(warp_, v);
  for (int l = 0; l < 5; ++l) EXPECT_LT(v[l], Packed::kEmpty);
  for (int l = 5; l < kWarpSize; ++l) EXPECT_EQ(v[l], Packed::kEmpty);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST_F(SortTest, BitonicCountsCollectives) {
  Lanes<std::uint64_t> v;
  for (int l = 0; l < kWarpSize; ++l) v[l] = static_cast<std::uint64_t>(l);
  const auto before = stats_.warp_collectives;
  bitonic_sort_lanes(warp_, v);
  // 15 compare-exchange stages, each one shuffle.
  EXPECT_EQ(stats_.warp_collectives - before, 15u);
}

TEST_F(SortTest, MergeKeepsKSmallest) {
  std::vector<std::uint64_t> list = {2, 4, 6, 8};
  std::vector<std::uint64_t> tmp(4);
  Lanes<std::uint64_t> run;
  run.fill(Packed::kEmpty);
  run[0] = 1;
  run[1] = 3;
  run[2] = 5;
  merge_sorted_run<std::uint64_t>(warp_, list, run, tmp, Packed::kEmpty);
  EXPECT_EQ(list, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST_F(SortTest, MergeDedupesEqualValues) {
  std::vector<std::uint64_t> list = {2, 4, 6, 8};
  std::vector<std::uint64_t> tmp(4);
  Lanes<std::uint64_t> run;
  run.fill(Packed::kEmpty);
  run[0] = 2;  // duplicates of list entries
  run[1] = 4;
  merge_sorted_run<std::uint64_t>(warp_, list, run, tmp, Packed::kEmpty);
  EXPECT_EQ(list, (std::vector<std::uint64_t>{2, 4, 6, 8}));
}

TEST_F(SortTest, MergeIntoEmptyList) {
  std::vector<std::uint64_t> list(4, Packed::kEmpty);
  std::vector<std::uint64_t> tmp(4);
  Lanes<std::uint64_t> run;
  run.fill(Packed::kEmpty);
  run[0] = 1;
  run[1] = 2;
  merge_sorted_run<std::uint64_t>(warp_, list, run, tmp, Packed::kEmpty);
  EXPECT_EQ(list[0], 1u);
  EXPECT_EQ(list[1], 2u);
  EXPECT_EQ(list[2], Packed::kEmpty);
  EXPECT_EQ(list[3], Packed::kEmpty);
}

TEST_F(SortTest, BitonicAllEmptyIsStable) {
  Lanes<std::uint64_t> v;
  v.fill(Packed::kEmpty);
  bitonic_sort_lanes(warp_, v);
  for (int l = 0; l < kWarpSize; ++l) EXPECT_EQ(v[l], Packed::kEmpty);
}

TEST_F(SortTest, MergeRunEntirelyWorseLeavesListUnchanged) {
  std::vector<std::uint64_t> list = {1, 2, 3, 4};
  std::vector<std::uint64_t> tmp(4);
  Lanes<std::uint64_t> run;
  run.fill(Packed::kEmpty);
  for (int l = 0; l < 4; ++l) run[l] = static_cast<std::uint64_t>(100 + l);
  merge_sorted_run<std::uint64_t>(warp_, list, run, tmp, Packed::kEmpty);
  EXPECT_EQ(list, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST_F(SortTest, MergeEmptyRunIsANoop) {
  std::vector<std::uint64_t> list = {3, 7, Packed::kEmpty, Packed::kEmpty};
  std::vector<std::uint64_t> tmp(4);
  Lanes<std::uint64_t> run;
  run.fill(Packed::kEmpty);
  merge_sorted_run<std::uint64_t>(warp_, list, run, tmp, Packed::kEmpty);
  EXPECT_EQ(list,
            (std::vector<std::uint64_t>{3, 7, Packed::kEmpty, Packed::kEmpty}));
}

TEST_F(SortTest, MergeMatchesReferenceOnRandomInputs) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t k = 1 + rng.next_below(40);
    // Random sorted list with kEmpty tail.
    std::vector<std::uint64_t> list;
    const std::size_t filled = rng.next_below(k + 1);
    for (std::size_t i = 0; i < filled; ++i) list.push_back(rng.next_below(1000));
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    list.resize(k, Packed::kEmpty);

    const std::size_t run_n = rng.next_below(kWarpSize + 1);
    Lanes<std::uint64_t> run;
    run.fill(Packed::kEmpty);
    for (std::size_t l = 0; l < run_n; ++l) run[l] = rng.next_below(1000);
    std::sort(run.begin(), run.end());

    // Reference: k smallest distinct values of the union.
    std::set<std::uint64_t> uni(list.begin(), list.end());
    uni.insert(run.begin(), run.end());
    std::vector<std::uint64_t> expect(uni.begin(), uni.end());
    // Remove the kEmpty sentinel before trimming, re-pad after.
    expect.erase(std::remove(expect.begin(), expect.end(), Packed::kEmpty),
                 expect.end());
    if (expect.size() > k) expect.resize(k);
    expect.resize(k, Packed::kEmpty);

    std::vector<std::uint64_t> tmp(k);
    merge_sorted_run<std::uint64_t>(warp_, list, run, tmp, Packed::kEmpty);
    EXPECT_EQ(list, expect) << "trial " << trial << " k=" << k;
  }
}

// The merge path of a 32-run into a k-list is charged ⌈(k+32)/32⌉ rounds,
// whatever the run holds.
TEST_F(SortTest, MergeChargesMergePathRounds) {
  const std::size_t ks[] = {1, 16, 32, 33, 64};
  const std::uint64_t rounds[] = {2, 2, 2, 3, 3};
  for (std::size_t i = 0; i < std::size(ks); ++i) {
    std::vector<std::uint64_t> list(ks[i], Packed::kEmpty);
    std::vector<std::uint64_t> tmp(ks[i]);
    Lanes<std::uint64_t> run;
    run.fill(Packed::kEmpty);
    run[0] = 1;
    const auto before = stats_.warp_collectives;
    merge_sorted_run<std::uint64_t>(warp_, list, run, tmp, Packed::kEmpty);
    EXPECT_EQ(stats_.warp_collectives - before, rounds[i]) << "k=" << ks[i];
  }
}

TEST_F(SortTest, SortScratchSortsSpan) {
  Rng rng(8);
  std::vector<std::uint32_t> v(137);
  for (auto& x : v) x = static_cast<std::uint32_t>(rng.next_below(50));
  auto expect = v;
  sort_scratch<std::uint32_t>(warp_, v);
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(v, expect);
}

TEST_F(SortTest, SortScratchEmptyAndSingle) {
  std::vector<std::uint32_t> empty;
  sort_scratch<std::uint32_t>(warp_, empty);
  std::vector<std::uint32_t> one = {42};
  sort_scratch<std::uint32_t>(warp_, one);
  EXPECT_EQ(one[0], 42u);
}

// Radix sort: one key width per digit count (1..4 bytes), duplicates, and
// the ping-pong buffer holding the result after an odd pass count.
TEST_F(SortTest, RadixMatchesStdSortForEveryDigitCount) {
  Rng rng(8);
  for (const std::uint64_t bound :
       {std::uint64_t{200}, std::uint64_t{60000}, std::uint64_t{1} << 24,
        std::uint64_t{1} << 32}) {
    for (const std::size_t n : {std::size_t{2}, std::size_t{31},
                                std::size_t{1000}}) {
      std::vector<std::uint32_t> v(n);
      for (auto& x : v) x = static_cast<std::uint32_t>(rng.next_below(bound));
      v[0] = static_cast<std::uint32_t>(bound - 1);  // pins the pass count
      std::vector<std::uint32_t> tmp(n);
      std::vector<std::uint32_t> expect = v;
      std::sort(expect.begin(), expect.end());
      radix_sort_scratch<std::uint32_t>(warp_, v, tmp, expect.back());
      EXPECT_EQ(v, expect) << "bound " << bound << " n " << n;
    }
  }
}

TEST_F(SortTest, RadixHandlesDuplicatesZerosAndTinyInputs) {
  std::vector<std::uint32_t> dup = {7, 0, 7, 300, 0, 300, 7};
  std::vector<std::uint32_t> tmp(dup.size());
  radix_sort_scratch<std::uint32_t>(warp_, dup, tmp, 300);
  EXPECT_EQ(dup, (std::vector<std::uint32_t>{0, 0, 7, 7, 7, 300, 300}));

  std::vector<std::uint32_t> zeros(5, 0);
  radix_sort_scratch<std::uint32_t>(warp_, zeros, tmp, 0);
  EXPECT_EQ(zeros, std::vector<std::uint32_t>(5, 0));

  std::vector<std::uint32_t> one = {42};
  radix_sort_scratch<std::uint32_t>(warp_, one, {}, 42);
  EXPECT_EQ(one[0], 42u);
}

TEST_F(SortTest, RadixChargesPassesTimesTiles) {
  // 40 keys below 2^16: two 8-bit passes over two 32-key tiles, each pass
  // a histogram and a scatter collective per tile plus a 5-step bin scan.
  std::vector<std::uint32_t> v(40);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint32_t>(65535 - 1000 * i);
  }
  std::vector<std::uint32_t> tmp(v.size());
  const auto before = stats_.warp_collectives;
  radix_sort_scratch<std::uint32_t>(warp_, v, tmp, 65535);
  EXPECT_EQ(stats_.warp_collectives - before, 2u * (2u * 2u + 5u));
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(VisitedBitmap, MarkReportsFirstVisitAndUnmarkRestoresClear) {
  VisitedBitmap seen;
  seen.reserve(130);
  EXPECT_TRUE(seen.mark(0));
  EXPECT_TRUE(seen.mark(129));
  EXPECT_FALSE(seen.mark(129));
  EXPECT_TRUE(seen.mark(64));
  EXPECT_FALSE(seen.all_clear());
  const std::vector<std::uint32_t> marked = {0, 64, 129};
  seen.unmark(marked);
  EXPECT_TRUE(seen.all_clear());
}

TEST(VisitedBitmap, GrowthKeepsMarksAndAddsClearBits) {
  VisitedBitmap seen;
  seen.reserve(10);
  seen.mark(9);
  seen.reserve(100000);
  EXPECT_FALSE(seen.mark(9));
  EXPECT_TRUE(seen.mark(99999));
  seen.reserve(5);  // never shrinks
  EXPECT_FALSE(seen.mark(99999));
  seen.unmark(9);
  seen.unmark(99999);
  EXPECT_TRUE(seen.all_clear());
}

}  // namespace
}  // namespace wknng::simt
