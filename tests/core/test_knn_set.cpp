#include "core/knn_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "simt/launch.hpp"
#include "simt/sort.hpp"

namespace wknng::core {
namespace {

using simt::Packed;

class KnnSetTest : public ::testing::TestWithParam<Strategy> {
 protected:
  simt::WarpScratch scratch_;
  simt::Stats stats_;
  simt::Warp warp_{0, scratch_, stats_};

  /// Strategy-dispatched insert through the uniform entry point.
  void insert(KnnSetArray& sets, std::uint32_t dst, float dist,
              std::uint32_t id) {
    sets.insert(warp_, GetParam(), dst, Packed::make(dist, id));
  }

  /// Reads back point p's set as sorted (dist, id) pairs.
  std::vector<Neighbor> contents(const KnnSetArray& sets, std::uint32_t p) {
    std::vector<std::uint64_t> vals(sets.row(p), sets.row(p) + sets.k());
    std::sort(vals.begin(), vals.end());
    std::vector<Neighbor> out;
    for (std::uint64_t v : vals) {
      if (!Packed::is_empty(v)) out.push_back({Packed::dist(v), Packed::id(v)});
    }
    return out;
  }
};

TEST_P(KnnSetTest, InsertBelowCapacityKeepsAll) {
  KnnSetArray sets(4, 5);
  insert(sets, 0, 3.0f, 1);
  insert(sets, 0, 1.0f, 2);
  insert(sets, 0, 2.0f, 3);
  const auto c = contents(sets, 0);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].id, 2u);
  EXPECT_EQ(c[1].id, 3u);
  EXPECT_EQ(c[2].id, 1u);
}

TEST_P(KnnSetTest, EvictsWorstWhenFull) {
  KnnSetArray sets(2, 3);
  insert(sets, 0, 3.0f, 1);
  insert(sets, 0, 2.0f, 2);
  insert(sets, 0, 4.0f, 3);
  insert(sets, 0, 1.0f, 4);  // must evict id 3 (dist 4)
  const auto c = contents(sets, 0);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].id, 4u);
  EXPECT_EQ(c[1].id, 2u);
  EXPECT_EQ(c[2].id, 1u);
}

TEST_P(KnnSetTest, RejectsWorseThanWorstWhenFull) {
  KnnSetArray sets(2, 2);
  insert(sets, 0, 1.0f, 1);
  insert(sets, 0, 2.0f, 2);
  insert(sets, 0, 9.0f, 3);
  const auto c = contents(sets, 0);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].id, 1u);
  EXPECT_EQ(c[1].id, 2u);
}

TEST_P(KnnSetTest, DuplicateIdIsIgnored) {
  KnnSetArray sets(2, 3);
  insert(sets, 0, 1.0f, 1);
  insert(sets, 0, 1.0f, 1);
  insert(sets, 0, 1.0f, 1);
  const auto c = contents(sets, 0);
  ASSERT_EQ(c.size(), 1u);
}

TEST_P(KnnSetTest, RowsAreIndependent) {
  KnnSetArray sets(3, 2);
  insert(sets, 0, 1.0f, 1);
  insert(sets, 2, 2.0f, 5);
  EXPECT_EQ(contents(sets, 0).size(), 1u);
  EXPECT_EQ(contents(sets, 1).size(), 0u);
  EXPECT_EQ(contents(sets, 2).size(), 1u);
}

TEST_P(KnnSetTest, MatchesReferenceTopKOnRandomStream) {
  Rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t k = 1 + rng.next_below(12);
    KnnSetArray sets(1, k);
    TopK reference(k);
    const std::size_t stream_len = 50 + rng.next_below(300);
    for (std::size_t i = 0; i < stream_len; ++i) {
      const float dist = rng.next_float() * 10.0f;
      const auto id = static_cast<std::uint32_t>(1000 + i);  // distinct ids
      insert(sets, 0, dist, id);
      reference.push(dist, id);
    }
    const auto expect = reference.take_sorted();
    const auto got = contents(sets, 0);
    ASSERT_EQ(got.size(), expect.size()) << "trial " << trial;
    for (std::size_t s = 0; s < expect.size(); ++s) {
      EXPECT_EQ(got[s], expect[s]) << "trial " << trial << " slot " << s;
    }
  }
}

TEST_P(KnnSetTest, ConcurrentInsertsKeepKBest) {
  // Many warps hammer the same destination point; the k best distinct
  // candidates must survive for the lock-based strategies, and at least the
  // k-th-best bound must hold for the lock-free one.
  ThreadPool pool(4);
  const std::size_t k = 8;
  const std::size_t n_cands = 2000;
  KnnSetArray sets(1, k);
  const Strategy strategy = GetParam();
  simt::launch_warps(pool, 64, nullptr, [&](simt::Warp& w) {
    Rng rng(55, w.id());
    for (std::size_t i = 0; i < n_cands / 64; ++i) {
      const auto id = static_cast<std::uint32_t>(w.id() * 1000 + i + 1);
      const float dist = 1.0f + static_cast<float>(id % 997);
      sets.insert(w, strategy, 0, Packed::make(dist, id));
    }
  });
  // All inserted candidates, reference top-k.
  TopK reference(k);
  for (std::uint32_t wid = 0; wid < 64; ++wid) {
    for (std::size_t i = 0; i < n_cands / 64; ++i) {
      const auto id = static_cast<std::uint32_t>(wid * 1000 + i + 1);
      reference.push(1.0f + static_cast<float>(id % 997), id);
    }
  }
  const auto expect = reference.take_sorted();

  simt::WarpScratch scratch;
  simt::Stats stats;
  simt::Warp w(0, scratch, stats);
  std::vector<std::uint64_t> vals(sets.row(0), sets.row(0) + k);
  std::sort(vals.begin(), vals.end());
  ASSERT_FALSE(Packed::is_empty(vals[0]));
  EXPECT_EQ(Packed::dist(vals[0]), expect[0].dist);
  // The worst kept distance can never exceed the reference k-th distance.
  float worst_kept = 0.0f;
  for (std::uint64_t v : vals) {
    if (!Packed::is_empty(v)) worst_kept = Packed::dist(v);
  }
  EXPECT_LE(worst_kept, expect.back().dist);
}

TEST_P(KnnSetTest, ExtractProducesValidGraph) {
  ThreadPool pool(2);
  KnnSetArray sets(5, 3);
  insert(sets, 0, 2.0f, 1);
  insert(sets, 0, 1.0f, 2);
  insert(sets, 1, 5.0f, 4);
  const KnnGraph g = sets.extract(pool);
  EXPECT_TRUE(g.check_invariants());
  EXPECT_EQ(g.row_size(0), 2u);
  EXPECT_EQ(g.row(0)[0].id, 2u);
  EXPECT_EQ(g.row(0)[1].id, 1u);
  EXPECT_EQ(g.row_size(1), 1u);
  EXPECT_EQ(g.row_size(2), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, KnnSetTest,
                         ::testing::Values(Strategy::kBasic, Strategy::kAtomic,
                                           Strategy::kTiled),
                         [](const auto& info) {
                           return strategy_name(info.param);
                         });

TEST(KnnSetTiled, MergeSortedTileKeepsRowSorted) {
  simt::WarpScratch scratch;
  simt::Stats stats;
  simt::Warp w(0, scratch, stats);
  KnnSetArray sets(1, 6);
  Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    simt::Lanes<std::uint64_t> run;
    run.fill(Packed::kEmpty);
    const std::size_t cnt = 1 + rng.next_below(simt::kWarpSize);
    for (std::size_t i = 0; i < cnt; ++i) {
      run[i] = Packed::make(rng.next_float() * 5.0f,
                            static_cast<std::uint32_t>(round * 100 + i + 1));
    }
    simt::bitonic_sort_lanes(w, run);
    sets.merge_sorted_tile(w, 0, run);
    // Row must stay sorted ascending after every merge.
    const std::uint64_t* row = sets.row(0);
    for (std::size_t s = 1; s < 6; ++s) {
      ASSERT_LE(row[s - 1], row[s]) << "round " << round;
    }
  }
}

// One pair can reach a sorted row at two distances (SQ8 scoring is
// asymmetric); the row keeps the id once, at the smaller distance.
TEST(KnnSetTiled, MergeKeepsEachIdOnceAtItsSmallerDistance) {
  simt::WarpScratch scratch;
  simt::Stats stats;
  simt::Warp w(0, scratch, stats);
  KnnSetArray sets(1, 4);
  const auto submit = [&](std::initializer_list<std::uint64_t> words) {
    simt::Lanes<std::uint64_t> run;
    run.fill(Packed::kEmpty);
    std::copy(words.begin(), words.end(), run.begin() + 3);
    sets.merge_tile(w, 0, run);
  };
  submit({Packed::make(1.0f, 7), Packed::make(3.0f, 8)});
  submit({Packed::make(2.0f, 8), Packed::make(4.0f, 7)});
  const std::vector<std::uint64_t> row(sets.row(0), sets.row(0) + 4);
  EXPECT_EQ(row, (std::vector<std::uint64_t>{Packed::make(1.0f, 7),
                                             Packed::make(2.0f, 8),
                                             Packed::kEmpty, Packed::kEmpty}));
}

/// One side of the merge_tile differential: its own warp, stats and scratch
/// over a one-row set array.
struct TileSide {
  simt::WarpScratch scratch;
  simt::Stats stats;
  simt::Warp w{0, scratch, stats};
  KnnSetArray sets;
  TileSide(std::size_t k, std::span<const std::uint64_t> row) : sets(1, k) {
    sets.restore(row);
  }
};

/// A sorted k-slot row of `filled` distinct ids with distances in [0, 4),
/// padded with kEmpty: the state merges keep a tiled row in.
std::vector<std::uint64_t> random_sorted_row(Rng& rng, std::size_t k,
                                             std::size_t filled) {
  std::vector<std::uint64_t> row;
  std::set<std::uint32_t> ids;
  while (row.size() < filled) {
    const auto id = static_cast<std::uint32_t>(rng.next_below(200));
    if (!ids.insert(id).second) continue;
    row.push_back(Packed::make(rng.next_float() * 4.0f, id));
  }
  std::sort(row.begin(), row.end());
  row.resize(k, Packed::kEmpty);
  return row;
}

/// A run in lane order. Occupied lanes are a prefix, a suffix (the
/// diagonal tile rows) or scattered; their ids are distinct, but may be in
/// the row at another distance. Some lanes repeat a word already in the
/// row, some are non-finite, and `scale` sets how far above the row's
/// distances the rest land, so that the bound rejects whole runs, parts of
/// runs or nothing.
simt::Lanes<std::uint64_t> random_run(Rng& rng,
                                      const std::vector<std::uint64_t>& row,
                                      float scale) {
  simt::Lanes<std::uint64_t> run;
  run.fill(Packed::kEmpty);
  const std::size_t layout = rng.next_below(3);
  const std::size_t cnt = rng.next_below(simt::kWarpSize + 1);
  std::set<std::uint32_t> used;
  for (int l = 0; l < simt::kWarpSize; ++l) {
    const bool occupied =
        layout == 0   ? static_cast<std::size_t>(l) < cnt
        : layout == 1 ? static_cast<std::size_t>(l) >= simt::kWarpSize - cnt
                      : rng.next_below(2) == 0;
    if (!occupied) continue;
    const std::size_t kind = rng.next_below(10);
    if (kind == 0 && !Packed::is_empty(row[0])) {
      const std::uint64_t same = row[rng.next_below(row.size())];
      if (!Packed::is_empty(same) && used.insert(Packed::id(same)).second) {
        run[l] = same;  // the exact packed word the row holds
      }
      continue;
    }
    std::uint32_t id = 0;
    do {
      id = static_cast<std::uint32_t>(rng.next_below(400));
    } while (!used.insert(id).second);
    float dist = rng.next_float() * scale;
    if (kind == 1) {
      const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(), -1.0f};
      dist = bad[rng.next_below(3)];
    }
    run[l] = Packed::make(dist, id);
  }
  return run;
}

// merge_tile against its reference: the whole run bitonic-sorted, then
// merge_sorted_tile. The bound-first path must leave the identical row and
// charge the identical counters, for runs the bound rejects entirely or in
// part, with padding anywhere, non-finite lanes and equal packed words, over
// empty, partial and full rows.
TEST(KnnSetTiled, MergeTileMatchesSortThenMergeReference) {
  Rng rng(2025);
  std::size_t rejected = 0;
  std::size_t merged = 0;
  for (const std::size_t k : {1u, 3u, 8u, 16u, 32u, 45u}) {
    for (int trial = 0; trial < 300; ++trial) {
      const std::size_t filled =
          trial % 3 == 0 ? k : trial % 3 == 1 ? 0 : rng.next_below(k + 1);
      const std::vector<std::uint64_t> row = random_sorted_row(rng, k, filled);
      TileSide ref(k, row);
      TileSide got(k, row);
      for (int step = 0; step < 4; ++step) {
        const std::vector<std::uint64_t> now(got.sets.row(0),
                                             got.sets.row(0) + k);
        const float scale = step % 2 == 0 ? 4.0f : 12.0f;
        const simt::Lanes<std::uint64_t> run = random_run(rng, now, scale);

        simt::Lanes<std::uint64_t> sorted = run;
        simt::bitonic_sort_lanes(ref.w, sorted);
        ref.sets.merge_sorted_tile(ref.w, 0, sorted);
        const std::uint64_t before = got.stats.lock_acquires;
        got.sets.merge_tile(got.w, 0, run);
        (got.stats.lock_acquires == before ? rejected : merged) += 1;

        const std::vector<std::uint64_t> want(ref.sets.row(0),
                                              ref.sets.row(0) + k);
        const std::vector<std::uint64_t> have(got.sets.row(0),
                                              got.sets.row(0) + k);
        ASSERT_EQ(have, want) << "k=" << k << " trial " << trial;

        // Neither submission may differ from the set semantics, which never
        // read the bound: the k smallest of the row and the run's finite
        // lanes, each id once at its smaller word.
        std::map<std::uint32_t, std::uint64_t> best;
        const auto offer = [&best](std::uint64_t v) {
          if (!Packed::is_finite(v)) return;
          auto [it, fresh] = best.emplace(Packed::id(v), v);
          if (!fresh) it->second = std::min(it->second, v);
        };
        for (const std::uint64_t v : now) offer(v);
        for (const std::uint64_t v : run) offer(v);
        std::vector<std::uint64_t> full;
        for (const auto& [id, v] : best) full.push_back(v);
        std::sort(full.begin(), full.end());
        full.resize(k, Packed::kEmpty);
        ASSERT_EQ(have, full) << "k=" << k << " trial " << trial;
        ASSERT_EQ(got.stats.warp_collectives, ref.stats.warp_collectives);
        ASSERT_EQ(got.stats.global_reads, ref.stats.global_reads);
        ASSERT_EQ(got.stats.global_writes, ref.stats.global_writes);
        ASSERT_EQ(got.stats.lock_acquires, ref.stats.lock_acquires);
        ASSERT_EQ(got.stats.nonfinite_dropped, ref.stats.nonfinite_dropped);
        ASSERT_EQ(got.scratch.peak_used(), ref.scratch.peak_used());
      }
    }
  }
  // Both outcomes of the bound check were exercised.
  EXPECT_GT(rejected, 100u);
  EXPECT_GT(merged, 100u);
}

/// The atomic insert with no bound word: scan the whole row for the id and
/// the first worst slot, replace it if cand is smaller. One thread, so the
/// replace needs no CAS.
void insert_scan_only(std::vector<std::uint64_t>& row, std::uint64_t cand) {
  if (!Packed::is_finite(cand)) return;
  std::size_t worst = 0;
  for (std::size_t s = 0; s < row.size(); ++s) {
    if (!Packed::is_empty(row[s]) && Packed::id(row[s]) == Packed::id(cand)) {
      return;
    }
    if (row[s] > row[worst]) worst = s;
  }
  if (cand < row[worst]) row[worst] = cand;
}

std::vector<std::uint64_t> sorted_row(const KnnSetArray& sets, std::size_t p) {
  std::vector<std::uint64_t> row(sets.row(p), sets.row(p) + sets.k());
  std::sort(row.begin(), row.end());
  return row;
}

// insert_atomic against the scan-only rule: the bound may only reject
// candidates the scan rejects too, so the rows hold the same words, and the
// bound never falls below the row's worst. Random streams repeat ids and
// carry non-finite words; rows start empty, partly filled or full.
TEST(KnnSetAtomic, BoundPruneMatchesScanOnlyInsert) {
  Rng rng(2028);
  std::size_t pruned = 0;
  std::size_t scanned = 0;
  for (const std::size_t k : {1u, 3u, 16u, 32u, 45u}) {
    for (int trial = 0; trial < 60; ++trial) {
      const std::size_t filled =
          trial % 3 == 0 ? k : trial % 3 == 1 ? 0 : rng.next_below(k + 1);
      std::vector<std::uint64_t> ref(k, Packed::kEmpty);
      for (std::size_t s = 0; s < filled; ++s) {
        ref[s] = Packed::make(rng.next_float() * 4.0f,
                              static_cast<std::uint32_t>(1000 + s));
      }
      KnnSetArray sets(1, k);
      sets.restore(ref);
      simt::WarpScratch scratch;
      simt::Stats stats;
      simt::Warp w(0, scratch, stats);
      const std::uint32_t id_range = static_cast<std::uint32_t>(2 * k + 4);
      for (int i = 0; i < 200; ++i) {
        float dist = rng.next_float() * 6.0f;
        if (rng.next_below(12) == 0) {
          const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                               std::numeric_limits<float>::infinity(), -1.0f};
          dist = bad[rng.next_below(3)];
        }
        // Ids from a small range repeat, and some name the initial entries.
        const auto id = static_cast<std::uint32_t>(
            rng.next_below(4) == 0 ? 1000 + rng.next_below(filled + 1)
                                   : rng.next_below(id_range));
        const std::uint64_t cand = Packed::make(dist, id);
        const std::uint64_t reads = stats.global_reads;
        sets.insert_atomic(w, 0, cand);
        insert_scan_only(ref, cand);
        if (Packed::is_finite(cand)) {
          (stats.global_reads - reads == sizeof(std::uint64_t) ? pruned
                                                              : scanned) += 1;
        }

        std::vector<std::uint64_t> want = ref;
        std::sort(want.begin(), want.end());
        ASSERT_EQ(sorted_row(sets, 0), want)
            << "k=" << k << " trial " << trial << " insert " << i;
        ASSERT_GE(sets.bounds()[0], want.back())
            << "k=" << k << " trial " << trial << " insert " << i;
      }
    }
  }
  // Both outcomes of the bound check were exercised.
  EXPECT_GT(pruned, 1000u);
  EXPECT_GT(scanned, 1000u);
}

// Host-side rewrites leave every bound at or above its row's worst: restore
// recomputes the bounds (here above the ones inserts had lowered), grow adds
// kEmpty bounds and shrink keeps the surviving rows' bounds. A candidate
// between the old and the new worst must land after each.
TEST(KnnSetAtomic, RestoreGrowShrinkKeepBoundsValid) {
  simt::WarpScratch scratch;
  simt::Stats stats;
  simt::Warp w(0, scratch, stats);
  const std::size_t k = 3;
  KnnSetArray sets(2, k);
  const auto bounds_hold = [&] {
    ASSERT_EQ(sets.bounds().size(), sets.num_points());
    for (std::size_t p = 0; p < sets.num_points(); ++p) {
      EXPECT_GE(sets.bounds()[p], sorted_row(sets, p).back()) << "row " << p;
    }
  };
  for (std::uint32_t p = 0; p < 2; ++p) {
    for (std::uint32_t i = 1; i <= 4; ++i) {
      sets.insert_atomic(w, p, Packed::make(static_cast<float>(i), 10 + i));
    }
  }
  EXPECT_EQ(sets.bounds()[0], Packed::make(3.0f, 13));
  bounds_hold();

  // Row 0 restored to a larger worst, row 1 to a short row.
  std::vector<std::uint64_t> image = {
      Packed::make(5.0f, 20), Packed::make(6.0f, 21), Packed::make(7.0f, 22),
      Packed::make(1.0f, 11), Packed::kEmpty,         Packed::kEmpty};
  sets.restore(image);
  bounds_hold();
  sets.insert_atomic(w, 0, Packed::make(6.5f, 30));
  sets.insert_atomic(w, 1, Packed::make(8.0f, 31));
  EXPECT_EQ(sorted_row(sets, 0).back(), Packed::make(6.5f, 30));
  EXPECT_EQ(sorted_row(sets, 1)[1], Packed::make(8.0f, 31));
  bounds_hold();

  sets.grow(4);
  bounds_hold();
  EXPECT_EQ(sets.bounds()[3], Packed::kEmpty);
  sets.insert_atomic(w, 3, Packed::make(9.0f, 32));
  EXPECT_EQ(sorted_row(sets, 3)[0], Packed::make(9.0f, 32));
  bounds_hold();

  const std::uint64_t kept = sets.bounds()[0];
  sets.shrink(1);
  bounds_hold();
  EXPECT_EQ(sets.bounds()[0], kept);
}

TEST(KnnSetAtomic, ContentionIsMeasured) {
  ThreadPool pool(4);
  if (pool.thread_count() < 2) GTEST_SKIP() << "needs >= 2 threads";
  KnnSetArray sets(1, 4);
  simt::StatsAccumulator acc;
  simt::launch_warps(pool, 256, &acc, [&](simt::Warp& w) {
    for (std::uint32_t i = 0; i < 64; ++i) {
      const auto id = w.id() * 64 + i + 1;
      sets.insert_atomic(w, 0, Packed::make(1.0f / (id + 1), id));
    }
  });
  EXPECT_GT(acc.total().atomic_ops, 0u);
}

}  // namespace
}  // namespace wknng::core
