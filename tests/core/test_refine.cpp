#include "core/refine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/graph_metrics.hpp"
#include "core/leaf_knn.hpp"
#include "core/rp_forest.hpp"
#include "common/rng.hpp"
#include "simt/fault.hpp"
#include "simt/launch.hpp"
#include "simt/packed.hpp"
#include "simt/visited.hpp"
#include "data/synthetic.hpp"
#include "exact/brute_force.hpp"
#include "exact/recall.hpp"

namespace wknng::core {
namespace {

KnnSetArray seeded_sets(ThreadPool& pool, const FloatMatrix& pts,
                        std::size_t k, Strategy strategy) {
  KnnSetArray sets(pts.rows(), k);
  const Buckets forest = build_rp_forest(pool, pts, 2, 24, 3);
  LeafReport report;
  leaf_knn_resilient(pool, pts, forest, strategy, sets, nullptr, 48 * 1024, {},
                     /*max_retries=*/0, /*quarantined=*/{}, report,
                     simt::RowScorer(pts));
  return sets;
}

struct RefGather {
  std::vector<std::uint32_t> ids;
  bool truncated = false;
  std::size_t skipped = 0;  ///< ids of the truncated gather left out
};

/// The reference gather: every neighbor of p's forward and reverse
/// neighbors except p, sorted, deduplicated, minus p's forward neighbors,
/// truncated to the cap; then minus every id reached through an old p-q
/// entry and an old q-r entry.
RefGather reference_gather(const Adjacency& adj, std::uint32_t p,
                           std::size_t cap) {
  using A = Adjacency;
  std::vector<std::uint32_t> raw;
  std::vector<std::uint32_t> skip;
  const auto push_neighbors_of = [&](std::uint32_t e) {
    for (const std::uint32_t f : adj.forward(A::id(e))) {
      raw.push_back(A::id(f));
      if (A::old(e) && A::old(f)) skip.push_back(A::id(f));
    }
  };
  for (const std::uint32_t e : adj.forward(p)) push_neighbors_of(e);
  for (const std::uint32_t e : adj.reverse(p)) push_neighbors_of(e);
  std::sort(raw.begin(), raw.end());
  raw.erase(std::unique(raw.begin(), raw.end()), raw.end());
  std::vector<std::uint32_t> fwd;
  for (const std::uint32_t e : adj.forward(p)) fwd.push_back(A::id(e));
  std::vector<std::uint32_t> full;
  for (const std::uint32_t r : raw) {
    if (r != p && std::find(fwd.begin(), fwd.end(), r) == fwd.end()) {
      full.push_back(r);
    }
  }
  RefGather out;
  out.truncated = full.size() > cap;
  if (out.truncated) full.resize(cap);
  for (const std::uint32_t r : full) {
    if (std::find(skip.begin(), skip.end(), r) == skip.end()) {
      out.ids.push_back(r);
    }
  }
  out.skipped = full.size() - out.ids.size();
  return out;
}

TEST(Adjacency, ForwardMatchesSnapshotIds) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(150, 8, 5, 0.1f, 7);
  KnnSetArray sets = seeded_sets(pool, pts, 5, Strategy::kBasic);
  const Adjacency adj = snapshot_adjacency(pool, sets, 0);
  ASSERT_EQ(adj.n, 150u);
  for (std::uint32_t p = 0; p < 150; ++p) {
    std::vector<std::uint32_t> expect(5);
    const std::size_t cnt = sets.snapshot_ids(p, expect.data());
    const auto fwd = adj.forward(p);
    ASSERT_EQ(fwd.size(), cnt);
    for (std::size_t i = 0; i < cnt; ++i) EXPECT_EQ(fwd[i], expect[i]);
  }
}

TEST(Adjacency, ReverseIsTransposeOfForward) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(120, 6, 4, 0.1f, 9);
  KnnSetArray sets = seeded_sets(pool, pts, 4, Strategy::kBasic);
  const Adjacency adj = snapshot_adjacency(pool, sets, /*reverse_cap=*/1000);
  // Uncapped: (p -> q) forward iff (q -> p) reverse.
  std::size_t fwd_edges = 0, rev_edges = 0;
  for (std::uint32_t p = 0; p < 120; ++p) {
    fwd_edges += adj.forward(p).size();
    rev_edges += adj.reverse(p).size();
    for (std::uint32_t q : adj.forward(p)) {
      const auto rev = adj.reverse(q);
      EXPECT_NE(std::find(rev.begin(), rev.end(), p), rev.end())
          << p << " -> " << q;
    }
  }
  EXPECT_EQ(fwd_edges, rev_edges);
}

TEST(Adjacency, ReverseCapIsRespected) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(200, 6, 2, 0.05f, 11);
  KnnSetArray sets = seeded_sets(pool, pts, 6, Strategy::kBasic);
  const std::size_t cap = 3;
  const Adjacency adj = snapshot_adjacency(pool, sets, cap);
  for (std::uint32_t p = 0; p < 200; ++p) {
    EXPECT_LE(adj.reverse(p).size(), cap);
  }
}

/// The serial transpose: sources in id order, each list cut at the cap.
std::vector<std::vector<std::uint32_t>> serial_reverse(const Adjacency& adj,
                                                       std::size_t cap) {
  std::vector<std::vector<std::uint32_t>> rev(adj.n);
  for (std::uint32_t p = 0; p < adj.n; ++p) {
    for (const std::uint32_t e : adj.forward(p)) {
      auto& list = rev[Adjacency::id(e)];
      if (list.size() < cap) list.push_back(p);
    }
  }
  return rev;
}

std::vector<std::uint32_t> ids_of(std::span<const std::uint32_t> entries) {
  std::vector<std::uint32_t> ids;
  for (const std::uint32_t e : entries) ids.push_back(Adjacency::id(e));
  return ids;
}

TEST(Adjacency, ParallelTransposeKeepsTheSerialListsAndCapSurvivors) {
  const FloatMatrix pts = data::make_clusters(900, 6, 3, 0.05f, 31);
  ThreadPool seed_pool(2);
  const std::size_t k = 6;
  const KnnSetArray sets = seeded_sets(seed_pool, pts, k, Strategy::kTiled);
  for (const std::size_t threads : {1, 4}) {
    ThreadPool pool(threads);
    for (const std::size_t cap : {2, 6, 1000}) {
      const Adjacency adj = snapshot_adjacency(pool, sets, cap);
      const auto want = serial_reverse(adj, cap);
      std::vector<std::size_t> degree(adj.n, 0);
      for (std::uint32_t p = 0; p < adj.n; ++p) {
        for (const std::uint32_t e : adj.forward(p)) ++degree[e];
      }
      std::size_t capped = 0;
      for (std::uint32_t q = 0; q < adj.n; ++q) {
        ASSERT_EQ(ids_of(adj.reverse(q)), want[q])
            << "threads " << threads << " cap " << cap << " point " << q;
        const bool flag = (adj.load_meta(q) & Adjacency::kRevCapped) != 0;
        EXPECT_EQ(flag, degree[q] > cap) << "point " << q;
        capped += flag ? 1 : 0;
      }
      if (cap == 2) {
        EXPECT_GT(capped, 0u);
      }
      if (cap == 1000) {
        EXPECT_EQ(capped, 0u);
      }
    }
  }
}

// --- Old flags: what a refresh marks ------------------------------------

std::vector<std::vector<std::uint32_t>> forward_ids(const Adjacency& adj) {
  std::vector<std::vector<std::uint32_t>> rows(adj.n);
  for (std::uint32_t p = 0; p < adj.n; ++p) rows[p] = ids_of(adj.forward(p));
  return rows;
}

bool contains_id(const std::vector<std::uint32_t>& ids, std::uint32_t id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

std::vector<bool> meta_flags(const Adjacency& adj, std::uint32_t flag) {
  std::vector<bool> out(adj.n);
  for (std::uint32_t p = 0; p < adj.n; ++p) {
    out[p] = (adj.load_meta(p) & flag) != 0;
  }
  return out;
}

/// Checks every reverse entry q of p against the rule: old iff p's entry in
/// fwd(q) is old and p's previous list was neither capped nor incomplete.
void expect_reverse_rule(const Adjacency& adj,
                         const std::vector<bool>& prev_capped,
                         const std::vector<bool>& prev_incomplete) {
  for (std::uint32_t p = 0; p < adj.n; ++p) {
    for (const std::uint32_t e : adj.reverse(p)) {
      const auto fwd_q = adj.forward(Adjacency::id(e));
      const auto it = std::find_if(fwd_q.begin(), fwd_q.end(), [&](auto f) {
        return Adjacency::id(f) == p;
      });
      ASSERT_NE(it, fwd_q.end());
      const bool want =
          Adjacency::old(*it) && !prev_capped[p] && !prev_incomplete[p];
      EXPECT_EQ(Adjacency::old(e), want)
          << "point " << p << " reverse " << Adjacency::id(e);
    }
  }
}

TEST(AdjacencyFlags, RefreshFlagsExactlyTheEntriesThePreviousRowsHeld) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(300, 8, 4, 0.1f, 37);
  BuildParams params;
  params.k = 6;
  params.strategy = Strategy::kAtomic;
  KnnSetArray sets = seeded_sets(pool, pts, params.k, params.strategy);
  Adjacency adj;
  refresh_adjacency(pool, sets, 0, adj);
  for (const std::uint32_t e : adj.fwd) {
    EXPECT_TRUE(e == Adjacency::kInvalidId || !Adjacency::old(e));
  }
  for (const std::uint32_t e : adj.rev) EXPECT_FALSE(Adjacency::old(e));

  const auto before = forward_ids(adj);
  const auto capped = meta_flags(adj, Adjacency::kRevCapped);
  refine_round(pool, pts, adj, params, sets, nullptr, simt::RowScorer(pts));
  const auto incomplete = meta_flags(adj, Adjacency::kIncomplete);
  ASSERT_EQ(std::count(incomplete.begin(), incomplete.end(), true), 0)
      << "no gather hits the 512 cap";
  refresh_adjacency(pool, sets, 0, adj);

  std::size_t old = 0;
  std::size_t fresh = 0;
  std::vector<std::uint32_t> now(params.k);
  for (std::uint32_t p = 0; p < adj.n; ++p) {
    now.resize(sets.snapshot_ids(p, now.data()));
    ASSERT_EQ(ids_of(adj.forward(p)), now) << "point " << p;
    now.resize(params.k);
    for (const std::uint32_t e : adj.forward(p)) {
      EXPECT_EQ(Adjacency::old(e), contains_id(before[p], Adjacency::id(e)))
          << "point " << p << " entry " << Adjacency::id(e);
      ++(Adjacency::old(e) ? old : fresh);
    }
  }
  EXPECT_GT(old, 0u);
  EXPECT_GT(fresh, 0u);
  expect_reverse_rule(adj, capped, incomplete);
}

TEST(AdjacencyFlags, ReverseEntriesOfACappedListStartNew) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(200, 6, 2, 0.05f, 11);
  BuildParams params;
  params.k = 6;
  params.strategy = Strategy::kTiled;
  params.reverse_cap = 3;
  KnnSetArray sets = seeded_sets(pool, pts, params.k, params.strategy);
  Adjacency adj;
  refresh_adjacency(pool, sets, params.reverse_cap, adj);
  refine_round(pool, pts, adj, params, sets, nullptr, simt::RowScorer(pts));
  // The sets have settled, so the next two snapshots mostly agree.
  refresh_adjacency(pool, sets, params.reverse_cap, adj);
  const auto capped = meta_flags(adj, Adjacency::kRevCapped);
  const auto incomplete = meta_flags(adj, Adjacency::kIncomplete);
  refresh_adjacency(pool, sets, params.reverse_cap, adj);
  expect_reverse_rule(adj, capped, incomplete);

  std::size_t capped_points = 0;
  std::size_t old_reverse = 0;
  for (std::uint32_t p = 0; p < adj.n; ++p) {
    for (const std::uint32_t e : adj.reverse(p)) {
      if (capped[p]) {
        EXPECT_FALSE(Adjacency::old(e)) << "point " << p;
      }
      old_reverse += Adjacency::old(e) ? 1 : 0;
    }
    capped_points += capped[p] ? 1 : 0;
  }
  EXPECT_GT(capped_points, 0u);
  EXPECT_GT(old_reverse, 0u);
}

TEST(AdjacencyFlags, AnIncompletePointGetsAllNewEdges) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(300, 8, 4, 0.1f, 41);
  KnnSetArray sets = seeded_sets(pool, pts, 6, Strategy::kTiled);
  Adjacency adj;
  refresh_adjacency(pool, sets, 0, adj);
  refresh_adjacency(pool, sets, 0, adj);  // unchanged sets: all held before
  const auto capped = meta_flags(adj, Adjacency::kRevCapped);
  const std::vector<std::uint32_t> marked = {3, 50, 120, 299};
  for (const std::uint32_t p : marked) adj.mark_incomplete(p);
  const auto incomplete = meta_flags(adj, Adjacency::kIncomplete);
  refresh_adjacency(pool, sets, 0, adj);

  for (std::uint32_t p = 0; p < adj.n; ++p) {
    for (const std::uint32_t e : adj.forward(p)) {
      EXPECT_EQ(Adjacency::old(e), !incomplete[p]) << "point " << p;
    }
    if (!incomplete[p]) continue;
    for (const std::uint32_t e : adj.reverse(p)) {
      EXPECT_FALSE(Adjacency::old(e)) << "point " << p;
    }
  }
  expect_reverse_rule(adj, capped, incomplete);
  // The refresh consumed the marks.
  for (const bool flag : meta_flags(adj, Adjacency::kIncomplete)) {
    EXPECT_FALSE(flag);
  }
}

// --- Which points a round leaves incomplete ------------------------------

std::size_t count_incomplete(const Adjacency& adj) {
  const auto flags = meta_flags(adj, Adjacency::kIncomplete);
  return static_cast<std::size_t>(std::count(flags.begin(), flags.end(), true));
}

TEST(RefineIncomplete, TruncatedGathersMarkTheirPoints) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(300, 8, 4, 0.1f, 43);
  BuildParams params;
  params.k = 6;
  params.strategy = Strategy::kBasic;
  params.refine_sample = 30;
  KnnSetArray sets = seeded_sets(pool, pts, params.k, params.strategy);
  Adjacency adj = snapshot_adjacency(pool, sets, 0);
  std::vector<bool> over_cap(adj.n);
  for (std::uint32_t p = 0; p < adj.n; ++p) {
    over_cap[p] = reference_gather(adj, p, adj.n).ids.size() > 30;
  }
  refine_round(pool, pts, adj, params, sets, nullptr, simt::RowScorer(pts));
  EXPECT_EQ(meta_flags(adj, Adjacency::kIncomplete), over_cap);
  const auto truncated = std::count(over_cap.begin(), over_cap.end(), true);
  EXPECT_GT(truncated, 0);
  EXPECT_LT(truncated, static_cast<std::ptrdiff_t>(adj.n));
}

TEST(RefineIncomplete, SkippedPointsAreMarked) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(300, 8, 4, 0.1f, 47);
  BuildParams params;
  params.k = 6;
  params.strategy = Strategy::kAtomic;
  KnnSetArray sets = seeded_sets(pool, pts, params.k, params.strategy);
  Adjacency adj = snapshot_adjacency(pool, sets, 0);
  simt::FaultInjector faults(simt::fault_spec_from_string("warp-abort:5:1:7"));
  std::size_t skipped = 0;
  {
    simt::ScopedFaultInjection scope(faults);
    skipped =
        refine_round(pool, pts, adj, params, sets, nullptr, simt::RowScorer(pts));
  }
  EXPECT_EQ(skipped, 7u);
  EXPECT_EQ(count_incomplete(adj), 7u);
}

TEST(RefineIncomplete, NonFiniteDropsMarkTheirPoints) {
  ThreadPool pool(1);
  const FloatMatrix pts = data::make_clusters(300, 8, 4, 0.1f, 53);
  for (const Strategy strategy : {Strategy::kAtomic, Strategy::kTiled}) {
    BuildParams params;
    params.k = 6;
    params.strategy = strategy;
    KnnSetArray sets = seeded_sets(pool, pts, params.k, params.strategy);
    Adjacency adj = snapshot_adjacency(pool, sets, 0);
    simt::FaultInjector faults(
        simt::fault_spec_from_string("corrupt-distance:5:1:4"));
    simt::StatsAccumulator acc;
    {
      simt::ScopedFaultInjection scope(faults);
      refine_round(pool, pts, adj, params, sets, &acc, simt::RowScorer(pts));
    }
    EXPECT_EQ(acc.total().nonfinite_dropped, 4u) << strategy_name(strategy);
    const std::size_t marked = count_incomplete(adj);
    EXPECT_GE(marked, 1u) << strategy_name(strategy);
    EXPECT_LE(marked, 4u) << strategy_name(strategy);
  }
}

class RefineTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(RefineTest, ImprovesRecall) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(400, 16, 8, 0.15f, 13);
  const std::size_t k = 8;

  BuildParams params;
  params.k = k;
  params.strategy = GetParam();
  params.refine_sample = 256;

  KnnSetArray sets = seeded_sets(pool, pts, k, params.strategy);
  const KnnGraph truth = exact::brute_force_knng(pool, pts, k);
  const double recall_before = exact::recall(sets.extract(pool), truth);

  Adjacency adj = snapshot_adjacency(pool, sets, params.reverse_cap);
  refine_round(pool, pts, adj, params, sets, nullptr, simt::RowScorer(pts));
  const double recall_after = exact::recall(sets.extract(pool), truth);

  EXPECT_GT(recall_after, recall_before);
}

TEST_P(RefineTest, NeverDegradesRowQuality) {
  // Refinement only inserts better candidates, so every row's worst distance
  // must be monotonically non-increasing.
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(200, 10, 15);
  const std::size_t k = 5;
  BuildParams params;
  params.k = k;
  params.strategy = GetParam();

  KnnSetArray sets = seeded_sets(pool, pts, k, params.strategy);
  const KnnGraph before = sets.extract(pool);
  Adjacency adj = snapshot_adjacency(pool, sets, 0);
  refine_round(pool, pts, adj, params, sets, nullptr, simt::RowScorer(pts));
  const KnnGraph after = sets.extract(pool);

  for (std::size_t p = 0; p < pts.rows(); ++p) {
    const std::size_t nb = before.row_size(p);
    const std::size_t na = after.row_size(p);
    EXPECT_GE(na, nb) << "point " << p;
    for (std::size_t s = 0; s < nb; ++s) {
      EXPECT_LE(after.row(p)[s].dist, before.row(p)[s].dist)
          << "point " << p << " slot " << s;
    }
  }
}

TEST_P(RefineTest, GraphStaysValidAfterRounds) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(300, 12, 6, 0.1f, 17);
  BuildParams params;
  params.k = 6;
  params.strategy = GetParam();
  KnnSetArray sets = seeded_sets(pool, pts, params.k, params.strategy);
  for (int round = 0; round < 3; ++round) {
    Adjacency adj = snapshot_adjacency(pool, sets, 0);
    refine_round(pool, pts, adj, params, sets, nullptr, simt::RowScorer(pts));
    EXPECT_TRUE(sets.extract(pool).check_invariants()) << "round " << round;
  }
}

TEST_P(RefineTest, SampleCapBoundsWork) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(150, 8, 19);
  BuildParams params;
  params.k = 5;
  params.strategy = GetParam();
  params.refine_sample = 4;  // extremely tight cap
  KnnSetArray sets = seeded_sets(pool, pts, params.k, params.strategy);
  Adjacency adj = snapshot_adjacency(pool, sets, 0);
  simt::StatsAccumulator acc;
  refine_round(pool, pts, adj, params, sets, &acc, simt::RowScorer(pts));
  // At most 4 candidates per point were scored.
  EXPECT_LE(acc.total().distance_evals, pts.rows() * 4u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, RefineTest,
                         ::testing::Values(Strategy::kBasic, Strategy::kAtomic,
                                           Strategy::kTiled),
                         [](const auto& info) {
                           return strategy_name(info.param);
                         });

// --- Candidate gather: differential against the sort-unique reference ----

/// A random adjacency over n points whose ids are drawn from `pool_size`
/// distinct values in [lo, n): a small pool makes rows duplicate-heavy.
/// Forward rows take 0..k entries (about one in eight is empty) and may
/// repeat ids or name their own point; reverse rows take 0..rev_cap. About
/// two entries in three carry the old flag.
Adjacency random_adjacency(std::size_t n, std::size_t k, std::size_t rev_cap,
                           std::uint32_t lo, std::size_t pool_size,
                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> pool(pool_size);
  for (auto& id : pool) {
    id = lo + static_cast<std::uint32_t>(rng.next_below(n - lo));
  }
  const auto draw = [&] {
    const std::uint32_t flag = rng.next_below(3) == 0 ? 0 : Adjacency::kOld;
    return pool[rng.next_below(pool.size())] | flag;
  };

  Adjacency adj;
  adj.n = n;
  adj.k = k;
  adj.fwd.assign(n * k, Adjacency::kInvalidId);
  adj.meta.assign(n, 0);
  adj.rev_offsets.assign(n + 1, 0);
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t len = rng.next_below(8) == 0 ? 0 : 1 + rng.next_below(k);
    adj.meta[p] = static_cast<std::uint32_t>(len);
    for (std::size_t s = 0; s < len; ++s) adj.fwd[p * k + s] = draw();
    const std::size_t rev_len = rng.next_below(rev_cap + 1);
    for (std::size_t s = 0; s < rev_len; ++s) adj.rev.push_back(draw());
    adj.rev_offsets[p + 1] = static_cast<std::uint32_t>(adj.rev.size());
  }
  return adj;
}

struct GatherCase {
  const char* name;
  std::size_t n;
  std::uint32_t lo;  ///< smallest id: ids in [lo, n) need its radix digits
  std::size_t pool_size;
  std::size_t cap;
};

void PrintTo(const GatherCase& c, std::ostream* os) { *os << c.name; }

class GatherCandidatesTest : public ::testing::TestWithParam<GatherCase> {};

TEST_P(GatherCandidatesTest, MatchesSortUniqueReferenceAndLeavesBitmapClear) {
  const GatherCase& c = GetParam();
  const std::size_t k = 8;
  const Adjacency adj = random_adjacency(c.n, k, /*rev_cap=*/6, c.lo,
                                         c.pool_size, 1000 + c.n + c.cap);
  simt::WarpScratch scratch(1 << 20);
  simt::Stats stats;
  simt::Warp w(0, scratch, stats);
  simt::VisitedBitmap& seen = simt::thread_visited(c.n);
  ASSERT_TRUE(seen.all_clear());

  std::size_t nonempty = 0;
  std::size_t truncated = 0;
  std::size_t skipped = 0;
  for (std::uint32_t p = c.lo; p < c.n; p += 1 + (c.n - c.lo) / 400) {
    scratch.reset();
    const Candidates got = gather_candidates(w, adj, p, c.cap);
    const RefGather want = reference_gather(adj, p, c.cap);
    ASSERT_EQ(std::vector<std::uint32_t>(got.ids.begin(), got.ids.end()),
              want.ids)
        << c.name << " point " << p;
    ASSERT_EQ(got.truncated, want.truncated) << c.name << " point " << p;
    ASSERT_TRUE(seen.all_clear()) << c.name << " point " << p;
    nonempty += got.ids.empty() ? 0 : 1;
    truncated += got.truncated ? 1 : 0;
    skipped += want.skipped;
  }
  EXPECT_GT(nonempty, 0u);
  EXPECT_GT(skipped, 0u);
  if (c.cap <= 4) {
    EXPECT_GT(truncated, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomAdjacency, GatherCandidatesTest,
    ::testing::Values(
        GatherCase{"one_digit", 200, 0, 150, 512},
        GatherCase{"one_digit_cap4", 200, 0, 150, 4},
        GatherCase{"duplicate_heavy", 200, 0, 6, 512},
        GatherCase{"duplicate_heavy_cap4", 200, 0, 6, 4},
        GatherCase{"two_digits", 5000, 256, 4000, 512},
        GatherCase{"two_digits_cap4", 5000, 256, 4000, 4},
        GatherCase{"three_digits", 66500, 65536, 900, 512},
        GatherCase{"three_digits_cap4", 66500, 65536, 900, 4}),
    [](const ::testing::TestParamInfo<GatherCase>& info) {
      return std::string(info.param.name);
    });

// Every worker's bitmap is clear after every point of a threaded launch,
// across launches, and after the sets grow to more points.
TEST(GatherCandidates, BitmapStaysClearAcrossLaunchesAndGrowth) {
  ThreadPool pool(3);
  const std::size_t k = 6;
  FloatMatrix pts = data::make_clusters(700, 8, 5, 0.1f, 23);
  KnnSetArray sets = seeded_sets(pool, pts, k, Strategy::kTiled);

  const auto check_launch = [&](const Adjacency& adj, std::size_t cap) {
    std::atomic<std::size_t> mismatches{0};
    simt::LaunchConfig config;
    config.scratch_bytes = 1 << 18;
    simt::launch_warps(pool, adj.n, config, nullptr, [&](simt::Warp& w) {
      const auto p = static_cast<std::uint32_t>(w.id());
      const Candidates got = gather_candidates(w, adj, p, cap);
      const RefGather want = reference_gather(adj, p, cap);
      if (std::vector<std::uint32_t>(got.ids.begin(), got.ids.end()) !=
              want.ids ||
          got.truncated != want.truncated ||
          !simt::thread_visited(adj.n).all_clear()) {
        mismatches.fetch_add(1);
      }
    });
    return mismatches.load();
  };

  BuildParams params;
  params.k = k;
  params.strategy = Strategy::kTiled;
  params.schedule = {simt::SchedulePolicy::kSequential, 0};
  // One adjacency refreshed in place, so later rounds carry old flags.
  Adjacency adj;
  for (int round = 0; round < 3; ++round) {
    refresh_adjacency(pool, sets, 0, adj);
    EXPECT_EQ(check_launch(adj, 4), 0u) << "round " << round;
    EXPECT_EQ(check_launch(adj, 512), 0u) << "round " << round;
    // On the calling thread.
    refine_round(pool, pts, adj, params, sets, nullptr, simt::RowScorer(pts));
    EXPECT_TRUE(simt::thread_visited(pts.rows()).all_clear());
  }

  // Grow to more points (new rows start empty), then refine again.
  const std::size_t grown = 1500;
  FloatMatrix more = data::make_clusters(grown, 8, 5, 0.1f, 23);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    std::copy(pts.row(i).begin(), pts.row(i).end(), more.row(i).begin());
  }
  sets.grow(grown);
  refresh_adjacency(pool, sets, 0, adj);
  EXPECT_EQ(check_launch(adj, 512), 0u);
  refine_round(pool, more, adj, params, sets, nullptr, simt::RowScorer(more));
  EXPECT_TRUE(simt::thread_visited(grown).all_clear());
}

// --- Oracle: the flag-free refine loop ---------------------------------

/// The flag-free refine round the skip must reproduce: a fresh snapshot,
/// the full gather truncated to the sample, and every candidate scored with
/// the strategy's kernel shape.
void reference_round(ThreadPool& pool, const FloatMatrix& pts,
                     const BuildParams& params, KnnSetArray& sets,
                     simt::StatsAccumulator& acc) {
  const Adjacency adj = snapshot_adjacency(pool, sets, params.reverse_cap);
  const simt::RowScorer scorer(pts);
  const bool tiled = params.strategy == Strategy::kTiled ||
                     params.strategy == Strategy::kShared;
  simt::LaunchConfig config;
  config.scratch_bytes = 1 << 20;
  config.schedule = params.schedule;
  simt::launch_warps(pool, adj.n, config, &acc, [&](simt::Warp& w) {
    const auto p = static_cast<std::uint32_t>(w.id());
    const std::vector<std::uint32_t> cands =
        reference_gather(adj, p, params.refine_sample).ids;
    if (cands.empty()) return;
    const simt::RowScorer::Query q = scorer.prepare(w, pts.row(p), {});
    if (!tiled) {
      for (const std::uint32_t r : cands) {
        sets.insert(w, params.strategy, p,
                    simt::Packed::make(scorer.pair(w, q, r), r));
      }
      return;
    }
    for (std::size_t t0 = 0; t0 < cands.size(); t0 += simt::kWarpSize) {
      const std::size_t cnt =
          std::min<std::size_t>(simt::kWarpSize, cands.size() - t0);
      simt::Lanes<std::uint32_t> ids{};
      simt::Lanes<bool> active{};
      for (std::size_t l = 0; l < cnt; ++l) {
        ids[l] = cands[t0 + l];
        active[l] = true;
      }
      const simt::Lanes<float> dists = scorer.lanes(w, q, ids, active);
      simt::Lanes<std::uint64_t> run;
      run.fill(simt::Packed::kEmpty);
      for (std::size_t l = 0; l < cnt; ++l) {
        run[l] = simt::Packed::make(dists[l], ids[l]);
      }
      sets.merge_tile(w, p, run);
    }
  });
}

struct OracleCase {
  Strategy strategy;
  std::size_t iters;
  std::size_t sample;
  std::size_t threads;
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << strategy_name(c.strategy) << " iters " << c.iters << " sample "
      << c.sample << " threads " << c.threads;
}

class RefineOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(RefineOracle, SkippingReproducesTheFlagFreeLoop) {
  const OracleCase& c = GetParam();
  ThreadPool pool(c.threads);
  const FloatMatrix pts = data::make_clusters(600, 16, 6, 0.2f, 5);
  BuildParams params;
  params.k = 8;
  params.strategy = c.strategy;
  params.refine_sample = c.sample;

  KnnSetArray sets = seeded_sets(pool, pts, params.k, params.strategy);
  KnnSetArray reference(sets.num_points(), sets.k());
  reference.restore(sets.words());

  simt::StatsAccumulator got_acc;
  simt::StatsAccumulator want_acc;
  Adjacency adj;
  for (std::size_t round = 0; round < c.iters; ++round) {
    refresh_adjacency(pool, sets, params.reverse_cap, adj);
    refine_round(pool, pts, adj, params, sets, &got_acc, simt::RowScorer(pts));
    reference_round(pool, pts, params, reference, want_acc);
  }

  const KnnGraph got = sets.extract(pool);
  const KnnGraph want = reference.extract(pool);
  ASSERT_EQ(got.num_points(), want.num_points());
  for (std::size_t p = 0; p < got.num_points(); ++p) {
    ASSERT_EQ(got.row_size(p), want.row_size(p)) << "point " << p;
    for (std::size_t s = 0; s < got.row_size(p); ++s) {
      ASSERT_EQ(got.row(p)[s].id, want.row(p)[s].id) << "point " << p;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got.row(p)[s].dist),
                std::bit_cast<std::uint32_t>(want.row(p)[s].dist))
          << "point " << p;
    }
  }
  const std::uint64_t got_evals = got_acc.total().distance_evals;
  const std::uint64_t want_evals = want_acc.total().distance_evals;
  // The 512 sample holds every gather, so round 2 skips what round 1 scored.
  if (c.sample == 512) {
    EXPECT_LT(got_evals, want_evals);
  } else {
    EXPECT_LE(got_evals, want_evals);
  }
}

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  for (const Strategy s : {Strategy::kBasic, Strategy::kAtomic,
                           Strategy::kTiled, Strategy::kShared}) {
    for (const std::size_t iters : {2, 3}) {
      for (const std::size_t sample : {24, 512}) {
        for (const std::size_t threads : {1, 4}) {
          cases.push_back({s, iters, sample, threads});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Fp32, RefineOracle, ::testing::ValuesIn(oracle_cases()),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      const OracleCase& c = info.param;
      return std::string(strategy_name(c.strategy)) + "_iters" +
             std::to_string(c.iters) + "_sample" + std::to_string(c.sample) +
             "_threads" + std::to_string(c.threads);
    });

}  // namespace
}  // namespace wknng::core
