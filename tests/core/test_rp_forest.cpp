#include "core/rp_forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "data/synthetic.hpp"

namespace wknng::core {
namespace {

/// Every tree must partition the point set: each id appears exactly once.
void expect_partition(const Buckets& b, std::size_t n) {
  std::vector<int> seen(n, 0);
  for (std::uint32_t id : b.ids) {
    ASSERT_LT(id, n);
    ++seen[id];
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(seen[i], 1) << "point " << i;
  }
}

/// Reference forest: the tree-at-a-time level loop the forest builder
/// replaced. Each tree keeps its own permutation; per level, every active
/// node draws its direction, every row of the node is projected with the
/// ascending-j float sum, and the nodes are split one at a time by
/// nth_element at the positional median. Leaves are emitted level by level,
/// trees one after another.
Buckets reference_forest(const FloatMatrix& points, std::size_t num_trees,
                         std::size_t leaf_size, std::uint64_t seed) {
  struct Segment {
    std::uint32_t begin;
    std::uint32_t end;
  };
  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();
  Buckets out;
  for (std::size_t tree = 0; tree < num_trees; ++tree) {
    std::vector<std::uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    if (n <= leaf_size) {
      out.ids.insert(out.ids.end(), perm.begin(), perm.end());
      out.offsets.push_back(static_cast<std::uint32_t>(out.ids.size()));
      continue;
    }
    std::vector<float> proj(n, 0.0f);
    std::vector<Segment> active{{0, static_cast<std::uint32_t>(n)}};
    for (std::size_t level = 0; !active.empty(); ++level) {
      std::vector<Segment> next;
      for (std::size_t s = 0; s < active.size(); ++s) {
        const Segment seg = active[s];
        Rng rng(seed, (tree << 40) ^ (level << 20) ^ s);
        std::vector<float> dir(dim);
        for (float& v : dir) v = rng.next_gaussian();
        for (std::uint32_t i = seg.begin; i < seg.end; ++i) {
          const auto x = points.row(perm[i]);
          float acc = 0.0f;
          for (std::size_t j = 0; j < dim; ++j) acc += x[j] * dir[j];
          proj[perm[i]] = acc;
        }
      }
      for (const Segment& seg : active) {
        const std::uint32_t mid = seg.begin + (seg.end - seg.begin) / 2;
        std::nth_element(perm.begin() + seg.begin, perm.begin() + mid,
                         perm.begin() + seg.end,
                         [&](std::uint32_t a, std::uint32_t b) {
                           return proj[a] < proj[b];
                         });
        for (const Segment child : {Segment{seg.begin, mid},
                                    Segment{mid, seg.end}}) {
          if (child.end - child.begin <= leaf_size) {
            out.ids.insert(out.ids.end(), perm.begin() + child.begin,
                           perm.begin() + child.end);
            out.offsets.push_back(static_cast<std::uint32_t>(out.ids.size()));
          } else {
            next.push_back(child);
          }
        }
      }
      active = std::move(next);
    }
  }
  return out;
}

/// Points drawn from 7 distinct rows, so projections tie within every node.
FloatMatrix with_duplicates(std::size_t n, std::size_t dim) {
  const FloatMatrix distinct = data::make_uniform(7, dim, 23);
  FloatMatrix pts(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy_n(distinct.row(i % 7).data(), dim, pts.row(i).data());
  }
  return pts;
}

TEST(RpForest, EqualsTreeAtATimeReference) {
  constexpr std::size_t kLeaf = 32;
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (const std::size_t n : {kLeaf, kLeaf + 1, std::size_t{600},
                              std::size_t{4097}}) {
    for (const std::size_t dim : {1u, 3u, 16u, 17u, 128u}) {
      for (const bool dups : {false, true}) {
        const FloatMatrix pts =
            dups ? with_duplicates(n, dim) : data::make_uniform(n, dim, n + dim);
        for (const std::size_t trees : {1u, 3u, 8u, 9u}) {
          const Buckets want = reference_forest(pts, trees, kLeaf, 31);
          for (ThreadPool* pool : {&pool1, &pool4}) {
            SCOPED_TRACE(::testing::Message()
                         << "n " << n << " dim " << dim << " dups " << dups
                         << " trees " << trees << " threads "
                         << pool->thread_count());
            const Buckets got = build_rp_forest(*pool, pts, trees, kLeaf, 31);
            EXPECT_TRUE(got.ids == want.ids);
            EXPECT_TRUE(got.offsets == want.offsets);
          }
        }
      }
    }
  }
}

TEST(RpForest, EachTreeIsItsSliceOfTheForest) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  const std::size_t trees = 9;
  const FloatMatrix pts = data::make_clusters(n, 12, 8, 0.1f, 4);
  const Buckets forest = build_rp_forest(pool, pts, trees, 40, 17);
  const std::size_t per_tree = forest.num_buckets() / trees;
  ASSERT_EQ(forest.num_buckets(), per_tree * trees);
  for (std::size_t t = 0; t < trees; ++t) {
    const Buckets tree = build_rp_tree(pool, pts, 40, 17, t);
    ASSERT_EQ(tree.num_buckets(), per_tree) << "tree " << t;
    EXPECT_TRUE(std::equal(tree.ids.begin(), tree.ids.end(),
                           forest.ids.begin() + t * n))
        << "tree " << t;
    for (std::size_t b = 0; b <= per_tree; ++b) {
      EXPECT_EQ(tree.offsets[b] + t * n, forest.offsets[t * per_tree + b])
          << "tree " << t << " offset " << b;
    }
  }
}

TEST(RpForest, ChargesRowsOncePerLevelAndDirectionsOncePerWarp) {
  // Leaf size 2 over 2^15 points: every row stays active down to the last
  // level, which has 8192 nodes, more than the kernel's direction bitmap
  // covers exactly.
  constexpr std::size_t kN = 32768, kDim = 3, kTrees = 2, kLeaf = 2;
  ThreadPool pool(4);
  const FloatMatrix pts = data::make_uniform(kN, kDim, 5);
  simt::StatsAccumulator acc;
  const Buckets forest = build_rp_forest(pool, pts, kTrees, kLeaf, 13, &acc);

  // The active nodes of every level and the leaves in output order.
  std::vector<std::vector<std::uint32_t>> level_begins;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> leaves;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> active{{0, kN}};
  while (!active.empty()) {
    level_begins.emplace_back();
    std::vector<std::pair<std::uint32_t, std::uint32_t>> next;
    for (const auto& [begin, end] : active) {
      level_begins.back().push_back(begin);
      const std::uint32_t mid = begin + (end - begin) / 2;
      for (const auto& child : {std::pair{begin, mid}, std::pair{mid, end}}) {
        (child.second - child.first <= kLeaf ? leaves : next).push_back(child);
      }
    }
    active = std::move(next);
  }
  ASSERT_EQ(forest.num_buckets(), kTrees * leaves.size());

  // A row's final position in its tree's permutation lies in the range of
  // every node that held it, so it names the row's node on each level.
  std::vector<std::uint32_t> pos(kTrees * kN);
  for (std::size_t t = 0; t < kTrees; ++t) {
    for (std::size_t b = 0; b < leaves.size(); ++b) {
      const auto bucket = forest.bucket(t * leaves.size() + b);
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        pos[t * kN + bucket[i]] = leaves[b].first + static_cast<std::uint32_t>(i);
      }
    }
  }
  std::uint64_t rows = 0, dirs = 0;
  for (const std::vector<std::uint32_t>& begins : level_begins) {
    rows += kN;
    for (std::size_t warp = 0; warp < kN; warp += 32) {
      for (std::size_t t = 0; t < kTrees; ++t) {
        std::vector<std::size_t> nodes;
        for (std::size_t id = warp; id < warp + 32; ++id) {
          nodes.push_back(static_cast<std::size_t>(
              std::upper_bound(begins.begin(), begins.end(), pos[t * kN + id]) -
              begins.begin() - 1));
        }
        std::sort(nodes.begin(), nodes.end());
        dirs += static_cast<std::uint64_t>(
            std::unique(nodes.begin(), nodes.end()) - nodes.begin());
      }
    }
  }
  EXPECT_EQ(acc.total().global_reads, (rows + dirs) * kDim * sizeof(float));
}

TEST(RpTree, LeavesPartitionThePointSet) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(500, 10, 8, 0.1f, 3);
  const Buckets b = build_rp_tree(pool, pts, 32, 7, 0);
  expect_partition(b, 500);
}

TEST(RpTree, RespectsLeafSize) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(777, 6, 5);
  for (std::size_t leaf : {8u, 33u, 128u}) {
    const Buckets b = build_rp_tree(pool, pts, leaf, 7, 0);
    EXPECT_LE(b.max_bucket_size(), leaf) << "leaf_size " << leaf;
    expect_partition(b, 777);
  }
}

TEST(RpTree, BalancedSplitsGiveTightBucketRange) {
  // Median splits halve exactly, so bucket sizes live in
  // (leaf_size/2, leaf_size] for n > leaf_size.
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(1000, 4, 9);
  const std::size_t leaf = 64;
  const Buckets b = build_rp_tree(pool, pts, leaf, 11, 0);
  for (std::size_t i = 0; i < b.num_buckets(); ++i) {
    const std::size_t sz = b.bucket(i).size();
    EXPECT_GT(sz, leaf / 2 - 1);
    EXPECT_LE(sz, leaf);
  }
}

TEST(RpTree, SmallInputIsSingleBucket) {
  ThreadPool pool(1);
  const FloatMatrix pts = data::make_uniform(20, 3, 1);
  const Buckets b = build_rp_tree(pool, pts, 32, 7, 0);
  EXPECT_EQ(b.num_buckets(), 1u);
  EXPECT_EQ(b.bucket(0).size(), 20u);
  expect_partition(b, 20);
}

TEST(RpTree, DeterministicForSameSeed) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(300, 8, 2);
  const Buckets a = build_rp_tree(pool, pts, 16, 42, 1);
  const Buckets c = build_rp_tree(pool, pts, 16, 42, 1);
  EXPECT_EQ(a.ids, c.ids);
  EXPECT_EQ(a.offsets, c.offsets);
}

TEST(RpTree, DifferentTreeIndicesDiffer) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(300, 8, 2);
  const Buckets a = build_rp_tree(pool, pts, 16, 42, 0);
  const Buckets c = build_rp_tree(pool, pts, 16, 42, 1);
  EXPECT_NE(a.ids, c.ids);
}

TEST(RpTree, DuplicatePointsDoNotBreakSplitting) {
  // All-identical points make every projection equal; positional median
  // splits must still terminate and produce a valid partition.
  FloatMatrix pts(200, 5);
  for (std::size_t i = 0; i < pts.size(); ++i) pts.data()[i] = 1.0f;
  ThreadPool pool(2);
  const Buckets b = build_rp_tree(pool, pts, 16, 3, 0);
  expect_partition(b, 200);
  EXPECT_LE(b.max_bucket_size(), 16u);
}

TEST(RpTree, GroupsNearbyPointsTogether) {
  // With well-separated tight clusters smaller than the leaf size, most
  // points should share a bucket with same-cluster points only.
  ThreadPool pool(2);
  data::DatasetSpec spec;
  spec.kind = data::DatasetKind::kClusters;
  spec.n = 256;
  spec.dim = 8;
  spec.clusters = 8;  // 32 points per cluster
  spec.cluster_spread = 1e-3f;
  spec.seed = 21;
  const FloatMatrix pts = data::generate(spec);
  const Buckets b = build_rp_tree(pool, pts, 64, 5, 0);

  std::size_t pure_pairs = 0, total_pairs = 0;
  for (std::size_t bi = 0; bi < b.num_buckets(); ++bi) {
    const auto ids = b.bucket(bi);
    for (std::size_t x = 0; x < ids.size(); ++x) {
      for (std::size_t y = x + 1; y < ids.size(); ++y) {
        ++total_pairs;
        pure_pairs += (ids[x] % 8 == ids[y] % 8) ? 1 : 0;
      }
    }
  }
  // Random bucketing would give ~1/8 purity; a 64-point leaf drawn from a
  // good tree holds ~2 whole clusters (purity ~0.49), so demand well above
  // the random baseline.
  EXPECT_GT(static_cast<double>(pure_pairs) / total_pairs, 0.3);
}

TEST(RpForest, ConcatenatesAllTrees) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(200, 5, 6);
  const Buckets f = build_rp_forest(pool, pts, 4, 32, 9);
  EXPECT_EQ(f.ids.size(), 4u * 200u);
  // Each tree individually partitions the set.
  std::vector<int> seen(200, 0);
  for (std::uint32_t id : f.ids) ++seen[id];
  for (int c : seen) EXPECT_EQ(c, 4);
}

TEST(RpForest, StatsAreAccumulated) {
  ThreadPool pool(2);
  simt::StatsAccumulator acc;
  const FloatMatrix pts = data::make_uniform(300, 12, 6);
  (void)build_rp_forest(pool, pts, 2, 32, 9, &acc);
  const simt::Stats s = acc.total();
  EXPECT_GT(s.flops, 0u);
  EXPECT_GT(s.global_reads, 0u);
  EXPECT_GT(s.warps_executed, 0u);
}

}  // namespace
}  // namespace wknng::core
