#include "core/rp_forest.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "simt/launch.hpp"
#include "simt/warp.hpp"

namespace wknng::core {

namespace {

/// A node's half-open range [begin, end) of a tree's permutation.
struct Segment {
  std::uint32_t begin;
  std::uint32_t end;

  std::uint32_t size() const { return end - begin; }
};

/// Key of a row that already sits in a leaf of that tree.
constexpr std::uint32_t kInLeaf = std::numeric_limits<std::uint32_t>::max();

/// Dot-product chains the level kernel interleaves per row.
constexpr std::size_t kChains = 8;
/// Consecutive 32-row warps a worker claims per scheduling step.
constexpr std::size_t kLevelGrain = 8;
/// Rows one split task covers at least: small nodes are batched.
constexpr std::size_t kSplitRows = 4096;
/// Node-id bitmap the level kernel counts distinct directions with.
constexpr std::size_t kSeenBits = 4096;

/// One node of the tree shape: its permutation range, its median position
/// and, per child, the child's index among the next level's nodes, or
/// kInLeaf for a leaf.
struct Split {
  Segment seg;
  std::uint32_t mid;
  std::array<std::uint32_t, 2> next;
};

/// The shape every tree shares. Splits are exact positional medians, so a
/// node's range depends only on (n, leaf_size), never on the data: the
/// level lists and the leaves, in output order, are known before the first
/// projection.
struct Shape {
  std::vector<Split> splits;             // level-major
  std::vector<std::size_t> level_begin;  // level l: [level_begin[l], [l+1])
  std::vector<Segment> leaves;           // one tree's leaves, output order

  std::size_t depth() const { return level_begin.size() - 1; }
};

/// Plans the tree shape over n > leaf_size points. Leaves are numbered
/// level by level and, within a level, in node order, left child first.
Shape plan_shape(std::uint32_t n, std::size_t leaf_size) {
  Shape shape;
  std::vector<Segment> level{{0, n}};
  while (!level.empty()) {
    shape.level_begin.push_back(shape.splits.size());
    std::vector<Segment> next;
    for (const Segment& seg : level) {
      Split sp{seg, seg.begin + seg.size() / 2, {}};
      const Segment kids[2] = {{seg.begin, sp.mid}, {sp.mid, seg.end}};
      for (std::size_t c = 0; c < 2; ++c) {
        if (kids[c].size() <= leaf_size) {
          sp.next[c] = kInLeaf;
          shape.leaves.push_back(kids[c]);
        } else {
          sp.next[c] = static_cast<std::uint32_t>(next.size());
          next.push_back(kids[c]);
        }
      }
      shape.splits.push_back(sp);
    }
    level = std::move(next);
  }
  shape.level_begin.push_back(shape.splits.size());
  return shape;
}

/// Projects one row onto G directions and stores each projection's bits.
/// Chain c is exactly the one-direction loop `acc += x[j] * dir[j]` over
/// ascending j, so interleaving moves no projection bit; it gives the core
/// G independent add chains instead of one.
template <std::size_t G>
void project_row(const float* x, std::size_t dim, const float* const* dirs,
                 std::uint32_t* const* out) {
  float acc[G] = {};
  for (std::size_t j = 0; j < dim; ++j) {
    const float xj = x[j];
    for (std::size_t c = 0; c < G; ++c) acc[c] += xj * dirs[c][j];
  }
  for (std::size_t c = 0; c < G; ++c) {
    *out[c] = std::bit_cast<std::uint32_t>(acc[c]);
  }
}

using ProjectRowFn = void (*)(const float*, std::size_t, const float* const*,
                              std::uint32_t* const*);

template <std::size_t... G>
constexpr std::array<ProjectRowFn, sizeof...(G)> project_row_table(
    std::index_sequence<G...>) {
  return {&project_row<G + 1>...};
}

/// kProjectRow[g - 1] projects onto g directions, g in [1, kChains].
constexpr auto kProjectRow =
    project_row_table(std::make_index_sequence<kChains>{});

/// Builds trees [first_tree, first_tree + trees) in one level loop:
/// per level, one launch projects every tree and the pool splits every
/// node. Tree first_tree + t writes its leaves to ids[t*n, t*n + n) in
/// level-major order, so the result is the trees' outputs concatenated.
Buckets build_trees(ThreadPool& pool, const FloatMatrix& points,
                    std::size_t leaf_size, std::uint64_t seed,
                    std::size_t first_tree, std::size_t trees,
                    simt::StatsAccumulator* acc) {
  WKNNG_CHECK_MSG(leaf_size >= 2, "leaf_size must be >= 2");
  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();

  Buckets out;
  if (n <= leaf_size) {
    out.ids.resize(trees * n);
    for (std::size_t t = 0; t < trees; ++t) {
      std::iota(out.ids.begin() + t * n, out.ids.begin() + (t + 1) * n, 0u);
      out.offsets.push_back(static_cast<std::uint32_t>((t + 1) * n));
    }
    return out;
  }
  const Shape shape = plan_shape(static_cast<std::uint32_t>(n), leaf_size);

  // Tree t's permutation lives in the output's slice [t*n, t*n + n). Every
  // other temporary is allocated per tree on the calling thread, never in a
  // pool task, and freed on return.
  out.ids.resize(trees * n);
  struct TreeState {
    std::uint32_t* perm;  // the tree's permutation of row ids
    // Per row: its active node (kInLeaf once in a leaf) until the level's
    // launch overwrites it with the bits of the row's projection; the
    // split then stores the row's node on the next level.
    std::vector<std::uint32_t> key;
    FloatMatrix dirs;  // one direction per active node, sized per level
  };
  std::vector<TreeState> state(trees);
  for (std::size_t t = 0; t < trees; ++t) {
    TreeState& ts = state[t];
    ts.perm = out.ids.data() + t * n;
    std::iota(ts.perm, ts.perm + n, 0u);
    ts.key.assign(n, 0u);
  }

  for (std::size_t level = 0; level < shape.depth(); ++level) {
    const Split* nodes = shape.splits.data() + shape.level_begin[level];
    const std::size_t width =
        shape.level_begin[level + 1] - shape.level_begin[level];

    // One Gaussian direction per (tree, node). The stream id folds in
    // (tree, level, node) so every split is an independent projection.
    for (TreeState& ts : state) ts.dirs.resize(width, dim);
    pool.parallel_for(trees * width, [&](std::size_t task) {
      const std::size_t t = task / width;
      const std::size_t s = task % width;
      Rng rng(seed, ((first_tree + t) << 40) ^ (level << 20) ^ s);
      auto d = state[t].dirs.row(s);
      for (std::size_t j = 0; j < dim; ++j) d[j] = rng.next_gaussian();
    });

    // One launch projects this level of every tree (the level-synchronous
    // GPU structure). A warp streams 32 consecutive rows in id order, reads
    // each row once and projects it onto its node's direction in every tree
    // that still holds the row in an active node.
    simt::LaunchConfig config;
    config.grain = kLevelGrain;
    config.trace_label = "rp_forest_level";
    const std::size_t num_warps = (n + simt::kWarpSize - 1) / simt::kWarpSize;
    simt::launch_warps(pool, num_warps, config, acc, [&](simt::Warp& w) {
      const std::size_t begin = std::size_t{w.id()} * simt::kWarpSize;
      const std::size_t end = std::min(n, begin + simt::kWarpSize);

      // Each distinct (tree, node) direction the warp uses is read once.
      // A bit per node id modulo kSeenBits finds first uses; it is exact
      // while the level has at most kSeenBits nodes, and beyond that a set
      // bit is confirmed against the warp's earlier nodes.
      std::uint64_t dirs_read = 0;
      std::array<std::uint64_t, kSeenBits / 64> seen{};
      std::array<std::uint32_t, simt::kWarpSize> used;
      for (const TreeState& ts : state) {
        std::size_t m = 0;
        for (std::size_t id = begin; id < end; ++id) {
          const std::uint32_t node = ts.key[id];
          if (node == kInLeaf) continue;
          const std::uint64_t bit = std::uint64_t{1} << (node % 64);
          std::uint64_t& word = seen[(node % kSeenBits) / 64];
          if ((word & bit) == 0 ||
              (width > kSeenBits &&
               std::find(used.begin(), used.begin() + m, node) ==
                   used.begin() + m)) {
            word |= bit;
            used[m++] = node;
          }
        }
        dirs_read += m;
        for (std::size_t i = 0; i < m; ++i) {
          seen[(used[i] % kSeenBits) / 64] = 0;
        }
      }

      std::array<const float*, kChains> dir_rows;
      std::array<std::uint32_t*, kChains> dst;
      std::uint64_t rows_read = 0;
      std::uint64_t dots = 0;
      for (std::size_t id = begin; id < end; ++id) {
        const float* x = points.row(id).data();
        const std::uint64_t dots_before = dots;
        std::size_t g = 0;
        for (TreeState& ts : state) {
          const std::uint32_t node = ts.key[id];
          if (node == kInLeaf) continue;
          dir_rows[g] = ts.dirs.row(node).data();
          dst[g] = &ts.key[id];
          if (++g == kChains) {
            kProjectRow[kChains - 1](x, dim, dir_rows.data(), dst.data());
            dots += g;
            g = 0;
          }
        }
        if (g > 0) {
          kProjectRow[g - 1](x, dim, dir_rows.data(), dst.data());
          dots += g;
        }
        rows_read += dots > dots_before ? 1 : 0;
      }

      w.stats().flops += 2 * dim * dots;
      w.count_read((rows_read + dirs_read) * dim * sizeof(float));
      w.count_write(dots * sizeof(float));
    });

    // Split every (tree, node) on the pool: exact balanced median split.
    // nth_element partitions the node's ids around the positional median of
    // their projections, so both children get floor/ceil(m/2) points even
    // under duplicate projections — the tree depth is always
    // ceil(log2(n / leaf_size)). A second pass, one task per tree, then
    // stores each row's node on the next level (or kInLeaf) over its
    // projection. It is separate so that no task writes keys while another
    // still compares them, and per tree so that no two tasks write one
    // tree's rows, which share cache lines across nodes.
    const std::size_t split_grain =
        std::max<std::size_t>(1, kSplitRows / nodes[0].seg.size());
    pool.parallel_for(trees * width, split_grain, [&](std::size_t task) {
      const Split& sp = nodes[task % width];
      std::uint32_t* p = state[task / width].perm;
      const std::uint32_t* key = state[task / width].key.data();
      std::nth_element(p + sp.seg.begin, p + sp.mid, p + sp.seg.end,
                       [key](std::uint32_t a, std::uint32_t b) {
                         return std::bit_cast<float>(key[a]) <
                                std::bit_cast<float>(key[b]);
                       });
    });
    pool.parallel_for(trees, [&](std::size_t t) {
      const std::uint32_t* p = state[t].perm;
      std::uint32_t* key = state[t].key.data();
      for (const Split* sp = nodes; sp != nodes + width; ++sp) {
        for (std::uint32_t i = sp->seg.begin; i < sp->seg.end; ++i) {
          key[p[i]] = sp->next[i < sp->mid ? 0 : 1];
        }
      }
    });
  }

  // A leaf's range of the permutation is final once formed; the leaves are
  // put in output order through the tree's key array, which is free now.
  out.offsets.reserve(trees * shape.leaves.size() + 1);
  for (TreeState& ts : state) {
    std::copy(ts.perm, ts.perm + n, ts.key.begin());
    std::uint32_t* dst = ts.perm;
    for (const Segment& leaf : shape.leaves) {
      dst = std::copy(ts.key.begin() + leaf.begin, ts.key.begin() + leaf.end,
                      dst);
      out.offsets.push_back(
          static_cast<std::uint32_t>(dst - out.ids.data()));
    }
  }
  return out;
}

}  // namespace

Buckets build_rp_tree(ThreadPool& pool, const FloatMatrix& points,
                      std::size_t leaf_size, std::uint64_t seed,
                      std::size_t tree_index, simt::StatsAccumulator* acc) {
  return build_trees(pool, points, leaf_size, seed, tree_index, 1, acc);
}

Buckets build_rp_forest(ThreadPool& pool, const FloatMatrix& points,
                        std::size_t num_trees, std::size_t leaf_size,
                        std::uint64_t seed, simt::StatsAccumulator* acc) {
  WKNNG_CHECK(num_trees > 0);
  return build_trees(pool, points, leaf_size, seed, 0, num_trees, acc);
}

}  // namespace wknng::core
