#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "simt/stats.hpp"

namespace wknng::core {

/// Leaf buckets of one or more random-projection trees, in CSR layout:
/// bucket b holds point ids ids[offsets[b] .. offsets[b+1]).
/// Every tree contributes a complete partition of the point set, so a forest
/// of T trees yields buckets whose sizes sum to T * n.
struct Buckets {
  std::vector<std::uint32_t> ids;
  std::vector<std::uint32_t> offsets{0};

  std::size_t num_buckets() const { return offsets.size() - 1; }

  std::span<const std::uint32_t> bucket(std::size_t b) const {
    return {ids.data() + offsets[b], ids.data() + offsets[b + 1]};
  }

  std::size_t max_bucket_size() const {
    std::size_t m = 0;
    for (std::size_t b = 0; b < num_buckets(); ++b) {
      m = std::max<std::size_t>(m, offsets[b + 1] - offsets[b]);
    }
    return m;
  }
};

/// Builds tree `tree_index` of the forest over `points` and returns its
/// leaves: the one-tree case of build_rp_forest's level loop, so it equals
/// that tree's slice of the forest.
Buckets build_rp_tree(ThreadPool& pool, const FloatMatrix& points,
                      std::size_t leaf_size, std::uint64_t seed,
                      std::size_t tree_index,
                      simt::StatsAccumulator* acc = nullptr);

/// Builds `num_trees` independent trees and concatenates their leaves, tree
/// by tree; within a tree, leaves are in level-major order.
///
/// Construction is level-synchronous over the whole forest, mirroring the
/// GPU formulation. At each level every oversized node of every tree draws
/// a random Gaussian direction, and one SIMT launch projects the level: a
/// warp streams 32 consecutive rows in id order, reads each row once and
/// projects it onto its node's direction in every tree that still holds the
/// row in an active node (the trees' dot-product chains interleaved). Then
/// the pool splits every (tree, node) at its median projection (exact
/// balanced split via nth_element, one task per node) and maps each row to
/// its child node. Nodes at or below `leaf_size` become buckets. Because
/// the splits are exact medians, every tree has the same shape, so each
/// leaf's slot in the output is known before the first launch.
///
/// Determinism: directions depend only on (seed, tree_index, level, node),
/// and each projection is the same ascending-j float sum however chains are
/// interleaved, so the same inputs give the same forest at any thread count.
Buckets build_rp_forest(ThreadPool& pool, const FloatMatrix& points,
                        std::size_t num_trees, std::size_t leaf_size,
                        std::uint64_t seed,
                        simt::StatsAccumulator* acc = nullptr);

}  // namespace wknng::core
