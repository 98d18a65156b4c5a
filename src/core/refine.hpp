#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "core/knn_set.hpp"
#include "core/params.hpp"
#include "simt/stats.hpp"
#include "simt/warp.hpp"
#include "simt/warp_distance.hpp"

namespace wknng::core {

/// Adjacency snapshot taken between refinement rounds: forward edges are the
/// current k-NN sets; reverse edges are their transpose, capped per point so
/// hub points do not blow up candidate generation (the standard NN-Descent
/// sampling discipline).
struct Adjacency {
  std::size_t n = 0;
  std::size_t k = 0;
  std::vector<std::uint32_t> fwd;        ///< n * k, kInvalidId padded
  std::vector<std::uint32_t> fwd_count;  ///< valid entries per row
  std::vector<std::uint32_t> rev;        ///< CSR payload
  std::vector<std::uint32_t> rev_offsets;///< CSR offsets (n + 1)

  static constexpr std::uint32_t kInvalidId = ~std::uint32_t{0};

  std::span<const std::uint32_t> forward(std::uint32_t p) const {
    return {fwd.data() + static_cast<std::size_t>(p) * k, fwd_count[p]};
  }
  std::span<const std::uint32_t> reverse(std::uint32_t p) const {
    return {rev.data() + rev_offsets[p], rev.data() + rev_offsets[p + 1]};
  }
};

/// Builds the forward/reverse adjacency snapshot from the current k-NN sets.
/// `reverse_cap` limits reverse edges kept per point (0 means k).
Adjacency snapshot_adjacency(ThreadPool& pool, const KnnSetArray& sets,
                             std::size_t reverse_cap);

/// The candidate gather of one refine_round point, in warp scratch: the
/// neighbors of p's forward and reverse neighbors, without p, without p's
/// current forward neighbors and without duplicates, in ascending id order,
/// truncated to the first `sample_cap`. Adjacency ids must be below adj.n.
///
/// Dedup runs on the worker's visited bitmap (simt/visited.hpp): p and its
/// forward neighbors are marked first, a raw id is kept only on its first
/// mark, and every mark is undone before returning. The unique survivors are
/// then radix-sorted, so the raw list is never comparison-sorted. The order
/// is ascending on purpose: it decides which candidates survive the cap (the
/// lowest ids) and which scored candidate each per-warp fault-injection
/// opportunity lands on. Any other order would change graphs built with a
/// capped sample or under injection.
std::span<std::uint32_t> gather_candidates(simt::Warp& w, const Adjacency& adj,
                                           std::uint32_t p,
                                           std::size_t sample_cap);

/// One neighbor-of-neighbor refinement round (NN-Descent-style local join):
/// one warp per point p gathers the neighbors of p's forward+reverse
/// neighbors (gather_candidates), then scores at most `params.refine_sample`
/// candidates with the strategy's kernel shape and submits them to p's k-NN
/// set.
///
/// Updates flow only into p's own set, so a round is deterministic for the
/// lock-based strategies regardless of warp scheduling.
///
/// Per-point failures (scratch overflow, warp abort, lock timeout — real or
/// injected) are caught inside the warp body: the point keeps its current
/// set for this round and is counted in the return value. Returns the
/// number of points skipped that way (0 on a clean round).
///
/// Every candidate is scored by `scorer`, built over `points` or over their
/// SQ8 codes (see leaf_knn_resilient).
std::size_t refine_round(ThreadPool& pool, const FloatMatrix& points,
                         const Adjacency& adj, const BuildParams& params,
                         KnnSetArray& sets, simt::StatsAccumulator* acc,
                         const simt::RowScorer& scorer);

}  // namespace wknng::core
