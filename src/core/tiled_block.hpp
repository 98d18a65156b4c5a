#pragma once

// Internal shared kernel of the tiled strategy: computes one 32x32 distance
// block between two point tiles with scratch-staged coordinate chunks, then
// submits the block's row/column runs to the k-NN sets. Used by the leaf
// kernel (tiles within an RP-forest bucket) and by the warp-centric exact
// brute force (tiles over the whole dataset).

#include <algorithm>
#include <cstring>
#include <span>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "core/knn_set.hpp"
#include "simt/fault.hpp"
#include "simt/packed.hpp"
#include "simt/warp.hpp"
#include "simt/warp_distance.hpp"

namespace wknng::core::detail {

/// Scratch plan of the tiled kernel; allocate once per warp task.
struct TileBuffers {
  std::span<float> block;    ///< 32 x 32 distance accumulator
  std::span<float> a_stage;  ///< 32 x chunk_dims coordinates of tile A
  std::span<float> b_stage;  ///< 32 x chunk_dims coordinates of tile B
  std::size_t chunk_dims = 0;
};

/// Chooses how many dimensions one staging chunk holds so that the working
/// set (A-stage + B-stage + distance block + merge buffer) fits the budget.
inline std::size_t tiled_chunk_dims(std::size_t scratch_capacity,
                                    std::size_t dim, std::size_t k) {
  const std::size_t reserve =
      simt::kWarpSize * simt::kWarpSize * sizeof(float)  // distance block
      + k * sizeof(std::uint64_t)                        // merge buffer
      + 512;                                             // alignment slack
  WKNNG_CHECK_MSG(
      scratch_capacity > reserve + 2 * simt::kWarpSize * sizeof(float) * 8,
      "scratch too small for tiled kernel: " << scratch_capacity);
  const std::size_t dc =
      (scratch_capacity - reserve) / (2 * simt::kWarpSize * sizeof(float));
  // Not std::clamp: a row narrower than 8 floats would make its bounds
  // inverted, which is undefined.
  return std::min(std::max<std::size_t>(dc, 8), dim);
}

/// Allocates the kernel's scratch buffers out of the warp's arena.
inline TileBuffers alloc_tile_buffers(simt::Warp& w, std::size_t dim,
                                      std::size_t k) {
  TileBuffers buf;
  buf.chunk_dims = tiled_chunk_dims(w.scratch().capacity(), dim, k);
  buf.block = w.scratch().alloc<float>(simt::kWarpSize * simt::kWarpSize);
  buf.a_stage = w.scratch().alloc<float>(simt::kWarpSize * buf.chunk_dims);
  buf.b_stage = w.scratch().alloc<float>(simt::kWarpSize * buf.chunk_dims);
  return buf;
}

/// Processes one tile pair: the scorer computes the distance block
/// (RowScorer::tile — the dispatched l2_tile / sq8_l2_tile micro-kernel),
/// then each block row is submitted to the A-side point and each block
/// column to the B-side point as a 32-candidate run in lane order
/// (KnnSetArray::merge_tile sorts what its bound lets through). Diagonal
/// pairs (the same tile on both sides) use the upper triangle for rows and
/// its mirror for columns, so every ordered pair is submitted exactly once.
///
/// `a_id(i)` / `b_id(j)` map tile-local indices to point ids; `na`, `nb`
/// are the tile occupancies (<= 32). `points` are the full-precision rows
/// the scorer scores (or its codes encode). The scratch staging buffers of
/// `buf` reserve the modeled per-warp footprint — the space constraint the
/// chunking plan is sized against — while the arithmetic streams the rows
/// through the micro-kernel directly. Under an SQ8 scorer the block holds
/// the asymmetric approximation d(a_fp32, decode(b)) for both the row and
/// the mirrored column runs; the builder's exact rerank restores
/// full-precision ordering before the final graph is emitted.
template <typename AIdFn, typename BIdFn>
void process_tile_pair(simt::Warp& w, const FloatMatrix& points, AIdFn&& a_id,
                       std::size_t na, BIdFn&& b_id, std::size_t nb,
                       bool diagonal, KnnSetArray& sets, const TileBuffers& buf,
                       const simt::RowScorer& scorer) {
  using simt::kWarpSize;
  using simt::Lanes;
  using simt::Packed;

  scorer.tile(w, points, a_id, na, b_id, nb, diagonal, buf.block);

  // Row runs: candidates for A-side points.
  for (std::size_t i = 0; i < na; ++i) {
    Lanes<std::uint64_t> run;
    run.fill(Packed::kEmpty);
    const std::size_t j_begin = diagonal ? i + 1 : 0;
    if (j_begin >= nb) continue;
    for (std::size_t j = j_begin; j < nb; ++j) {
      run[j] =
          Packed::make(simt::fault_corrupt_distance(buf.block[i * kWarpSize + j]),
                       static_cast<std::uint32_t>(b_id(j)));
    }
    sets.merge_tile(w, static_cast<std::uint32_t>(a_id(i)), run);
  }

  // Column runs: candidates for B-side points (mirror of the block).
  for (std::size_t j = 0; j < nb; ++j) {
    Lanes<std::uint64_t> run;
    run.fill(Packed::kEmpty);
    const std::size_t i_end = diagonal ? j : na;
    if (i_end == 0) continue;
    for (std::size_t i = 0; i < i_end; ++i) {
      run[i] =
          Packed::make(simt::fault_corrupt_distance(buf.block[i * kWarpSize + j]),
                       static_cast<std::uint32_t>(a_id(i)));
    }
    sets.merge_tile(w, static_cast<std::uint32_t>(b_id(j)), run);
  }
}

}  // namespace wknng::core::detail
