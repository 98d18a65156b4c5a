#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "kernels/kernels.hpp"
#include "kernels/sq8.hpp"
#include "simt/cost.hpp"
#include "simt/fault.hpp"
#include "simt/memory.hpp"
#include "simt/warp.hpp"

namespace wknng::simt {

// The distance arithmetic itself is delegated to the runtime-dispatched CPU
// kernels (src/kernels): the 32-lane dimension striding of the SIMT model
// maps onto SIMD lanes, and the scalar/strict backend reproduces the original
// lane-strided accumulation bit-exactly. The warp layer keeps owning the
// *accounting*: distance_evals / flops / global_reads / warp_collectives are
// charged exactly as the modeled hardware kernel would incur them, and the
// fault-injection hook fires once per produced distance.
static_assert(kWarpSize == 32,
              "kernels' strict scalar backend models a 32-lane warp; "
              "update kernels_scalar.cpp if the warp width changes");

/// The one distance module of the build and search kernels: squared
/// Euclidean distances from fp32 queries to the rows of one point set,
/// stored either as fp32 rows (with their squared-norm cache) or as SQ8 code
/// rows (with their code-term cache — the compressed storage tier). Every
/// kernel shape is written once against it:
///
///   prepare  stage a query for scoring (SQ8: the pre-scaled form, one fp32
///            row read charged here; fp32: free, the row is used as is)
///   pair     one query x one row, dimension-parallel lanes + a 5-step
///            shuffle reduction (the pair-at-a-time leaf/refine shape)
///   lanes    one query x up to 32 rows, one row per active lane (the
///            candidate-parallel shape of tiled refine, rerank and search)
///   tile     32 x 32 block between two point tiles (the tiled strategy)
///
/// An fp32 query re-reads its row with every pair and once per lanes call;
/// an SQ8 query was read once at prepare and every code row then streams
/// 1 byte/dim instead of 4. Caches are optional: the SIMD backends produce
/// the same bits with or without them and the strict backend ignores them.
/// The scorer borrows its rows and cache; both must outlive it.
class RowScorer {
 public:
  /// A query staged by prepare(). Aliases the query row and, for SQ8, the
  /// staging slice it was prepared into.
  struct Query {
    std::span<const float> x;  ///< the fp32 query row
    kernels::Sq8Query sq8;     ///< its preparation (SQ8 scorers only)
  };

  /// Scores fp32 `rows`; `norms` is their kernels::norm_cache (may be empty).
  explicit RowScorer(const FloatMatrix& rows, std::span<const float> norms = {})
      : rows_(&rows), cache_(norms) {
    WKNNG_CHECK_MSG(norms.empty() || norms.size() == rows.rows(),
                    "norm cache size " << norms.size() << " != rows "
                                       << rows.rows());
  }

  /// Scores SQ8 `codes` asymmetrically; `terms` is their
  /// kernels::sq8_term_cache (may be empty).
  explicit RowScorer(const kernels::Sq8Matrix& codes,
                     std::span<const float> terms = {})
      : codes_(&codes), cache_(terms) {
    WKNNG_CHECK_MSG(terms.empty() || terms.size() == codes.rows(),
                    "term cache size " << terms.size() << " != codes "
                                       << codes.rows());
  }

  bool sq8() const { return codes_ != nullptr; }
  std::size_t dim() const { return sq8() ? codes_->dim() : rows_->cols(); }

  /// Floats of warp scratch one prepared query occupies (0 for fp32).
  std::size_t staging_floats() const { return sq8() ? dim() : 0; }

  /// The staging slice for one query out of the warp's scratch. Allocates
  /// (and so meets the scratch-alloc fault site) only when staging_floats()
  /// is non-zero.
  std::span<float> alloc_staging(Warp& w) const {
    if (staging_floats() == 0) return {};
    return w.scratch().alloc<float>(staging_floats());
  }

  /// The bytes of row `id` as the scorer streams them.
  std::span<const std::byte> row_bytes(std::uint32_t id) const {
    return sq8() ? std::as_bytes(codes_->row(id))
                 : std::as_bytes(rows_->row(id));
  }

  /// Starts the loads of row `id`, one per 64-byte line, so a later score
  /// of it does not wait on memory. Charges nothing: a hint only.
  void prefetch(std::uint32_t id) const {
    const std::span<const std::byte> r = row_bytes(id);
    for (std::size_t b = 0; b < r.size(); b += 64) simt::prefetch(r.data() + b);
  }

  /// Stages query `x` into `staging` (at least staging_floats() floats).
  Query prepare(Warp& w, std::span<const float> x,
                std::span<float> staging) const {
    Query q{x, {}};
    if (!sq8()) return q;
    WKNNG_CHECK(staging.size() >= dim());
    w.stats().flops += 3 * dim();
    w.count_read(dim() * sizeof(float));
    q.sq8 = kernels::sq8_prepare_into(x, codes_->codebook, staging.data());
    return q;
  }

  /// Pair shape: the distance from `q` to row `id`.
  float pair(Warp& w, const Query& q, std::uint32_t id) const {
    const float dist =
        sq8() ? kernels::ops().sq8_l2_one(q.sq8, codes_->row(id).data())
              : kernels::ops().l2_one(q.x.data(), rows_->row(id).data(),
                                      dim());
    Stats& s = w.stats();
    ++s.distance_evals;
    s.flops += dist_flops() + kWarpSize;
    // The modeled warp combines its lane partials with one 5-step shuffle
    // reduction; charge it even though the SIMD kernel folded it into hsum.
    cost::shuffle_reduce(s);
    w.count_read(row_read_bytes() + unstaged_query_bytes());
    return fault_corrupt_distance(dist);
  }

  /// Candidate-parallel shape: each active lane scores row `ids[l]`; lanes
  /// with `active[l]` false produce 0 and charge nothing. A fully inactive
  /// mask touches no memory at all.
  Lanes<float> lanes(Warp& w, const Query& q, const Lanes<std::uint32_t>& ids,
                     const Lanes<bool>& active) const {
    float cached[kWarpSize];
    float dists[kWarpSize];
    std::size_t n = 0;
    const auto gather = [&](auto** rows, const auto& matrix) {
      for (int l = 0; l < kWarpSize; ++l) {
        if (!active[l]) continue;
        rows[n] = matrix.row(ids[l]).data();
        if (!cache_.empty()) cached[n] = cache_[ids[l]];
        ++n;
      }
    };
    const float* cache = cache_.empty() ? nullptr : cached;
    if (sq8()) {
      const std::uint8_t* rows[kWarpSize];
      gather(rows, *codes_);
      if (n > 0) kernels::ops().sq8_l2_batch(q.sq8, rows, cache, n, dists);
    } else {
      const float* rows[kWarpSize];
      gather(rows, *rows_);
      if (n > 0) {
        kernels::ops().l2_batch(q.x.data(), rows, cache, n, dim(), dists);
      }
    }
    Lanes<float> out{};
    std::size_t k = 0;
    for (int l = 0; l < kWarpSize && k < n; ++l) {
      if (active[l]) out[l] = fault_corrupt_distance(dists[k++]);
    }
    Stats& s = w.stats();
    s.distance_evals += n;
    s.flops += dist_flops() * n;
    if (n > 0) w.count_read(n * row_read_bytes() + unstaged_query_bytes());
    return out;
  }

  /// Tile shape: block[i * kWarpSize + j] = d(A_i, B_j) for the tiles
  /// a_id(0..na) and b_id(0..nb) (na, nb <= 32). A-side queries are the
  /// full-precision rows of `points` — the rows this scorer scores, or the
  /// rows its codes encode — each read once per tile; B-side rows are read
  /// once per tile. On a diagonal pair (the same tile on both sides) an
  /// fp32 B side aliases the A rows already read. The fault hook is left to
  /// the caller, which fires it as it assembles runs from the block.
  template <typename AIdFn, typename BIdFn>
  void tile(Warp& w, const FloatMatrix& points, AIdFn&& a_id, std::size_t na,
            BIdFn&& b_id, std::size_t nb, bool diagonal,
            std::span<float> block) const {
    const std::size_t d = dim();
    const bool have_cache = !cache_.empty();
    float b_cache[kWarpSize];
    if (sq8()) {
      const std::uint8_t* b_rows[kWarpSize];
      for (std::size_t j = 0; j < nb; ++j) {
        const auto id =
            static_cast<std::uint32_t>(diagonal ? a_id(j) : b_id(j));
        b_rows[j] = codes_->row(id).data();
        if (have_cache) b_cache[j] = cache_[id];
      }
      float* staged = tile_staging(kWarpSize * d);
      kernels::Sq8Query queries[kWarpSize];
      for (std::size_t i = 0; i < na; ++i) {
        queries[i] = kernels::sq8_prepare_into(
            points.row(a_id(i)), codes_->codebook, staged + i * d);
      }
      kernels::ops().sq8_l2_tile(queries, na, b_rows,
                                 have_cache ? b_cache : nullptr, nb,
                                 block.data(), kWarpSize);
      w.stats().flops += 3 * d * na;  // the A side's preparation
    } else {
      const float* a_rows[kWarpSize];
      const float* b_rows[kWarpSize];
      float a_cache[kWarpSize];
      for (std::size_t i = 0; i < na; ++i) {
        a_rows[i] = points.row(a_id(i)).data();
        if (have_cache) a_cache[i] = cache_[a_id(i)];
      }
      for (std::size_t j = 0; j < nb; ++j) {
        b_rows[j] = diagonal ? a_rows[j] : rows_->row(b_id(j)).data();
        if (have_cache) b_cache[j] = diagonal ? a_cache[j] : cache_[b_id(j)];
      }
      kernels::ops().l2_tile(a_rows, have_cache ? a_cache : nullptr, na,
                             b_rows, have_cache ? b_cache : nullptr, nb, d,
                             block.data(), kWarpSize);
    }
    const std::size_t pairs = diagonal ? na * (na - 1) / 2 : na * nb;
    w.count_read(na * d * sizeof(float));
    if (sq8() || !diagonal) w.count_read(nb * row_read_bytes());
    w.stats().distance_evals += pairs;
    w.stats().flops += dist_flops() * pairs;
  }

 private:
  /// Staging for a tile's prepared queries. It lives on the heap, one buffer
  /// per worker thread, not in warp scratch: like the fp32 A rows it models
  /// register/scratch-resident data, and the tile's scratch plan stays
  /// charged against the coordinate staging it was sized for.
  static float* tile_staging(std::size_t floats) {
    thread_local std::vector<float> buf;
    if (buf.size() < floats) buf.resize(floats);
    return buf.data();
  }

  /// Arithmetic of one distance: diff + square-accumulate per dimension,
  /// plus the dequantize (mul+add) for a code row.
  std::uint64_t dist_flops() const { return (sq8() ? 4 : 3) * dim(); }

  /// Global bytes of one scored row: 4 B/dim fp32, 1 B/dim for a code row.
  std::uint64_t row_read_bytes() const {
    return dim() * (sq8() ? sizeof(std::uint8_t) : sizeof(float));
  }

  /// An fp32 query is read with every pair and once per lanes call; an SQ8
  /// query was charged once, at prepare.
  std::uint64_t unstaged_query_bytes() const {
    return sq8() ? 0 : dim() * sizeof(float);
  }

  const FloatMatrix* rows_ = nullptr;
  const kernels::Sq8Matrix* codes_ = nullptr;
  std::span<const float> cache_;
};

}  // namespace wknng::simt
