#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/kernels.hpp"
#include "kernels/sq8.hpp"
#include "simt/fault.hpp"
#include "simt/warp.hpp"

namespace wknng::simt {

// The distance arithmetic itself is delegated to the runtime-dispatched CPU
// kernels (src/kernels): the 32-lane dimension striding of the SIMT model
// maps onto SIMD lanes, and the scalar/strict backend reproduces the original
// lane-strided accumulation bit-exactly. The warp layer keeps owning the
// *accounting*: distance_evals / flops / global_reads / warp_collectives are
// charged exactly as the modeled hardware kernel would incur them, and the
// fault-injection hook fires once per produced distance, as before.
static_assert(kWarpSize == 32,
              "kernels' strict scalar backend models a 32-lane warp; "
              "update kernels_scalar.cpp if the warp width changes");

/// Dimension-parallel squared Euclidean distance: the 32 lanes stride the
/// `dim` coordinates of one point pair and the partial sums are combined by
/// a warp reduction. This is the access pattern the paper's leaf kernel
/// uses when a warp examines one candidate pair at a time: consecutive lanes
/// read consecutive floats, i.e. perfectly coalesced global loads.
inline float warp_l2_dims(Warp& w, std::span<const float> x,
                          std::span<const float> y) {
  const std::size_t dim = x.size();
  const float dist = kernels::ops().l2_one(x.data(), y.data(), dim);
  Stats& s = w.stats();
  ++s.distance_evals;
  s.flops += 3 * dim + kWarpSize;
  // The modeled warp combines its lane partials with one 5-step shuffle
  // reduction; charge it even though the SIMD kernel folded it into hsum.
  s.warp_collectives += 5;
  w.count_read(2 * dim * sizeof(float));
  return fault_corrupt_distance(dist);
}

/// Candidate-parallel squared Euclidean distances: each active lane owns one
/// candidate row and computes its full distance to the query `q`. The query
/// is register/scratch-resident (read once), so global traffic is one row
/// per active lane — the access pattern of the tiled strategy, where a warp
/// scores a whole tile of candidates against one point.
///
/// `row(id)` must return the coordinates of point `id`; `active[l]` masks
/// lanes without a candidate. `norms_by_id`, when non-empty, is a dataset-
/// wide squared-norm cache indexed by point id that the SIMD backends use
/// for the norm-trick decomposition (the strict backend ignores it).
template <typename RowFn>
inline Lanes<float> warp_l2_batch(Warp& w, std::span<const float> q,
                                  const Lanes<std::uint32_t>& ids,
                                  const Lanes<bool>& active, RowFn&& row,
                                  std::span<const float> norms_by_id = {}) {
  const std::size_t dim = q.size();
  const float* rows[kWarpSize];
  float lane_norms[kWarpSize];
  float dists[kWarpSize];
  std::uint64_t n_active = 0;
  for (int l = 0; l < kWarpSize; ++l) {
    if (!active[l]) continue;
    std::span<const float> r = row(ids[l]);
    rows[n_active] = r.data();
    if (!norms_by_id.empty()) lane_norms[n_active] = norms_by_id[ids[l]];
    ++n_active;
  }
  Lanes<float> out{};
  if (n_active > 0) {
    kernels::ops().l2_batch(q.data(), rows,
                            norms_by_id.empty() ? nullptr : lane_norms,
                            n_active, dim, dists);
    std::uint64_t k = 0;
    for (int l = 0; l < kWarpSize; ++l) {
      if (!active[l]) continue;
      out[l] = fault_corrupt_distance(dists[k++]);
    }
  }
  Stats& s = w.stats();
  s.distance_evals += n_active;
  s.flops += 3 * dim * n_active;
  // Candidate rows are charged per active lane; the scratch-resident query
  // row is charged once — and only when the warp actually read it (a fully
  // inactive mask touches no memory at all).
  if (n_active > 0) {
    w.count_read((n_active + 1) * dim * sizeof(float));
  }
  return out;
}

// --- SQ8 compressed-tier variants ------------------------------------------
// Same shapes against u8 code rows (kernels/sq8.hpp): the fp32 query side is
// prepared once per point (one full-precision row read, charged here), after
// which every candidate distance streams 1 byte/dim instead of 4 — the
// bandwidth lever of the compressed storage tier. The fault hook still fires
// once per produced distance.

/// Prepares `query` for asymmetric scoring into `w_out` (query.size() floats,
/// typically a warp-scratch slice) and charges the one fp32 row read (plus
/// the centering/pre-scale arithmetic) the modeled warp performs to stage
/// the query in registers/scratch.
inline kernels::Sq8Query warp_sq8_prepare(Warp& w, std::span<const float> query,
                                          const kernels::Sq8Codebook& codebook,
                                          std::span<float> w_out) {
  const std::size_t dim = query.size();
  WKNNG_CHECK(w_out.size() >= dim);
  w.stats().flops += 3 * dim;
  w.count_read(dim * sizeof(float));
  return kernels::sq8_prepare_into(query, codebook, w_out.data());
}

/// Same, staging into a caller-owned vector (resized to the dimension).
inline kernels::Sq8Query warp_sq8_prepare(Warp& w, std::span<const float> query,
                                          const kernels::Sq8Codebook& codebook,
                                          std::vector<float>& w_buf) {
  w_buf.resize(query.size());
  return warp_sq8_prepare(w, query, codebook, std::span<float>(w_buf));
}

/// Pair shape: one prepared query against one code row (the sq8 analogue of
/// warp_l2_dims). Only the code row is charged — the query was charged by
/// warp_sq8_prepare.
inline float warp_sq8_l2_dims(Warp& w, const kernels::Sq8Query& q,
                              std::span<const std::uint8_t> code) {
  const float dist = kernels::ops().sq8_l2_one(q, code.data());
  Stats& s = w.stats();
  ++s.distance_evals;
  // Dequantize (mul+add) + diff + square-accumulate per dimension, then the
  // same 5-step shuffle reduction as the fp32 pair kernel.
  s.flops += 4 * q.dim + kWarpSize;
  s.warp_collectives += 5;
  w.count_read(q.dim * sizeof(std::uint8_t));
  return fault_corrupt_distance(dist);
}

/// Candidate-parallel shape: each active lane owns one code row (the sq8
/// analogue of warp_l2_batch). `code(id)` must return point id's code row;
/// `terms_by_id`, when non-empty, is the dataset-wide code-term cache
/// (kernels::sq8_code_terms) the SIMD backends use for the expanded form
/// (the strict backend ignores it).
template <typename CodeFn>
inline Lanes<float> warp_sq8_l2_batch(Warp& w, const kernels::Sq8Query& q,
                                      const Lanes<std::uint32_t>& ids,
                                      const Lanes<bool>& active, CodeFn&& code,
                                      std::span<const float> terms_by_id = {}) {
  const std::uint8_t* rows[kWarpSize];
  float lane_terms[kWarpSize];
  float dists[kWarpSize];
  std::uint64_t n_active = 0;
  for (int l = 0; l < kWarpSize; ++l) {
    if (!active[l]) continue;
    std::span<const std::uint8_t> r = code(ids[l]);
    rows[n_active] = r.data();
    if (!terms_by_id.empty()) lane_terms[n_active] = terms_by_id[ids[l]];
    ++n_active;
  }
  Lanes<float> out{};
  if (n_active > 0) {
    kernels::ops().sq8_l2_batch(q, rows,
                                terms_by_id.empty() ? nullptr : lane_terms,
                                n_active, dists);
    std::uint64_t k = 0;
    for (int l = 0; l < kWarpSize; ++l) {
      if (!active[l]) continue;
      out[l] = fault_corrupt_distance(dists[k++]);
    }
  }
  Stats& s = w.stats();
  s.distance_evals += n_active;
  s.flops += 4 * q.dim * n_active;
  // Code rows are 1 byte/dim; the prepared query is register/scratch
  // resident and was charged at preparation time.
  if (n_active > 0) {
    w.count_read(n_active * q.dim * sizeof(std::uint8_t));
  }
  return out;
}

}  // namespace wknng::simt
