#pragma once

// SQ8 compressed storage tier: 8-bit scalar quantization (FAISS's SQ8) with
// asymmetric distances, promoted out of src/ivf into the kernels layer so
// every distance consumer (leaf pass, refinement, graph search, IVF) shares
// one codec and the runtime-dispatched sq8_* KernelOps rows.
//
// Codec: each dimension is affinely mapped onto [0, 255] using its own
// min/max over the training set — code = round((x - bias) / scale) with
// bias = min and scale = (max - min) / 255. A constant dimension gets
// scale = 0 exactly: it encodes to code 0 and decodes to bias bit-exactly
// (no epsilon fudge). Training rejects empty, non-finite, or fully
// degenerate (every dimension constant) sets with Sq8TrainError.
//
// Distances are asymmetric — fp32 query against u8 codes — so the query
// side loses no precision. The SIMD backends use the expanded form
//
//   ||q - (b + s*c)||^2 = self - 2 * dot(w, c) + term(c)
//     w[d]    = (q[d] - bias[d]) * scale[d]     (pre-scaled query)
//     self    = sum_d (q[d] - bias[d])^2
//     term(c) = sum_d (scale[d] * c[d])^2       (cacheable per code row)
//
// computed once per query by sq8_prepare(); the scalar backend is the
// strict reference and evaluates the direct dequantize-subtract form
// serially (bit-identical to the pre-dispatch ivf::sq8_l2_sq). See
// kernels.hpp for the per-backend bit-reproducibility contract.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hpp"

namespace wknng::kernels {

/// Per-dimension affine codebook.
struct Sq8Codebook {
  std::vector<float> bias;   ///< per-dimension minimum
  std::vector<float> scale;  ///< per-dimension (max - min) / 255; exactly 0
                             ///< for a constant dimension

  std::size_t dim() const { return bias.size(); }
};

/// A quantized point set: n x dim uint8 codes plus the codebook.
struct Sq8Matrix {
  Matrix<std::uint8_t> codes;
  Sq8Codebook codebook;

  std::size_t rows() const { return codes.rows(); }
  std::size_t dim() const { return codes.cols(); }
  std::span<const std::uint8_t> row(std::size_t i) const {
    return codes.row(i);
  }
};

/// A query prepared for asymmetric scoring against one codebook. Holds both
/// the original row (scalar/strict backend: direct dequantized form) and the
/// pre-scaled form (SIMD backends: expanded decomposition). The pointers
/// alias caller-owned storage; the prepared query must not outlive the query
/// row, the codebook, or the `w` buffer passed to sq8_prepare.
struct Sq8Query {
  const float* q = nullptr;      ///< original fp32 query row
  const float* w = nullptr;      ///< (q[d] - bias[d]) * scale[d]
  const float* bias = nullptr;   ///< codebook bias (aliased)
  const float* scale = nullptr;  ///< codebook scale (aliased)
  float self = 0.0f;             ///< sum_d (q[d] - bias[d])^2
  std::size_t dim = 0;
};

/// Builds the pre-scaled form of `query` into `w_buf` (resized to dim) and
/// returns the prepared handle. The accumulation of `self` is serial and
/// backend-independent, so a query prepared once scores bit-identically
/// under every shape of the active backend.
Sq8Query sq8_prepare(std::span<const float> query, const Sq8Codebook& codebook,
                     std::vector<float>& w_buf);

/// Same preparation into caller-provided storage (`w_out` must hold
/// query.size() floats). Lets tile-shaped callers stage a whole warp of
/// prepared queries into slices of one buffer without per-query allocation.
Sq8Query sq8_prepare_into(std::span<const float> query,
                          const Sq8Codebook& codebook, float* w_out);

/// Trains the per-dimension codebook on `points` and encodes every row.
/// Throws wknng::Sq8TrainError when the set is empty, contains NaN/Inf
/// (callers must quarantine first — the builder does), or every dimension
/// is constant.
Sq8Matrix sq8_encode(const FloatMatrix& points);

/// Dequantizes every code back to floats (reconstruction, for tests and
/// rescoring caches). Reconstruction error per dimension is <= scale/2.
FloatMatrix sq8_decode(const Sq8Matrix& m);

/// Serial reference for the asymmetric squared L2 (float query against one
/// dequantized code row) — the pre-dispatch ivf::sq8_l2_sq accumulation,
/// and the function the scalar backend's sq8 rows replicate bit-exactly.
float sq8_l2_sq_ref(std::span<const float> query,
                    std::span<const std::uint8_t> code,
                    const Sq8Codebook& codebook);

/// Per-dataset code-term cache: terms[i] = sum_d (scale[d] * codes[i][d])^2,
/// computed with the active backend's sq8_term so cached and on-the-fly
/// terms agree bit-exactly (the sq8 analogue of row_norms). The strict
/// backend ignores term caches entirely.
std::vector<float> sq8_code_terms(const Sq8Matrix& m);

/// The term cache a code matrix's owner keeps next to it: sq8_code_terms,
/// or empty in strict mode (the scalar backend ignores caches, so the pass
/// would be wasted) — the sq8 analogue of kernels::norm_cache.
std::vector<float> sq8_term_cache(const Sq8Matrix& m);

/// Borrowed view of a quantized dataset handed to the search paths: the
/// code matrix plus the optional per-row term cache (sq8_term_cache).
struct Sq8View {
  const Sq8Matrix* matrix = nullptr;
  std::span<const float> terms;  ///< indexed by point id; may be empty

  bool valid() const { return matrix != nullptr; }
  std::span<const std::uint8_t> row(std::size_t i) const {
    return matrix->row(i);
  }
  const Sq8Codebook& codebook() const { return matrix->codebook; }
};

}  // namespace wknng::kernels
