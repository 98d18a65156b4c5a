// Portable scalar backend — the strict mode. Every function here replicates
// the accumulation order the repo used before runtime dispatch existed, so a
// build pinned to this backend (WKNNG_KERNEL=scalar) reproduces pre-dispatch
// graphs bit-for-bit. Norm caches are deliberately ignored: the norm trick
// reassociates the arithmetic, and strictness means "the original bits".

#include <cmath>

#include "kernels/backend_detail.hpp"

namespace wknng::kernels {
namespace {

/// Number of virtual lanes in the lane-strided accumulation — must stay in
/// lockstep with simt::kWarpSize (static_asserted next to simt::RowScorer,
/// in simt/warp_distance.hpp).
constexpr std::size_t kLanes = 32;

/// Lane-strided order: dimension d accumulates into partial[d % 32], and the
/// partials are combined lane 0 -> 31 — exactly the dimension-parallel
/// reduction of the SIMT pair shape (simt::RowScorer::pair, fp32 rows).
float scalar_l2_one(const float* x, const float* y, std::size_t dim) {
  float partial[kLanes] = {};
  for (std::size_t d = 0; d < dim; ++d) {
    const float diff = x[d] - y[d];
    partial[d & (kLanes - 1)] += diff * diff;
  }
  float acc = partial[0];
  for (std::size_t l = 1; l < kLanes; ++l) acc = acc + partial[l];
  return acc;
}

/// Serial order: one accumulator, dimensions in order — the host baseline
/// (exact::l2_sq) and the lane body of RowScorer's candidate-parallel shape.
float scalar_l2_serial(const float* x, const float* y, std::size_t dim) {
  float acc = 0.0f;
  for (std::size_t d = 0; d < dim; ++d) {
    const float diff = x[d] - y[d];
    acc += diff * diff;
  }
  return acc;
}

void scalar_l2_batch(const float* q, const float* const* rows,
                     const float* /*row_norms*/, std::size_t count,
                     std::size_t dim, float* out) {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = scalar_l2_serial(q, rows[i], dim);
  }
}

void scalar_l2_tile(const float* const* a_rows, const float* /*a_norms*/,
                    std::size_t na, const float* const* b_rows,
                    const float* /*b_norms*/, std::size_t nb, std::size_t dim,
                    float* out, std::size_t ld) {
  for (std::size_t i = 0; i < na; ++i) {
    for (std::size_t j = 0; j < nb; ++j) {
      out[i * ld + j] = scalar_l2_serial(a_rows[i], b_rows[j], dim);
    }
  }
}

float scalar_norm_sq(const float* x, std::size_t dim) {
  float acc = 0.0f;
  for (std::size_t d = 0; d < dim; ++d) acc += x[d] * x[d];
  return acc;
}

bool scalar_has_nonfinite(const float* x, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::isfinite(x[i])) return true;
  }
  return false;
}

constexpr KernelOps kScalarOps = {
    Backend::kScalar,     "scalar",        scalar_l2_one,
    scalar_l2_serial,     scalar_l2_batch, scalar_l2_tile,
    scalar_norm_sq,       scalar_has_nonfinite,
    detail::sq8_scalar_one, detail::sq8_scalar_batch,
    detail::sq8_scalar_tile, detail::sq8_scalar_term,
};

}  // namespace

namespace detail {
const KernelOps* scalar_ops() { return &kScalarOps; }
}  // namespace detail

}  // namespace wknng::kernels
