#pragma once

// Runtime-dispatched SIMD distance kernels — the CPU analogue of the paper's
// warp-wide distance math. Every hot distance loop in the repo routes through
// one of three primitives, bound once at startup to the widest ISA the CPU
// supports (AVX2+FMA > SSE2 > portable scalar):
//
//   l2_one    one pair        (the pair shape of simt::RowScorer)
//   l2_batch  1 query x L     (RowScorer's candidate-parallel lanes shape)
//   l2_tile   Q x L tile      (the GEMM-style shape of the tiled strategy),
//             using the ||x||^2 + ||y||^2 - 2 x.y decomposition with cached
//             squared norms on the SIMD backends
//
// The table also carries the same three shapes for the SQ8 compressed tier
// (sq8_l2_one / sq8_l2_batch / sq8_l2_tile, plus the sq8_term cache
// accumulation) — asymmetric fp32-query x u8-code distances that cut the
// candidate-row traffic 4x. See kernels/sq8.hpp for the codec and the
// expanded-form decomposition the SIMD backends use.
//
// Determinism contract (see DESIGN.md, "CPU vectorization layer"):
//  * Every backend uses a fixed accumulation order, so results are
//    bit-reproducible across runs, thread counts and schedules for a given
//    backend.
//  * The scalar backend is the strict mode: it replicates the pre-dispatch
//    accumulation orders exactly (lane-strided for l2_one, serial for
//    everything else), so WKNNG_KERNEL=scalar reproduces seed-identical
//    graphs and ignores all norm caches.
//  * The SIMD backends compute all three primitives from one shared
//    dot/norm core, so within a backend the same point pair yields the same
//    bits regardless of which primitive scored it (the packed-candidate
//    dedup in the k-NN sets relies on this).
//
// Selection: WKNNG_KERNEL=scalar|strict|sse2|avx2|auto overrides the cpuid
// pick; requesting an ISA the CPU (or the build) cannot run throws Error.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.hpp"

namespace wknng::kernels {

struct Sq8Query;  // kernels/sq8.hpp — prepared query for the sq8_* rows

enum class Backend : std::uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

inline constexpr std::size_t kNumBackends = 3;

const char* backend_name(Backend b);

/// Parses "scalar" / "strict" (alias for scalar) / "sse2" / "avx2" / "auto".
/// "auto" (and "") return the cpuid pick. Throws wknng::Error on anything
/// else, listing the valid names.
Backend backend_from_string(const std::string& name);

/// The widest backend this CPU supports (of those compiled in).
Backend detect_backend();

/// The dispatch table of one backend. All row pointers must point at
/// `dim`-float rows; `out`/`ld` address a row-major tile. Norm pointers may
/// be null, in which case the SIMD backends compute the squared norms on the
/// fly (with the exact same accumulation as `norm_sq`, so the bits do not
/// depend on whether a cache was supplied). The scalar backend ignores norm
/// caches entirely — see the strict-mode contract above.
struct KernelOps {
  Backend backend;
  const char* name;

  /// One pair, warp-lane contract: the scalar implementation replicates the
  /// lane-strided accumulation of the SIMT pair kernel
  /// (simt::RowScorer::pair) bit-exactly.
  float (*l2_one)(const float* x, const float* y, std::size_t dim);

  /// One pair, host contract: the scalar implementation is the plain serial
  /// accumulation every pre-dispatch baseline used (exact::l2_sq).
  float (*l2_serial)(const float* x, const float* y, std::size_t dim);

  /// One query against `count` candidate rows; out[i] = ||q - rows[i]||^2.
  void (*l2_batch)(const float* q, const float* const* rows,
                   const float* row_norms, std::size_t count, std::size_t dim,
                   float* out);

  /// Q x L tile: out[i * ld + j] = ||a_i - b_j||^2. SIMD backends use the
  /// norm trick with a register-blocked dot micro-kernel; scalar is the
  /// serial direct-subtraction reference.
  void (*l2_tile)(const float* const* a_rows, const float* a_norms,
                  std::size_t na, const float* const* b_rows,
                  const float* b_norms, std::size_t nb, std::size_t dim,
                  float* out, std::size_t ld);

  /// Squared Euclidean norm; the accumulation every norm cache is built with.
  float (*norm_sq)(const float* x, std::size_t dim);

  /// True iff any of the `count` floats is NaN or +-inf (vectorized scan
  /// used by the builder's input quarantine).
  bool (*has_nonfinite)(const float* x, std::size_t count);

  // --- SQ8 asymmetric rows (kernels/sq8.hpp) -------------------------------
  // fp32 query (prepared once with sq8_prepare) against u8 code rows. The
  // scalar backend evaluates the direct dequantize-subtract form serially
  // (bit-identical to the pre-dispatch ivf::sq8_l2_sq) and ignores term
  // caches; the SIMD backends use the expanded self - 2*dot(w,c) + term(c)
  // decomposition from one shared u8-widening dot core, so — exactly like
  // the fp32 rows — the same (query, code row) pair yields the same bits
  // under every shape and whether or not a term cache was supplied.

  /// One prepared query against one code row.
  float (*sq8_l2_one)(const Sq8Query& q, const std::uint8_t* code);

  /// One prepared query against `count` code rows; out[i] = d(q, rows[i]).
  /// `code_terms` may be null (terms recomputed with sq8_term's order).
  void (*sq8_l2_batch)(const Sq8Query& q, const std::uint8_t* const* rows,
                       const float* code_terms, std::size_t count, float* out);

  /// Q x L tile of prepared queries against code rows:
  /// out[i * ld + j] = d(a[i], b_rows[j]). `b_terms` may be null.
  void (*sq8_l2_tile)(const Sq8Query* a, std::size_t na,
                      const std::uint8_t* const* b_rows, const float* b_terms,
                      std::size_t nb, float* out, std::size_t ld);

  /// sum_d (scale[d] * code[d])^2 — the accumulation every code-term cache
  /// is built with (the sq8 analogue of norm_sq).
  float (*sq8_term)(const float* scale, const std::uint8_t* code,
                    std::size_t dim);
};

/// Dispatch table for `b`, or nullptr when the backend is compiled out or
/// the CPU cannot run it. ops_for(kScalar) never returns nullptr.
const KernelOps* ops_for(Backend b);

/// The process-wide active table. Resolved once on first use: WKNNG_KERNEL
/// if set (throwing on an unknown or unsupported value), else the cpuid
/// pick. Subsequent calls are one relaxed atomic load.
const KernelOps& ops();

inline Backend active_backend() { return ops().backend; }

/// True iff the active backend is the scalar/strict one.
inline bool strict_mode() { return active_backend() == Backend::kScalar; }

/// Forces the active table (tests and benches only; not thread-safe against
/// concurrent first-use resolution). Restores the previous table on
/// destruction. Throws when the backend is unsupported on this CPU.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend b);
  ~ScopedBackend();

  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  const KernelOps* prev_;
};

// --- Convenience wrappers over the active table ----------------------------

inline float l2_one(std::span<const float> x, std::span<const float> y) {
  return ops().l2_one(x.data(), y.data(), x.size());
}

inline float l2_serial(std::span<const float> x, std::span<const float> y) {
  return ops().l2_serial(x.data(), y.data(), x.size());
}

inline float norm_sq(std::span<const float> x) {
  return ops().norm_sq(x.data(), x.size());
}

inline bool has_nonfinite(std::span<const float> x) {
  return ops().has_nonfinite(x.data(), x.size());
}

/// Per-dataset squared-norm cache: norms[i] = ||row i||^2, computed with the
/// active backend's norm_sq so cached and on-the-fly norms agree bit-exactly.
inline std::vector<float> row_norms(const FloatMatrix& m) {
  std::vector<float> norms(m.rows());
  const KernelOps& k = ops();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    norms[r] = k.norm_sq(m.row(r).data(), m.cols());
  }
  return norms;
}

/// The norm cache a dataset's owner keeps next to its rows: row_norms, or
/// empty in strict mode (the scalar backend ignores caches, so the pass
/// would be wasted).
inline std::vector<float> norm_cache(const FloatMatrix& m) {
  return strict_mode() ? std::vector<float>{} : row_norms(m);
}

}  // namespace wknng::kernels
