// Tests of the runtime-dispatched distance-kernel backend (src/kernels):
// cross-ISA equivalence, the strict scalar backend's bit-exact accumulation
// contracts, norm-trick robustness on adversarial inputs, the WKNNG_KERNEL
// override round-trip, and the shared-core bit-consistency promise.

#include "kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/synthetic.hpp"

namespace wknng::kernels {
namespace {

// Dimensions straddling every vector-width boundary (SSE2 = 4, AVX2 = 8,
// warp = 32) plus scalar-tail shapes.
const std::size_t kDims[] = {1, 3, 7, 31, 32, 33, 100, 257};

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (const Backend b : {Backend::kScalar, Backend::kSse2, Backend::kAvx2}) {
    if (ops_for(b) != nullptr) out.push_back(b);
  }
  return out;
}

/// Serial direct-subtraction reference (the pre-dispatch baseline).
float ref_l2_serial(const float* x, const float* y, std::size_t dim) {
  float acc = 0.0f;
  for (std::size_t d = 0; d < dim; ++d) {
    const float diff = x[d] - y[d];
    acc += diff * diff;
  }
  return acc;
}

/// Lane-strided reference replicating the SIMT pair shape's accumulation
/// (simt::RowScorer::pair over fp32 rows).
float ref_l2_lanes(const float* x, const float* y, std::size_t dim) {
  float partial[32] = {};
  for (std::size_t d = 0; d < dim; ++d) {
    const float diff = x[d] - y[d];
    partial[d & 31] += diff * diff;
  }
  float acc = partial[0];
  for (std::size_t l = 1; l < 32; ++l) acc = acc + partial[l];
  return acc;
}

FloatMatrix random_rows(std::size_t n, std::size_t dim, std::uint64_t seed) {
  FloatMatrix m(n, dim);
  Rng rng(seed, 5);
  for (std::size_t r = 0; r < n; ++r) {
    for (float& v : m.row(r)) {
      v = static_cast<float>(rng.next_double() * 4.0 - 2.0);
    }
  }
  return m;
}

TEST(KernelDispatch, ScalarAlwaysAvailable) {
  ASSERT_NE(ops_for(Backend::kScalar), nullptr);
  EXPECT_EQ(ops_for(Backend::kScalar)->backend, Backend::kScalar);
}

TEST(KernelDispatch, BackendNamesRoundTrip) {
  EXPECT_EQ(backend_from_string("scalar"), Backend::kScalar);
  EXPECT_EQ(backend_from_string("strict"), Backend::kScalar);
  EXPECT_EQ(backend_from_string("sse2"), Backend::kSse2);
  EXPECT_EQ(backend_from_string("avx2"), Backend::kAvx2);
  EXPECT_EQ(backend_from_string("auto"), detect_backend());
  EXPECT_THROW(backend_from_string("sse9"), Error);
  for (const Backend b : available_backends()) {
    EXPECT_EQ(backend_from_string(backend_name(b)), b);
  }
}

TEST(KernelDispatch, ScopedBackendRestores) {
  const Backend before = active_backend();
  {
    ScopedBackend strict(Backend::kScalar);
    EXPECT_EQ(active_backend(), Backend::kScalar);
    EXPECT_TRUE(strict_mode());
  }
  EXPECT_EQ(active_backend(), before);
}

TEST(KernelDispatch, EnvOverrideRoundTrip) {
  // The dispatcher resolves WKNNG_KERNEL on first use in *this* process; a
  // child process is the honest way to exercise the env path end to end.
  // ops() is already resolved here, so spot-check parse errors instead, then
  // verify each runnable name through the string parser the env path uses.
  EXPECT_THROW(backend_from_string("neon"), Error);
  for (const Backend b : available_backends()) {
    const KernelOps* table = ops_for(backend_from_string(backend_name(b)));
    ASSERT_NE(table, nullptr);
    EXPECT_STREQ(table->name, backend_name(b));
  }
}

TEST(KernelStrict, L2OneMatchesLaneStridedReference) {
  const KernelOps& scalar = *ops_for(Backend::kScalar);
  for (const std::size_t dim : kDims) {
    const FloatMatrix m = random_rows(2, dim, 100 + dim);
    const float* x = m.row(0).data();
    const float* y = m.row(1).data();
    EXPECT_EQ(scalar.l2_one(x, y, dim), ref_l2_lanes(x, y, dim)) << dim;
  }
}

TEST(KernelStrict, SerialPrimitivesMatchSerialReference) {
  const KernelOps& scalar = *ops_for(Backend::kScalar);
  for (const std::size_t dim : kDims) {
    const FloatMatrix m = random_rows(3, dim, 200 + dim);
    const float* x = m.row(0).data();
    const float* y = m.row(1).data();
    const float ref = ref_l2_serial(x, y, dim);
    EXPECT_EQ(scalar.l2_serial(x, y, dim), ref) << dim;

    const float* rows[2] = {y, m.row(2).data()};
    float out[2];
    scalar.l2_batch(x, rows, nullptr, 2, dim, out);
    EXPECT_EQ(out[0], ref) << dim;

    float tile[2];
    scalar.l2_tile(&x, nullptr, 1, rows, nullptr, 2, dim, tile, 2);
    EXPECT_EQ(tile[0], ref) << dim;
    EXPECT_EQ(tile[1], out[1]) << dim;
  }
}

TEST(KernelEquivalence, AllBackendsAgreeWithinRelativeTolerance) {
  for (const Backend b : available_backends()) {
    const KernelOps& k = *ops_for(b);
    for (const std::size_t dim : kDims) {
      const FloatMatrix m = random_rows(8, dim, 300 + dim);
      for (std::size_t i = 0; i < 4; ++i) {
        const float* x = m.row(i).data();
        const float* y = m.row(i + 4).data();
        const float ref = ref_l2_serial(x, y, dim);
        const float tol = 1e-4f * std::max(1.0f, ref);
        EXPECT_NEAR(k.l2_one(x, y, dim), ref, tol) << k.name << " dim " << dim;
        EXPECT_NEAR(k.l2_serial(x, y, dim), ref, tol)
            << k.name << " dim " << dim;
      }
    }
  }
}

TEST(KernelEquivalence, SharedCoreBitConsistencyAcrossPrimitives) {
  // Within one backend, the same pair must produce identical bits through
  // l2_serial, l2_batch (cached and uncached norms) and l2_tile — the
  // packed-candidate dedup in the k-NN sets depends on it.
  for (const Backend b : available_backends()) {
    const KernelOps& k = *ops_for(b);
    for (const std::size_t dim : kDims) {
      const FloatMatrix m = random_rows(6, dim, 400 + dim);
      std::vector<float> norms(6);
      for (std::size_t r = 0; r < 6; ++r) {
        norms[r] = k.norm_sq(m.row(r).data(), dim);
      }
      const float* q = m.row(0).data();
      const float* rows[5];
      for (std::size_t r = 0; r < 5; ++r) rows[r] = m.row(r + 1).data();

      float cached[5];
      float uncached[5];
      k.l2_batch(q, rows, norms.data() + 1, 5, dim, cached);
      k.l2_batch(q, rows, nullptr, 5, dim, uncached);
      float tile[5];
      k.l2_tile(&q, norms.data(), 1, rows, norms.data() + 1, 5, dim, tile, 5);
      for (std::size_t r = 0; r < 5; ++r) {
        const float serial = k.l2_serial(q, rows[r], dim);
        EXPECT_EQ(cached[r], serial) << k.name << " dim " << dim;
        EXPECT_EQ(uncached[r], serial) << k.name << " dim " << dim;
        EXPECT_EQ(tile[r], serial) << k.name << " dim " << dim;
      }
    }
  }
}

TEST(KernelEquivalence, TileMatchesBatchOnLargeTiles) {
  // Exercise the register-blocked (4-wide) and remainder paths of l2_tile.
  for (const Backend b : available_backends()) {
    const KernelOps& k = *ops_for(b);
    const std::size_t dim = 48;
    const std::size_t na = 5;
    const std::size_t nb = 7;  // not a multiple of the 4-row block
    const FloatMatrix m = random_rows(na + nb, dim, 77);
    const float* a_rows[na];
    const float* b_rows[nb];
    for (std::size_t i = 0; i < na; ++i) a_rows[i] = m.row(i).data();
    for (std::size_t j = 0; j < nb; ++j) b_rows[j] = m.row(na + j).data();

    float tile[na * nb];
    k.l2_tile(a_rows, nullptr, na, b_rows, nullptr, nb, dim, tile, nb);
    for (std::size_t i = 0; i < na; ++i) {
      float batch[nb];
      k.l2_batch(a_rows[i], b_rows, nullptr, nb, dim, batch);
      for (std::size_t j = 0; j < nb; ++j) {
        EXPECT_EQ(tile[i * nb + j], batch[j]) << k.name << ' ' << i << ',' << j;
      }
    }
  }
}

TEST(KernelNormTrick, AdversarialInputsStayBoundedAndNonNegative) {
  // The norm trick loses relative accuracy when ||x - y||^2 << ||x||^2
  // (catastrophic cancellation); the contract is an *absolute* error bound
  // proportional to the norm magnitudes, plus a hard non-negativity clamp
  // (Packed::make requires dist >= 0).
  struct Case {
    const char* name;
    float base;
    float delta;
  };
  const Case cases[] = {
      {"large-magnitude", 1.0e18f, 1.0e12f},
      {"cancellation", 1.0e4f, 1.0e-3f},
      {"signed-zero", 0.0f, -0.0f},
      {"subnormal", 1.0e-40f, 1.0e-41f},
  };
  const std::size_t dim = 33;
  for (const Backend b : available_backends()) {
    const KernelOps& k = *ops_for(b);
    for (const Case& c : cases) {
      std::vector<float> x(dim, c.base);
      std::vector<float> y(dim, c.base + c.delta);
      const float nx = k.norm_sq(x.data(), dim);
      const float ny = k.norm_sq(y.data(), dim);
      for (const auto [p, q] :
           {std::pair{x.data(), y.data()}, std::pair{y.data(), x.data()}}) {
        const float d = k.l2_one(p, q, dim);
        ASSERT_TRUE(std::isfinite(d)) << k.name << ' ' << c.name;
        EXPECT_GE(d, 0.0f) << k.name << ' ' << c.name;
        const double strict = ref_l2_serial(p, q, dim);
        // c * eps * (||x||^2 + ||y||^2) with a generous constant.
        const double bound =
            64.0 * static_cast<double>(std::numeric_limits<float>::epsilon()) *
                (static_cast<double>(nx) + static_cast<double>(ny)) +
            1e-4 * strict;
        EXPECT_LE(std::abs(static_cast<double>(d) - strict), bound)
            << k.name << ' ' << c.name;
      }
    }
  }
}

TEST(KernelNormTrick, IdenticalPointsAreExactlyZero) {
  // nx + nx - 2*nx cancels exactly in float, so identical points must give
  // exactly 0 on every backend — tests (and the self-match convention)
  // rely on it.
  for (const Backend b : available_backends()) {
    const KernelOps& k = *ops_for(b);
    for (const std::size_t dim : kDims) {
      const FloatMatrix m = random_rows(1, dim, 500 + dim);
      const float* x = m.row(0).data();
      EXPECT_EQ(k.l2_one(x, x, dim), 0.0f) << k.name << " dim " << dim;
      EXPECT_EQ(k.l2_serial(x, x, dim), 0.0f) << k.name << " dim " << dim;
    }
  }
}

TEST(KernelNonFinite, FindsEveryNaNAndInfPosition) {
  for (const Backend b : available_backends()) {
    const KernelOps& k = *ops_for(b);
    for (const std::size_t dim : {1ul, 7ul, 8ul, 9ul, 64ul, 100ul}) {
      std::vector<float> v(dim, 0.5f);
      EXPECT_FALSE(k.has_nonfinite(v.data(), dim)) << k.name;
      for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()}) {
        for (std::size_t pos = 0; pos < dim; ++pos) {
          std::vector<float> w(v);
          w[pos] = bad;
          EXPECT_TRUE(k.has_nonfinite(w.data(), dim))
              << k.name << " dim " << dim << " pos " << pos;
        }
      }
      // Subnormals and big-but-finite values are NOT non-finite.
      v[dim / 2] = 1.0e-41f;
      v[0] = std::numeric_limits<float>::max();
      EXPECT_FALSE(k.has_nonfinite(v.data(), dim)) << k.name;
    }
  }
}

TEST(KernelNorms, CachedAndOnTheFlyNormsAgreeBitExactly) {
  for (const Backend b : available_backends()) {
    const KernelOps& k = *ops_for(b);
    ScopedBackend use(b);
    const FloatMatrix m = random_rows(9, 37, 901);
    const std::vector<float> cache = row_norms(m);
    ASSERT_EQ(cache.size(), 9u);
    for (std::size_t r = 0; r < 9; ++r) {
      EXPECT_EQ(cache[r], k.norm_sq(m.row(r).data(), 37)) << k.name;
    }
  }
}

}  // namespace
}  // namespace wknng::kernels
