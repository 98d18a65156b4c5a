// Tests of the SQ8 compressed-tier kernel rows (src/kernels/sq8.*): the
// differential layer (every SIMD backend against the serial reference and
// against each other), the per-backend bit-consistency contract across the
// one/batch/tile shapes and cached-vs-recomputed term caches, and the codec
// property layer (reconstruction bounds, degenerate dimensions, adversarial
// inputs, typed training errors, persistence round-trips).

#include "kernels/sq8.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/graph_io.hpp"
#include "kernels/kernels.hpp"

namespace wknng::kernels {
namespace {

// Dimensions straddling the SSE2 (16 codes/step) and AVX2 (32 codes/step)
// strides plus scalar-tail shapes.
const std::size_t kDims[] = {1, 3, 7, 15, 16, 17, 31, 32, 33, 100, 257};

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (const Backend b : {Backend::kScalar, Backend::kSse2, Backend::kAvx2}) {
    if (ops_for(b) != nullptr) out.push_back(b);
  }
  return out;
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

std::vector<const std::uint8_t*> code_ptrs(const Sq8Matrix& m) {
  std::vector<const std::uint8_t*> ptrs(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) ptrs[i] = m.row(i).data();
  return ptrs;
}

// --- Differential layer ----------------------------------------------------

// Every available backend's sq8_l2_one agrees with the serial dequantized
// reference to SIMD-reassociation tolerance, on every stride shape.
TEST(Sq8Differential, AllBackendsMatchReference) {
  for (const std::size_t dim : kDims) {
    const FloatMatrix pts = random_rows(24, dim, 0xD1F0 + dim);
    const Sq8Matrix m = sq8_encode(pts);
    const FloatMatrix queries = random_rows(6, dim, 0xD1F1 + dim);
    for (const Backend b : available_backends()) {
      const KernelOps* k = ops_for(b);
      ScopedBackend guard(b);
      std::vector<float> w;
      for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
        const Sq8Query q = sq8_prepare(queries.row(qi), m.codebook, w);
        for (std::size_t i = 0; i < m.rows(); ++i) {
          const float got = k->sq8_l2_one(q, m.row(i).data());
          const float want =
              sq8_l2_sq_ref(queries.row(qi), m.row(i), m.codebook);
          const float tol = 1e-3f * std::max(1.0f, std::abs(want));
          EXPECT_NEAR(got, want, tol)
              << backend_name(b) << " dim=" << dim << " q=" << qi
              << " row=" << i;
        }
      }
    }
  }
}

// The scalar backend is the strict reference: bit-identical to the serial
// sq8_l2_sq_ref accumulation (the pre-dispatch IVF scan's), on every shape.
TEST(Sq8Differential, ScalarBitIdenticalToIvfReference) {
  for (const std::size_t dim : kDims) {
    const FloatMatrix pts = random_rows(16, dim, 0xABC0 + dim);
    const Sq8Matrix m = sq8_encode(pts);
    const FloatMatrix queries = random_rows(4, dim, 0xABC1 + dim);
    const KernelOps* k = ops_for(Backend::kScalar);
    std::vector<float> w;
    for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
      const Sq8Query q = sq8_prepare(queries.row(qi), m.codebook, w);
      for (std::size_t i = 0; i < m.rows(); ++i) {
        const float want =
            kernels::sq8_l2_sq_ref(queries.row(qi), m.row(i), m.codebook);
        EXPECT_EQ(k->sq8_l2_one(q, m.row(i).data()), want)
            << "dim=" << dim << " q=" << qi << " row=" << i;
      }
    }
  }
}

// Available backends agree with each other (cross-ISA equivalence).
TEST(Sq8Differential, BackendsAgreePairwise) {
  const auto backends = available_backends();
  for (const std::size_t dim : {31u, 64u, 130u}) {
    const FloatMatrix pts = random_rows(20, dim, 0xC0DE + dim);
    const Sq8Matrix m = sq8_encode(pts);
    const FloatMatrix queries = random_rows(3, dim, 0xC1DE + dim);
    std::vector<float> w;
    for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
      const Sq8Query q = sq8_prepare(queries.row(qi), m.codebook, w);
      for (std::size_t i = 0; i < m.rows(); ++i) {
        const float ref = ops_for(backends[0])->sq8_l2_one(q, m.row(i).data());
        for (std::size_t bi = 1; bi < backends.size(); ++bi) {
          const float got =
              ops_for(backends[bi])->sq8_l2_one(q, m.row(i).data());
          EXPECT_NEAR(got, ref, 1e-3f * std::max(1.0f, std::abs(ref)))
              << backend_name(backends[bi]) << " vs "
              << backend_name(backends[0]) << " dim=" << dim;
        }
      }
    }
  }
}

// --- Per-backend bit-consistency across shapes -----------------------------

// Within one backend, one/batch/tile score the same (query, code row) pair
// to the same bits, with or without a term cache. This is the promise the
// packed-candidate dedup in the k-NN sets relies on.
TEST(Sq8BitConsistency, ShapesAgreeWithinEachBackend) {
  for (const Backend b : available_backends()) {
    const KernelOps* k = ops_for(b);
    ScopedBackend guard(b);
    for (const std::size_t dim : {7u, 32u, 100u}) {
      const FloatMatrix pts = random_rows(13, dim, 0xB17 + dim);
      const Sq8Matrix m = sq8_encode(pts);
      const std::vector<const std::uint8_t*> rows = code_ptrs(m);
      const std::vector<float> terms = sq8_code_terms(m);
      const FloatMatrix queries = random_rows(5, dim, 0xB18 + dim);

      std::vector<std::vector<float>> wbufs(queries.rows());
      std::vector<Sq8Query> prepared(queries.rows());
      for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
        prepared[qi] = sq8_prepare(queries.row(qi), m.codebook, wbufs[qi]);
      }

      // batch, with and without the cache, vs one-at-a-time.
      std::vector<float> batch_cached(m.rows());
      std::vector<float> batch_nocache(m.rows());
      for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
        k->sq8_l2_batch(prepared[qi], rows.data(), terms.data(), m.rows(),
                        batch_cached.data());
        k->sq8_l2_batch(prepared[qi], rows.data(), nullptr, m.rows(),
                        batch_nocache.data());
        for (std::size_t i = 0; i < m.rows(); ++i) {
          const float one = k->sq8_l2_one(prepared[qi], rows[i]);
          EXPECT_EQ(batch_cached[i], one)
              << backend_name(b) << " batch(cached) dim=" << dim;
          EXPECT_EQ(batch_nocache[i], one)
              << backend_name(b) << " batch(nocache) dim=" << dim;
        }
      }

      // tile (cached and uncached) vs one-at-a-time, including a padded ld.
      const std::size_t ld = m.rows() + 3;
      std::vector<float> tile(queries.rows() * ld, -1.0f);
      k->sq8_l2_tile(prepared.data(), prepared.size(), rows.data(),
                     terms.data(), m.rows(), tile.data(), ld);
      for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
        for (std::size_t i = 0; i < m.rows(); ++i) {
          EXPECT_EQ(tile[qi * ld + i], k->sq8_l2_one(prepared[qi], rows[i]))
              << backend_name(b) << " tile dim=" << dim;
        }
      }
      std::vector<float> tile2(queries.rows() * ld, -1.0f);
      k->sq8_l2_tile(prepared.data(), prepared.size(), rows.data(), nullptr,
                     m.rows(), tile2.data(), ld);
      EXPECT_EQ(tile, tile2) << backend_name(b) << " tile cache dim=" << dim;
    }
  }
}

// The term cache is built with the active backend's sq8_term accumulation.
TEST(Sq8BitConsistency, CodeTermsMatchPerRowAccumulation) {
  for (const Backend b : available_backends()) {
    ScopedBackend guard(b);
    const KernelOps* k = ops_for(b);
    const FloatMatrix pts = random_rows(9, 67, 0x7E53);
    const Sq8Matrix m = sq8_encode(pts);
    const std::vector<float> terms = sq8_code_terms(m);
    ASSERT_EQ(terms.size(), m.rows());
    for (std::size_t i = 0; i < m.rows(); ++i) {
      EXPECT_EQ(terms[i], k->sq8_term(m.codebook.scale.data(),
                                      m.row(i).data(), m.dim()))
          << backend_name(b) << " row " << i;
    }
  }
}

// Distances are never negative, even when the expanded form cancels badly
// (query exactly on a reconstructed point).
TEST(Sq8BitConsistency, SelfDistanceClampedNonNegative) {
  const FloatMatrix pts = random_rows(8, 48, 0xC1A);
  const Sq8Matrix m = sq8_encode(pts);
  const FloatMatrix recon = sq8_decode(m);
  for (const Backend b : available_backends()) {
    const KernelOps* k = ops_for(b);
    std::vector<float> w;
    for (std::size_t i = 0; i < m.rows(); ++i) {
      const Sq8Query q = sq8_prepare(recon.row(i), m.codebook, w);
      const float d = k->sq8_l2_one(q, m.row(i).data());
      EXPECT_GE(d, 0.0f) << backend_name(b) << " row " << i;
      EXPECT_LE(d, 1e-3f) << backend_name(b) << " row " << i;
    }
  }
}

// --- Codec property layer --------------------------------------------------

// Per-dimension reconstruction error is bounded by scale/2 (round-to-nearest
// onto a 255-step grid).
TEST(Sq8Codec, ReconstructionErrorWithinHalfScale) {
  for (const std::size_t dim : {5u, 33u, 96u}) {
    const FloatMatrix pts = random_rows(64, dim, 0x5EED + dim);
    const Sq8Matrix m = sq8_encode(pts);
    const FloatMatrix recon = sq8_decode(m);
    for (std::size_t i = 0; i < pts.rows(); ++i) {
      for (std::size_t d = 0; d < dim; ++d) {
        const float half = 0.5f * m.codebook.scale[d];
        // A hair of slack for the decode arithmetic itself.
        EXPECT_LE(std::abs(recon(i, d) - pts(i, d)),
                  half + 1e-6f * std::max(1.0f, std::abs(pts(i, d))))
            << "dim " << d << " row " << i;
      }
    }
  }
}

// A constant dimension gets scale exactly 0 and decodes bit-exactly.
TEST(Sq8Codec, ConstantDimensionIsExact) {
  FloatMatrix pts = random_rows(32, 8, 0xF1A7);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    pts(i, 2) = 3.25f;    // exactly representable
    pts(i, 5) = -0.125f;  // exactly representable, negative
  }
  const Sq8Matrix m = sq8_encode(pts);
  EXPECT_EQ(m.codebook.scale[2], 0.0f);
  EXPECT_EQ(m.codebook.scale[5], 0.0f);
  const FloatMatrix recon = sq8_decode(m);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    EXPECT_EQ(m.row(i)[2], 0);
    EXPECT_EQ(recon(i, 2), 3.25f);
    EXPECT_EQ(recon(i, 5), -0.125f);
  }
}

// Subnormal spreads and huge magnitudes encode without overflow/underflow
// surprises: codes stay in range and reconstruction stays finite and
// within the half-scale bound.
TEST(Sq8Codec, AdversarialMagnitudesStayFinite) {
  FloatMatrix pts(16, 4);
  Rng rng(0xADC, 1);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    // dim 0: subnormal spread around 0.
    pts(i, 0) = static_cast<float>(rng.next_double() - 0.5) * 1e-41f;
    // dim 1: huge positive magnitudes.
    pts(i, 1) = 1e37f + static_cast<float>(rng.next_double()) * 1e37f;
    // dim 2: huge spread straddling zero.
    pts(i, 2) = static_cast<float>(rng.next_double() * 2.0 - 1.0) * 3e37f;
    // dim 3: ordinary values.
    pts(i, 3) = static_cast<float>(rng.next_double());
  }
  const Sq8Matrix m = sq8_encode(pts);
  const FloatMatrix recon = sq8_decode(m);
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_TRUE(std::isfinite(m.codebook.scale[d])) << "dim " << d;
    EXPECT_TRUE(std::isfinite(m.codebook.bias[d])) << "dim " << d;
  }
  std::vector<float> w;
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    for (std::size_t d = 0; d < 4; ++d) {
      EXPECT_TRUE(std::isfinite(recon(i, d))) << "row " << i << " dim " << d;
      EXPECT_LE(std::abs(recon(i, d) - pts(i, d)),
                0.5f * m.codebook.scale[d] * 1.0001f + 1e-6f)
          << "row " << i << " dim " << d;
    }
    // Squared distances between +-3e37 values overflow fp32 in exact math
    // too, so the property is relative: a backend may only return a
    // non-finite distance when the serial dequantized reference does.
    const Sq8Query q = sq8_prepare(pts.row(i), m.codebook, w);
    const float ref = sq8_l2_sq_ref(pts.row(i), m.row(0), m.codebook);
    for (const Backend b : available_backends()) {
      const float d = ops_for(b)->sq8_l2_one(q, m.row(0).data());
      if (std::isfinite(ref)) {
        EXPECT_TRUE(std::isfinite(d)) << backend_name(b) << " row " << i;
      }
    }
  }
}

// Training rejects the degenerate sets with the typed error.
TEST(Sq8Codec, TrainingRejectsDegenerateSets) {
  EXPECT_THROW(sq8_encode(FloatMatrix(0, 4)), Sq8TrainError);

  FloatMatrix nan_pts = random_rows(6, 4, 0xBAD);
  nan_pts(3, 1) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(sq8_encode(nan_pts), Sq8TrainError);

  FloatMatrix inf_pts = random_rows(6, 4, 0xBAE);
  inf_pts(0, 2) = std::numeric_limits<float>::infinity();
  EXPECT_THROW(sq8_encode(inf_pts), Sq8TrainError);

  FloatMatrix flat(5, 3);
  for (std::size_t i = 0; i < flat.rows(); ++i) {
    flat(i, 0) = 1.0f;
    flat(i, 1) = -2.0f;
    flat(i, 2) = 0.0f;
  }
  EXPECT_THROW(sq8_encode(flat), Sq8TrainError);

  // The typed error is still a wknng::Error (historical catch sites).
  EXPECT_THROW(sq8_encode(FloatMatrix(0, 4)), Error);
}

// Along one dimension, compressed distances are monotone in the code gap:
// moving the candidate code further from the query's position never brings
// the compressed distance down.
TEST(Sq8Codec, DistancesMonotoneInCodeGap) {
  FloatMatrix pts(256, 1);
  for (std::size_t i = 0; i < 256; ++i) {
    pts(i, 0) = static_cast<float>(i) * 0.5f - 60.0f;
  }
  const Sq8Matrix m = sq8_encode(pts);
  const float query[] = {pts(40, 0)};
  std::vector<float> w;
  const Sq8Query q = sq8_prepare({query, 1}, m.codebook, w);
  for (const Backend b : available_backends()) {
    const KernelOps* k = ops_for(b);
    float last = k->sq8_l2_one(q, m.row(40).data());
    for (std::size_t i = 41; i < 256; ++i) {
      const float d = k->sq8_l2_one(q, m.row(i).data());
      EXPECT_GE(d, last) << backend_name(b) << " ascending at " << i;
      last = d;
    }
    last = k->sq8_l2_one(q, m.row(40).data());
    for (std::size_t i = 40; i-- > 0;) {
      const float d = k->sq8_l2_one(q, m.row(i).data());
      EXPECT_GE(d, last) << backend_name(b) << " descending at " << i;
      last = d;
    }
  }
}

// --- Persistence -----------------------------------------------------------

TEST(Sq8Persistence, StandaloneFileRoundTrip) {
  const FloatMatrix pts = random_rows(37, 19, 0xF11E);
  const Sq8Matrix m = sq8_encode(pts);
  const std::string path = ::testing::TempDir() + "sq8_roundtrip.wksq8";
  data::write_sq8(path, m);
  const Sq8Matrix back = data::read_sq8(path);
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.dim(), m.dim());
  EXPECT_EQ(back.codebook.bias, m.codebook.bias);
  EXPECT_EQ(back.codebook.scale, m.codebook.scale);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t d = 0; d < m.dim(); ++d) {
      ASSERT_EQ(back.row(i)[d], m.row(i)[d]) << "row " << i << " dim " << d;
    }
  }
  std::remove(path.c_str());
}

TEST(Sq8Persistence, CorruptFileRejected) {
  const FloatMatrix pts = random_rows(8, 5, 0xF11F);
  const Sq8Matrix m = sq8_encode(pts);
  const std::string path = ::testing::TempDir() + "sq8_corrupt.wksq8";
  data::write_sq8(path, m);
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputc('X', f);  // clobber the magic
    std::fclose(f);
  }
  EXPECT_THROW(data::read_sq8(path), Error);
  std::remove(path.c_str());
}

// Checkpoints with a compressed tier round-trip the codes through the
// optional trailer; checkpoints without stay readable (and reject a
// truncated trailer).
TEST(Sq8Persistence, CheckpointTrailerRoundTrip) {
  const FloatMatrix pts = random_rows(11, 6, 0xCB01);
  data::BuildCheckpoint c;
  c.signature = 0x1234567890ABCDEFULL;
  c.n = 11;
  c.k = 4;
  c.rounds_done = 2;
  c.effective_strategy = 1;
  c.quarantined = {3, 7};
  c.sets.assign(c.n * c.k, 0x0102030405060708ULL);
  c.sq8 = std::make_shared<const Sq8Matrix>(sq8_encode(pts));

  const std::string path = ::testing::TempDir() + "sq8_ckpt.wkcp";
  data::write_checkpoint(path, c);
  const data::BuildCheckpoint back = data::read_checkpoint(path);
  EXPECT_EQ(back.signature, c.signature);
  EXPECT_EQ(back.n, c.n);
  EXPECT_EQ(back.k, c.k);
  EXPECT_EQ(back.quarantined, c.quarantined);
  EXPECT_EQ(back.sets, c.sets);
  ASSERT_NE(back.sq8, nullptr);
  EXPECT_EQ(back.sq8->rows(), c.sq8->rows());
  EXPECT_EQ(back.sq8->dim(), c.sq8->dim());
  EXPECT_EQ(back.sq8->codebook.bias, c.sq8->codebook.bias);
  EXPECT_EQ(back.sq8->codebook.scale, c.sq8->codebook.scale);
  for (std::size_t i = 0; i < c.sq8->rows(); ++i) {
    for (std::size_t d = 0; d < c.sq8->dim(); ++d) {
      ASSERT_EQ(back.sq8->row(i)[d], c.sq8->row(i)[d]);
    }
  }

  // Classic checkpoint (no tier) still reads back with a null sq8.
  c.sq8 = nullptr;
  data::write_checkpoint(path, c);
  EXPECT_EQ(data::read_checkpoint(path).sq8, nullptr);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wknng::kernels
