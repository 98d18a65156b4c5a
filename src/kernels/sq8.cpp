#include "kernels/sq8.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "kernels/kernels.hpp"

namespace wknng::kernels {

Sq8Matrix sq8_encode(const FloatMatrix& points) {
  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();
  if (n == 0 || dim == 0) {
    throw Sq8TrainError("cannot train SQ8 on an empty set");
  }

  Sq8Matrix out;
  out.codebook.bias.assign(dim, 0.0f);
  out.codebook.scale.assign(dim, 0.0f);

  // Per-dimension range. Non-finite values would poison the range (and the
  // codes of every point sharing the dimension), so they are a training
  // error — the builder quarantines such rows before encoding.
  std::vector<float> lo(dim, std::numeric_limits<float>::max());
  std::vector<float> hi(dim, std::numeric_limits<float>::lowest());
  for (std::size_t i = 0; i < n; ++i) {
    auto row = points.row(i);
    for (std::size_t d = 0; d < dim; ++d) {
      if (!std::isfinite(row[d])) {
        throw Sq8TrainError("SQ8 training set contains NaN/Inf (row " +
                            std::to_string(i) +
                            "): quarantine non-finite rows before encoding");
      }
      lo[d] = std::min(lo[d], row[d]);
      hi[d] = std::max(hi[d], row[d]);
    }
  }
  std::size_t degenerate = 0;
  for (std::size_t d = 0; d < dim; ++d) {
    out.codebook.bias[d] = lo[d];
    if (hi[d] > lo[d]) {
      out.codebook.scale[d] = (hi[d] - lo[d]) / 255.0f;
    } else {
      // Constant dimension: scale stays exactly 0, every code is 0, and
      // decode reproduces the constant (bias) bit-exactly.
      ++degenerate;
    }
  }
  if (degenerate == dim) {
    throw Sq8TrainError(
        "SQ8 training set has zero variance in every dimension "
        "(all points identical): no quantization range exists");
  }

  out.codes.resize(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    auto src = points.row(i);
    auto dst = out.codes.row(i);
    for (std::size_t d = 0; d < dim; ++d) {
      const float scale = out.codebook.scale[d];
      if (scale == 0.0f) {
        dst[d] = 0;
        continue;
      }
      const float normalized = (src[d] - out.codebook.bias[d]) / scale;
      dst[d] = static_cast<std::uint8_t>(
          std::clamp(std::lround(normalized), 0L, 255L));
    }
  }
  return out;
}

FloatMatrix sq8_decode(const Sq8Matrix& m) {
  FloatMatrix out(m.rows(), m.dim());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    auto src = m.row(i);
    auto dst = out.row(i);
    for (std::size_t d = 0; d < m.dim(); ++d) {
      dst[d] = m.codebook.bias[d] +
               m.codebook.scale[d] * static_cast<float>(src[d]);
    }
  }
  return out;
}

float sq8_l2_sq_ref(std::span<const float> query,
                    std::span<const std::uint8_t> code,
                    const Sq8Codebook& codebook) {
  float acc = 0.0f;
  for (std::size_t d = 0; d < query.size(); ++d) {
    const float decoded =
        codebook.bias[d] + codebook.scale[d] * static_cast<float>(code[d]);
    const float diff = query[d] - decoded;
    acc += diff * diff;
  }
  return acc;
}

Sq8Query sq8_prepare_into(std::span<const float> query,
                          const Sq8Codebook& codebook, float* w_out) {
  const std::size_t dim = query.size();
  float self = 0.0f;
  for (std::size_t d = 0; d < dim; ++d) {
    const float centered = query[d] - codebook.bias[d];
    w_out[d] = centered * codebook.scale[d];
    self += centered * centered;
  }
  Sq8Query q;
  q.q = query.data();
  q.w = w_out;
  q.bias = codebook.bias.data();
  q.scale = codebook.scale.data();
  q.self = self;
  q.dim = dim;
  return q;
}

Sq8Query sq8_prepare(std::span<const float> query, const Sq8Codebook& codebook,
                     std::vector<float>& w_buf) {
  w_buf.resize(query.size());
  return sq8_prepare_into(query, codebook, w_buf.data());
}

std::vector<float> sq8_code_terms(const Sq8Matrix& m) {
  std::vector<float> terms(m.rows());
  const KernelOps& k = ops();
  const float* scale = m.codebook.scale.data();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    terms[r] = k.sq8_term(scale, m.row(r).data(), m.dim());
  }
  return terms;
}

std::vector<float> sq8_term_cache(const Sq8Matrix& m) {
  return strict_mode() ? std::vector<float>{} : sq8_code_terms(m);
}

}  // namespace wknng::kernels
