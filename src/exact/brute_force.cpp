#include "exact/brute_force.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/topk.hpp"

namespace wknng::exact {

namespace {

void write_row(KnnGraph& g, std::size_t row, TopK&& heap) {
  const auto sorted = heap.take_sorted();
  auto out = g.row(row);
  std::copy(sorted.begin(), sorted.end(), out.begin());
}

}  // namespace

KnnGraph brute_force_knng(ThreadPool& pool, const FloatMatrix& points,
                          std::size_t k, std::size_t block) {
  const std::size_t n = points.rows();
  WKNNG_CHECK_MSG(k > 0 && k < n, "need 0 < k < n; k=" << k << " n=" << n);
  block = std::max<std::size_t>(1, block);

  KnnGraph g(n, k);
  // Row pointers and the squared-norm cache feeding the tile micro-kernel
  // (the strict backend ignores the norms and runs the serial reference).
  std::vector<const float*> rows(n);
  for (std::size_t r = 0; r < n; ++r) rows[r] = points.row(r).data();
  const std::vector<float> norms = kernels::norm_cache(points);
  const float* norms_ptr = norms.empty() ? nullptr : norms.data();
  const kernels::KernelOps& ops = kernels::ops();

  // Parallelise over query stripes; each stripe streams all j-blocks so a
  // block of candidate rows stays cache-hot across the stripe's queries.
  const std::size_t stripe = 64;
  const std::size_t num_stripes = (n + stripe - 1) / stripe;
  pool.parallel_for(num_stripes, [&](std::size_t s) {
    const std::size_t i_begin = s * stripe;
    const std::size_t i_end = std::min(i_begin + stripe, n);
    const std::size_t na = i_end - i_begin;
    std::vector<TopK> heaps;
    heaps.reserve(na);
    for (std::size_t i = i_begin; i < i_end; ++i) heaps.emplace_back(k);
    std::vector<float> dist(na * block);

    for (std::size_t j0 = 0; j0 < n; j0 += block) {
      const std::size_t j_end = std::min(j0 + block, n);
      const std::size_t nb = j_end - j0;
      ops.l2_tile(rows.data() + i_begin,
                  norms_ptr != nullptr ? norms_ptr + i_begin : nullptr, na,
                  rows.data() + j0,
                  norms_ptr != nullptr ? norms_ptr + j0 : nullptr, nb,
                  points.cols(), dist.data(), block);
      // Heap pushes keep the historical (i-then-j) order, so tie-breaking is
      // unchanged from the pre-dispatch loop.
      for (std::size_t i = i_begin; i < i_end; ++i) {
        TopK& heap = heaps[i - i_begin];
        const float* drow = &dist[(i - i_begin) * block];
        for (std::size_t j = j0; j < j_end; ++j) {
          if (j == i) continue;
          heap.push(drow[j - j0], static_cast<std::uint32_t>(j));
        }
      }
    }
    for (std::size_t i = i_begin; i < i_end; ++i) {
      write_row(g, i, std::move(heaps[i - i_begin]));
    }
  });
  return g;
}

KnnGraph brute_force_knn(ThreadPool& pool, const FloatMatrix& base,
                         const FloatMatrix& queries, std::size_t k,
                         std::span<const std::uint32_t> exclude_id) {
  const std::size_t n = base.rows();
  const std::size_t q = queries.rows();
  WKNNG_CHECK_MSG(k > 0 && k <= n, "need 0 < k <= n; k=" << k << " n=" << n);
  WKNNG_CHECK(base.cols() == queries.cols());
  WKNNG_CHECK(exclude_id.empty() || exclude_id.size() == q);

  KnnGraph g(q, k);
  // Base row pointers + norm cache shared by every query (strict backend
  // ignores the norms and scores serially).
  std::vector<const float*> rows(n);
  for (std::size_t r = 0; r < n; ++r) rows[r] = base.row(r).data();
  const std::vector<float> norms = kernels::norm_cache(base);
  const float* norms_ptr = norms.empty() ? nullptr : norms.data();
  const kernels::KernelOps& ops = kernels::ops();

  constexpr std::size_t kChunk = 1024;
  pool.parallel_for(q, 8, [&](std::size_t qi) {
    const std::uint32_t skip =
        exclude_id.empty() ? kNoExclude : exclude_id[qi];
    TopK heap(k);
    auto query = queries.row(qi);
    float dist[kChunk];
    for (std::size_t j0 = 0; j0 < n; j0 += kChunk) {
      const std::size_t cnt = std::min(kChunk, n - j0);
      ops.l2_batch(query.data(), rows.data() + j0,
                   norms_ptr != nullptr ? norms_ptr + j0 : nullptr, cnt,
                   base.cols(), dist);
      for (std::size_t j = j0; j < j0 + cnt; ++j) {
        if (j == skip) continue;
        heap.push(dist[j - j0], static_cast<std::uint32_t>(j));
      }
    }
    write_row(g, qi, std::move(heap));
  });
  return g;
}

SampledTruth sampled_ground_truth(ThreadPool& pool, const FloatMatrix& points,
                                  std::size_t k, std::size_t sample_size,
                                  std::uint64_t seed) {
  const std::size_t n = points.rows();
  sample_size = std::min(sample_size, n);

  // Deterministic sample without replacement (partial Fisher–Yates).
  std::vector<std::uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  Rng rng(seed, 7);
  for (std::size_t i = 0; i < sample_size; ++i) {
    const std::size_t j = i + rng.next_below(n - i);
    std::swap(ids[i], ids[j]);
  }
  ids.resize(sample_size);
  std::sort(ids.begin(), ids.end());

  FloatMatrix queries(sample_size, points.cols());
  for (std::size_t i = 0; i < sample_size; ++i) {
    auto src = points.row(ids[i]);
    std::copy(src.begin(), src.end(), queries.row(i).begin());
  }

  SampledTruth truth;
  truth.graph = brute_force_knn(pool, points, queries, k, ids);
  truth.ids = std::move(ids);
  return truth;
}

}  // namespace wknng::exact
