#include "ivf/ivf_sq8.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "common/topk.hpp"
#include "exact/brute_force.hpp"

namespace wknng::ivf {

IvfSq8Index IvfSq8Index::build(ThreadPool& pool, const FloatMatrix& points,
                               const IvfParams& params, IvfCost* cost) {
  IvfSq8Index index;
  index.flat_ = IvfFlatIndex::build(pool, points, params, cost);
  Timer timer;
  index.quantized_ = kernels::sq8_encode(points);
  if (cost != nullptr) cost->train_seconds += timer.elapsed_s();
  return index;
}

KnnGraph IvfSq8Index::search(ThreadPool& pool, const FloatMatrix& points,
                             const FloatMatrix& queries, std::size_t k,
                             std::size_t nprobe, std::size_t rescore,
                             std::span<const std::uint32_t> exclude_self,
                             IvfCost* cost) const {
  const std::size_t nq = queries.rows();
  const std::size_t nl = flat_.nlist();
  nprobe = std::clamp<std::size_t>(nprobe, 1, nl);
  WKNNG_CHECK(exclude_self.empty() || exclude_self.size() == nq);
  WKNNG_CHECK(queries.cols() == quantized_.dim());
  Timer timer;

  const std::size_t scan_k = std::max(k, rescore);
  KnnGraph g(nq, k);
  std::atomic<std::uint64_t> evals{0};
  pool.parallel_for(nq, 16, [&](std::size_t qi) {
    auto q = queries.row(qi);
    std::uint64_t local_evals = 0;

    TopK coarse(nprobe);
    for (std::size_t c = 0; c < nl; ++c) {
      coarse.push(exact::l2_sq(q, flat_.centroids().row(c)),
                  static_cast<std::uint32_t>(c));
    }
    local_evals += nl;

    const std::uint32_t skip =
        exclude_self.empty() ? exact::kNoExclude : exclude_self[qi];
    TopK heap(scan_k);
    for (const Neighbor& probe : coarse.take_sorted()) {
      for (std::uint32_t id : flat_.list(probe.id)) {
        if (id == skip) continue;
        heap.push(kernels::sq8_l2_sq_ref(q, quantized_.row(id),
                                         quantized_.codebook),
                  id);
        ++local_evals;
      }
    }

    auto found = heap.take_sorted();
    if (rescore > k) {
      // Exact re-ranking of the quantized shortlist.
      TopK exact_heap(k);
      for (const Neighbor& cand : found) {
        exact_heap.push(exact::l2_sq(q, points.row(cand.id)), cand.id);
        ++local_evals;
      }
      found = exact_heap.take_sorted();
    }
    if (found.size() > k) found.resize(k);
    std::copy(found.begin(), found.end(), g.row(qi).begin());
    evals.fetch_add(local_evals, std::memory_order_relaxed);
  });

  if (cost != nullptr) {
    cost->distance_evals += evals.load();
    cost->search_seconds += timer.elapsed_s();
  }
  return g;
}

KnnGraph IvfSq8Index::build_knng(ThreadPool& pool, const FloatMatrix& points,
                                 std::size_t k, std::size_t nprobe,
                                 std::size_t rescore, IvfCost* cost) const {
  std::vector<std::uint32_t> self(points.rows());
  std::iota(self.begin(), self.end(), 0u);
  return search(pool, points, points, k, nprobe, rescore, self, cost);
}

}  // namespace wknng::ivf
