// Tab. 7 (extension) — the SQ8 compressed-vector hot path.
//
// Three ladders, each enumerating mode as the first argument (0 = fp32
// baseline, 1 = sq8 compressed) so scripts/bench_compare.py check-backends
// --prefix BM_Sq8 can enforce the compressed-tier speedup inside one JSON:
//
//   BM_Sq8Distance/<mode>/<dim>  streaming batch distances over a base far
//                                larger than L2 cache — the bandwidth-bound
//                                shape where 1 byte/dim codes beat 4
//                                bytes/dim floats (the CI gate: >= 2x on
//                                avx2 at d >= 128)
//   BM_Sq8Build/<mode>           end-to-end graph build at d = 128
//   BM_Sq8Search/<mode>          batched graph search over a built graph
//
// The recall counters document that the exact rerank keeps the compressed
// modes at fp32 quality while the time column shrinks.

#include "bench_common.hpp"

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "core/graph_search.hpp"
#include "kernels/kernels.hpp"
#include "kernels/sq8.hpp"

namespace wknng::bench {
namespace {

constexpr std::size_t kK = 10;
constexpr std::size_t kDistanceRows = 16384;  // 16k rows: > L2 at d >= 64

struct DistanceFixture {
  std::vector<const float*> rows;
  std::vector<float> norms;
  kernels::Sq8Matrix codes;
  std::vector<const std::uint8_t*> code_rows;
  std::vector<float> terms;
};

const FloatMatrix& distance_base(std::size_t dim) {
  return dataset(clustered(kDistanceRows, dim));
}

const DistanceFixture& distance_fixture(std::size_t dim) {
  static std::map<std::size_t, std::unique_ptr<DistanceFixture>> cache;
  static std::mutex mutex;
  std::lock_guard<std::mutex> lock(mutex);
  auto& slot = cache[dim];
  if (!slot) {
    const FloatMatrix& pts = distance_base(dim);
    slot = std::make_unique<DistanceFixture>();
    slot->rows.resize(pts.rows());
    for (std::size_t i = 0; i < pts.rows(); ++i) {
      slot->rows[i] = pts.row(i).data();
    }
    slot->norms = kernels::row_norms(pts);
    slot->codes = kernels::sq8_encode(pts);
    slot->code_rows.resize(pts.rows());
    for (std::size_t i = 0; i < pts.rows(); ++i) {
      slot->code_rows[i] = slot->codes.row(i).data();
    }
    slot->terms = kernels::sq8_code_terms(slot->codes);
  }
  return *slot;
}

// One query scored against every row of the base, batch shape. Streaming:
// each iteration touches the full candidate payload (64 KiB/k-dim in fp32,
// a quarter of that in codes), so time tracks bytes moved.
void BM_Sq8Distance(benchmark::State& state) {
  const bool sq8 = state.range(0) != 0;
  const auto dim = static_cast<std::size_t>(state.range(1));
  const FloatMatrix& pts = distance_base(dim);
  const DistanceFixture& fx = distance_fixture(dim);
  const kernels::KernelOps& k = kernels::ops();

  std::vector<float> query(pts.row(3).begin(), pts.row(3).end());
  std::vector<float> w;
  const kernels::Sq8Query prepared =
      kernels::sq8_prepare(query, fx.codes.codebook, w);
  std::vector<float> out(pts.rows());

  for (auto _ : state) {
    if (sq8) {
      k.sq8_l2_batch(prepared, fx.code_rows.data(), fx.terms.data(),
                     pts.rows(), out.data());
    } else {
      k.l2_batch(query.data(), fx.rows.data(), fx.norms.data(), pts.rows(),
                 dim, out.data());
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(sq8 ? "sq8" : "fp32");
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(pts.rows() * dim *
                                (sq8 ? sizeof(std::uint8_t) : sizeof(float))));
  state.counters["kernel_backend_avx2"] =
      kernels::active_backend() == kernels::Backend::kAvx2 ? 1.0 : 0.0;
}

// End-to-end build: same data, same parameters, compression flipped.
void BM_Sq8Build(benchmark::State& state) {
  const bool sq8 = state.range(0) != 0;
  const data::DatasetSpec spec = clustered(8192, 128);
  const FloatMatrix& pts = dataset(spec);
  core::BuildParams params;
  params.k = kK;
  params.refine_iters = 1;
  params.compression =
      sq8 ? core::Compression::kSq8 : core::Compression::kNone;

  double recall = 0.0;
  for (auto _ : state) {
    const core::BuildResult r = core::build_knng(pool(), pts, params);
    recall = sampled_recall(r.graph, spec, kK);
    benchmark::DoNotOptimize(recall);
  }
  state.SetLabel(sq8 ? "sq8" : "fp32");
  state.counters["recall"] = recall;
  state.counters["payload_MB"] =
      static_cast<double>(pts.size() * (sq8 ? 1 : sizeof(float))) / 1e6;
}

// Batched graph search (the serving kernel) over one prebuilt graph.
void BM_Sq8Search(benchmark::State& state) {
  const bool sq8 = state.range(0) != 0;
  const data::DatasetSpec spec = clustered(8192, 128);
  const FloatMatrix& pts = dataset(spec);
  static const KnnGraph graph = [&] {
    core::BuildParams params;
    params.k = kK;
    return core::build_knng(pool(), pts, params).graph;
  }();
  static const auto codes =
      std::make_shared<const kernels::Sq8Matrix>(kernels::sq8_encode(pts));
  static const std::vector<float> terms = kernels::sq8_code_terms(*codes);
  static const std::vector<float> norms = kernels::norm_cache(pts);
  const kernels::Sq8View view{codes.get(), terms};

  // Held-out proxy: perturbed base rows.
  FloatMatrix queries(256, pts.cols());
  Rng rng(99, 1);
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    const auto src = pts.row(rng.next_below(pts.rows()));
    auto dst = queries.row(qi);
    for (std::size_t d = 0; d < pts.cols(); ++d) {
      dst[d] = src[d] + 0.01f * static_cast<float>(rng.next_gaussian());
    }
  }

  core::SearchParams sp;
  sp.k = kK;
  core::SearchScratch scratch;
  std::uint64_t visits = 0;
  for (auto _ : state) {
    const core::BatchSearchResult r = core::search_batch(
        pool(),
        core::SearchTarget::over_graph(pts, norms, graph,
                                       sq8 ? view : kernels::Sq8View{}),
        queries, {}, sp, &scratch);
    visits = 0;
    for (const std::uint64_t v : r.visits) visits += v;
    benchmark::DoNotOptimize(visits);
  }
  state.SetLabel(sq8 ? "sq8" : "fp32");
  state.counters["queries"] = static_cast<double>(queries.rows());
  state.counters["visits_per_query"] =
      static_cast<double>(visits) / static_cast<double>(queries.rows());
}

BENCHMARK(BM_Sq8Distance)
    ->Args({0, 64})->Args({1, 64})
    ->Args({0, 128})->Args({1, 128})
    ->Args({0, 256})->Args({1, 256});
BENCHMARK(BM_Sq8Build)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Sq8Search)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wknng::bench

BENCHMARK_MAIN();
