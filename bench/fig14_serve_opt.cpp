// Fig. 14 (extension) — serve-path raw speed from the optimization layer
// (src/opt): occlusion-pruned, BFS/cache-blocked CSR layout with optional
// early termination, against the unoptimized graph_search_batch baseline on
// the same graph, queries, and search parameters.
//
// Each row times both paths interleaved (one base rep, one optimized rep,
// best-of over kReps pairs, so machine drift cancels out of the ratio) and
// reports the gate values CI checks on the `layout` row: `speedup` (mean
// per-query latency, base / optimized) and `recall_delta` (base recall@10
// minus optimized recall@10 — positive when pruning cost recall). Variants:
// the bare layout, +patience, +visit budget fixed at the free-running p90
// (capping only the tail), and the SQ8 tier on both sides (raw SQ8 search
// against SQ8 scored through the layout's permutation).
//
// The serving layout keeps a min_degree=12 floor under the k=16 source graph
// and variant 1 adds patience=12 — the sweep that chose them: floors of 4-8
// prune harder but cost 1-1.5 recall points at this density, while patience
// under 8 terminates descents that were still improving the tail slots.

#include <chrono>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/graph_search.hpp"
#include "kernels/sq8.hpp"
#include "opt/optimize.hpp"

namespace wknng::bench {
namespace {

constexpr std::size_t kK = 10;
constexpr std::size_t kQueries = 256;
constexpr std::size_t kMinDegree = 12;
constexpr int kReps = 9;
const data::DatasetSpec kSpec = [] {
  data::DatasetSpec spec = clustered(131072, 64);
  spec.clusters = 64;  // keep entry sampling cheap; the descent dominates
  return spec;
}();

struct ServeOptFixture {
  FloatMatrix queries;
  KnnGraph graph;
  KnnGraph truth;
  opt::ServingGraph sg;
  kernels::Sq8Matrix codes;
  std::vector<float> terms;
  std::size_t visit_p90 = 0;

  ServeOptFixture() {
    const FloatMatrix& base = dataset(kSpec);
    queries.resize(kQueries, kSpec.dim);
    Rng rng(140);
    for (std::size_t qi = 0; qi < kQueries; ++qi) {
      const auto src = base.row(rng.next_below(base.rows()));
      auto dst = queries.row(qi);
      for (std::size_t d = 0; d < kSpec.dim; ++d) {
        dst[d] = src[d] + 0.02f * rng.next_gaussian();
      }
    }
    core::BuildParams params;
    params.k = 16;
    params.num_trees = 16;
    params.refine_iters = 3;
    graph = core::build_knng(pool(), base, params).graph;
    truth = exact::brute_force_knn(pool(), base, queries, kK);
    opt::OptimizeOptions oo;
    oo.min_degree = kMinDegree;
    sg = opt::optimize_serving(pool(), base, graph, oo);
    codes = kernels::sq8_encode(base);
    terms = kernels::sq8_code_terms(codes);

    core::SearchParams sp;
    sp.k = kK;
    std::vector<std::uint64_t> visits =
        core::serving_search_batch(pool(), sg, queries, {}, sp).visits;
    std::sort(visits.begin(), visits.end());
    visit_p90 = visits[visits.size() * 9 / 10];
  }
};

ServeOptFixture& fixture() {
  static ServeOptFixture f;
  return f;
}

template <typename Fn>
double timed_us(const Fn& run) {
  const auto t0 = std::chrono::steady_clock::now();
  run();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() /
         static_cast<double>(kQueries);
}

// Arg 0: pruned + reordered layout only. Arg 1: + patience. Arg 2: + fixed
// visit budget at the free-running p90 (capping only the tail). Arg 3: the
// layout with the SQ8 tier, against the raw SQ8 search.
void BM_ServeOpt(benchmark::State& state) {
  const long variant = state.range(0);
  ServeOptFixture& f = fixture();
  const FloatMatrix& base = dataset(kSpec);

  core::SearchParams sp;
  sp.k = kK;
  sp.beam = 96;
  core::SearchParams sp_opt = sp;
  if (variant == 1 || variant == 2) sp_opt.patience = 12;
  if (variant == 2) sp_opt.visit_budget = f.visit_p90;
  const kernels::Sq8View sq8_view{&f.codes, f.terms};
  const kernels::Sq8View* sq8 = variant == 3 ? &sq8_view : nullptr;

  double us_base = 0.0;
  double us_opt = 0.0;
  double recall_base = 0.0;
  double recall_opt = 0.0;
  for (auto _ : state) {
    core::BatchSearchResult res_base;
    core::BatchSearchResult res_opt;
    const auto run_base = [&] {
      res_base = core::graph_search_batch(pool(), base, f.graph, f.queries,
                                          {}, sp, nullptr, nullptr, sq8);
    };
    const auto run_opt = [&] {
      res_opt = core::serving_search_batch(pool(), f.sg, f.queries, {},
                                           sp_opt, {}, nullptr, nullptr, sq8);
    };
    run_base();  // warm caches and the pool once, untimed
    run_opt();
    for (int rep = 0; rep < kReps; ++rep) {
      const double b = timed_us(run_base);
      const double o = timed_us(run_opt);
      if (rep == 0 || b < us_base) us_base = b;
      if (rep == 0 || o < us_opt) us_opt = o;
    }
    recall_base = exact::recall(res_base.results, f.truth);
    recall_opt = exact::recall(res_opt.results, f.truth);
  }

  const char* const labels[] = {"layout", "layout+patience", "layout+budget",
                                 "layout+sq8"};
  state.SetLabel(labels[variant]);
  state.counters["mean_us_base"] = us_base;
  state.counters["mean_us_opt"] = us_opt;
  state.counters["speedup"] = us_base / us_opt;
  state.counters["recall_base"] = recall_base;
  state.counters["recall_opt"] = recall_opt;
  state.counters["recall_delta"] = recall_base - recall_opt;
  state.counters["edges_kept_pct"] =
      100.0 * static_cast<double>(f.sg.edges_after) /
      static_cast<double>(f.sg.edges_before);
  state.SetItemsProcessed(state.iterations() * kQueries);
}

void register_all() {
  for (long variant : {0, 1, 2, 3}) {
    benchmark::RegisterBenchmark("Fig14/ServeOpt", BM_ServeOpt)
        ->Arg(variant)->Unit(benchmark::kMillisecond)->Iterations(1);
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace wknng::bench

BENCHMARK_MAIN();
