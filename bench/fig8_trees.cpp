// Fig. 8 (extension) — forest size versus recall.
//
// The RP forest buys recall with more trees (independent partitions). The
// sweep reports recall and brute-force work per forest size with refinement
// off, so the forest's own contribution is visible.

#include "bench_common.hpp"

namespace wknng::bench {
namespace {

constexpr std::size_t kK = 10;
const data::DatasetSpec kSpec = clustered(4096, 32);

void BM_TreeSweep(benchmark::State& state) {
  const auto trees = static_cast<std::size_t>(state.range(0));
  const FloatMatrix& pts = dataset(kSpec);
  core::BuildParams params;
  params.k = kK;
  params.num_trees = trees;
  params.refine_iters = 0;

  core::BuildResult last;
  for (auto _ : state) {
    last = core::build_knng(pool(), pts, params);
  }
  state.SetLabel("trees");
  state.counters["trees"] = static_cast<double>(trees);
  state.counters["recall"] = sampled_recall(last.graph, kSpec, kK);
  state.counters["dist_evals"] = static_cast<double>(last.stats.distance_evals);
}

void register_all() {
  for (long trees : {2, 3, 4, 6, 8}) {
    benchmark::RegisterBenchmark("Fig8/TreeSweep", BM_TreeSweep)
        ->Arg(trees)->Unit(benchmark::kMillisecond)->Iterations(1);
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace wknng::bench

BENCHMARK_MAIN();
