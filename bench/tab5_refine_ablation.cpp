// Tab. 5 (ablation) — the refinement phase's sampling knobs.
//
// Two design choices of the neighbor-of-neighbor rounds are ablated:
//   * refine_sample — the per-point candidate budget per round;
//   * reverse_cap   — how many reverse edges a point may contribute
//                     (hub suppression).
// Rows expose the recall-per-distance-evaluation trade-off; the defaults in
// BuildParams sit where the curve flattens.

#include "bench_common.hpp"

namespace wknng::bench {
namespace {

constexpr std::size_t kK = 10;
const data::DatasetSpec kSpec = clustered(4096, 32);

core::BuildParams base_params() {
  core::BuildParams params;
  params.k = kK;
  params.num_trees = 2;  // deliberately weak forest: refinement does the work
  params.refine_iters = 2;
  return params;
}

void BM_RefineSample(benchmark::State& state) {
  const auto sample = static_cast<std::size_t>(state.range(0));
  const FloatMatrix& pts = dataset(kSpec);
  core::BuildParams params = base_params();
  params.refine_sample = sample;

  core::BuildResult last;
  for (auto _ : state) {
    last = core::build_knng(pool(), pts, params);
  }
  state.SetLabel("refine_sample");
  state.counters["sample"] = static_cast<double>(sample);
  state.counters["recall"] = sampled_recall(last.graph, kSpec, kK);
  state.counters["refine_ms"] = last.refine_seconds * 1e3;
  state.counters["dist_evals"] = static_cast<double>(last.stats.distance_evals);
}

void BM_ReverseCap(benchmark::State& state) {
  const auto cap = static_cast<std::size_t>(state.range(0));
  const FloatMatrix& pts = dataset(kSpec);
  core::BuildParams params = base_params();
  params.reverse_cap = cap;

  core::BuildResult last;
  for (auto _ : state) {
    last = core::build_knng(pool(), pts, params);
  }
  state.SetLabel("reverse_cap");
  state.counters["cap"] = static_cast<double>(cap);
  state.counters["recall"] = sampled_recall(last.graph, kSpec, kK);
  state.counters["refine_ms"] = last.refine_seconds * 1e3;
}

void BM_RefineRounds(benchmark::State& state) {
  const auto rounds = static_cast<std::size_t>(state.range(0));
  const FloatMatrix& pts = dataset(kSpec);
  core::BuildParams params = base_params();
  params.refine_iters = rounds;

  core::BuildResult last;
  for (auto _ : state) {
    last = core::build_knng(pool(), pts, params);
  }
  state.SetLabel("refine_rounds");
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["recall"] = sampled_recall(last.graph, kSpec, kK);
  state.counters["refine_ms"] = last.refine_seconds * 1e3;
}

void register_all() {
  for (long sample : {32, 64, 128, 256, 512, 1024}) {
    benchmark::RegisterBenchmark("Tab5/RefineSample", BM_RefineSample)
        ->Arg(sample)->Unit(benchmark::kMillisecond)->Iterations(1);
  }
  for (long cap : {2, 5, 10, 20, 40}) {
    benchmark::RegisterBenchmark("Tab5/ReverseCap", BM_ReverseCap)
        ->Arg(cap)->Unit(benchmark::kMillisecond)->Iterations(1);
  }
  for (long rounds : {0, 1, 2, 3, 4}) {
    benchmark::RegisterBenchmark("Tab5/RefineRounds", BM_RefineRounds)
        ->Arg(rounds)->Unit(benchmark::kMillisecond)->Iterations(1);
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace wknng::bench

BENCHMARK_MAIN();
