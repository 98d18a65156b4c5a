// Fig. 7 (extension) — incremental insertion versus full rebuild.
//
// The paper builds graphs in one batch; this extension experiment measures
// the mutable index (dynamic/dynamic_knng.hpp): starting from a built graph
// over (1 - f) of the points, insert the remaining fraction f as one batch
// (graph descent, then reverse-edge connect — plus the WAL append and the
// snapshot publication every insert pays), and compare cost and whole-graph
// recall against rebuilding from scratch.

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "dynamic/dynamic_knng.hpp"

namespace wknng::bench {
namespace {

constexpr std::size_t kN = 8192;
constexpr std::size_t kDim = 32;
constexpr std::size_t kK = 10;
const data::DatasetSpec kSpec = clustered(kN, kDim);

FloatMatrix rows_slice(const FloatMatrix& m, std::size_t begin, std::size_t end) {
  FloatMatrix out(end - begin, m.cols());
  for (std::size_t i = begin; i < end; ++i) {
    std::copy(m.row(i).begin(), m.row(i).end(), out.row(i - begin).begin());
  }
  return out;
}

core::BuildParams base_params() {
  core::BuildParams params;
  params.k = kK;
  params.num_trees = 8;
  params.refine_iters = 1;
  return params;
}

/// Inserting `pct`% of the points into a graph pre-built on the rest.
void BM_InsertBatch(benchmark::State& state) {
  const std::size_t pct = static_cast<std::size_t>(state.range(0));
  const FloatMatrix& pts = dataset(kSpec);
  const std::size_t initial_n = kN - kN * pct / 100;
  const FloatMatrix initial = rows_slice(pts, 0, initial_n);
  const FloatMatrix batch = rows_slice(pts, initial_n, kN);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("wknng_fig7_" + std::to_string(::getpid()) + "_" + std::to_string(pct));
  dynamic::DynamicParams dp;
  dp.auto_maintain = false;  // the row times the insert alone

  double recall = 0.0;
  for (auto _ : state) {
    state.PauseTiming();  // the pre-build is not what this row measures
    std::filesystem::remove_all(dir);
    auto dyn = std::make_unique<dynamic::DynamicKnng>(
        pool(), base_params(), initial, dir.string(), dp);
    state.ResumeTiming();
    dyn->insert(batch);
    state.PauseTiming();
    recall = sampled_recall(dyn->snapshot()->graph, kSpec, kK);
    dyn.reset();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
  }
  state.SetLabel("insert");
  state.counters["batch_pct"] = static_cast<double>(pct);
  state.counters["recall"] = recall;
  state.counters["batch_points"] = static_cast<double>(batch.rows());
}

/// Reference: full rebuild over all N points.
void BM_FullRebuild(benchmark::State& state) {
  const FloatMatrix& pts = dataset(kSpec);
  core::BuildResult last;
  for (auto _ : state) {
    last = core::build_knng(pool(), pts, base_params());
  }
  state.SetLabel("rebuild");
  state.counters["recall"] = sampled_recall(last.graph, kSpec, kK);
}

void register_all() {
  for (long pct : {1, 5, 10, 25}) {
    benchmark::RegisterBenchmark("Fig7/InsertBatch", BM_InsertBatch)
        ->Arg(pct)->Unit(benchmark::kMillisecond)->Iterations(1);
  }
  benchmark::RegisterBenchmark("Fig7/FullRebuild", BM_FullRebuild)
      ->Unit(benchmark::kMillisecond)->Iterations(1);
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace wknng::bench

BENCHMARK_MAIN();
