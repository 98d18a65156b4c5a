// Fig. 13 (extension) — serving under churn: the dynamic index absorbing a
// write mix while the engine answers queries.
//
// ChurnServing: closed-loop load with mutate_fraction of the request slots
// rewriting the index (inserts + tombstone deletes through DynamicKnng, each
// publishing a new snapshot) and the rest reading. The write mix sweeps
// 0% (the no-write tail-latency baseline), 10% (the SLO scenario), and 20%.
// After the run the final published snapshot is scored against a fresh
// offline rebuild over the same live point set: `recall_dynamic` must stay
// within 2 points of `recall_rebuild` (the churn SLO), and `p99_us` at 10%+
// writes must stay inside the 0% baseline's band.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <unordered_set>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/graph_search.hpp"
#include "dynamic/dynamic_knng.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"

namespace wknng::bench {
namespace {

constexpr std::size_t kK = 10;
constexpr std::size_t kQueries = 64;
constexpr std::size_t kRequests = 512;
const data::DatasetSpec kSpec = clustered(8192, 16);

core::BuildParams build_params() {
  core::BuildParams params;
  params.k = 16;
  params.num_trees = 8;
  params.refine_iters = 1;
  return params;
}

FloatMatrix make_queries(const FloatMatrix& base) {
  FloatMatrix queries(kQueries, base.cols());
  Rng rng(88);
  for (std::size_t qi = 0; qi < kQueries; ++qi) {
    const auto src = base.row(rng.next_below(base.rows()));
    auto dst = queries.row(qi);
    for (std::size_t d = 0; d < base.cols(); ++d) {
      dst[d] = src[d] + 0.02f * rng.next_gaussian();
    }
  }
  return queries;
}

std::filesystem::path scratch_dir(int mix) {
  return std::filesystem::temp_directory_path() /
         ("wknng_fig13_" + std::to_string(::getpid()) + "_" +
          std::to_string(mix));
}

/// Fraction of exact neighbors (by external id) the answers recovered.
double external_recall(const KnnGraph& answers,
                       const std::vector<std::vector<std::uint32_t>>& truth,
                       const std::vector<std::uint32_t>& remap) {
  double hits = 0.0;
  std::size_t total = 0;
  for (std::size_t q = 0; q < truth.size(); ++q) {
    const std::unordered_set<std::uint32_t> want(truth[q].begin(),
                                                 truth[q].end());
    total += want.size();
    for (const Neighbor& nb : answers.row(q)) {
      if (nb.id == KnnGraph::kInvalid) break;
      hits += want.count(remap[nb.id]);
    }
  }
  return total == 0 ? 0.0 : hits / static_cast<double>(total);
}

void BM_ChurnServing(benchmark::State& state) {
  const int mix_pct = static_cast<int>(state.range(0));
  const FloatMatrix& base = dataset(kSpec);
  const FloatMatrix queries = make_queries(base);

  double recall_dynamic = 0.0, recall_rebuild = 0.0;
  serve::LoadGenReport rep;
  double p99 = 0.0;
  for (auto _ : state) {
    const auto dir = scratch_dir(mix_pct);
    std::filesystem::remove_all(dir);

    std::atomic<serve::ServeEngine*> engine_ptr{nullptr};
    dynamic::DynamicParams dp;
    dp.repair_threshold = 48;
    dp.on_publish = [&engine_ptr](auto snap) {
      if (auto* e = engine_ptr.load()) e->publish(std::move(snap));
    };
    dynamic::DynamicKnng dyn(pool(), build_params(), base, dir.string(), dp);

    serve::ServeOptions so;
    so.max_batch = 16;
    so.workers = 2;
    so.search.k = kK;
    serve::ServeEngine engine(pool(), so, dyn.snapshot());
    engine_ptr.store(&engine);

    serve::LoadGenConfig cfg;
    cfg.mode = serve::LoadGenConfig::Mode::kClosed;
    cfg.requests = kRequests;
    cfg.concurrency = 8;
    cfg.mutate_fraction = static_cast<double>(mix_pct) / 100.0;
    cfg.delete_fraction = 0.25;

    serve::MutationHooks hooks;
    hooks.insert = [&](std::size_t i) {
      FloatMatrix one(1, base.cols());
      const auto src = base.row(i % base.rows());
      auto dst = one.row(0);
      for (std::size_t d = 0; d < base.cols(); ++d) {
        dst[d] = src[d] + 0.03f * static_cast<float>((i % 7) + 1);
      }
      dyn.insert(one);
    };
    hooks.erase = [&](std::size_t i) {
      dyn.erase(std::vector<std::uint32_t>{
          static_cast<std::uint32_t>((i * 7) % base.rows())});
    };

    rep = run_load(engine, queries, cfg, hooks);
    engine.drain();
    p99 = engine.metrics().latency_us.percentile(99);
    engine_ptr.store(nullptr);
    engine.stop();

    // Score the end state: the served snapshot vs a fresh offline rebuild
    // over the exact same live point set, both against brute-force truth.
    const auto snap = dyn.snapshot();
    std::vector<std::uint32_t> live;  // internal ids of live rows
    const auto mask = snap->exclusion_mask();
    for (std::uint32_t p = 0; p < snap->base.rows(); ++p) {
      if (mask.empty() || mask[p] == 0) live.push_back(p);
    }
    FloatMatrix live_pts(live.size(), base.cols());
    std::vector<std::uint32_t> live_ext(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      const auto src = snap->base.row(live[i]);
      std::copy(src.begin(), src.end(), live_pts.row(i).begin());
      live_ext[i] = snap->external_id(live[i]);
    }

    const KnnGraph exact =
        exact::brute_force_knn(pool(), live_pts, queries, kK);
    std::vector<std::vector<std::uint32_t>> truth_ext(kQueries);
    for (std::size_t q = 0; q < kQueries; ++q) {
      for (const Neighbor& nb : exact.row(q)) {
        if (nb.id == KnnGraph::kInvalid) break;
        truth_ext[q].push_back(live_ext[nb.id]);
      }
    }

    core::SearchParams sp;
    sp.k = kK;
    const core::BatchSearchResult dyn_found = core::graph_search_batch(
        pool(), snap->base, snap->graph, queries, {}, sp, nullptr, nullptr,
        nullptr, mask);
    std::vector<std::uint32_t> internal_to_ext(snap->base.rows());
    for (std::uint32_t p = 0; p < snap->base.rows(); ++p) {
      internal_to_ext[p] = snap->external_id(p);
    }
    recall_dynamic = external_recall(dyn_found.results, truth_ext,
                                     internal_to_ext);

    const KnnGraph rebuilt =
        core::build_knng(pool(), live_pts, build_params()).graph;
    const core::BatchSearchResult fresh_found = core::graph_search_batch(
        pool(), live_pts, rebuilt, queries, {}, sp, nullptr, nullptr, nullptr,
        {});
    recall_rebuild = external_recall(fresh_found.results, truth_ext, live_ext);

    std::filesystem::remove_all(dir);
  }

  state.SetLabel("closed-loop churn");
  state.counters["write_mix_pct"] = static_cast<double>(mix_pct);
  state.counters["qps"] = rep.achieved_qps;
  state.counters["p99_us"] = p99;
  state.counters["reads"] = static_cast<double>(rep.reads);
  state.counters["inserts"] = static_cast<double>(rep.inserts);
  state.counters["deletes"] = static_cast<double>(rep.deletes);
  state.counters["recall_dynamic"] = recall_dynamic;
  state.counters["recall_rebuild"] = recall_rebuild;
  // The churn SLO: serving off the mutated graph costs at most 2 points of
  // recall vs throwing the index away and rebuilding offline.
  state.counters["recall_delta"] = recall_rebuild - recall_dynamic;
  state.SetItemsProcessed(state.iterations() * kRequests);
}

void register_all() {
  for (long mix : {0, 10, 20}) {
    benchmark::RegisterBenchmark("Fig13/ChurnServing", BM_ChurnServing)
        ->Arg(mix)->Unit(benchmark::kMillisecond)->Iterations(1);
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace wknng::bench

BENCHMARK_MAIN();
