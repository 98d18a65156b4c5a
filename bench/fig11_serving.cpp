// Fig. 11 (extension) — serving the built graph: the ServeEngine's two
// operating curves.
//
// ThroughputVsBatch: closed-loop load against a sweep of micro-batch caps.
// Dispatch is work-conserving, so batches form only from the backlog the 16
// submitters build while both executors are busy; the cap bounds how much of
// that backlog one batch takes — amortizing launch overhead against the
// queueing a large batch imposes on its last member.
//
// P99VsOfferedLoad: open-loop Poisson arrivals at increasing offered rates
// with a per-request deadline. Below saturation the p99 tracks service time;
// past it, queues grow and the deadline/shed machinery converts overload into
// typed timeouts instead of unbounded latency.

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"

namespace wknng::bench {
namespace {

constexpr std::size_t kK = 10;
constexpr std::size_t kQueries = 64;
constexpr std::size_t kRequests = 512;
const data::DatasetSpec kSpec = clustered(8192, 16);

struct ServingFixture {
  FloatMatrix queries;
  std::shared_ptr<const serve::GraphSnapshot> snapshot;

  ServingFixture() {
    const FloatMatrix& base = dataset(kSpec);
    queries.resize(kQueries, kSpec.dim);
    Rng rng(88);
    for (std::size_t qi = 0; qi < kQueries; ++qi) {
      const auto src = base.row(rng.next_below(base.rows()));
      auto dst = queries.row(qi);
      for (std::size_t d = 0; d < kSpec.dim; ++d) {
        dst[d] = src[d] + 0.02f * rng.next_gaussian();
      }
    }
    core::BuildParams params;
    params.k = 16;
    params.num_trees = 8;
    params.refine_iters = 1;
    snapshot = serve::make_snapshot(
        1, base, core::build_knng(pool(), base, params).graph);
  }
};

ServingFixture& fixture() {
  static ServingFixture f;
  return f;
}

serve::ServeOptions engine_options(std::size_t max_batch) {
  serve::ServeOptions so;
  so.max_batch = max_batch;
  so.workers = 2;
  so.search.k = kK;
  return so;
}

void report_latencies(benchmark::State& state, const serve::ServeMetrics& m) {
  state.counters["p50_us"] = m.latency_us.percentile(50);
  state.counters["p95_us"] = m.latency_us.percentile(95);
  state.counters["p99_us"] = m.latency_us.percentile(99);
  state.counters["batch_mean"] = m.batch_size.mean();
}

void BM_ThroughputVsBatch(benchmark::State& state) {
  const auto max_batch = static_cast<std::size_t>(state.range(0));
  ServingFixture& f = fixture();

  serve::LoadGenConfig cfg;
  cfg.mode = serve::LoadGenConfig::Mode::kClosed;
  cfg.requests = kRequests;
  cfg.concurrency = 16;

  serve::LoadGenReport rep;
  for (auto _ : state) {
    serve::ServeEngine engine(pool(), engine_options(max_batch), f.snapshot);
    rep = serve::run_load(engine, f.queries, cfg);
    report_latencies(state, engine.metrics());
  }
  state.SetLabel("closed-loop");
  state.counters["max_batch"] = static_cast<double>(max_batch);
  state.counters["qps"] = rep.achieved_qps;
  state.counters["ok"] = static_cast<double>(rep.ok);
  state.SetItemsProcessed(state.iterations() * kRequests);
}

void BM_P99VsOfferedLoad(benchmark::State& state) {
  const auto offered_qps = static_cast<double>(state.range(0));
  ServingFixture& f = fixture();

  serve::LoadGenConfig cfg;
  cfg.mode = serve::LoadGenConfig::Mode::kOpen;
  cfg.requests = kRequests;
  cfg.rate_qps = offered_qps;
  cfg.deadline_us = 5000;

  serve::LoadGenReport rep;
  for (auto _ : state) {
    serve::ServeEngine engine(pool(), engine_options(16), f.snapshot);
    rep = serve::run_load(engine, f.queries, cfg);
    report_latencies(state, engine.metrics());
  }
  state.SetLabel("open-loop");
  state.counters["offered_qps"] = offered_qps;
  state.counters["achieved_qps"] = rep.achieved_qps;
  state.counters["timeout_pct"] = 100.0 * static_cast<double>(rep.timed_out) /
                                  static_cast<double>(rep.requests);
  state.counters["shed_pct"] = 100.0 * static_cast<double>(rep.shed) /
                               static_cast<double>(rep.requests);
  state.SetItemsProcessed(state.iterations() * kRequests);
}

void register_all() {
  for (long batch : {1, 4, 16, 64}) {
    benchmark::RegisterBenchmark("Fig11/ThroughputVsBatch", BM_ThroughputVsBatch)
        ->Arg(batch)->Unit(benchmark::kMillisecond)->Iterations(1);
  }
  for (long qps : {2000, 8000, 32000}) {
    benchmark::RegisterBenchmark("Fig11/P99VsOfferedLoad", BM_P99VsOfferedLoad)
        ->Arg(qps)->Unit(benchmark::kMillisecond)->Iterations(1);
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace wknng::bench

BENCHMARK_MAIN();
