// Fig. 15 (extension) — the online SLO & quality plane under a load ramp.
//
// QualityVsLoad: open-loop Poisson arrivals at increasing offered rates with
// the full quality plane on — windowed latency aggregates, sampled recall
// audits re-answered exactly against the pinned snapshot, and the
// multi-window burn-rate evaluator over a "p99 <= D" objective. Below
// saturation the audited recall sits at the graph's true serving recall and
// no alert fires; past saturation shed/timeout bad-events push the burn rate
// over the rule and the latency alert fires. CI gates on exactly that shape:
// audited recall stays high at every load, and the top (overload) row fires.
//
// FlightOverhead: the same closed-loop run with and without an ambient
// flight recorder, reporting the serve p99 delta — the end-to-end cost of
// recording every completion into the bounded ring (budget: <= 3%).

#include <utility>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "obs/flight.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"

namespace wknng::bench {
namespace {

constexpr std::size_t kK = 10;
constexpr std::size_t kQueries = 64;
constexpr std::size_t kRequests = 512;
const data::DatasetSpec kSpec = clustered(8192, 16);

struct SloFixture {
  FloatMatrix queries;
  std::shared_ptr<const serve::GraphSnapshot> snapshot;

  SloFixture() {
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

SloFixture& fixture() {
  static SloFixture f;
  return f;
}

serve::ServeOptions plane_options(std::size_t requests) {
  serve::ServeOptions so;
  so.max_batch = 16;
  so.workers = 2;
  so.search.k = kK;
  so.slo = true;
  // "p99 <= 5ms" with a 10% error budget; recall objective disabled here so
  // the alert edge in this figure is unambiguously the latency burn.
  so.slo_options.objective.p99_latency_us = 5000.0;
  so.slo_options.objective.error_budget = 0.1;
  so.slo_options.latency_rule.fast = obs::WindowConfig{4, 16};
  so.slo_options.latency_rule.slow = obs::WindowConfig{8, 32};
  so.slo_options.latency_rule.threshold = 2.0;
  so.slo_options.latency_rule.min_events = 32;
  so.audit.fraction = 0.25;
  so.audit.seed = 15;
  so.audit.k = kK;
  so.audit.queue_capacity = requests;
  return so;
}

void BM_QualityVsLoad(benchmark::State& state) {
  const auto offered_qps = static_cast<double>(state.range(0));
  const auto requests = static_cast<std::size_t>(state.range(1));
  SloFixture& f = fixture();

  serve::LoadGenConfig cfg;
  cfg.mode = serve::LoadGenConfig::Mode::kOpen;
  cfg.requests = requests;
  cfg.rate_qps = offered_qps;
  cfg.deadline_us = 5000;

  serve::LoadGenReport rep;
  double audited_recall = 0.0;
  double recall_ci = 0.0;
  double audited = 0.0;
  double window_p99 = 0.0;
  double shed_rate = 0.0;
  double alert_fired = 0.0;
  for (auto _ : state) {
    serve::ServeEngine engine(pool(), plane_options(requests), f.snapshot);
    rep = serve::run_load(engine, f.queries, cfg);
    engine.drain();  // audit queue flushed before reading the estimate
    const obs::AuditEstimate est = engine.auditor()->lifetime_estimate();
    audited_recall = est.recall;
    recall_ci = est.ci_halfwidth;
    audited = static_cast<double>(est.audited);
    const obs::SloTracker& slo = *engine.slo_tracker();
    window_p99 = slo.latency_window().p99;
    shed_rate = slo.shed_window().rate;
    alert_fired = slo.alerts_fired() > 0 ? 1.0 : 0.0;
  }
  state.SetLabel("open-loop quality plane");
  state.counters["offered_qps"] = offered_qps;
  state.counters["achieved_qps"] = rep.achieved_qps;
  state.counters["audited_recall"] = audited_recall;
  state.counters["recall_ci"] = recall_ci;
  state.counters["audited"] = audited;
  state.counters["window_p99_us"] = window_p99;
  state.counters["exact_p99_us"] = rep.latency_p99_us;
  state.counters["shed_rate"] = shed_rate;
  state.counters["timeout_pct"] = 100.0 * static_cast<double>(rep.timed_out) /
                                  static_cast<double>(rep.requests);
  state.counters["alert_fired"] = alert_fired;
  state.SetItemsProcessed(state.iterations() * requests);
}

void BM_FlightOverhead(benchmark::State& state) {
  const bool flight_on = state.range(0) != 0;
  SloFixture& f = fixture();

  serve::LoadGenConfig cfg;
  cfg.mode = serve::LoadGenConfig::Mode::kClosed;
  cfg.requests = kRequests;
  cfg.concurrency = 16;

  serve::ServeOptions so;
  so.max_batch = 16;
  so.workers = 2;
  so.search.k = kK;

  serve::LoadGenReport rep;
  std::uint64_t recorded = 0;
  for (auto _ : state) {
    serve::ServeEngine engine(pool(), so, f.snapshot);
    if (flight_on) {
      obs::FlightOptions fo;
      fo.capacity = 4096;
      obs::FlightRecorder recorder(fo);
      obs::ScopedFlightRecording scope(recorder);
      rep = serve::run_load(engine, f.queries, cfg);
      recorded = recorder.recorded();
    } else {
      rep = serve::run_load(engine, f.queries, cfg);
    }
  }
  state.SetLabel(flight_on ? "flight-on" : "flight-off");
  state.counters["p50_us"] = rep.latency_p50_us;
  state.counters["p99_us"] = rep.latency_p99_us;
  state.counters["qps"] = rep.achieved_qps;
  state.counters["recorded"] = static_cast<double>(recorded);
  state.SetItemsProcessed(state.iterations() * kRequests);
}

void register_all() {
  // {offered qps, requests}. The overload row offers 1M qps and four times
  // the requests, so its backlog outlasts the 5 ms deadline on any host
  // that serves fewer than ~400k qps, not just on a slow one.
  for (const auto& [qps, requests] :
       {std::pair<long, long>{1000, kRequests}, {4000, kRequests},
        {1024000, 4 * kRequests}}) {
    benchmark::RegisterBenchmark("Fig15/QualityVsLoad", BM_QualityVsLoad)
        ->Args({qps, requests})->Unit(benchmark::kMillisecond)->Iterations(1);
  }
  for (long on : {0, 1}) {
    benchmark::RegisterBenchmark("Fig15/FlightOverhead", BM_FlightOverhead)
        ->Arg(on)->Unit(benchmark::kMillisecond)->Iterations(1);
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace wknng::bench

BENCHMARK_MAIN();
