#include "serve/loadgen.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/builder.hpp"
#include "data/synthetic.hpp"

namespace wknng::serve {
namespace {

struct Fixture {
  ThreadPool pool{4};
  FloatMatrix base;
  FloatMatrix queries;
  KnnGraph graph;

  Fixture() {
    const std::size_t n = 600;
    const std::size_t dim = 8;
    const std::size_t nq = 16;
    base = data::make_clusters(n, dim, 8, 0.1f, 5);
    queries.resize(nq, dim);
    Rng rng(31);
    for (std::size_t qi = 0; qi < nq; ++qi) {
      const auto src = base.row(rng.next_below(n));
      auto dst = queries.row(qi);
      for (std::size_t d = 0; d < dim; ++d) {
        dst[d] = src[d] + 0.02f * rng.next_gaussian();
      }
    }
    core::BuildParams bp;
    bp.k = 10;
    bp.num_trees = 4;
    bp.refine_iters = 1;
    graph = core::build_knng(pool, base, bp).graph;
  }

  ServeOptions options() const {
    ServeOptions so;
    so.max_batch = 8;
    so.workers = 2;
    so.search.k = 5;
    return so;
  }
};

TEST(OpenLoopSchedule, DeterministicMonotonicAndPrefixStable) {
  const std::vector<double> a = open_loop_schedule(42, 100, 5000.0);
  const std::vector<double> b = open_loop_schedule(42, 100, 5000.0);
  ASSERT_EQ(a.size(), 100u);
  EXPECT_EQ(a, b);  // bit-identical replay

  EXPECT_GT(a.front(), 0.0);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);

  // Counter-hash draws: a shorter run is an exact prefix of a longer one.
  const std::vector<double> prefix = open_loop_schedule(42, 50, 5000.0);
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_DOUBLE_EQ(prefix[i], a[i]);
  }

  const std::vector<double> other = open_loop_schedule(43, 100, 5000.0);
  EXPECT_NE(a, other);

  // Mean inter-arrival gap tracks 1/rate (200 µs at 5000 qps): the final
  // offset of 100 exponential draws concentrates near 20 ms.
  EXPECT_GT(a.back(), 5'000.0);
  EXPECT_LT(a.back(), 80'000.0);
}

TEST(LoadGen, ClosedLoopIsDeterministicAcrossRunsAndEngineShapes) {
  Fixture f;
  LoadGenConfig cfg;
  cfg.mode = LoadGenConfig::Mode::kClosed;
  cfg.seed = 42;
  cfg.requests = 64;
  cfg.concurrency = 4;

  auto run = [&](std::size_t workers, std::size_t max_batch) {
    ServeOptions so = f.options();
    so.workers = workers;
    so.max_batch = max_batch;
    ServeEngine engine(f.pool, so, make_snapshot(1, f.base, f.graph));
    return run_load(engine, f.queries, cfg);
  };

  const LoadGenReport a = run(1, 32);
  const LoadGenReport b = run(3, 4);
  EXPECT_EQ(a.requests, 64u);
  EXPECT_EQ(a.ok, 64u);
  EXPECT_EQ(b.ok, 64u);
  // Same seed + config ⇒ identical per-request results, so the
  // order-independent digest and the work counter agree exactly.
  EXPECT_EQ(a.result_hash, b.result_hash);
  EXPECT_EQ(a.points_visited, b.points_visited);
  EXPECT_GT(a.points_visited, 0u);
}

TEST(LoadGen, OpenLoopMatchesClosedLoopResults) {
  Fixture f;
  LoadGenConfig closed;
  closed.mode = LoadGenConfig::Mode::kClosed;
  closed.requests = 32;
  closed.concurrency = 2;

  LoadGenConfig open = closed;
  open.mode = LoadGenConfig::Mode::kOpen;
  open.rate_qps = 50'000.0;  // fast arrivals: the run stays short

  ServeOptions so = f.options();
  ServeEngine e1(f.pool, so, make_snapshot(1, f.base, f.graph));
  ServeEngine e2(f.pool, so, make_snapshot(1, f.base, f.graph));
  const LoadGenReport rc = run_load(e1, f.queries, closed);
  const LoadGenReport ro = run_load(e2, f.queries, open);

  // Arrival mode shapes timing only; request i is (tag i, query row i % nq)
  // in both modes, so the response digests must match.
  EXPECT_EQ(rc.ok, 32u);
  EXPECT_EQ(ro.ok, 32u);
  EXPECT_EQ(rc.result_hash, ro.result_hash);
  EXPECT_EQ(rc.points_visited, ro.points_visited);
  EXPECT_GT(ro.achieved_qps, 0.0);
}

TEST(LoadGen, ForcedOverloadExercisesTheDeadlinePath) {
  Fixture f;
  ServeOptions so = f.options();
  so.workers = 1;
  so.max_batch = 1024;
  ServeEngine engine(f.pool, so, make_snapshot(1, f.base, f.graph));

  LoadGenConfig cfg;
  cfg.mode = LoadGenConfig::Mode::kClosed;
  cfg.requests = 8;
  cfg.concurrency = 8;  // every thread's single request sits out the hold
  cfg.deadline_us = 1000;

  // Dispatch is held until all eight requests are in and their 1 ms
  // deadlines have passed. Each request is stamped before it is counted, so
  // whatever dispatches after the release is past its deadline.
  MicroBatcher::Hold hold = engine.hold_dispatch();
  std::thread releaser([&] {
    while (engine.metrics().enqueued.value() < cfg.requests) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    hold.release();
  });
  const LoadGenReport rep = run_load(engine, f.queries, cfg);
  releaser.join();

  EXPECT_EQ(rep.requests, 8u);
  EXPECT_EQ(rep.timed_out, 8u);
  EXPECT_EQ(rep.ok, 0u);
  EXPECT_EQ(engine.metrics().queries.value(), 0u);  // work shed, not done late

  // The engine survived the overload: a fresh unconstrained request serves.
  const auto row = f.queries.row(0);
  const QueryResult qr =
      engine.submit({row.begin(), row.end()}, 0, 12345).get();
  EXPECT_EQ(qr.status, QueryStatus::kOk) << qr.error;

  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"timed_out\":8"), std::string::npos) << json;
}

TEST(LoadGen, ZeroRequestsIsANoOp) {
  Fixture f;
  ServeEngine engine(f.pool, f.options(), make_snapshot(1, f.base, f.graph));
  LoadGenConfig cfg;
  cfg.requests = 0;
  const LoadGenReport rep = run_load(engine, f.queries, cfg);
  EXPECT_EQ(rep.requests, 0u);
  EXPECT_EQ(rep.ok, 0u);
  EXPECT_EQ(rep.result_hash, 0u);
}

}  // namespace
}  // namespace wknng::serve
