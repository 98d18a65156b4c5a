#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
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

  explicit Fixture(std::size_t n = 800, std::size_t dim = 8,
                   std::size_t nq = 32) {
    base = data::make_clusters(n, dim, 8, 0.1f, 13);
    queries.resize(nq, dim);
    Rng rng(29);
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

  std::vector<float> query_vec(std::size_t qi) const {
    const auto row = queries.row(qi);
    return {row.begin(), row.end()};
  }

  ServeOptions options() const {
    ServeOptions so;
    so.max_batch = 8;
    so.workers = 2;
    so.search.k = 5;
    return so;
  }

  /// Version `v` of the graph with its serving layout attached, the way a
  /// caller hands the engine an optimized snapshot.
  std::shared_ptr<const GraphSnapshot> optimized(std::uint64_t v) {
    return with_serving_layout(pool, make_snapshot(v, base, graph));
  }

  void expect_ok_row(const QueryResult& qr) const {
    ASSERT_EQ(qr.status, QueryStatus::kOk) << qr.error;
    ASSERT_FALSE(qr.neighbors.empty());
    for (std::size_t s = 0; s < qr.neighbors.size(); ++s) {
      EXPECT_LT(qr.neighbors[s].id, base.rows());  // old id space
      if (s > 0) EXPECT_TRUE(qr.neighbors[s - 1] < qr.neighbors[s]);
    }
  }
};

TEST(OptEngine, InitialSnapshotIsOptimizedAndQueriesAreCounted) {
  Fixture f;
  ServeEngine engine(f.pool, f.options(), f.optimized(1));

  // The layout the caller attached is what the engine serves through, from
  // the first query on.
  const opt::ServingGraph* sg = engine.snapshot()->serving_layout();
  ASSERT_NE(sg, nullptr);
  EXPECT_EQ(sg->source_version, 1u);
  EXPECT_TRUE(sg->pruned);

  std::vector<std::future<QueryResult>> futs;
  for (std::size_t qi = 0; qi < f.queries.rows(); ++qi) {
    futs.push_back(engine.submit(f.query_vec(qi), 0, /*tag=*/qi));
  }
  for (auto& fut : futs) f.expect_ok_row(fut.get());
  engine.drain();
  EXPECT_EQ(engine.metrics().optimized_queries.value(), f.queries.rows());
  EXPECT_EQ(engine.metrics().queries.value(), f.queries.rows());
}

TEST(OptEngine, PublishedSnapshotsAreServedAsHanded) {
  Fixture f;
  ServeEngine engine(f.pool, f.options(), f.optimized(1));

  // A plain snapshot stays plain: the engine builds no layout of its own.
  engine.publish(make_snapshot(7, f.base, f.graph));
  EXPECT_EQ(engine.snapshot()->version, 7u);
  EXPECT_EQ(engine.snapshot()->serving_layout(), nullptr);
  QueryResult qr = engine.submit(f.query_vec(0), 0, /*tag=*/0).get();
  f.expect_ok_row(qr);
  EXPECT_EQ(qr.snapshot_version, 7u);
  EXPECT_EQ(engine.metrics().optimized_queries.value(), 0u);

  // One published with a layout is served through it.
  engine.publish(f.optimized(8));
  const opt::ServingGraph* sg = engine.snapshot()->serving_layout();
  ASSERT_NE(sg, nullptr);
  EXPECT_EQ(sg->source_version, 8u);
  qr = engine.submit(f.query_vec(0), 0, /*tag=*/0).get();
  f.expect_ok_row(qr);
  EXPECT_EQ(qr.snapshot_version, 8u);
  EXPECT_EQ(engine.metrics().optimized_queries.value(), 1u);
}

TEST(OptEngine, WithServingLayoutLeavesTheOriginalUntouched) {
  Fixture f;
  const auto plain = make_snapshot(3, f.base, f.graph);
  const auto optimized = with_serving_layout(f.pool, plain);
  EXPECT_EQ(plain->serving, nullptr);
  EXPECT_EQ(plain->serving_layout(), nullptr);
  ASSERT_NE(optimized->serving_layout(), nullptr);
  EXPECT_EQ(optimized->version, 3u);
  EXPECT_EQ(optimized->serving_layout()->source_version, 3u);
  // The engine serves the layout it is handed, not a copy.
  ServeEngine engine(f.pool, f.options(), optimized);
  EXPECT_EQ(engine.snapshot()->serving.get(), optimized->serving.get());
}

TEST(OptEngine, AdaptiveBudgetLearnsALadderWhileAnswersStayValid) {
  Fixture f;
  ServeOptions so = f.options();
  so.adaptive_budget = true;
  so.budget.sample_size = 8;
  so.budget.update_epoch = 16;
  ServeEngine engine(f.pool, so, f.optimized(1));
  ASSERT_NE(engine.budget_controller(), nullptr);

  const std::size_t rounds = 4;
  std::vector<std::future<QueryResult>> futs;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t qi = 0; qi < f.queries.rows(); ++qi) {
      futs.push_back(
          engine.submit(f.query_vec(qi), 0, /*tag=*/r * 1000 + qi));
    }
  }
  for (auto& fut : futs) f.expect_ok_row(fut.get());
  engine.drain();

  const opt::BudgetController* ctl = engine.budget_controller();
  // Every completed query feeds the learner; after 4x32 completions the
  // ladder exists and predicts a finite rung.
  EXPECT_GE(ctl->observations(), so.budget.sample_size);
  EXPECT_GE(ctl->relearns(), 1u);
  EXPECT_FALSE(ctl->ladder().empty());
  EXPECT_GT(ctl->predict(), 0u);
  // Accounting sanity: every query went through the optimized path, and
  // escalation re-runs only exist where a rung capped something first.
  EXPECT_EQ(engine.metrics().optimized_queries.value(), futs.size());
  if (engine.metrics().escalations.value() > 0) {
    EXPECT_GT(engine.metrics().budget_capped.value(), 0u);
  }
}

TEST(OptEngine, FixedBudgetAndPatienceStillAnswerEveryQuery) {
  Fixture f;
  ServeOptions so = f.options();
  so.search.patience = 2;
  so.search.visit_budget = 96;
  // Entry scoring counts toward the budget; keep the sample below the cap so
  // the bound below (budget + one hop of slack) is the binding one.
  so.search.entry_sample = 32;
  ServeEngine engine(f.pool, so, f.optimized(1));
  std::vector<std::future<QueryResult>> futs;
  for (std::size_t qi = 0; qi < f.queries.rows(); ++qi) {
    futs.push_back(engine.submit(f.query_vec(qi), 0, /*tag=*/qi));
  }
  for (auto& fut : futs) {
    const QueryResult qr = fut.get();
    f.expect_ok_row(qr);
    // Budget granularity: one hop of slack past the cap, never more.
    EXPECT_LE(qr.points_visited, so.search.visit_budget + f.graph.k());
  }
}

TEST(OptEngine, ConcurrentRepublishNeverServesAStaleOrHalfBuiltLayout) {
  // The sanitize-race target: queries hammer the engine while the publisher
  // builds and swaps fresh optimized snapshots. Every answer must come from
  // some published version with ids inside that version's base — never from
  // a half-built layout (TSan/ASan verify the memory side).
  Fixture f;
  ServeEngine engine(f.pool, f.options(), f.optimized(1));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t qi = rng.next_below(f.queries.rows());
        QueryResult qr = engine.submit(f.query_vec(qi), 0).get();
        if (qr.status == QueryStatus::kShed) continue;
        ASSERT_EQ(qr.status, QueryStatus::kOk) << qr.error;
        ASSERT_GE(qr.snapshot_version, 1u);
        for (const Neighbor& nb : qr.neighbors) {
          ASSERT_LT(nb.id, f.base.rows());
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::uint64_t v = 2; v <= 9; ++v) {
    engine.publish(f.optimized(v));
    const opt::ServingGraph* sg = engine.snapshot()->serving_layout();
    ASSERT_NE(sg, nullptr);
    ASSERT_EQ(sg->source_version, v);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& c : clients) c.join();
  engine.drain();
  EXPECT_GT(answered.load(), 0u);
  EXPECT_GT(engine.metrics().optimized_queries.value(), 0u);
}

}  // namespace
}  // namespace wknng::serve
