#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/builder.hpp"
#include "core/graph_search.hpp"
#include "data/synthetic.hpp"
#include "dynamic/dynamic_knng.hpp"
#include "kernels/kernels.hpp"
#include "simt/fault.hpp"
#include "support/temp_dir.hpp"

namespace wknng::serve {
namespace {

struct Fixture {
  ThreadPool pool{4};
  FloatMatrix base;
  FloatMatrix queries;
  KnnGraph graph;

  explicit Fixture(std::size_t n = 600, std::size_t dim = 8,
                   std::size_t nq = 24) {
    base = data::make_clusters(n, dim, 8, 0.1f, 5);
    queries.resize(nq, dim);
    Rng rng(23);
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
};

TEST(ServeEngine, ServedResultsMatchDirectSearch) {
  Fixture f;
  const ServeOptions so = f.options();
  ServeEngine engine(f.pool, so, make_snapshot(1, f.base, f.graph));

  std::vector<std::future<QueryResult>> futs;
  futs.reserve(f.queries.rows());
  for (std::size_t qi = 0; qi < f.queries.rows(); ++qi) {
    futs.push_back(engine.submit(f.query_vec(qi), 0, /*tag=*/qi));
  }

  // The wrapper seeds per-query streams by row index — identical to the tags
  // above, so the engine must reproduce it bit-for-bit regardless of how the
  // micro-batcher grouped the requests.
  const KnnGraph direct =
      core::graph_search(f.pool, f.base, f.graph, f.queries, so.search);

  for (std::size_t qi = 0; qi < futs.size(); ++qi) {
    const QueryResult qr = futs[qi].get();
    ASSERT_EQ(qr.status, QueryStatus::kOk) << qr.error;
    EXPECT_EQ(qr.tag, qi);
    EXPECT_EQ(qr.snapshot_version, 1u);
    EXPECT_GT(qr.points_visited, 0u);
    const auto expect = direct.row(qi);
    ASSERT_EQ(qr.neighbors.size(), expect.size());
    for (std::size_t j = 0; j < expect.size(); ++j) {
      EXPECT_EQ(qr.neighbors[j], expect[j]) << "query " << qi << " rank " << j;
    }
  }
  EXPECT_EQ(engine.metrics().ok.value(), f.queries.rows());
  EXPECT_EQ(engine.metrics().queries.value(), f.queries.rows());
  EXPECT_GE(engine.metrics().batches.value(), 1u);
}

TEST(ServeEngine, DeterministicAcrossWorkerCountsAndBatchSizes) {
  Fixture f;
  auto run = [&](std::size_t workers, std::size_t max_batch, bool held) {
    ServeOptions so = f.options();
    so.workers = workers;
    so.max_batch = max_batch;
    ServeEngine engine(f.pool, so, make_snapshot(1, f.base, f.graph));
    std::vector<std::future<QueryResult>> futs;
    {
      std::optional<MicroBatcher::Hold> hold;
      if (held) hold.emplace(engine.hold_dispatch());
      for (std::size_t qi = 0; qi < f.queries.rows(); ++qi) {
        futs.push_back(engine.submit(f.query_vec(qi), 0, qi));
      }
    }
    std::vector<QueryResult> out;
    out.reserve(futs.size());
    for (auto& fut : futs) out.push_back(fut.get());
    // One service sample per executed request, beside its queue sample.
    EXPECT_EQ(engine.metrics().service_us.count(), f.queries.rows());
    EXPECT_EQ(engine.metrics().queue_us.count(), f.queries.rows());
    return out;
  };

  // Worker count, batch cap, and a queue held until every request is in
  // versus dispatch as requests arrive each regroup the same tagged
  // requests; the answers must not notice.
  const std::vector<QueryResult> a = run(1, 32, true);
  for (const std::vector<QueryResult>& b : {run(4, 3, true), run(1, 32, false)}) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].status, QueryStatus::kOk);
      EXPECT_EQ(b[i].status, QueryStatus::kOk);
      EXPECT_EQ(a[i].points_visited, b[i].points_visited) << "query " << i;
      ASSERT_EQ(a[i].neighbors.size(), b[i].neighbors.size());
      for (std::size_t j = 0; j < a[i].neighbors.size(); ++j) {
        EXPECT_EQ(a[i].neighbors[j], b[i].neighbors[j]);
      }
    }
  }
}

TEST(ServeEngine, HeldSubmitsLeaveAsOneBatchWithUnheldAnswers) {
  Fixture f;
  ServeOptions so = f.options();
  so.workers = 1;
  so.max_batch = 32;
  const std::size_t n = f.queries.rows();

  std::vector<QueryResult> unheld;
  {
    ServeEngine engine(f.pool, so, make_snapshot(1, f.base, f.graph));
    for (std::size_t qi = 0; qi < n; ++qi) {
      unheld.push_back(engine.submit(f.query_vec(qi), 0, qi).get());
    }
  }

  ServeEngine engine(f.pool, so, make_snapshot(1, f.base, f.graph));
  std::vector<std::future<QueryResult>> futs;
  {
    const MicroBatcher::Hold hold = engine.hold_dispatch();
    for (std::size_t qi = 0; qi < n; ++qi) {
      futs.push_back(engine.submit(f.query_vec(qi), 0, qi));
    }
    EXPECT_EQ(engine.metrics().batches.value(), 0u);
  }
  for (std::size_t qi = 0; qi < n; ++qi) {
    const QueryResult qr = futs[qi].get();
    ASSERT_EQ(qr.status, QueryStatus::kOk) << qr.error;
    EXPECT_EQ(qr.points_visited, unheld[qi].points_visited) << "query " << qi;
    EXPECT_EQ(qr.neighbors, unheld[qi].neighbors) << "query " << qi;
  }
  EXPECT_EQ(engine.metrics().batch_size.count(), 1u);
  EXPECT_EQ(engine.metrics().batch_size.max_seen(), static_cast<double>(n));
}

TEST(ServeEngine, StopWhileHeldAnswersEveryQueuedRequest) {
  Fixture f;
  ServeOptions so = f.options();
  so.workers = 1;
  ServeEngine engine(f.pool, so, make_snapshot(1, f.base, f.graph));
  const MicroBatcher::Hold hold = engine.hold_dispatch();
  std::vector<std::future<QueryResult>> futs;
  for (std::size_t qi = 0; qi < f.queries.rows(); ++qi) {
    futs.push_back(engine.submit(f.query_vec(qi), 0, qi));
  }
  engine.stop();  // overrides the hold: drains the queue, joins the executor
  for (auto& fut : futs) {
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(fut.get().status, QueryStatus::kOk);
  }
  EXPECT_EQ(engine.metrics().ok.value(), f.queries.rows());
}

TEST(ServeEngine, ExpiredRequestsGetTypedTimeoutsAndAreNeverExecuted) {
  Fixture f;
  ServeOptions so = f.options();
  so.workers = 1;
  so.max_batch = 1024;          // never fills
  ServeEngine engine(f.pool, so, make_snapshot(1, f.base, f.graph));

  std::vector<std::future<QueryResult>> futs;
  {
    // Dispatch is held until the 1 us deadlines below have passed.
    const MicroBatcher::Hold hold = engine.hold_dispatch();
    for (std::size_t qi = 0; qi < 3; ++qi) {
      futs.push_back(engine.submit(f.query_vec(qi), /*deadline_us=*/1, qi));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& fut : futs) {
    const QueryResult qr = fut.get();
    EXPECT_EQ(qr.status, QueryStatus::kTimeout);
    EXPECT_NE(qr.error.find("DeadlineExceeded"), std::string::npos) << qr.error;
    EXPECT_TRUE(qr.neighbors.empty());  // shed work, not just a late answer
  }
  EXPECT_EQ(engine.metrics().timed_out.value(), 3u);
  EXPECT_EQ(engine.metrics().rejected_deadline.value(), 3u);
  EXPECT_EQ(engine.metrics().shed.value(), 0u);  // deadline path, not overload
  EXPECT_EQ(engine.metrics().queries.value(), 0u);  // kernel never ran
  EXPECT_EQ(engine.metrics().ok.value(), 0u);
}

TEST(ServeEngine, QueueFullShedsWithTypedResult) {
  Fixture f;
  ServeOptions so = f.options();
  so.workers = 1;
  so.max_batch = 1024;
  so.queue_capacity = 2;
  ServeEngine engine(f.pool, so, make_snapshot(1, f.base, f.graph));

  std::vector<std::future<QueryResult>> futs;
  {
    // Executor held off: the queue stays occupied while all six arrive.
    const MicroBatcher::Hold hold = engine.hold_dispatch();
    for (std::size_t qi = 0; qi < 6; ++qi) {
      futs.push_back(engine.submit(f.query_vec(qi % f.queries.rows()), 0, qi));
    }
  }
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (auto& fut : futs) {
    const QueryResult qr = fut.get();
    if (qr.status == QueryStatus::kShed) {
      ++shed;
      EXPECT_NE(qr.error.find("OverloadShed"), std::string::npos) << qr.error;
      EXPECT_TRUE(qr.neighbors.empty());
    } else {
      EXPECT_EQ(qr.status, QueryStatus::kOk) << qr.error;
      ++ok;
    }
  }
  EXPECT_EQ(ok, 2u);    // capacity admitted exactly two
  EXPECT_EQ(shed, 4u);
  EXPECT_EQ(engine.metrics().shed.value(), 4u);
  EXPECT_EQ(engine.metrics().rejected_deadline.value(), 0u);  // overload path
  const std::string json = engine.metrics_json();
  EXPECT_NE(json.find("\"shed\":4"), std::string::npos);
  EXPECT_NE(json.find("\"rejected_overload\":4"), std::string::npos);
}

TEST(ServeEngine, SubmitAfterStopIsShed) {
  Fixture f;
  ServeEngine engine(f.pool, f.options(), make_snapshot(1, f.base, f.graph));
  engine.stop();
  const QueryResult qr = engine.submit(f.query_vec(0), 0, 0).get();
  EXPECT_EQ(qr.status, QueryStatus::kShed);
  EXPECT_NE(qr.error.find("engine stopped"), std::string::npos) << qr.error;
}

TEST(ServeEngine, InjectedBatchFailureAnswersTypedAndEngineStaysLive) {
  Fixture f;
  ServeOptions so = f.options();
  so.workers = 1;
  ServeEngine engine(f.pool, so, make_snapshot(1, f.base, f.graph));

  simt::FaultSpec spec;
  spec.enabled = true;
  spec.site = simt::FaultSite::kLaunchAlloc;
  spec.seed = 99;
  spec.probability = 1.0;
  spec.max_faults = 1;  // fail exactly the first launch, then recover
  simt::FaultInjector injector(spec);
  {
    simt::ScopedFaultInjection scope(injector);
    const QueryResult failed = engine.submit(f.query_vec(0), 0, 0).get();
    EXPECT_EQ(failed.status, QueryStatus::kFailed);
    EXPECT_NE(failed.error.find("launch-alloc"), std::string::npos)
        << failed.error;
    EXPECT_EQ(injector.injected(), 1u);

    // Same engine, same injector scope: the budget is spent, so the next
    // batch launches cleanly — the failure was answered, not fatal.
    const QueryResult ok = engine.submit(f.query_vec(1), 0, 1).get();
    EXPECT_EQ(ok.status, QueryStatus::kOk) << ok.error;
  }
  EXPECT_EQ(engine.metrics().failed.value(), 1u);
  EXPECT_EQ(engine.metrics().ok.value(), 1u);
}

TEST(ServeEngine, PublishSwapsTheServedSnapshot) {
  Fixture f;
  ServeEngine engine(f.pool, f.options(), make_snapshot(1, f.base, f.graph));
  EXPECT_EQ(engine.snapshot()->version, 1u);

  engine.publish(make_snapshot(2, f.base, f.graph));
  EXPECT_EQ(engine.snapshot()->version, 2u);
  EXPECT_EQ(engine.metrics().snapshots_published.value(), 1u);

  const QueryResult qr = engine.submit(f.query_vec(0), 0, 0).get();
  ASSERT_EQ(qr.status, QueryStatus::kOk) << qr.error;
  EXPECT_EQ(qr.snapshot_version, 2u);
}

TEST(ServeEngine, RejectsMismatchedQueryDimension) {
  Fixture f;
  ServeEngine engine(f.pool, f.options(), make_snapshot(1, f.base, f.graph));
  std::vector<float> wrong(f.base.cols() + 1, 0.0f);
  EXPECT_THROW(engine.submit(std::move(wrong), 0, 0), Error);
}

TEST(ServeEngine, DrainWaitsForAllAcceptedRequests) {
  Fixture f;
  ServeEngine engine(f.pool, f.options(), make_snapshot(1, f.base, f.graph));
  std::vector<std::future<QueryResult>> futs;
  for (std::size_t qi = 0; qi < f.queries.rows(); ++qi) {
    futs.push_back(engine.submit(f.query_vec(qi), 0, qi));
  }
  engine.drain();
  for (auto& fut : futs) {
    EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  EXPECT_EQ(engine.metrics().completed.value(), f.queries.rows());
}

TEST(ServeEngine, InFlightRequestsFinishOnTheirPinnedSnapshotUnderChurn) {
  // A dynamic writer republishing every mutation must never corrupt an
  // in-flight batch: each batch pins the snapshot it dispatched on, so its
  // responses are internally consistent — version, neighbor ids, and the
  // external-id remap all come from ONE graph, whichever it was.
  Fixture f;
  const auto dir = wknng::testing::unique_test_dir("engine_churn");
  dynamic::DynamicParams dp;
  dp.auto_maintain = false;
  std::atomic<ServeEngine*> engine_ptr{nullptr};
  dp.on_publish = [&engine_ptr](auto snap) {
    if (auto* e = engine_ptr.load()) e->publish(std::move(snap));
  };
  core::BuildParams bp;
  bp.k = 10;
  bp.num_trees = 4;
  bp.refine_iters = 1;
  dynamic::DynamicKnng dyn(f.pool, bp, f.base, dir.string(), dp);
  ServeEngine engine(f.pool, f.options(), dyn.snapshot());
  engine_ptr.store(&engine);

  // Interleave: submit a few queries, mutate (which publishes), repeat. The
  // engine answers each from whatever snapshot its batch pinned.
  std::vector<std::future<QueryResult>> futs;
  std::uint32_t victim = 0;
  for (int round = 0; round < 6; ++round) {
    for (std::size_t qi = 0; qi < 4; ++qi) {
      futs.push_back(engine.submit(f.query_vec(qi), 0, futs.size()));
    }
    FloatMatrix one(1, f.base.cols());
    const auto src = f.base.row(static_cast<std::size_t>(round));
    std::copy(src.begin(), src.end(), one.row(0).begin());
    dyn.insert(one);
    dyn.erase(std::vector<std::uint32_t>{victim, victim + 1});
    victim += 2;
  }
  engine.drain();

  const std::uint64_t final_version = dyn.version();
  ASSERT_EQ(engine.snapshot()->version, final_version);
  for (auto& fut : futs) {
    const QueryResult qr = fut.get();
    ASSERT_EQ(qr.status, QueryStatus::kOk) << qr.error;
    // Any published version may have answered, never a phantom one.
    EXPECT_GE(qr.snapshot_version, 1u);
    EXPECT_LE(qr.snapshot_version, final_version);
    EXPECT_FALSE(qr.neighbors.empty());
  }

  // A query submitted after the churn sees the latest version only.
  const QueryResult fresh = engine.submit(f.query_vec(0), 0, 9999).get();
  ASSERT_EQ(fresh.status, QueryStatus::kOk) << fresh.error;
  EXPECT_EQ(fresh.snapshot_version, final_version);
  engine.stop();
  std::filesystem::remove_all(dir);
}

TEST(ServeEngine, SameShapeRepublishScoresAgainstTheNewBase) {
  // The norm cache travels with the snapshot: after a publish of a base
  // with the same shape but different rows, every answered distance is the
  // true distance to the new rows — never one computed with the old
  // snapshot's norms.
  ThreadPool pool(4);
  constexpr std::size_t kN = 2000, kDim = 32;
  core::BuildParams bp;
  bp.k = 10;
  bp.num_trees = 4;
  bp.refine_iters = 1;
  const FloatMatrix a = data::make_clusters(kN, kDim, 8, 0.1f, 5);
  const FloatMatrix b = data::make_clusters(kN, kDim, 8, 0.1f, 6);
  ServeOptions so;
  so.search.k = 5;
  ServeEngine engine(pool, so,
                     make_snapshot(1, a, core::build_knng(pool, a, bp).graph));
  const auto a_row = a.row(7);
  ASSERT_EQ(engine.submit({a_row.begin(), a_row.end()}, 0, 0).get().status,
            QueryStatus::kOk);
  engine.publish(make_snapshot(2, b, core::build_knng(pool, b, bp).graph));

  std::vector<std::future<QueryResult>> futs;
  for (std::size_t qi = 0; qi < 64; ++qi) {
    const auto row = b.row(qi);
    futs.push_back(engine.submit({row.begin(), row.end()}, 0, qi));
  }
  for (std::size_t qi = 0; qi < futs.size(); ++qi) {
    const QueryResult qr = futs[qi].get();
    ASSERT_EQ(qr.status, QueryStatus::kOk) << qr.error;
    ASSERT_EQ(qr.snapshot_version, 2u);
    ASSERT_FALSE(qr.neighbors.empty());
    const auto q = b.row(qi);
    for (const Neighbor& nb : qr.neighbors) {
      ASSERT_LT(nb.id, kN);
      const auto x = b.row(nb.id);
      const float want = kernels::l2_serial(q, x);
      if (kernels::strict_mode()) {
        EXPECT_EQ(nb.dist, want) << "query " << qi << " id " << nb.id;
      } else {
        // SIMD backends score with the norm trick: equal up to rounding on
        // the scale of the two squared norms.
        const float scale = kernels::ops().norm_sq(q.data(), kDim) +
                            kernels::ops().norm_sq(x.data(), kDim);
        EXPECT_NEAR(nb.dist, want, 1e-5f * scale)
            << "query " << qi << " id " << nb.id;
      }
    }
  }
  engine.stop();
}

}  // namespace
}  // namespace wknng::serve
