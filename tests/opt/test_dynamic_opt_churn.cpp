#include "dynamic/dynamic_knng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/graph_search.hpp"
#include "data/synthetic.hpp"
#include "exact/brute_force.hpp"
#include "serve/engine.hpp"
#include "support/temp_dir.hpp"

namespace wknng::dynamic {
namespace {

struct Fixture {
  ThreadPool pool{4};
  FloatMatrix base;
  FloatMatrix queries;
  std::filesystem::path dir;
  core::BuildParams bp;
  DynamicParams dp;

  explicit Fixture(std::size_t n = 500, std::size_t dim = 8,
                   std::size_t nq = 12)
      : dir(testing::unique_test_dir("dyn_opt_churn")) {
    base = data::make_clusters(n, dim, 8, 0.1f, 41);
    queries.resize(nq, dim);
    Rng rng(43);
    for (std::size_t qi = 0; qi < nq; ++qi) {
      const auto src = base.row(rng.next_below(n));
      auto dst = queries.row(qi);
      for (std::size_t d = 0; d < dim; ++d) {
        dst[d] = src[d] + 0.02f * rng.next_gaussian();
      }
    }
    bp.k = 8;
    bp.num_trees = 4;
    bp.refine_iters = 1;
    dp.auto_maintain = false;
    dp.optimize = true;
  }
  ~Fixture() { std::filesystem::remove_all(dir); }

  FloatMatrix fresh_rows(std::size_t count, std::uint64_t seed) const {
    FloatMatrix rows(count, base.cols());
    Rng rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
      const auto src = base.row(rng.next_below(base.rows()));
      auto dst = rows.row(i);
      for (std::size_t d = 0; d < base.cols(); ++d) {
        dst[d] = src[d] + 0.05f * rng.next_gaussian();
      }
    }
    return rows;
  }
};

/// The invariant every publication must satisfy: the snapshot carries a
/// layout whose permutation matches *this* snapshot's rows (distances check
/// out against the snapshot's base), and the optimized path never returns a
/// tombstoned point.
void expect_layout_fresh(ThreadPool& pool,
                         const serve::GraphSnapshot& snap,
                         const FloatMatrix& queries) {
  const opt::ServingGraph* sg = snap.serving_layout();
  ASSERT_NE(sg, nullptr) << "version " << snap.version
                         << " published without a layout";
  ASSERT_NO_THROW(sg->check_valid());

  core::SearchParams sp;
  sp.k = 6;
  const core::BatchSearchResult got = core::serving_search_batch(
      pool, *sg, queries, {}, sp, snap.serving_exclusion());
  const auto dead = snap.exclusion_mask();
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    ASSERT_GT(got.results.row_size(qi), 0u);
    for (const Neighbor& nb : got.results.row(qi)) {
      if (nb.id == KnnGraph::kInvalid) break;
      ASSERT_LT(nb.id, snap.base.rows()) << "version " << snap.version;
      if (!dead.empty()) {
        ASSERT_EQ(dead[nb.id], 0u)
            << "version " << snap.version << " returned a tombstoned point";
      }
      // A stale permutation cannot fake this: the emitted distance must be
      // the true distance to the row the id names in the *current* base.
      const float want = exact::l2_sq(queries.row(qi), snap.base.row(nb.id));
      ASSERT_FLOAT_EQ(nb.dist, want)
          << "version " << snap.version << " permutation is stale";
    }
  }
}

TEST(DynamicOptChurn, EveryPublicationCarriesAFreshLayout) {
  Fixture f;
  f.dp.optimize_staleness = 1;
  DynamicKnng dyn(f.pool, f.bp, f.base, f.dir.string(), f.dp);

  // Version 1 (the base build) is optimized at construction.
  auto snap = dyn.snapshot();
  EXPECT_EQ(snap->version, 1u);
  expect_layout_fresh(f.pool, *snap, f.queries);
  EXPECT_EQ(dyn.metrics().layout_rebuilds.value(), 1u);
  EXPECT_EQ(snap->serving_layout()->source_version, 1u);

  // Insert: row count changed, the layout must be rebuilt.
  const auto ids = dyn.insert(f.fresh_rows(40, 91));
  snap = dyn.snapshot();
  expect_layout_fresh(f.pool, *snap, f.queries);
  EXPECT_EQ(dyn.metrics().layout_rebuilds.value(), 2u);
  EXPECT_EQ(snap->serving_layout()->source_version, snap->version);

  // Delete-only: structurally safe to reuse — same layout object, fresh
  // re-permuted tombstone mask, and the deleted points are already invisible.
  const opt::ServingGraph* before = snap->serving_layout();
  ASSERT_EQ(dyn.erase(std::vector<std::uint32_t>(ids.begin(), ids.begin() + 20)),
            20u);
  snap = dyn.snapshot();
  expect_layout_fresh(f.pool, *snap, f.queries);
  EXPECT_EQ(snap->serving_layout(), before) << "delete-only should reuse";
  EXPECT_EQ(dyn.metrics().layout_rebuilds.value(), 2u);
  EXPECT_GE(dyn.metrics().layout_reuses.value(), 1u);

  // Repair past the staleness allowance (1): the first repair is tolerated
  // on the reused layout, the second forces a rebuild.
  ASSERT_GT(dyn.repair(), 0u);
  snap = dyn.snapshot();
  expect_layout_fresh(f.pool, *snap, f.queries);
  const std::uint64_t after_first_repair =
      dyn.metrics().layout_rebuilds.value();
  dyn.insert(f.fresh_rows(8, 92));  // dirty more rows so repair has work
  ASSERT_GT(dyn.repair(), 0u);
  snap = dyn.snapshot();
  expect_layout_fresh(f.pool, *snap, f.queries);
  EXPECT_GT(dyn.metrics().layout_rebuilds.value(), after_first_repair);

  // Compaction rewrites internal ids — reuse would serve a wrong permutation.
  ASSERT_TRUE(dyn.compact());
  snap = dyn.snapshot();
  expect_layout_fresh(f.pool, *snap, f.queries);
  EXPECT_EQ(snap->serving_layout()->source_version, snap->version);
  EXPECT_TRUE(snap->exclusion_mask().empty() ||
              std::all_of(snap->exclusion_mask().begin(),
                          snap->exclusion_mask().end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(DynamicOptChurn, RandomizedChurnNeverObservesAStalePermutation) {
  Fixture f;
  DynamicKnng dyn(f.pool, f.bp, f.base, f.dir.string(), f.dp);
  Rng rng(77);
  std::vector<std::uint32_t> live;
  for (std::uint32_t i = 0; i < f.base.rows(); ++i) live.push_back(i);

  for (int step = 0; step < 24; ++step) {
    switch (rng.next_below(4)) {
      case 0: {
        const auto ids = dyn.insert(f.fresh_rows(1 + rng.next_below(12), step));
        live.insert(live.end(), ids.begin(), ids.end());
        break;
      }
      case 1: {
        if (live.size() < 40) break;
        std::vector<std::uint32_t> victims;
        for (int i = 0; i < 8; ++i) {
          const std::size_t at = rng.next_below(live.size());
          victims.push_back(live[at]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
        }
        dyn.erase(victims);
        break;
      }
      case 2:
        dyn.repair();
        break;
      default:
        dyn.compact();
        break;
    }
    const auto snap = dyn.snapshot();
    expect_layout_fresh(f.pool, *snap, f.queries);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(dyn.metrics().layout_rebuilds.value(), 1u);
  EXPECT_GT(dyn.metrics().layout_reuses.value(), 0u);
}

TEST(DynamicOptChurn, ServingThroughAnEngineDuringChurnStaysClean) {
  // The sanitize-race target: a ServeEngine wired to the dynamic index's
  // publish hook serves continuously while the writer churns. Every answer
  // resolves, and the optimized path is actually exercised.
  Fixture f;
  std::atomic<serve::ServeEngine*> engine_ptr{nullptr};
  f.dp.on_publish = [&](std::shared_ptr<const serve::GraphSnapshot> snap) {
    if (auto* e = engine_ptr.load(std::memory_order_acquire)) {
      e->publish(std::move(snap));
    }
  };
  DynamicKnng dyn(f.pool, f.bp, f.base, f.dir.string(), f.dp);

  serve::ServeOptions so;
  so.max_batch = 8;
  so.workers = 2;
  so.search.k = 5;
  serve::ServeEngine engine(f.pool, so, dyn.snapshot());
  engine_ptr.store(&engine, std::memory_order_release);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      Rng crng(300 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t qi = crng.next_below(f.queries.rows());
        const auto row = f.queries.row(qi);
        serve::QueryResult qr =
            engine.submit({row.begin(), row.end()}, 0).get();
        if (qr.status == serve::QueryStatus::kShed) continue;
        ASSERT_EQ(qr.status, serve::QueryStatus::kOk) << qr.error;
        ASSERT_FALSE(qr.neighbors.empty());
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Rng rng(55);
  std::vector<std::uint32_t> inserted;
  for (int step = 0; step < 16; ++step) {
    const auto ids = dyn.insert(f.fresh_rows(6, 500 + step));
    inserted.insert(inserted.end(), ids.begin(), ids.end());
    if (step % 3 == 1 && inserted.size() >= 4) {
      dyn.erase(std::vector<std::uint32_t>(inserted.end() - 4,
                                           inserted.end()));
      inserted.resize(inserted.size() - 4);
    }
    if (step % 4 == 3) dyn.repair();
    if (step % 8 == 7) dyn.compact();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& c : clients) c.join();
  engine.drain();
  EXPECT_GT(answered.load(), 0u);
  EXPECT_GT(engine.metrics().optimized_queries.value(), 0u);
  expect_layout_fresh(f.pool, *dyn.snapshot(), f.queries);
}

}  // namespace
}  // namespace wknng::dynamic
