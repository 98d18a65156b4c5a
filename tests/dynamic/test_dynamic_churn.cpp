// Serving under a live write mix: a DynamicKnng wired into a ServeEngine via
// on_publish, driven by the deterministic loadgen. Also the concurrency
// stress that sanitize-race runs: reader threads pinning snapshots and
// searching while the writer inserts, deletes, repairs, and compacts.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/graph_search.hpp"
#include "data/synthetic.hpp"
#include "dynamic/dynamic_knng.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "support/temp_dir.hpp"

namespace wknng::dynamic {
namespace {

namespace fs = std::filesystem;

struct ChurnFixture {
  ThreadPool pool{4};
  FloatMatrix base;
  FloatMatrix queries;

  explicit ChurnFixture(std::size_t n = 400, std::size_t dim = 8,
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
  }

  core::BuildParams build_params() const {
    core::BuildParams bp;
    bp.k = 8;
    bp.num_trees = 4;
    bp.refine_iters = 1;
    return bp;
  }

  serve::ServeOptions serve_options() const {
    serve::ServeOptions so;
    so.max_batch = 8;
    so.workers = 2;
    so.search.k = 5;
    return so;
  }

  /// A deterministic 1-row insert derived from a request index.
  FloatMatrix insert_row(std::size_t i) const {
    FloatMatrix row(1, base.cols());
    const auto src = base.row(i % base.rows());
    auto dst = row.row(0);
    for (std::size_t d = 0; d < base.cols(); ++d) {
      dst[d] = src[d] + 0.03f * static_cast<float>((i % 7) + 1);
    }
    return row;
  }
};

TEST(DynamicChurn, LoadgenDrivesAMixedWorkloadThroughTheEngine) {
  ChurnFixture f;
  const auto dir = testing::unique_test_dir("churn_loadgen");

  // The publish hook fires during construction too (before the engine
  // exists), so it goes through an atomic pointer armed after wiring.
  std::atomic<serve::ServeEngine*> engine_ptr{nullptr};
  DynamicParams dp;
  dp.repair_threshold = 32;
  dp.on_publish = [&engine_ptr](auto snap) {
    if (auto* e = engine_ptr.load()) e->publish(std::move(snap));
  };
  DynamicKnng dyn(f.pool, f.build_params(), f.base, dir.string(), dp);
  serve::ServeEngine engine(f.pool, f.serve_options(), dyn.snapshot());
  engine_ptr.store(&engine);

  serve::LoadGenConfig cfg;
  cfg.mode = serve::LoadGenConfig::Mode::kClosed;
  cfg.concurrency = 4;
  cfg.requests = 300;
  cfg.seed = 7;
  cfg.mutate_fraction = 0.15;  // >= the 10% churn SLO write mix
  cfg.delete_fraction = 0.3;

  serve::MutationHooks hooks;
  hooks.insert = [&](std::size_t i) { dyn.insert(f.insert_row(i)); };
  hooks.erase = [&](std::size_t i) {
    const std::uint32_t ext = static_cast<std::uint32_t>(i % f.base.rows());
    dyn.erase(std::vector<std::uint32_t>{ext});  // repeat deletes are no-ops
  };

  const serve::LoadGenReport rep = run_load(engine, f.queries, cfg, hooks);
  engine.drain();

  // The classification is a pure function of the config: the report's split
  // must equal what request_kind predicts, slot by slot.
  std::size_t want_inserts = 0, want_deletes = 0;
  for (std::size_t i = 0; i < cfg.requests; ++i) {
    const auto kind = serve::request_kind(cfg, i);
    want_inserts += kind == serve::RequestKind::kInsert;
    want_deletes += kind == serve::RequestKind::kDelete;
  }
  EXPECT_EQ(rep.inserts, want_inserts);
  EXPECT_EQ(rep.deletes, want_deletes);
  EXPECT_EQ(rep.reads, cfg.requests - want_inserts - want_deletes);
  EXPECT_GT(rep.inserts, 0u);
  EXPECT_GT(rep.deletes, 0u);
  EXPECT_GE(rep.inserts + rep.deletes,
            static_cast<std::size_t>(0.10 * cfg.requests));
  EXPECT_EQ(rep.ok, rep.reads);  // no deadline -> every read answered
  EXPECT_EQ(rep.failed, 0u);
  EXPECT_EQ(rep.mutation_failures, 0u);

  // Every mutation published; after the dust settles the engine serves the
  // writer's latest version.
  EXPECT_GT(dyn.version(), 1u);
  EXPECT_EQ(engine.snapshot()->version, dyn.version());
  EXPECT_TRUE(engine.snapshot()->graph.check_invariants());

  engine.stop();
  fs::remove_all(dir);
}

TEST(DynamicChurn, HookLessMixDegradesToTheReadOnlyHash) {
  ChurnFixture f;
  const auto dir = testing::unique_test_dir("churn_hash");
  DynamicParams dp;
  dp.auto_maintain = false;
  DynamicKnng dyn(f.pool, f.build_params(), f.base, dir.string(), dp);
  serve::ServeEngine engine(f.pool, f.serve_options(), dyn.snapshot());

  serve::LoadGenConfig cfg;
  cfg.requests = 120;
  cfg.concurrency = 3;
  cfg.seed = 11;

  // Read-only baseline, then the same config with a write mix but no hooks:
  // every mutation slot degrades to a read, so the digest is bit-identical.
  const serve::LoadGenReport baseline = run_load(engine, f.queries, cfg);
  cfg.mutate_fraction = 0.2;
  const serve::LoadGenReport degraded =
      run_load(engine, f.queries, cfg, serve::MutationHooks{});
  EXPECT_EQ(degraded.result_hash, baseline.result_hash);
  EXPECT_EQ(degraded.reads, baseline.reads);
  EXPECT_EQ(degraded.inserts, 0u);
  EXPECT_EQ(degraded.deletes, 0u);

  // And with mutate_fraction = 0 every slot is a read by construction.
  for (std::size_t i = 0; i < 64; ++i) {
    serve::LoadGenConfig ro = cfg;
    ro.mutate_fraction = 0.0;
    EXPECT_EQ(serve::request_kind(ro, i), serve::RequestKind::kRead);
  }

  engine.stop();
  fs::remove_all(dir);
}

TEST(DynamicChurn, ReadersPinSnapshotsWhileTheWriterMutates) {
  ChurnFixture f(300);
  const auto dir = testing::unique_test_dir("churn_race");
  DynamicParams dp;
  dp.repair_threshold = 16;
  DynamicKnng dyn(f.pool, f.build_params(), f.base, dir.string(), dp);

  // A dedicated pool for readers: the writer owns f.pool for its kernels.
  ThreadPool reader_pool(2);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      core::SearchParams sp;
      sp.k = 5;
      FloatMatrix q(1, f.queries.cols());
      const auto src = f.queries.row(static_cast<std::size_t>(t));
      std::copy(src.begin(), src.end(), q.row(0).begin());
      while (!done.load(std::memory_order_acquire)) {
        // Pin whatever is published right now; the writer may publish many
        // more versions while this search runs — the pin keeps it alive.
        const auto snap = dyn.snapshot();
        const auto found = core::graph_search_batch(
            reader_pool, snap->base, snap->graph, q, {}, sp, nullptr, nullptr,
            nullptr, snap->exclusion_mask());
        ASSERT_GT(found.results.row_size(0), 0u);
        for (const Neighbor& nb : found.results.row(0)) {
          if (nb.id == KnnGraph::kInvalid) break;
          ASSERT_LT(nb.id, snap->base.rows());
          if (!snap->exclusion_mask().empty()) {
            ASSERT_EQ(snap->exclusion_mask()[nb.id], 0);
          }
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::uint32_t delete_cursor = 0;
  for (int round = 0; round < 12; ++round) {
    dyn.insert(f.insert_row(static_cast<std::size_t>(round)));
    std::vector<std::uint32_t> victims = {delete_cursor, delete_cursor + 1};
    delete_cursor += 2;
    dyn.erase(victims);
    if (round % 4 == 3) {
      dyn.repair();
      dyn.compact();
    }
  }
  // On a loaded single-core box the 12 rounds can complete before any
  // reader thread finishes a search; keep the snapshot live until every
  // reader has pinned at least once so the overlap actually happens.
  while (reads.load(std::memory_order_relaxed) < 3) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_TRUE(dyn.snapshot()->graph.check_invariants());
  EXPECT_GT(dyn.version(), 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wknng::dynamic
