#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/builder.hpp"
#include "core/graph_search.hpp"
#include "data/synthetic.hpp"
#include "dynamic/dynamic_knng.hpp"
#include "serve/engine.hpp"
#include "support/temp_dir.hpp"

namespace wknng::serve {
namespace {

// The serving/update consistency contract: queries race with dynamic-index
// inserts, and every response must be explainable by *some* published
// snapshot — the one whose version it carries. No response may observe a
// half-updated graph (ids past its snapshot's point count) or differ from
// what its snapshot, replayed offline with the same tag, produces.
TEST(SnapshotSwap, ConcurrentQueriesAreConsistentWithSomePublishedSnapshot) {
  ThreadPool pool{4};
  const std::size_t dim = 8;
  const std::size_t nq = 12;

  FloatMatrix initial = data::make_clusters(400, dim, 8, 0.1f, 5);
  FloatMatrix queries(nq, dim);
  Rng qrng(37);
  for (std::size_t qi = 0; qi < nq; ++qi) {
    const auto src = initial.row(qrng.next_below(initial.rows()));
    auto dst = queries.row(qi);
    for (std::size_t d = 0; d < dim; ++d) {
      dst[d] = src[d] + 0.02f * qrng.next_gaussian();
    }
  }

  core::BuildParams bp;
  bp.k = 8;
  bp.num_trees = 4;
  bp.refine_iters = 1;
  dynamic::DynamicParams dp;
  dp.auto_maintain = false;  // one insert = one version
  const auto dir = wknng::testing::unique_test_dir("snapshot_swap");
  dynamic::DynamicKnng dyn(pool, bp, initial, dir.string(), dp);

  std::mutex archive_mutex;
  std::map<std::uint64_t, std::shared_ptr<const GraphSnapshot>> archive;
  auto archive_current = [&] {
    auto snap = dyn.snapshot();
    std::lock_guard<std::mutex> lock(archive_mutex);
    archive[snap->version] = snap;
    return snap;
  };

  ServeOptions so;
  so.max_batch = 4;
  so.workers = 2;
  so.search.k = 5;
  ServeEngine engine(pool, so, archive_current());

  // Publisher: five insert rounds, each appending 50 points and publishing
  // the grown graph. Archiving happens before publishing, so by the time a
  // response can carry a version, the reference copy already exists. After
  // each publish the publisher waits for four fresh query completions: with
  // three closed-loop queriers (one request in flight each), at least one of
  // those four was *submitted* after the publish and therefore served on the
  // new version — so the assertions below hold even when the scheduler
  // starves the queriers (e.g. parallel ctest on a single core).
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> completed{0};
  std::thread publisher([&] {
    Rng prng(91);
    for (std::uint64_t round = 0; round < 5; ++round) {
      FloatMatrix batch(50, dim);
      for (std::size_t i = 0; i < batch.rows(); ++i) {
        const auto src = initial.row(prng.next_below(initial.rows()));
        auto dst = batch.row(i);
        for (std::size_t d = 0; d < dim; ++d) {
          dst[d] = src[d] + 0.05f * prng.next_gaussian();
        }
      }
      dyn.insert(batch);
      engine.publish(archive_current());
      const std::uint64_t target = completed.load() + 4;
      while (completed.load() < target) std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  // Queriers: closed-loop submissions racing with the publishes above.
  struct Observed {
    std::uint64_t tag = 0;
    QueryResult result;
  };
  std::mutex observed_mutex;
  std::vector<Observed> observed;
  std::atomic<std::uint64_t> next_tag{0};
  std::vector<std::thread> queriers;
  for (int t = 0; t < 3; ++t) {
    queriers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::uint64_t tag =
            next_tag.fetch_add(1, std::memory_order_relaxed);
        const auto row = queries.row(tag % nq);
        QueryResult qr =
            engine.submit({row.begin(), row.end()}, 0, tag).get();
        {
          std::lock_guard<std::mutex> lock(observed_mutex);
          observed.push_back({tag, std::move(qr)});
        }
        completed.fetch_add(1, std::memory_order_release);
      }
    });
  }
  publisher.join();
  for (auto& th : queriers) th.join();
  engine.drain();

  ASSERT_FALSE(observed.empty());
  std::size_t from_later_snapshots = 0;
  for (const Observed& ob : observed) {
    const QueryResult& qr = ob.result;
    ASSERT_EQ(qr.status, QueryStatus::kOk) << qr.error;

    std::shared_ptr<const GraphSnapshot> snap;
    {
      std::lock_guard<std::mutex> lock(archive_mutex);
      const auto it = archive.find(qr.snapshot_version);
      ASSERT_NE(it, archive.end())
          << "response claims unpublished version " << qr.snapshot_version;
      snap = it->second;
    }
    if (qr.snapshot_version > 1) ++from_later_snapshots;

    // Consistency 1: every neighbor id exists in that snapshot.
    for (const Neighbor& nb : qr.neighbors) {
      EXPECT_LT(nb.id, snap->base.rows())
          << "id from a newer graph leaked into version "
          << qr.snapshot_version;
    }

    // Consistency 2: replaying the query offline against the archived
    // snapshot with the same tag reproduces the response exactly.
    FloatMatrix one(1, dim);
    const auto src = queries.row(ob.tag % nq);
    std::copy(src.begin(), src.end(), one.row(0).begin());
    const std::uint64_t tags[] = {ob.tag};
    const core::BatchSearchResult replay = core::graph_search_batch(
        pool, snap->base, snap->graph, one, tags, so.search);
    const auto expect = replay.results.row(0);
    ASSERT_EQ(qr.neighbors.size(), expect.size());
    for (std::size_t j = 0; j < expect.size(); ++j) {
      EXPECT_EQ(qr.neighbors[j], expect[j]) << "tag " << ob.tag;
    }
    EXPECT_EQ(qr.points_visited, replay.visits[0]);
  }
  // The race was real: at least one response came from a published update.
  EXPECT_GT(from_later_snapshots, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wknng::serve
