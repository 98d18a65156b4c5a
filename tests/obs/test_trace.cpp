// Span tracer: deterministic ids, Chrome trace-event JSON shape, and the
// end-to-end builder/serve integration — phase spans cover the build, span
// ids repeat exactly across identical builds, and tracing never perturbs the
// graph the deterministic schedule produces.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/builder.hpp"
#include "core/rp_forest.hpp"
#include "data/synthetic.hpp"
#include "serve/engine.hpp"
#include "support/temp_dir.hpp"

namespace wknng::obs {
namespace {

core::BuildParams small_params() {
  core::BuildParams p;
  p.k = 8;
  p.num_trees = 4;
  p.leaf_size = 48;
  p.refine_iters = 2;
  p.seed = 11;
  p.schedule.policy = simt::SchedulePolicy::kSequential;
  return p;
}

bool graphs_equal(const KnnGraph& a, const KnnGraph& b) {
  if (a.num_points() != b.num_points() || a.k() != b.k()) return false;
  for (std::size_t i = 0; i < a.num_points(); ++i) {
    const auto ra = a.row(i);
    const auto rb = b.row(i);
    for (std::size_t j = 0; j < a.k(); ++j) {
      if (ra[j].id != rb[j].id) return false;
      if (std::memcmp(&ra[j].dist, &rb[j].dist, sizeof(float)) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// Levels of an RP tree over n > leaf points: exact median splits halve the
/// largest node each level, so depth = ceil(log2(n / leaf)).
std::size_t forest_depth(std::size_t n, std::size_t leaf) {
  return static_cast<std::size_t>(
      std::ceil(std::log2(static_cast<double>(n) / static_cast<double>(leaf))));
}

std::vector<TraceEvent> events_named(const Tracer& tr, const std::string& n) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : tr.events()) {
    if (e.name == n) out.push_back(e);
  }
  return out;
}

TEST(TraceIds, DeterministicAndSaltSeparated) {
  const std::uint64_t a = Tracer::span_id(1, 2, 3, SpanSalt::kLaunch);
  EXPECT_EQ(a, Tracer::span_id(1, 2, 3, SpanSalt::kLaunch));
  EXPECT_NE(a, Tracer::span_id(1, 2, 3, SpanSalt::kWarp));
  EXPECT_NE(a, Tracer::span_id(1, 2, 3, SpanSalt::kPhase));
  EXPECT_NE(a, Tracer::span_id(2, 1, 3, SpanSalt::kLaunch));
  EXPECT_NE(a, Tracer::span_id(1, 2, 4, SpanSalt::kLaunch));
  // The hash must spread consecutive indices: no two of the first 1000 launch
  // ids may collide.
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.insert(Tracer::span_id(0, i, 0, SpanSalt::kLaunch));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(TraceIds, NoWallClockInIds) {
  // Ids are pure functions of indices — two tracers constructed at different
  // times assign the same id to the same logical span.
  Tracer t1;
  Tracer t2;
  (void)t1;
  (void)t2;
  EXPECT_EQ(Tracer::span_id(5, 6, 7, SpanSalt::kServeBatch),
            Tracer::span_id(5, 6, 7, SpanSalt::kServeBatch));
}

TEST(Tracer, ChromeJsonShape) {
  Tracer tr;
  {
    Span s(&tr, "unit_phase", "phase", Tracer::span_id(0, 0, 0, SpanSalt::kPhase),
           kTrackBuild);
    s.arg_num("n", std::uint64_t{42});
    s.arg_str("label", "he\"llo");
  }
  tr.instant("marker", "test", kTrackBuild);
  const std::string json = tr.to_chrome_json();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"unit_phase\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);  // instant scope
  EXPECT_NE(json.find("\"n\":42"), std::string::npos);
  EXPECT_NE(json.find("he\\\"llo"), std::string::npos);  // escaped quote
  EXPECT_NE(json.find("\"span_id\":\"0x"), std::string::npos);
}

TEST(Tracer, NullTracerSpanIsNoOp) {
  Span s(nullptr, "ghost", "none", 1, 0);
  s.arg_num("x", 1.0);
  s.finish();  // must not crash; nothing to record anywhere
}

TEST(ScopedTracingTest, InstallUninstallAndNestingThrows) {
  EXPECT_EQ(active_tracer(), nullptr);
  Tracer tr;
  {
    ScopedTracing scope(tr);
    EXPECT_EQ(active_tracer(), &tr);
    Tracer inner;
    EXPECT_THROW(ScopedTracing nested(inner), Error);
    EXPECT_EQ(active_tracer(), &tr);  // failed install must not clobber
  }
  EXPECT_EQ(active_tracer(), nullptr);
}

TEST(BuildTrace, PhaseSpansCoverTheBuild) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(500, 12, 8, 0.1f, 3);
  Tracer tr;
  {
    ScopedTracing scope(tr);
    (void)core::build_knng(pool, pts, small_params());
  }
  ASSERT_GT(tr.event_count(), 0u);
  const auto build = events_named(tr, "build");
  ASSERT_EQ(build.size(), 1u);
  double phase_sum = 0.0;
  for (const char* name : {"forest", "leaf", "refine", "extract"}) {
    const auto spans = events_named(tr, name);
    ASSERT_EQ(spans.size(), 1u) << name;
    EXPECT_EQ(spans[0].tid, kTrackBuild);
    EXPECT_EQ(spans[0].cat, "phase");
    // Each phase nests inside the build root span.
    EXPECT_GE(spans[0].ts_us, build[0].ts_us);
    EXPECT_LE(spans[0].ts_us + spans[0].dur_us,
              build[0].ts_us + build[0].dur_us + 1.0);
    phase_sum += spans[0].dur_us;
  }
  // The four phases partition the build: their durations sum to the root
  // span within 5% (the acceptance bound CI enforces on real traces too).
  EXPECT_NEAR(phase_sum, build[0].dur_us, 0.05 * build[0].dur_us + 50.0);
  EXPECT_EQ(events_named(tr, "refine_round").size(), 2u);
  // Launch spans attribute to the launch track and exist for every phase.
  const auto launches = events_named(tr, "leaf_knn");
  ASSERT_GE(launches.size(), 1u);
  EXPECT_EQ(launches[0].tid, kTrackLaunch);
  // One refine_expand launch per refinement round.
  EXPECT_EQ(events_named(tr, "refine_expand").size(),
            small_params().refine_iters);
  // One forest launch per level covers every tree.
  EXPECT_EQ(events_named(tr, "rp_forest_level").size(),
            forest_depth(500, small_params().leaf_size));
}

TEST(BuildTrace, ForestLaunchesOncePerLevelForAnyTreeCount) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(1000, 8, 5);
  for (const std::size_t trees : {1u, 3u, 8u, 9u}) {
    Tracer tr;
    {
      ScopedTracing scope(tr);
      (void)core::build_rp_forest(pool, pts, trees, 40, 3);
    }
    EXPECT_EQ(events_named(tr, "rp_forest_level").size(), forest_depth(1000, 40))
        << trees << " trees";
  }
}

TEST(BuildTrace, IdenticalBuildsProduceIdenticalSpanStructure) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(400, 10, 6, 0.1f, 9);
  using Key = std::tuple<std::string, std::string, std::uint64_t>;
  auto structure = [&]() {
    Tracer tr;
    {
      ScopedTracing scope(tr);
      (void)core::build_knng(pool, pts, small_params());
    }
    std::multiset<Key> keys;
    for (const TraceEvent& e : tr.events()) {
      keys.insert({e.name, e.cat, e.id});
    }
    return keys;
  };
  EXPECT_EQ(structure(), structure());
}

TEST(BuildTrace, TracingDoesNotPerturbTheGraph) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(600, 16, 8, 0.1f, 17);
  const core::BuildParams params = small_params();
  const KnnGraph off = core::build_knng(pool, pts, params).graph;
  Tracer tr(/*warp_spans=*/true);
  KnnGraph on = [&] {
    ScopedTracing scope(tr);
    return core::build_knng(pool, pts, params).graph;
  }();
  EXPECT_TRUE(graphs_equal(off, on));
  EXPECT_GT(tr.event_count(), 0u);
}

TEST(BuildTrace, WarpSpansGatedByFlag) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(300, 8, 5, 0.1f, 5);
  auto warp_events = [&](bool warp_spans) {
    Tracer tr(warp_spans);
    ScopedTracing scope(tr);
    (void)core::build_knng(pool, pts, small_params());
    std::size_t n = 0;
    for (const TraceEvent& e : tr.events()) {
      if (e.cat == "warp") ++n;
    }
    return n;
  };
  EXPECT_EQ(warp_events(false), 0u);
  EXPECT_GT(warp_events(true), 0u);
}

TEST(BuildTrace, BuilderOwnedTracerWritesFile) {
  const auto dir = wknng::testing::unique_test_dir("wknng_trace_test");
  const std::string path = (dir / "trace.json").string();
  {
    ThreadPool pool(2);
    const FloatMatrix pts = data::make_clusters(300, 8, 5, 0.1f, 5);
    core::BuildParams params = small_params();
    params.obs.trace_path = path;
    ASSERT_EQ(active_tracer(), nullptr);
    (void)core::build_knng(pool, pts, params);
    // The builder installed its own tracer and uninstalled it on the way out.
    EXPECT_EQ(active_tracer(), nullptr);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(content.find("\"name\":\"forest\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(BuildTrace, DisabledObsSuppressesSpans) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(300, 8, 5, 0.1f, 5);
  core::BuildParams params = small_params();
  params.obs.trace = false;  // participation off even with a tracer installed
  Tracer tr;
  {
    ScopedTracing scope(tr);
    (void)core::build_knng(pool, pts, params);
  }
  EXPECT_EQ(events_named(tr, "build").size(), 0u);
  EXPECT_EQ(events_named(tr, "forest").size(), 0u);
}

TEST(BuildTrace, CheckpointAndRestoreSpans) {
  const auto dir = wknng::testing::unique_test_dir("wknng_trace_ckpt");
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(400, 10, 6, 0.1f, 21);
  core::BuildParams params = small_params();
  params.checkpoint_path = (dir / "build.ckpt").string();

  Tracer tr;
  {
    ScopedTracing scope(tr);
    (void)core::build_knng(pool, pts, params);
  }
  // One checkpoint after leaf (round 0) plus one per refine round.
  EXPECT_GE(events_named(tr, "checkpoint").size(), 2u);

  Tracer tr2;
  {
    ScopedTracing scope(tr2);
    core::KnngBuilder builder(pool, params);
    (void)builder.resume(pts, params.checkpoint_path);
  }
  const auto restore = events_named(tr2, "restore");
  ASSERT_EQ(restore.size(), 1u);
  EXPECT_EQ(events_named(tr2, "forest").size(), 0u);  // skipped on resume
  std::filesystem::remove_all(dir);
}

TEST(ServeTrace, BatchSpansRecorded) {
  ThreadPool pool(4);
  const FloatMatrix base = data::make_clusters(400, 8, 6, 0.1f, 13);
  core::BuildParams bp;
  bp.k = 8;
  bp.num_trees = 4;
  bp.refine_iters = 1;
  const KnnGraph graph = core::build_knng(pool, base, bp).graph;

  Tracer tr;
  {
    ScopedTracing scope(tr);
    serve::ServeOptions so;
    so.max_batch = 4;
    so.workers = 2;
    so.search.k = 5;
    serve::ServeEngine engine(pool, so, serve::make_snapshot(1, base, graph));
    std::vector<std::future<serve::QueryResult>> futs;
    for (std::size_t qi = 0; qi < 16; ++qi) {
      const auto row = base.row(qi);
      futs.push_back(engine.submit({row.begin(), row.end()}, 0, qi));
    }
    for (auto& f : futs) (void)f.get();
    engine.stop();
  }
  const auto batches = events_named(tr, "serve_batch");
  ASSERT_GE(batches.size(), 1u);
  std::set<std::uint64_t> ids;
  for (const TraceEvent& e : batches) {
    EXPECT_EQ(e.tid, kTrackServe);
    EXPECT_EQ(e.cat, "serve");
    ids.insert(e.id);
  }
  EXPECT_EQ(ids.size(), batches.size());  // ids unique per batch ordinal
}

TEST(Tracer, WriteRejectsUnwritablePath) {
  Tracer tr;
  EXPECT_THROW(tr.write_chrome_json("/nonexistent_dir_xyz/trace.json"), Error);
}

}  // namespace
}  // namespace wknng::obs
