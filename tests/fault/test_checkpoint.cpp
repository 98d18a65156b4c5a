// Checkpoint format and resume semantics: a checkpoint written at a phase
// boundary must restore the build exactly — resuming reproduces the
// uninterrupted deterministic build bit for bit — and a checkpoint that does
// not belong to (params, data) must be rejected with a typed error.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/builder.hpp"
#include "data/graph_io.hpp"
#include "data/synthetic.hpp"
#include "support/temp_dir.hpp"

namespace wknng::core {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = wknng::testing::unique_test_dir("wknng_ckpt_test");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static BuildParams base_params(Strategy strategy = Strategy::kTiled) {
    BuildParams p;
    p.k = 8;
    p.strategy = strategy;
    p.num_trees = 4;
    p.leaf_size = 48;
    p.refine_iters = 2;
    p.seed = 99;
    p.schedule.policy = simt::SchedulePolicy::kSequential;
    return p;
  }

  static bool graphs_equal(const KnnGraph& a, const KnnGraph& b) {
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

  std::filesystem::path dir_;
};

data::BuildCheckpoint sample_checkpoint() {
  data::BuildCheckpoint c;
  c.signature = 0xDEADBEEF12345678ULL;
  c.n = 7;
  c.k = 3;
  c.rounds_done = 2;
  c.effective_strategy = 1;
  c.quarantined = {1, 4};
  c.sets.resize(c.n * c.k);
  for (std::size_t i = 0; i < c.sets.size(); ++i) {
    c.sets[i] = 0x0101010101010101ULL * i;
  }
  return c;
}

TEST_F(CheckpointTest, RoundTrip) {
  const data::BuildCheckpoint c = sample_checkpoint();
  data::write_checkpoint(path("a.ckpt"), c);
  const data::BuildCheckpoint r = data::read_checkpoint(path("a.ckpt"));
  EXPECT_EQ(r.signature, c.signature);
  EXPECT_EQ(r.n, c.n);
  EXPECT_EQ(r.k, c.k);
  EXPECT_EQ(r.rounds_done, c.rounds_done);
  EXPECT_EQ(r.effective_strategy, c.effective_strategy);
  EXPECT_EQ(r.quarantined, c.quarantined);
  EXPECT_EQ(r.sets, c.sets);
}

TEST_F(CheckpointTest, WritePublishesAtomically) {
  data::write_checkpoint(path("a.ckpt"), sample_checkpoint());
  EXPECT_TRUE(std::filesystem::exists(path("a.ckpt")));
  EXPECT_FALSE(std::filesystem::exists(path("a.ckpt.tmp")));
}

TEST_F(CheckpointTest, WriteRejectsShapeMismatch) {
  data::BuildCheckpoint c = sample_checkpoint();
  c.sets.pop_back();
  EXPECT_THROW(data::write_checkpoint(path("bad.ckpt"), c), Error);
}

TEST_F(CheckpointTest, TruncatedFileThrows) {
  data::write_checkpoint(path("t.ckpt"), sample_checkpoint());
  const auto size = std::filesystem::file_size(path("t.ckpt"));
  std::filesystem::resize_file(path("t.ckpt"), size - 9);
  EXPECT_THROW(data::read_checkpoint(path("t.ckpt")), Error);
}

TEST_F(CheckpointTest, BadMagicThrows) {
  data::write_checkpoint(path("m.ckpt"), sample_checkpoint());
  {
    std::fstream f(path("m.ckpt"),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.put('X');
  }
  EXPECT_THROW(data::read_checkpoint(path("m.ckpt")), Error);
}

TEST_F(CheckpointTest, ImplausibleHeaderThrowsBeforeAllocating) {
  // Magic + garbage header claiming n = 2^40: must be rejected from the
  // header/size validation, never by attempting a petabyte allocation.
  std::ofstream f(path("huge.ckpt"), std::ios::binary);
  f.write("WKNNGCP1", 8);
  const std::uint64_t sig = 1, n = 1ULL << 40, k = 8, nq = 0;
  const std::uint32_t rounds = 0, strat = 0;
  f.write(reinterpret_cast<const char*>(&sig), 8);
  f.write(reinterpret_cast<const char*>(&n), 8);
  f.write(reinterpret_cast<const char*>(&k), 8);
  f.write(reinterpret_cast<const char*>(&rounds), 4);
  f.write(reinterpret_cast<const char*>(&strat), 4);
  f.write(reinterpret_cast<const char*>(&nq), 8);
  f.close();
  EXPECT_THROW(data::read_checkpoint(path("huge.ckpt")), Error);
}

TEST_F(CheckpointTest, UnsortedQuarantineListThrows) {
  data::BuildCheckpoint c = sample_checkpoint();
  c.quarantined = {4, 1};
  data::write_checkpoint(path("q.ckpt"), c);
  EXPECT_THROW(data::read_checkpoint(path("q.ckpt")), Error);
}

// Both resume tests run for tiled (sorted rows) and atomic, whose rows
// carry bound words that restore rebuilds from the checkpoint image.
TEST_F(CheckpointTest, ResumeAfterLeafIsBitIdentical) {
  ThreadPool pool;
  const FloatMatrix points = data::make_clusters(400, 16, 8, 0.05f, 7);

  for (const Strategy strategy : {Strategy::kTiled, Strategy::kAtomic}) {
    SCOPED_TRACE(strategy_name(strategy));
    const BuildResult full = build_knng(pool, points, base_params(strategy));

    // "Interrupt" right after the leaf pass: a refine_iters=0 run leaves the
    // checkpoint exactly where an interrupted full build would after phase 2
    // (the signature deliberately excludes refine_iters).
    BuildParams leaf_only = base_params(strategy);
    leaf_only.refine_iters = 0;
    leaf_only.checkpoint_path = path("leaf.ckpt");
    build_knng(pool, points, leaf_only);

    const BuildResult resumed = KnngBuilder(pool, base_params(strategy))
                                    .resume(points, path("leaf.ckpt"));
    EXPECT_EQ(resumed.health.rounds_completed, 2u);
    EXPECT_FALSE(resumed.health.degraded);
    EXPECT_TRUE(graphs_equal(full.graph, resumed.graph));
  }
}

TEST_F(CheckpointTest, ResumeAfterRoundIsBitIdentical) {
  ThreadPool pool;
  const FloatMatrix points = data::make_clusters(400, 16, 8, 0.05f, 7);

  for (const Strategy strategy : {Strategy::kTiled, Strategy::kAtomic}) {
    SCOPED_TRACE(strategy_name(strategy));
    BuildParams three = base_params(strategy);
    three.refine_iters = 3;
    const BuildResult full = build_knng(pool, points, three);

    // Interrupt after round 1: the round-1 checkpoint of a 1-round build is
    // bitwise the round-1 state of the 3-round build.
    BuildParams one = base_params(strategy);
    one.refine_iters = 1;
    one.checkpoint_path = path("round1.ckpt");
    build_knng(pool, points, one);

    const data::BuildCheckpoint ckpt =
        data::read_checkpoint(path("round1.ckpt"));
    EXPECT_EQ(ckpt.rounds_done, 1u);

    const BuildResult resumed =
        KnngBuilder(pool, three).resume(points, path("round1.ckpt"));
    EXPECT_EQ(resumed.health.rounds_completed, 3u);
    EXPECT_FALSE(resumed.health.degraded);
    EXPECT_TRUE(graphs_equal(full.graph, resumed.graph));
  }
}

TEST_F(CheckpointTest, ResumeWithDifferentParamsThrows) {
  ThreadPool pool;
  const FloatMatrix points = data::make_clusters(300, 16, 8, 0.05f, 7);

  BuildParams params = base_params();
  params.checkpoint_path = path("c.ckpt");
  build_knng(pool, points, params);

  BuildParams other = base_params();
  other.seed = 100;  // different forest -> different signature
  EXPECT_THROW(KnngBuilder(pool, other).resume(points, path("c.ckpt")),
               CheckpointMismatchError);
}

TEST_F(CheckpointTest, ResumeWithDifferentDataThrows) {
  ThreadPool pool;
  const FloatMatrix points = data::make_clusters(300, 16, 8, 0.05f, 7);

  BuildParams params = base_params();
  params.checkpoint_path = path("c.ckpt");
  build_knng(pool, points, params);

  const FloatMatrix other = data::make_clusters(332, 16, 8, 0.05f, 7);
  EXPECT_THROW(KnngBuilder(pool, base_params()).resume(other, path("c.ckpt")),
               CheckpointMismatchError);
}

TEST_F(CheckpointTest, ResumeVerifiesQuarantineList) {
  ThreadPool pool;
  FloatMatrix points = data::make_uniform(300, 8, 3);
  points(5, 2) = std::numeric_limits<float>::quiet_NaN();

  BuildParams params = base_params();
  params.checkpoint_path = path("q.ckpt");
  BuildParams one = params;
  one.refine_iters = 1;
  build_knng(pool, points, one);

  // Same data resumes fine and matches the uninterrupted build...
  BuildParams no_ckpt = base_params();
  const BuildResult full = build_knng(pool, points, no_ckpt);
  const BuildResult resumed =
      KnngBuilder(pool, no_ckpt).resume(points, path("q.ckpt"));
  EXPECT_TRUE(graphs_equal(full.graph, resumed.graph));
  EXPECT_EQ(resumed.health.points_quarantined, 1u);

  // ... but data whose quarantine set differs is rejected even though n and
  // dim (and hence the signature) match.
  FloatMatrix clean = data::make_uniform(300, 8, 3);
  EXPECT_THROW(KnngBuilder(pool, no_ckpt).resume(clean, path("q.ckpt")),
               CheckpointMismatchError);
}

}  // namespace
}  // namespace wknng::core
