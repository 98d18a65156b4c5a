// Graph-identity regression: small fixed builds under the scalar backend
// (the portable, bit-reproducible one) must reproduce pinned hashes of their
// graphs. Any change to candidate generation, its order or its truncation —
// or to which candidate a fault-injection opportunity lands on — moves a
// hash. A change that is meant to alter graphs must re-pin them and say why.
//
// Each pinned build also pins its work counters. The builds run under the
// sequential schedule, so the counters are as deterministic as the graph:
// a refactor that keeps graphs but charges a kernel differently moves them.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/builder.hpp"
#include "data/synthetic.hpp"
#include "dynamic/dynamic_knng.hpp"
#include "kernels/kernels.hpp"
#include "support/temp_dir.hpp"

namespace wknng::core {
namespace {

/// FNV-1a over every slot's (id, distance bits), row by row.
std::uint64_t graph_hash(const KnnGraph& g) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint32_t word) {
    for (int b = 0; b < 4; ++b) {
      h ^= (word >> (8 * b)) & 0xFFu;
      h *= 0x100000001B3ULL;
    }
  };
  for (std::size_t i = 0; i < g.num_points(); ++i) {
    for (const Neighbor& nb : g.row(i)) {
      mix(nb.id);
      mix(std::bit_cast<std::uint32_t>(nb.dist));
    }
  }
  return h;
}

/// A small build whose refinement hits the sample cap: 24 candidates per
/// point out of roughly a hundred gathered ones.
BuildParams pinned_params(Strategy strategy, Compression compression) {
  BuildParams p;
  p.k = 8;
  p.strategy = strategy;
  p.compression = compression;
  p.num_trees = 4;
  p.leaf_size = 48;
  p.refine_iters = 2;
  p.refine_sample = 24;
  p.seed = 77;
  p.schedule = {simt::SchedulePolicy::kSequential, 0};
  return p;
}

FloatMatrix pinned_points() { return data::make_clusters(600, 16, 6, 0.2f, 5); }

/// The deterministic simt::Stats counters of one pinned build.
struct Counters {
  std::uint64_t distance_evals;
  std::uint64_t flops;
  std::uint64_t global_reads;
  std::uint64_t global_writes;
  std::uint64_t warp_collectives;
  std::uint64_t scratch_bytes_peak;
};

void expect_counters(const simt::Stats& s, const Counters& pin) {
  EXPECT_EQ(s.distance_evals, pin.distance_evals);
  EXPECT_EQ(s.flops, pin.flops);
  EXPECT_EQ(s.global_reads, pin.global_reads);
  EXPECT_EQ(s.global_writes, pin.global_writes);
  EXPECT_EQ(s.warp_collectives, pin.warp_collectives);
  EXPECT_EQ(s.scratch_bytes_peak, pin.scratch_bytes_peak);
}

struct Pinned {
  Strategy strategy;
  Compression compression;
  std::uint64_t hash;
  Counters counters;
};

void PrintTo(const Pinned& pin, std::ostream* os) {
  *os << strategy_name(pin.strategy) << "/"
      << compression_name(pin.compression);
}

class GraphIdentity : public ::testing::TestWithParam<Pinned> {};

TEST_P(GraphIdentity, BuildMatchesPinnedHash) {
  const kernels::ScopedBackend scalar(kernels::Backend::kScalar);
  ThreadPool pool(2);
  const Pinned& pin = GetParam();
  const BuildResult r = build_knng(
      pool, pinned_points(), pinned_params(pin.strategy, pin.compression));
  ASSERT_TRUE(r.graph.check_invariants());
  EXPECT_EQ(graph_hash(r.graph), pin.hash);
  expect_counters(r.stats, pin.counters);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, GraphIdentity,
    ::testing::Values(
        Pinned{Strategy::kBasic, Compression::kNone,
               0xFEF208198220C2DFULL,
               {72579u, 6113520u, 17543584u, 187072u, 1069681u, 1024u}},
        // Atomic reads a row's bound word before it scans the row: most
        // candidates cost 8 bytes and no collective, and a CAS that lowers
        // the row's worst also stores the bound.
        Pinned{Strategy::kAtomic, Compression::kNone,
               0xFEF208198220C2DFULL,
               {72579u, 6113520u, 12397112u, 302144u, 501569u, 1024u}},
        Pinned{Strategy::kTiled, Compression::kNone,
               0xFEF208198220C2DFULL,
               {72579u, 3790992u, 3428000u, 371200u, 156889u, 8256u}},
        Pinned{Strategy::kShared, Compression::kNone,
               0xFEF208198220C2DFULL,
               {72579u, 5192848u, 8542304u, 221632u, 831191u, 2496u}},
        Pinned{Strategy::kBasic, Compression::kSq8,
               0xA900F64DC6BE95A5ULL,
               {82208u, 7908096u, 19488240u, 319616u, 1075545u, 4160u}},
        Pinned{Strategy::kAtomic, Compression::kSq8,
               0xA900F64DC6BE95A5ULL,
               {82208u, 7908096u, 10087920u, 490432u, 592249u, 4160u}},
        // Sorted rows keep each id once at its smaller SQ8 distance; basic
        // and atomic rows keep the first distance an id arrives with.
        Pinned{Strategy::kTiled, Compression::kSq8,
               0x287C312DC33ED12EULL,
               {82208u, 5686016u, 4935220u, 881536u, 176479u, 8320u}},
        Pinned{Strategy::kShared, Compression::kSq8,
               0x287C312DC33ED12EULL,
               {82208u, 6986496u, 5001780u, 462720u, 870511u, 5056u}}),
    [](const ::testing::TestParamInfo<Pinned>& info) {
      return std::string(strategy_name(info.param.strategy)) + "_" +
             compression_name(info.param.compression);
    });

// Corrupted distances are dropped where they land, so this hash pins which
// scored candidate each corrupt-distance opportunity hits. Fault decisions
// key on the launch index, so the number of launches before the leaf pass
// (one per forest level, for all trees) is part of what it pins.
TEST(GraphIdentity, CorruptDistanceBuildMatchesPinnedHash) {
  const kernels::ScopedBackend scalar(kernels::Backend::kScalar);
  ThreadPool pool(2);
  BuildParams p = pinned_params(Strategy::kTiled, Compression::kNone);
  p.faults = simt::fault_spec_from_string("corrupt-distance:9:0.02");
  const BuildResult r = build_knng(pool, pinned_points(), p);
  ASSERT_TRUE(r.graph.check_invariants());
  EXPECT_GT(r.health.faults_injected, 0u);
  EXPECT_EQ(graph_hash(r.graph), 0x263A27519E2FBABBULL);
  expect_counters(r.stats, {72579u, 3790992u, 3427548u, 371136u, 156906u, 8256u});
}

// A sample that never binds and three rounds: every gather is complete, so
// rounds 2 and 3 skip the pairs the round before them scored. The hash is
// the one the flag-free refine loop builds, so this pins that the skip
// changes no graph.
TEST(GraphIdentity, UncappedRefineMatchesPinnedHash) {
  const kernels::ScopedBackend scalar(kernels::Backend::kScalar);
  ThreadPool pool(2);
  BuildParams p = pinned_params(Strategy::kTiled, Compression::kNone);
  p.refine_sample = 512;
  p.refine_iters = 3;
  const BuildResult r = build_knng(pool, pinned_points(), p);
  ASSERT_TRUE(r.graph.check_invariants());
  EXPECT_EQ(graph_hash(r.graph), 0x21D847D5CF4E8252ULL);
  expect_counters(r.stats, {76013u, 3955824u, 4356252u, 382784u, 178786u, 8256u});
}

// The dynamic index's row repair: inserts and deletes dirty rows, one repair
// pass rescoring their first-seen candidate pools.
TEST(GraphIdentity, DynamicRepairMatchesPinnedHash) {
  const kernels::ScopedBackend scalar(kernels::Backend::kScalar);
  ThreadPool pool(2);
  const FloatMatrix base = pinned_points();
  dynamic::DynamicParams dp;
  dp.auto_maintain = false;
  const std::filesystem::path dir =
      wknng::testing::unique_test_dir("graph_identity");
  dynamic::DynamicKnng index(
      pool, pinned_params(Strategy::kTiled, Compression::kNone), base,
      dir.string(), dp);

  FloatMatrix batch(40, base.cols());
  for (std::size_t i = 0; i < batch.rows(); ++i) {
    const auto src = base.row(i * 13);
    auto dst = batch.row(i);
    for (std::size_t d = 0; d < base.cols(); ++d) {
      dst[d] = src[d] + 0.01f * static_cast<float>((i + d) % 7);
    }
  }
  index.insert(batch);
  std::vector<std::uint32_t> doomed;
  for (std::uint32_t id = 3; id < 600; id += 37) doomed.push_back(id);
  index.erase(doomed);
  index.repair();
  EXPECT_EQ(graph_hash(index.snapshot()->graph), 0x3E8A27976DE267B3ULL);
  expect_counters(index.stats(), {86338u, 4451424u, 4547360u, 427776u, 157937u, 8256u});
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wknng::core
