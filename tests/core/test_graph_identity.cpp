// Graph-identity regression: small fixed builds under the scalar backend
// (the portable, bit-reproducible one) must reproduce pinned hashes of their
// graphs. Any change to candidate generation, its order or its truncation —
// or to which candidate a fault-injection opportunity lands on — moves a
// hash. A change that is meant to alter graphs must re-pin them and say why.

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

struct Pinned {
  Strategy strategy;
  Compression compression;
  std::uint64_t hash;
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
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, GraphIdentity,
    ::testing::Values(
        Pinned{Strategy::kBasic, Compression::kNone,
               0xFEF208198220C2DFULL},
        Pinned{Strategy::kAtomic, Compression::kNone,
               0xFEF208198220C2DFULL},
        Pinned{Strategy::kTiled, Compression::kNone,
               0xFEF208198220C2DFULL},
        Pinned{Strategy::kShared, Compression::kNone,
               0xFEF208198220C2DFULL},
        Pinned{Strategy::kBasic, Compression::kSq8,
               0xA900F64DC6BE95A5ULL},
        Pinned{Strategy::kAtomic, Compression::kSq8,
               0xA900F64DC6BE95A5ULL},
        Pinned{Strategy::kTiled, Compression::kSq8,
               0xA3A1A03230073CD0ULL},
        Pinned{Strategy::kShared, Compression::kSq8,
               0xA3A1A03230073CD0ULL}),
    [](const ::testing::TestParamInfo<Pinned>& info) {
      return std::string(strategy_name(info.param.strategy)) + "_" +
             compression_name(info.param.compression);
    });

// Corrupted distances are dropped where they land, so this hash pins which
// scored candidate each corrupt-distance opportunity hits.
TEST(GraphIdentity, CorruptDistanceBuildMatchesPinnedHash) {
  const kernels::ScopedBackend scalar(kernels::Backend::kScalar);
  ThreadPool pool(2);
  BuildParams p = pinned_params(Strategy::kTiled, Compression::kNone);
  p.faults = simt::fault_spec_from_string("corrupt-distance:9:0.02");
  const BuildResult r = build_knng(pool, pinned_points(), p);
  ASSERT_TRUE(r.graph.check_invariants());
  EXPECT_GT(r.health.faults_injected, 0u);
  EXPECT_EQ(graph_hash(r.graph), 0xC68FB79928AC1273ULL);
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
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wknng::core
