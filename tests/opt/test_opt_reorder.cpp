#include "opt/optimize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "common/rng.hpp"
#include "core/builder.hpp"
#include "core/graph_search.hpp"
#include "data/synthetic.hpp"
#include "exact/brute_force.hpp"
#include "kernels/sq8.hpp"

namespace wknng::opt {
namespace {

struct Fixture {
  ThreadPool pool{4};
  FloatMatrix base;
  FloatMatrix queries;
  KnnGraph graph;

  explicit Fixture(std::size_t n = 1500, std::size_t dim = 12,
                   std::size_t nq = 32) {
    base = data::make_clusters(n, dim, 12, 0.08f, 9);
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
    bp.k = 12;
    bp.num_trees = 6;
    bp.refine_iters = 1;
    graph = core::build_knng(pool, base, bp).graph;
  }
};

TEST(OptReorder, PermutationIsABijectionWithGatheredRows) {
  Fixture f;
  const ServingGraph sg = optimize_serving(f.pool, f.base, f.graph, {});
  ASSERT_NO_THROW(sg.check_valid());
  EXPECT_TRUE(sg.reordered);
  ASSERT_EQ(sg.n(), f.base.rows());

  // check_valid proves bijectivity; additionally the gathered base rows and
  // the edge *set* must survive the renumbering exactly.
  for (std::size_t i = 0; i < sg.n(); ++i) {
    const auto got = sg.base.row(i);
    const auto want = f.base.row(sg.new_to_old[i]);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
        << "gathered row " << i;
  }
  std::set<std::pair<std::uint32_t, std::uint32_t>> edges_new;
  for (std::uint32_t i = 0; i < sg.n(); ++i) {
    for (const std::uint32_t nb : sg.row(i)) {
      edges_new.insert({sg.new_to_old[i], sg.new_to_old[nb]});
    }
  }
  const ServingGraph identity = optimize_serving(
      f.pool, f.base, f.graph, {.prune = true, .min_degree = 4,
                                .reorder = false});
  std::set<std::pair<std::uint32_t, std::uint32_t>> edges_old;
  for (std::uint32_t i = 0; i < identity.n(); ++i) {
    for (const std::uint32_t nb : identity.row(i)) {
      edges_old.insert({i, nb});
    }
  }
  EXPECT_EQ(edges_new, edges_old);
  EXPECT_EQ(sg.edges_after, identity.edges_after);
}

TEST(OptReorder, BfsOrderPlacesNeighborsCloserThanRandomOrder) {
  // The point of the relayout: ids adjacent in the walk are adjacent in
  // memory. Mean |i - neighbor| over the CSR must beat the source ordering
  // on clustered data (the builder's row order interleaves clusters).
  Fixture f;
  const ServingGraph bfs = optimize_serving(f.pool, f.base, f.graph, {});
  const ServingGraph identity = optimize_serving(
      f.pool, f.base, f.graph, {.prune = true, .min_degree = 4,
                                .reorder = false});
  auto mean_span = [](const ServingGraph& sg) {
    double sum = 0.0;
    std::size_t count = 0;
    for (std::uint32_t i = 0; i < sg.n(); ++i) {
      for (const std::uint32_t nb : sg.row(i)) {
        sum += std::abs(static_cast<double>(i) - static_cast<double>(nb));
        ++count;
      }
    }
    return sum / static_cast<double>(count);
  };
  EXPECT_LT(mean_span(bfs), mean_span(identity));
}

TEST(OptReorder, UnprunedReorderedSearchIsExternallyIdentical) {
  // With pruning off and no early termination, the optimized path must be
  // externally indistinguishable from the raw one: same entry samples (drawn
  // in the old id space), same descent, same (id, dist) results, same visit
  // counts — the permutation is invisible from outside.
  Fixture f;
  const ServingGraph sg = optimize_serving(
      f.pool, f.base, f.graph, {.prune = false, .reorder = true});
  core::SearchParams sp;
  sp.k = 8;
  // The SQ8 tier rides the layout too: codes stay in source order and are
  // scored through the permutation, the rerank reads the gathered rows.
  const kernels::Sq8Matrix codes = kernels::sq8_encode(f.base);
  const std::vector<float> terms = kernels::sq8_code_terms(codes);
  const kernels::Sq8View sq8{&codes, terms};
  for (const kernels::Sq8View* tier : {static_cast<const kernels::Sq8View*>(
                                           nullptr),
                                       &sq8}) {
    const core::BatchSearchResult raw = core::graph_search_batch(
        f.pool, f.base, f.graph, f.queries, {}, sp, nullptr, nullptr, tier);
    const core::BatchSearchResult optimized = core::serving_search_batch(
        f.pool, sg, f.queries, {}, sp, {}, nullptr, nullptr, tier);
    ASSERT_EQ(optimized.results.num_points(), raw.results.num_points());
    for (std::size_t qi = 0; qi < f.queries.rows(); ++qi) {
      ASSERT_EQ(optimized.visits[qi], raw.visits[qi])
          << "sq8=" << (tier != nullptr) << " query " << qi;
      for (std::size_t s = 0; s < sp.k; ++s) {
        ASSERT_EQ(optimized.results.row(qi)[s], raw.results.row(qi)[s])
            << "sq8=" << (tier != nullptr) << " query " << qi << " slot "
            << s;
      }
    }
  }
}

TEST(OptReorder, ReorderedSearchDeterministicAcrossThreadCounts) {
  Fixture f(900, 10, 16);
  const ServingGraph sg = optimize_serving(f.pool, f.base, f.graph, {});
  core::SearchParams sp;
  sp.k = 6;
  const core::BatchSearchResult ref =
      core::serving_search_batch(f.pool, sg, f.queries, {}, sp);
  for (const std::size_t threads : {1u, 3u, 8u}) {
    ThreadPool other(threads);
    const core::BatchSearchResult got =
        core::serving_search_batch(other, sg, f.queries, {}, sp);
    for (std::size_t qi = 0; qi < f.queries.rows(); ++qi) {
      ASSERT_EQ(got.visits[qi], ref.visits[qi]) << "threads=" << threads;
      for (std::size_t s = 0; s < sp.k; ++s) {
        ASSERT_EQ(got.results.row(qi)[s], ref.results.row(qi)[s]);
      }
    }
  }
}

}  // namespace
}  // namespace wknng::opt
