#include "simt/warp.hpp"

#include <gtest/gtest.h>

#include "simt/cost.hpp"
#include "simt/scratch.hpp"

namespace wknng::simt {
namespace {

class WarpTest : public ::testing::Test {
 protected:
  WarpScratch scratch_;
  Stats stats_;
  Warp warp_{0, scratch_, stats_};
};

TEST_F(WarpTest, CollectivesAreCounted) {
  const std::uint64_t before = stats_.warp_collectives;
  cost::ballot_rounds(warp_.stats(), 33);  // two 32-lane rounds
  cost::shuffle_reduce(warp_.stats());
  EXPECT_EQ(stats_.warp_collectives - before, 2u + 5u);
}

TEST_F(WarpTest, CountReadWriteAccumulate) {
  warp_.count_read(128);
  warp_.count_write(64);
  warp_.count_read(2);
  EXPECT_EQ(stats_.global_reads, 130u);
  EXPECT_EQ(stats_.global_writes, 64u);
}

}  // namespace
}  // namespace wknng::simt
