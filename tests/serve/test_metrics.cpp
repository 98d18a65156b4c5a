#include "serve/metrics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"

namespace wknng::serve {
namespace {

TEST(Counter, AccumulatesFromManyThreads) {
  Counter c;
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) c.add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), 4010u);
}

TEST(Bounds, OneTwoFiveSeriesIsStrictlyIncreasing) {
  const std::vector<double> bounds = latency_bounds_us();
  ASSERT_GE(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 2.0);
  EXPECT_DOUBLE_EQ(bounds[2], 5.0);
  EXPECT_DOUBLE_EQ(bounds[3], 10.0);
  EXPECT_DOUBLE_EQ(bounds.back(), 1e7);  // 10 s in µs
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(Histogram, CountsSumAndMax) {
  Histogram h({10.0, 20.0, 50.0, 100.0});
  h.record(1.0);
  h.record(15.0);
  h.record(30.0);
  h.record(200.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 246.0);
  EXPECT_DOUBLE_EQ(h.mean(), 61.5);
  EXPECT_DOUBLE_EQ(h.max_seen(), 200.0);
}

TEST(Histogram, PercentileInterpolatesWithinBucket) {
  Histogram h({10.0});
  for (int i = 0; i < 100; ++i) h.record(5.0);
  // All mass in [0, 10]: interpolation is capped at the observed maximum —
  // no sample ever reached beyond 5, so no percentile may report more.
  EXPECT_DOUBLE_EQ(h.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 5.0);
}

TEST(Histogram, OverflowPercentileReportsObservedMax) {
  Histogram h({10.0, 20.0});
  h.record(500.0);
  h.record(900.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 900.0);
}

TEST(Histogram, EmptyIsAllZero) {
  Histogram h(latency_bounds_us());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, JsonIsSparseAndMarksOverflow) {
  Histogram h({10.0, 20.0});
  h.record(5.0);
  h.record(1000.0);
  const std::string json = h.to_json();
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"le\":10"), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"inf\""), std::string::npos);
  // The empty middle bucket (le:20) is omitted from the dump.
  EXPECT_EQ(json.find("\"le\":20"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(ServeMetricsJson, HasEverySection) {
  ServeMetrics m;
  m.enqueued.add(3);
  m.latency_us.record(42.0);
  const std::string json = m.to_json();
  for (const char* key :
       {"\"counters\"", "\"enqueued\":3", "\"timed_out\":0", "\"shed\":0",
        "\"latency_us\"", "\"queue_us\"", "\"service_us\"",
        "\"batch_size\"", "\"visited\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(ServeMetricsJson, RejectionKindsAreSeparateCounters) {
  ServeMetrics m;
  m.shed.add(2);
  m.timed_out.add(5);
  m.rejected_deadline.add(3);  // the pre-dispatch subset of timed_out
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"rejected_overload\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rejected_deadline\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"timed_out\":5"), std::string::npos) << json;
}

TEST(ServeMetricsPrometheus, ExportsBothRejectionSeries) {
  ServeMetrics m;
  m.shed.add(4);
  m.rejected_deadline.add(7);
  obs::MetricsRegistry reg;
  register_metrics(reg, m);
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("wknng_serve_rejected_overload_total 4"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("wknng_serve_rejected_deadline_total 7"),
            std::string::npos)
      << prom;
  // Linked series are live: later increments show up in the next scrape.
  m.rejected_deadline.add();
  EXPECT_NE(reg.to_prometheus().find("wknng_serve_rejected_deadline_total 8"),
            std::string::npos);
}

TEST(ServeMetricsPrometheus, ExportsTheServiceStageHistogram) {
  ServeMetrics m;
  m.service_us.record(90.0);
  obs::MetricsRegistry reg;
  register_metrics(reg, m);
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("wknng_serve_service_us_count 1"), std::string::npos)
      << prom;
}

}  // namespace
}  // namespace wknng::serve
