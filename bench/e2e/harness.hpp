#pragma once

// Support code of the end-to-end benchmark driver: sample quantiles, the
// bench-owned layer tracer, and the flat JSON report the driver prints.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "serve/loadgen.hpp"

namespace wknng::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Nearest-rank quantile of `v` (copied and sorted); 0 for an empty sample.
inline double quantile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return serve::exact_quantile(v, p);
}

/// Middle value, or the mean of the two middle values; 0 for an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Spans recorded by the benchmark around each call into a layer of the
/// library. The span category is the src/ module called (core, opt, serve,
/// dynamic, kernels) or `bench` for the driver's own phases; every span
/// carries its parent's id and the workload root's id, so per-layer self time
/// can be computed from the trace alone. The tracer is passed explicitly and
/// never installed process-wide, so spans inside the library stay off.
class LayerTrace {
 public:
  LayerTrace() : root_(next_id()) {}

  std::uint64_t root() const { return root_; }
  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }
  double now_us() const { return tracer_.now_us(); }
  std::size_t span_count() const { return tracer_.event_count(); }
  obs::Tracer& tracer() { return tracer_; }

  /// Records a finished span (for spans whose end is known only from a
  /// result, such as a request's engine-side latency).
  void record(const char* layer, const char* name, std::uint64_t id,
              std::uint64_t parent, double ts_us, double dur_us,
              std::uint32_t tid);

  /// Self time per category in seconds: each span's duration minus the
  /// union of its children's intervals, summed per category.
  std::map<std::string, double> self_seconds() const;

 private:
  obs::Tracer tracer_;
  std::atomic<std::uint64_t> ids_{0};
  std::uint64_t root_;
};

/// RAII span around one call into a layer; a no-op without a tracer.
class LayerSpan {
 public:
  LayerSpan(LayerTrace* trace, const char* layer, const char* name,
            std::uint64_t parent, std::uint32_t tid = 0);

  std::uint64_t id() const { return id_; }

 private:
  std::optional<obs::Span> span_;
  std::uint64_t id_ = 0;
};

/// One measured value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The driver's report: metrics, correctness gates and operation counts,
/// printed as one JSON object on the last line of stdout.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  /// Records a correctness gate; `detail` says what was measured.
  void gate(const std::string& name, bool ok, const std::string& detail) {
    gates_.emplace_back(name, std::make_pair(ok, detail));
  }
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const;
  std::string to_json(const std::string& workload, std::uint64_t seed) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::pair<bool, std::string>>> gates_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace wknng::e2e
