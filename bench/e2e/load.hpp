#pragma once

// Read-load drivers of the end-to-end benchmark.
//
// Closed loop: each client sends its next query only after the previous one
// was answered, so a slower engine receives less load; latency is the
// engine's enqueue -> answer time.
//
// Open loop: one generator thread sends on a seeded Poisson schedule whether
// or not earlier requests were answered. Each request is timed from when it
// was due, not from when it was sent, so a stalled generator shows up as
// latency instead of hiding (serve::run_load times from enqueue); how late
// the generator ran is reported on its own.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/matrix.hpp"
#include "common/topk.hpp"
#include "harness.hpp"
#include "serve/engine.hpp"

namespace wknng::e2e {

/// One answered read.
struct ReadSample {
  std::uint64_t tag = 0;
  serve::QueryStatus status = serve::QueryStatus::kOk;
  std::uint64_t version = 0;  ///< snapshot version that answered
  double latency_us = 0.0;    ///< closed: enqueue -> answer; open: due -> answer
  double queue_us = 0.0;      ///< enqueue -> batch dispatch
  double service_us = 0.0;    ///< batch dispatch -> answer
  double late_us = 0.0;       ///< open loop: due -> sent
  double done_s = 0.0;        ///< loop start -> answer
  std::vector<Neighbor> neighbors;
};

/// Median over the consecutive `window_s` windows of a loop that ran for
/// `seconds` of `stat(samples, window_s)`, each window's samples being those
/// answered in it. A burst of interference from outside the process spoils
/// one window instead of the whole run's number.
template <typename Stat>
double window_median(const std::vector<ReadSample>& reads, double seconds,
                     double window_s, const Stat& stat) {
  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / window_s));
  if (windows == 1) window_s = seconds;
  std::vector<std::vector<const ReadSample*>> by_window(windows);
  for (const ReadSample& r : reads) {
    const auto w = static_cast<std::size_t>(r.done_s / window_s);
    if (w < windows) by_window[w].push_back(&r);
  }
  std::vector<double> values;
  for (const std::vector<const ReadSample*>& w : by_window) {
    if (!w.empty()) values.push_back(stat(w, window_s));
  }
  return median(std::move(values));
}

/// The query a tag carries: row `tag % rows`. A pure function of the tag, so
/// any request can be re-served later with the identical query.
std::vector<float> query_for(const FloatMatrix& queries, std::uint64_t tag);

/// Runs `clients` closed-loop clients for `seconds`. Tags are handed out in
/// send order starting at `first_tag`.
std::vector<ReadSample> run_closed_loop(serve::ServeEngine& engine,
                                        const FloatMatrix& queries,
                                        std::size_t clients, double seconds,
                                        std::uint64_t first_tag,
                                        LayerTrace* trace, std::uint64_t parent);

/// Sends Poisson arrivals at `rate_qps` for `seconds` (schedule drawn from
/// `seed`), then waits for every answer. Request i carries tag first_tag + i.
std::vector<ReadSample> run_open_loop(serve::ServeEngine& engine,
                                      const FloatMatrix& queries,
                                      double rate_qps, double seconds,
                                      std::uint64_t seed,
                                      std::uint64_t first_tag,
                                      LayerTrace* trace, std::uint64_t parent);

}  // namespace wknng::e2e
