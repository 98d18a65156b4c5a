#include "load.hpp"

#include <cmath>
#include <exception>
#include <future>
#include <thread>

#include "common/rng.hpp"

namespace wknng::e2e {

namespace {

ReadSample sample_of(serve::QueryResult&& qr) {
  ReadSample s;
  s.tag = qr.tag;
  s.status = qr.status;
  s.version = qr.snapshot_version;
  s.latency_us = qr.total_us;
  s.queue_us = qr.queue_us;
  s.service_us = qr.total_us - qr.queue_us;
  s.neighbors = std::move(qr.neighbors);
  return s;
}

}  // namespace

std::vector<float> query_for(const FloatMatrix& queries, std::uint64_t tag) {
  const auto row = queries.row(tag % queries.rows());
  return {row.begin(), row.end()};
}

std::vector<ReadSample> run_closed_loop(serve::ServeEngine& engine,
                                        const FloatMatrix& queries,
                                        std::size_t clients, double seconds,
                                        std::uint64_t first_tag,
                                        LayerTrace* trace,
                                        std::uint64_t parent) {
  std::atomic<std::uint64_t> next_tag{first_tag};
  std::vector<std::vector<ReadSample>> per_client(clients);
  std::vector<std::exception_ptr> errors(clients);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::jthread> threads;  // joined on every path
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        while (Clock::now() < end) {
          const std::uint64_t tag = next_tag.fetch_add(1);
          const double ts = trace != nullptr ? trace->now_us() : 0.0;
          ReadSample s = sample_of(
              engine.submit(query_for(queries, tag), 0, tag).get());
          s.done_s = seconds_since(start);
          if (trace != nullptr) {
            trace->record("serve", "query", trace->next_id(), parent, ts,
                          s.latency_us, static_cast<std::uint32_t>(c + 1));
          }
          per_client[c].push_back(std::move(s));
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::jthread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<ReadSample> all;
  for (auto& v : per_client) {
    for (ReadSample& s : v) all.push_back(std::move(s));
  }
  return all;
}

std::vector<ReadSample> run_open_loop(serve::ServeEngine& engine,
                                      const FloatMatrix& queries,
                                      double rate_qps, double seconds,
                                      std::uint64_t seed,
                                      std::uint64_t first_tag,
                                      LayerTrace* trace,
                                      std::uint64_t parent) {
  // Exponential inter-arrival gaps: a Poisson process at rate_qps.
  Rng rng(seed, /*stream=*/0x0be41009);
  std::vector<double> due_us;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.next_double()) / rate_qps * 1e6;
    if (t >= seconds * 1e6) break;
    due_us.push_back(t);
  }

  struct Sent {
    std::future<serve::QueryResult> answer;
    double late_us = 0.0;
    double trace_ts = 0.0;
  };
  std::vector<Sent> sent(due_us.size());
  const auto start = Clock::now();
  for (std::size_t i = 0; i < due_us.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::micro>(
                                     due_us[i]));
    std::this_thread::sleep_until(due);
    sent[i].late_us = us_between(due, Clock::now());
    if (trace != nullptr) sent[i].trace_ts = trace->now_us();
    sent[i].answer =
        engine.submit(query_for(queries, first_tag + i), 0, first_tag + i);
  }

  std::vector<ReadSample> all;
  all.reserve(sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    Sent& s = sent[i];
    ReadSample r = sample_of(s.answer.get());
    if (trace != nullptr) {
      trace->record("serve", "query", trace->next_id(), parent, s.trace_ts,
                    r.latency_us, 0);
    }
    r.late_us = s.late_us;
    r.latency_us += s.late_us;
    r.done_s = (due_us[i] + r.latency_us) * 1e-6;
    all.push_back(std::move(r));
  }
  return all;
}

}  // namespace wknng::e2e
