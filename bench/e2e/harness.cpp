#include "harness.hpp"

#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "obs/json_util.hpp"

namespace wknng::e2e {

namespace {

std::vector<std::pair<std::string, std::string>> lineage(std::uint64_t parent,
                                                         std::uint64_t root) {
  return {{"parent", std::to_string(parent)}, {"root", std::to_string(root)}};
}

std::uint64_t arg_u64(const obs::TraceEvent& ev, const char* key) {
  for (const auto& [k, v] : ev.args) {
    if (k == key) return std::stoull(v);
  }
  return 0;
}

/// Total length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_lo = 0.0;
  double cur_hi = -std::numeric_limits<double>::infinity();
  for (const auto& [lo, hi] : iv) {
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

void LayerTrace::record(const char* layer, const char* name, std::uint64_t id,
                        std::uint64_t parent, double ts_us, double dur_us,
                        std::uint32_t tid) {
  obs::TraceEvent ev;
  ev.name = name;
  ev.cat = layer;
  ev.id = id;
  ev.tid = tid;
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.args = lineage(parent, root_);
  tracer_.record(std::move(ev));
}

std::map<std::string, double> LayerTrace::self_seconds() const {
  const std::vector<obs::TraceEvent> events = tracer_.events();
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const obs::TraceEvent& ev : events) {
    children[arg_u64(ev, "parent")].emplace_back(ev.ts_us,
                                                 ev.ts_us + ev.dur_us);
  }
  std::map<std::string, double> self;
  for (const obs::TraceEvent& ev : events) {
    double covered = 0.0;
    if (const auto it = children.find(ev.id); it != children.end()) {
      // Clip children to the parent's interval before taking the union.
      std::vector<std::pair<double, double>> clipped;
      for (const auto& [lo, hi] : it->second) {
        const double a = std::max(lo, ev.ts_us);
        const double b = std::min(hi, ev.ts_us + ev.dur_us);
        if (b > a) clipped.emplace_back(a, b);
      }
      covered = union_length(std::move(clipped));
    }
    self[ev.cat] += std::max(0.0, ev.dur_us - covered) * 1e-6;
  }
  return self;
}

LayerSpan::LayerSpan(LayerTrace* trace, const char* layer, const char* name,
                     std::uint64_t parent, std::uint32_t tid) {
  if (trace == nullptr) return;
  id_ = trace->next_id();
  span_.emplace(&trace->tracer(), name, layer, id_, tid);
  for (auto& [key, value] : lineage(parent, trace->root())) {
    span_->arg(key, std::move(value));
  }
}

bool Report::correct() const {
  return std::all_of(gates_.begin(), gates_.end(),
                     [](const auto& g) { return g.second.first; });
}

std::string Report::to_json(const std::string& workload,
                            std::uint64_t seed) const {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"workload\":\"" << obs::json_escape(workload) << "\",\"seed\":"
     << seed << ",\"correct\":" << (correct() ? "true" : "false")
     << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
     << ",\"gates\":{";
  bool first = true;
  for (const auto& [name, g] : gates_) {
    os << (first ? "" : ",") << "\"" << obs::json_escape(name)
       << "\":{\"ok\":" << (g.first ? "true" : "false") << ",\"detail\":\""
       << obs::json_escape(g.second) << "\"}";
    first = false;
  }
  os << "},\"metrics\":{";
  first = true;
  for (const auto& [name, m] : metrics_) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (first ? "" : ",") << "\"" << obs::json_escape(name)
       << "\":{\"value\":" << v << ",\"unit\":\"" << obs::json_escape(m.unit)
       << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace wknng::e2e
