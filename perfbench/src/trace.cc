#include "trace.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "report.h"

namespace perfbench {

uint64_t Tracer::NewRequest() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

uint64_t Tracer::Begin(std::string_view name, uint64_t parent,
                       uint64_t request) {
  if (!enabled_) return 0;
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = std::string(name);
  span.start_ns = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(uint64_t id, uint64_t count) {
  if (id == 0) return;
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[id - 1];
  span.end_ns = now;
  span.count = count;
}

std::vector<Span> Tracer::Closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.reserve(spans_.size());
  for (const Span& span : spans_) {
    if (span.end_ns >= 0) out.push_back(span);
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& span : Closed()) {
    JsonObject line;
    line.Add("id", span.id)
        .Add("parent", span.parent)
        .Add("request", span.request)
        .Add("layer", span.layer())
        .Add("name", span.name)
        .Add("start_ns", span.start_ns)
        .Add("end_ns", span.end_ns)
        .Add("count", span.count);
    out << line.Render() << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

std::map<std::string, double> SelfTimeMillis(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (const Span& span : spans) {
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = span.start_ns;
      for (const auto& [begin, end] : intervals) {
        const int64_t lo = std::max(begin, cursor);
        const int64_t hi = std::min(end, span.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    self[std::string(span.layer())] +=
        static_cast<double>(span.end_ns - span.start_ns - covered) / 1e6;
  }
  return self;
}

std::map<std::string, NameTotal> TotalsByName(const std::vector<Span>& spans) {
  std::map<std::string, NameTotal> totals;
  for (const Span& span : spans) {
    NameTotal& total = totals[span.name];
    total.millis += span.millis();
    ++total.spans;
  }
  return totals;
}

}  // namespace perfbench
