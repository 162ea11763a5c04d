#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One timed call into a layer. `name` is "<layer>.<operation>"; spans of
/// one request share `request`; `parent` is the id of the span that
/// caused this one (0 for a root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;  ///< since the tracer's origin
  int64_t end_ns = -1;   ///< -1 while open
  uint64_t count = 0;    ///< work done inside the span (rows, mutations)

  std::string_view layer() const {
    return std::string_view(name).substr(0, name.find('.'));
  }
  double millis() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// In-memory span recorder, safe to call from several threads. A disabled
/// tracer records nothing and Begin() returns 0, so call sites need no
/// branches of their own.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A fresh request id (0 when disabled).
  uint64_t NewRequest();

  /// Opens a span and returns its id (0 when disabled).
  uint64_t Begin(std::string_view name, uint64_t parent = 0,
                 uint64_t request = 0);
  /// Closes span `id`, recording `count`; no-op for id 0.
  void End(uint64_t id, uint64_t count = 0);

  /// Closed spans, in the order they were opened.
  std::vector<Span> Closed() const;

  /// Writes one JSON object per closed span to `path`; false on I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_; id == index + 1
  uint64_t next_request_ = 1;  ///< guarded by mu_
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, uint64_t parent = 0,
             uint64_t request = 0)
      : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_.End(id_, count_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  void set_count(uint64_t count) { count_ = count; }

 private:
  Tracer& tracer_;
  const uint64_t id_;
  uint64_t count_ = 0;
};

/// Self time per layer, in milliseconds: each span's duration minus the
/// part of its interval that its child spans cover, summed by layer.
std::map<std::string, double> SelfTimeMillis(const std::vector<Span>& spans);

/// Total duration per span name, in milliseconds, and the number of spans.
struct NameTotal {
  double millis = 0.0;
  uint64_t spans = 0;
};
std::map<std::string, NameTotal> TotalsByName(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
