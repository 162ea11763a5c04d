#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Escapes `text` as the body of a JSON string (no surrounding quotes).
std::string JsonEscape(std::string_view text);

/// Renders a finite double with all the digits needed to read it back
/// exactly; non-finite values render as null.
std::string JsonNumber(double value);

/// A JSON object built member by member into growable strings, so no
/// value can be cut short. Members keep insertion order; adding a key
/// twice replaces the earlier value.
class JsonObject {
 public:
  JsonObject& Add(std::string_view key, double value);
  JsonObject& Add(std::string_view key, int value) {
    return Add(key, static_cast<int64_t>(value));
  }
  JsonObject& Add(std::string_view key, int64_t value);
  JsonObject& Add(std::string_view key, uint64_t value);
  JsonObject& Add(std::string_view key, bool value);
  JsonObject& Add(std::string_view key, const char* value) {
    return Add(key, std::string_view(value));
  }
  JsonObject& Add(std::string_view key, std::string_view value);
  JsonObject& Add(std::string_view key, const JsonObject& value);
  JsonObject& AddArray(std::string_view key,
                       const std::vector<JsonObject>& values);

  /// One-line rendering.
  std::string Render() const;

 private:
  JsonObject& AddRaw(std::string_view key, std::string rendered);

  std::vector<std::pair<std::string, std::string>> members_;
};

/// A timing summary as {"count", "p50", "p99", "p99_supported",
/// "top_pct", "top", "mean", "max", "unit"}.
JsonObject SummaryJson(const Summary& summary, std::string_view unit);

/// The named metrics one run reports: each a value with its unit. Feeds
/// both the detailed report and the final one-line result.
class MetricSet {
 public:
  void Set(std::string_view name, double value, std::string_view unit);
  /// {"name": {"value": v, "unit": u}, ...}
  JsonObject ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
