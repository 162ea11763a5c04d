#include "report.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

namespace perfbench {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  // Shortest round-trip form; 32 bytes hold any double's shortest form.
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "null";
  return std::string(buf, end);
}

JsonObject& JsonObject::AddRaw(std::string_view key, std::string rendered) {
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(rendered);
      return *this;
    }
  }
  members_.emplace_back(std::string(key), std::move(rendered));
  return *this;
}

JsonObject& JsonObject::Add(std::string_view key, double value) {
  return AddRaw(key, JsonNumber(value));
}

JsonObject& JsonObject::Add(std::string_view key, int64_t value) {
  return AddRaw(key, std::to_string(value));
}

JsonObject& JsonObject::Add(std::string_view key, uint64_t value) {
  return AddRaw(key, std::to_string(value));
}

JsonObject& JsonObject::Add(std::string_view key, bool value) {
  return AddRaw(key, value ? "true" : "false");
}

JsonObject& JsonObject::Add(std::string_view key, std::string_view value) {
  std::string rendered = "\"";
  rendered += JsonEscape(value);
  rendered += '"';
  return AddRaw(key, std::move(rendered));
}

JsonObject& JsonObject::Add(std::string_view key, const JsonObject& value) {
  return AddRaw(key, value.Render());
}

JsonObject& JsonObject::AddArray(std::string_view key,
                                 const std::vector<JsonObject>& values) {
  std::string rendered = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) rendered += ", ";
    rendered += values[i].Render();
  }
  rendered += "]";
  return AddRaw(key, std::move(rendered));
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < members_.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += JsonEscape(members_[i].first);
    out += "\": ";
    out += members_[i].second;
  }
  out += "}";
  return out;
}

JsonObject SummaryJson(const Summary& summary, std::string_view unit) {
  JsonObject out;
  out.Add("count", static_cast<uint64_t>(summary.count))
      .Add("p50", summary.p50)
      .Add("p99", summary.p99)
      .Add("p99_supported", summary.p99_supported)
      .Add("top_pct", summary.top_pct)
      .Add("top", summary.top)
      .Add("mean", summary.mean)
      .Add("max", summary.max)
      .Add("unit", unit);
  return out;
}

void MetricSet::Set(std::string_view name, double value,
                    std::string_view unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = std::string(unit);
      return;
    }
  }
  metrics_.push_back({std::string(name), value, std::string(unit)});
}

JsonObject MetricSet::ToJson() const {
  JsonObject out;
  for (const Metric& metric : metrics_) {
    JsonObject entry;
    entry.Add("value", metric.value).Add("unit", metric.unit);
    out.Add(metric.name, entry);
  }
  return out;
}

}  // namespace perfbench
