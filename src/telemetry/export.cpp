#include "telemetry/export.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/csv.h"

namespace uniserver::telemetry {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  // Integers render without a fraction so counters stay exact.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

std::string to_json(const MetricsRegistry& registry,
                    const TraceBuffer* tracer) {
  std::ostringstream out;
  out << "{\n  \"metrics\": [";
  const auto samples = registry.snapshot();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& sample = samples[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << json_escape(sample.meta.name)
        << "\", \"type\": \"" << to_string(sample.meta.type)
        << "\", \"unit\": \"" << json_escape(sample.meta.unit) << "\"";
    if (sample.meta.type == MetricType::kHistogram) {
      out << ", \"count\": " << sample.count
          << ", \"invalid\": " << sample.invalid
          << ", \"underflow\": " << sample.underflow
          << ", \"overflow\": " << sample.overflow
          << ", \"sum\": " << json_number(sample.sum)
          << ", \"mean\": " << json_number(sample.value)
          << ", \"min\": " << json_number(sample.min)
          << ", \"max\": " << json_number(sample.max)
          << ", \"p50\": " << json_number(sample.p50)
          << ", \"p95\": " << json_number(sample.p95)
          << ", \"p99\": " << json_number(sample.p99)
          << ", \"p999\": " << json_number(sample.p999);
    } else {
      out << ", \"value\": " << json_number(sample.value);
    }
    out << "}";
  }
  out << "\n  ]";

  if (tracer != nullptr) {
    out << ",\n  \"trace\": {\"capacity\": " << tracer->capacity()
        << ", \"recorded\": " << tracer->recorded()
        << ", \"dropped\": " << tracer->dropped() << ", \"events\": [";
    const auto events = tracer->snapshot();
    for (std::size_t i = 0; i < events.size(); ++i) {
      const TraceEvent& event = events[i];
      out << (i == 0 ? "\n" : ",\n");
      out << "    {\"t_s\": " << json_number(event.sim_time.value)
          << ", \"component\": \"" << json_escape(event.component)
          << "\", \"name\": \"" << json_escape(event.name)
          << "\", \"tags\": {";
      for (std::size_t t = 0; t < event.tags.size(); ++t) {
        if (t > 0) out << ", ";
        out << "\"" << json_escape(event.tags[t].first) << "\": \""
            << json_escape(event.tags[t].second) << "\"";
      }
      out << "}}";
    }
    out << "\n  ]}";
  }

  out << "\n}\n";
  return out.str();
}

bool write_json_snapshot(const std::string& path,
                         const MetricsRegistry& registry,
                         const TraceBuffer* tracer) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json(registry, tracer);
  return static_cast<bool>(out);
}

bool save_series_csv(const std::string& path,
                     const std::vector<std::string>& header,
                     const std::vector<std::vector<double>>& rows,
                     int precision) {
  CsvWriter csv(header);
  for (const auto& row : rows) csv.add_numeric_row(row, precision);
  if (!csv.save(path)) {
    std::fprintf(stderr, "telemetry: failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("series written to %s (%zu rows)\n", path.c_str(), rows.size());
  return true;
}

}  // namespace uniserver::telemetry
