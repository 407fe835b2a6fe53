#include "daemons/logfile.h"

#include <cstdio>
#include <istream>
#include <map>
#include <sstream>
#include <string>

namespace uniserver::daemons {

namespace {

std::map<std::string, std::string> parse_fields(const std::string& line,
                                                std::size_t offset) {
  std::map<std::string, std::string> fields;
  std::istringstream in(line.substr(offset));
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    fields[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return fields;
}

bool get_double(const std::map<std::string, std::string>& fields,
                const std::string& key, double& out) {
  const auto it = fields.find(key);
  if (it == fields.end()) return false;
  char* end = nullptr;
  out = std::strtod(it->second.c_str(), &end);
  return end != it->second.c_str();
}

bool get_u64(const std::map<std::string, std::string>& fields,
             const std::string& key, std::uint64_t& out) {
  const auto it = fields.find(key);
  if (it == fields.end()) return false;
  out = std::strtoull(it->second.c_str(), nullptr, 10);
  return true;
}

const char* component_token(Component component) {
  return to_string(component);
}

std::optional<Component> component_from(const std::string& token) {
  if (token == "core") return Component::kCore;
  if (token == "cache") return Component::kCache;
  if (token == "dram") return Component::kDram;
  return std::nullopt;
}

VectorSource source_from(const std::string& token) {
  if (token == "healthlog") return VectorSource::kHealthLog;
  if (token == "stresslog") return VectorSource::kStressLog;
  return VectorSource::kUnknown;
}

std::optional<Severity> severity_from(const std::string& token) {
  if (token == "correctable") return Severity::kCorrectable;
  if (token == "uncorrectable") return Severity::kUncorrectable;
  if (token == "crash") return Severity::kCrash;
  return std::nullopt;
}

}  // namespace

std::string serialize(const InfoVector& vector) {
  char buffer[320];
  std::snprintf(
      buffer, sizeof buffer,
      "IV t=%.3f vdd=%.4f freq=%.1f refresh=%.4f pkg_w=%.3f mem_w=%.3f "
      "temp_c=%.2f ipc=%.3f util=%.3f ce=%llu ue=%llu src=%s",
      vector.timestamp.value, vector.eop.vdd.value, vector.eop.freq.value,
      vector.eop.refresh.value, vector.sensors.package_power.value,
      vector.sensors.memory_power.value, vector.sensors.temperature.value,
      vector.ipc, vector.utilization,
      static_cast<unsigned long long>(vector.correctable_errors),
      static_cast<unsigned long long>(vector.uncorrectable_errors),
      to_string(vector.source));
  return buffer;
}

std::string serialize(const ErrorEvent& event) {
  char buffer[128];
  std::snprintf(buffer, sizeof buffer, "EE t=%.3f comp=%s sev=%s unit=%d",
                event.timestamp.value, component_token(event.component),
                to_string(event.severity), event.unit);
  return buffer;
}

std::optional<InfoVector> parse_info_vector(const std::string& line) {
  if (line.rfind("IV ", 0) != 0) return std::nullopt;
  const auto fields = parse_fields(line, 3);
  InfoVector vector;
  double value = 0.0;
  if (!get_double(fields, "t", value)) return std::nullopt;
  vector.timestamp = Seconds{value};
  if (get_double(fields, "vdd", value)) vector.eop.vdd = Volt{value};
  if (get_double(fields, "freq", value)) vector.eop.freq = MegaHertz{value};
  if (get_double(fields, "refresh", value)) {
    vector.eop.refresh = Seconds{value};
  }
  if (get_double(fields, "pkg_w", value)) {
    vector.sensors.package_power = Watt{value};
  }
  if (get_double(fields, "mem_w", value)) {
    vector.sensors.memory_power = Watt{value};
  }
  if (get_double(fields, "temp_c", value)) {
    vector.sensors.temperature = Celsius{value};
  }
  get_double(fields, "ipc", vector.ipc);
  get_double(fields, "util", vector.utilization);
  get_u64(fields, "ce", vector.correctable_errors);
  get_u64(fields, "ue", vector.uncorrectable_errors);
  const auto src = fields.find("src");
  if (src != fields.end()) vector.source = source_from(src->second);
  return vector;
}

std::optional<ErrorEvent> parse_error_event(const std::string& line) {
  if (line.rfind("EE ", 0) != 0) return std::nullopt;
  const auto fields = parse_fields(line, 3);
  ErrorEvent event;
  double value = 0.0;
  if (!get_double(fields, "t", value)) return std::nullopt;
  event.timestamp = Seconds{value};
  const auto comp = fields.find("comp");
  const auto sev = fields.find("sev");
  if (comp == fields.end() || sev == fields.end()) return std::nullopt;
  const auto component = component_from(comp->second);
  const auto severity = severity_from(sev->second);
  if (!component || !severity) return std::nullopt;
  event.component = *component;
  event.severity = *severity;
  double unit = 0.0;
  if (get_double(fields, "unit", unit)) {
    event.unit = static_cast<int>(unit);
  }
  return event;
}

void dump_logfile(const HealthLog& log, std::ostream& out) {
  for (const auto& vector : log.vectors()) {
    out << serialize(vector) << '\n';
  }
  for (const auto& event : log.errors()) {
    out << serialize(event) << '\n';
  }
}

std::size_t load_logfile(std::istream& in, HealthLog& log) {
  std::size_t parsed = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (auto vector = parse_info_vector(line)) {
      log.record(*vector);
      ++parsed;
    } else if (auto event = parse_error_event(line)) {
      log.record_error(*event);
      ++parsed;
    }
  }
  return parsed;
}

}  // namespace uniserver::daemons
