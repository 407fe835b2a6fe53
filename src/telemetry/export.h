// Exporters: one telemetry snapshot, machine-readable.
//
// JSON for dashboards/jq (`uniserver_ctl --telemetry-out snap.json`),
// and a CSV series writer (via common/csv) for the plot pipelines the
// bench harnesses feed. The JSON shape is documented in
// docs/OBSERVABILITY.md.
#pragma once

#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace uniserver::telemetry {

/// Full snapshot as a JSON document: a "metrics" array (sorted by
/// name) and, when `tracer` is non-null, a "trace" object with the
/// ring's events oldest-first.
std::string to_json(const MetricsRegistry& registry,
                    const TraceBuffer* tracer = nullptr);

/// Writes to_json() to `path`; returns false on I/O failure.
bool write_json_snapshot(const std::string& path,
                         const MetricsRegistry& registry,
                         const TraceBuffer* tracer = nullptr);

/// Shared series writer for the bench harnesses (the CsvWriter +
/// save + confirmation-line pattern previously copy-pasted per bench):
/// writes `rows` under `header` to `path` and prints one status line.
bool save_series_csv(const std::string& path,
                     const std::vector<std::string>& header,
                     const std::vector<std::vector<double>>& rows,
                     int precision = 6);

}  // namespace uniserver::telemetry
