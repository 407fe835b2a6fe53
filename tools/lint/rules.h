// The uniserver-lint rules (docs/STATIC_ANALYSIS.md has the rationale):
//
//   determinism — bans ambient randomness / wall-clock / environment
//     reads outside an explicit allowlist, because the parallel
//     campaign engine's bit-identical-for-any---jobs guarantee depends
//     on every stochastic and temporal input flowing through
//     uniserver::Rng substreams and telemetry::ScopedTimer.
//   telemetry — cross-checks every metric/trace name literal passed to
//     counter()/gauge()/histogram()/trace() against the catalog in
//     docs/OBSERVABILITY.md, both directions (undocumented + orphaned).
//   units — flags function signatures taking >= 2 adjacent raw
//     `double` parameters whose names look like physical quantities;
//     those should use the strong types in src/common/units.h.
#pragma once

#include <string>
#include <vector>

#include "catalog.h"
#include "lexer.h"

namespace uniserver::lint {

struct Finding {
  std::string file;
  int line{0};
  std::string rule;
  std::string message;
};

/// One scanned file: `path` is what findings report, `rel` is the
/// forward-slash path relative to the repo root used for allowlist
/// matching, `in_src` gates the src-only rules (telemetry, units,
/// guarded).
struct FileInput {
  std::string path;
  std::string rel;
  bool in_src{false};
  std::vector<Token> tokens;
};

/// Determinism allowlist entry. Matching is by relative-path prefix.
struct AllowEntry {
  const char* prefix;
  const char* rationale;
};

/// The seeded allowlist. To extend it: add an entry HERE with a
/// one-line rationale, and mirror it in the table in
/// docs/STATIC_ANALYSIS.md — the lint test pins the two in sync.
const std::vector<AllowEntry>& determinism_allowlist();

void check_determinism(const FileInput& file, bool use_allowlist,
                       std::vector<Finding>& findings);

void check_units(const FileInput& file, std::vector<Finding>& findings);

/// Metric/trace registration sites collected from one file.
struct TelemetryUsage {
  struct Site {
    std::string file;
    int line{0};
    std::string name;       ///< metric name, or "component/name" for traces
    bool is_prefix{false};  ///< dynamic family: `std::string("p.") + suffix`
  };
  std::vector<Site> metrics;
  std::vector<Site> traces;
};

/// Collects registration sites; emits findings for names the scanner
/// cannot check (non-literal arguments).
void collect_telemetry(const FileInput& file, TelemetryUsage& usage,
                       std::vector<Finding>& findings);

/// Cross-checks collected usage against the catalog in both
/// directions. `catalog_path` is only used to label orphan findings.
/// `check_orphans` is off when only a subset of the tree was scanned
/// (--changed-only): an unscanned file may still produce the name.
void check_telemetry(const TelemetryUsage& usage, const Catalog& catalog,
                     const std::string& catalog_path, bool check_orphans,
                     std::vector<Finding>& findings);

}  // namespace uniserver::lint
