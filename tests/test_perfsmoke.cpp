// Perf-regression smoke gate (ctest label: perfsmoke).
//
// Shells out to the real bench_scheduler_scale binary in --smoke mode
// (512 nodes, 20k placements), which replays the fleet workload
// through both placement engines and writes BENCH_scheduler.json.
// Engine identity (bit-identical decisions) is asserted on every build
// flavor. The throughput/latency thresholds against the checked-in
// baseline (tests/baselines/BENCH_scheduler_baseline.json) are only
// enforced when CMake defines UNISERVER_PERFSMOKE_ENFORCE — optimized
// uninstrumented builds — since sanitizers, coverage and Debug shift
// the constant factor by an order of magnitude.
//
// The gate trips on a >2x regression: ops/s below half the baseline,
// p99 above twice the baseline, or speedup below half the baseline.
// The baseline is deliberately conservative (about a quarter of a
// dev-machine measurement) so machine-to-machine variance does not
// trip it; refresh it from a quiet `--smoke` run when the engine
// legitimately gets faster.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

constexpr const char* kBenchBin = UNISERVER_BENCH_SCHEDULER_BIN;
constexpr const char* kBaselinePath = UNISERVER_PERFSMOKE_BASELINE;
constexpr const char* kOutPath = UNISERVER_PERFSMOKE_OUT;
constexpr const char* kMigrationBenchBin = UNISERVER_BENCH_MIGRATION_BIN;
constexpr const char* kMigrationBaselinePath = UNISERVER_MIGRATION_BASELINE;
constexpr const char* kMigrationOutPath = UNISERVER_MIGRATION_OUT;
constexpr const char* kRequestBenchBin = UNISERVER_BENCH_REQUEST_BIN;
constexpr const char* kRequestBaselinePath = UNISERVER_REQUEST_BASELINE;
constexpr const char* kRequestOutPath = UNISERVER_REQUEST_OUT;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Minimal flat-object JSON field access; the bench emits one
/// `"key": value` pair per line, no nesting.
bool json_number(const std::string& text, const std::string& key,
                 double& out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  const char* start = text.c_str() + pos + needle.size();
  char* end = nullptr;
  out = std::strtod(start, &end);
  return end != start;
}

bool json_is_true(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  while (pos < text.size() && text[pos] == ' ') ++pos;
  return text.compare(pos, 4, "true") == 0;
}

struct SmokeRun {
  int exit_code{-1};
  std::string output;
  std::string json;
};

SmokeRun exec_smoke(const char* bin, const char* out_path) {
  SmokeRun run;
  const std::string cmd =
      std::string(bin) + " --smoke --out " + out_path + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  while (fgets(buffer, sizeof buffer, pipe) != nullptr) {
    run.output += buffer;
  }
  const int status = pclose(pipe);
  run.exit_code =
      (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  run.json = slurp(out_path);
  return run;
}

/// Runs each bench exactly once per test binary; every test reads the
/// same result so the suite pays each smoke workload a single time.
const SmokeRun& smoke_run() {
  static const SmokeRun result = exec_smoke(kBenchBin, kOutPath);
  return result;
}

const SmokeRun& migration_smoke_run() {
  static const SmokeRun result =
      exec_smoke(kMigrationBenchBin, kMigrationOutPath);
  return result;
}

const SmokeRun& request_smoke_run() {
  static const SmokeRun result =
      exec_smoke(kRequestBenchBin, kRequestOutPath);
  return result;
}

TEST(PerfSmoke, EnginesBitIdenticalInSmokeRun) {
  const SmokeRun& run = smoke_run();
  ASSERT_EQ(run.exit_code, 0) << run.output;
  ASSERT_FALSE(run.json.empty()) << "bench wrote no JSON at " << kOutPath;
  EXPECT_TRUE(json_is_true(run.json, "identical")) << run.json;
  EXPECT_TRUE(json_is_true(run.json, "smoke")) << run.json;
}

TEST(PerfSmoke, NoRegressionAgainstBaseline) {
#ifndef UNISERVER_PERFSMOKE_ENFORCE
  GTEST_SKIP() << "thresholds only enforced on optimized uninstrumented "
                  "builds (sanitizers/coverage/Debug skew the constant "
                  "factor)";
#else
  const SmokeRun& run = smoke_run();
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const std::string baseline = slurp(kBaselinePath);
  ASSERT_FALSE(baseline.empty()) << "missing baseline " << kBaselinePath;

  double base_ops = 0.0, base_p99 = 0.0, base_speedup = 0.0;
  ASSERT_TRUE(json_number(baseline, "indexed_ops_per_s", base_ops));
  ASSERT_TRUE(json_number(baseline, "indexed_p99_us", base_p99));
  ASSERT_TRUE(json_number(baseline, "speedup", base_speedup));

  double ops = 0.0, p99 = 0.0, speedup = 0.0;
  ASSERT_TRUE(json_number(run.json, "indexed_ops_per_s", ops)) << run.json;
  ASSERT_TRUE(json_number(run.json, "indexed_p99_us", p99)) << run.json;
  ASSERT_TRUE(json_number(run.json, "speedup", speedup)) << run.json;

  EXPECT_GE(ops, base_ops / 2.0)
      << "indexed placement throughput regressed >2x: " << ops
      << " ops/s vs baseline " << base_ops;
  EXPECT_LE(p99, base_p99 * 2.0)
      << "indexed p99 placement latency regressed >2x: " << p99
      << " us vs baseline " << base_p99;
  EXPECT_GE(speedup, base_speedup / 2.0)
      << "indexed-vs-reference speedup collapsed >2x: " << speedup
      << "x vs baseline " << base_speedup;
#endif
}

TEST(PerfSmoke, MigrationStormGreenAndJobsInvariant) {
  const SmokeRun& run = migration_smoke_run();
  ASSERT_EQ(run.exit_code, 0) << run.output;
  ASSERT_FALSE(run.json.empty())
      << "bench wrote no JSON at " << kMigrationOutPath;
  // Correctness clauses hold on every build flavor: no oracle fired in
  // any storm case, and the campaign digest is --jobs invariant.
  EXPECT_TRUE(json_is_true(run.json, "oracles_green")) << run.json;
  EXPECT_TRUE(json_is_true(run.json, "identical")) << run.json;
  EXPECT_TRUE(json_is_true(run.json, "smoke")) << run.json;
  double migrations = 0.0;
  ASSERT_TRUE(json_number(run.json, "migrations", migrations)) << run.json;
  EXPECT_GT(migrations, 0.0)
      << "storm campaign completed no migrations — the event mix is not "
         "exercising the orchestrator: "
      << run.json;
}

TEST(PerfSmoke, MigrationStormFailsOnUnwritableOut) {
  // A --out under a directory that does not exist must fail loudly,
  // naming the path, rather than exit 0 with no JSON written.
  const std::string out =
      std::string(kMigrationOutPath) + ".no-such-dir/x.json";
  const SmokeRun run = exec_smoke(kMigrationBenchBin, out.c_str());
  EXPECT_NE(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find(out), std::string::npos) << run.output;
  EXPECT_TRUE(run.json.empty());
}

TEST(PerfSmoke, MigrationStormNoRegressionAgainstBaseline) {
#ifndef UNISERVER_PERFSMOKE_ENFORCE
  GTEST_SKIP() << "thresholds only enforced on optimized uninstrumented "
                  "builds (sanitizers/coverage/Debug skew the constant "
                  "factor)";
#else
  const SmokeRun& run = migration_smoke_run();
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const std::string baseline = slurp(kMigrationBaselinePath);
  ASSERT_FALSE(baseline.empty())
      << "missing baseline " << kMigrationBaselinePath;

  double base_rate = 0.0;
  ASSERT_TRUE(json_number(baseline, "migrations_per_s", base_rate));
  double rate = 0.0;
  ASSERT_TRUE(json_number(run.json, "migrations_per_s", rate)) << run.json;
  EXPECT_GE(rate, base_rate / 2.0)
      << "storm campaign throughput regressed >2x: " << rate
      << " migrations/s vs baseline " << base_rate;
#endif
}

TEST(PerfSmoke, RequestTailParetoMonotoneAndJobsInvariant) {
  const SmokeRun& run = request_smoke_run();
  ASSERT_EQ(run.exit_code, 0) << run.output;
  ASSERT_FALSE(run.json.empty())
      << "bench wrote no JSON at " << kRequestOutPath;
  // Correctness clauses hold on every build flavor: the energy-vs-p99
  // frontier is monotone across the guard sweep, the serving-layer
  // books balance, and the sweep digest is --jobs invariant.
  EXPECT_TRUE(json_is_true(run.json, "pareto_monotone")) << run.json;
  EXPECT_TRUE(json_is_true(run.json, "books_balanced")) << run.json;
  EXPECT_TRUE(json_is_true(run.json, "identical")) << run.json;
  EXPECT_TRUE(json_is_true(run.json, "smoke")) << run.json;
  double requests = 0.0;
  ASSERT_TRUE(json_number(run.json, "requests", requests)) << run.json;
  EXPECT_GT(requests, 0.0)
      << "sweep completed no requests — the serving layer is not being "
         "exercised: "
      << run.json;
}

TEST(PerfSmoke, RequestTailNoRegressionAgainstBaseline) {
#ifndef UNISERVER_PERFSMOKE_ENFORCE
  GTEST_SKIP() << "thresholds only enforced on optimized uninstrumented "
                  "builds (sanitizers/coverage/Debug skew the constant "
                  "factor)";
#else
  const SmokeRun& run = request_smoke_run();
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const std::string baseline = slurp(kRequestBaselinePath);
  ASSERT_FALSE(baseline.empty())
      << "missing baseline " << kRequestBaselinePath;

  double base_rate = 0.0;
  ASSERT_TRUE(json_number(baseline, "requests_per_s", base_rate));
  double rate = 0.0;
  ASSERT_TRUE(json_number(run.json, "requests_per_s", rate)) << run.json;
  EXPECT_GE(rate, base_rate / 2.0)
      << "request sweep throughput regressed >2x: " << rate
      << " requests/s vs baseline " << base_rate;
#endif
}

}  // namespace
