// uniserver-lint / uniserver-race rule tests (ctest label: lint).
//
// Each rule is proven BOTH ways against the fixtures in
// tests/lint_fixtures/: it fires on a seeded violation and stays quiet
// on the known-clean counterpart. The suite also runs the real tools
// over the real tree (the full-tree clean gates), checks the
// determinism allowlist actually gates something, pins the allowlist
// entries to their documentation in docs/STATIC_ANALYSIS.md, and
// proves the race analyzer catches a shared write seeded into a real
// parallel campaign body.
//
// Paths and the compiler come from CMake via compile definitions:
//   UNISERVER_LINT_BIN    — $<TARGET_FILE:uniserver_lint>
//   UNISERVER_RACE_BIN    — $<TARGET_FILE:uniserver_race>
//   UNISERVER_SOURCE_ROOT — ${CMAKE_SOURCE_DIR}
//   UNISERVER_SCRATCH_DIR — ${CMAKE_BINARY_DIR}/lint-scratch
//   UNISERVER_CXX         — ${CMAKE_CXX_COMPILER}
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

constexpr const char* kLintBin = UNISERVER_LINT_BIN;
constexpr const char* kRaceBin = UNISERVER_RACE_BIN;
constexpr const char* kRoot = UNISERVER_SOURCE_ROOT;
constexpr const char* kScratch = UNISERVER_SCRATCH_DIR;
constexpr const char* kCxx = UNISERVER_CXX;

std::string fixture(const std::string& name) {
  return std::string(kRoot) + "/tests/lint_fixtures/" + name;
}

struct RunResult {
  int exit_code{-1};
  std::string output;
};

RunResult run(const std::string& cmd) {
  RunResult result;
  const std::string full = cmd + " 2>&1";
  FILE* pipe = popen(full.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  while (fgets(buffer, sizeof buffer, pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  result.exit_code = (status >= 0 && WIFEXITED(status))
                         ? WEXITSTATUS(status)
                         : -1;
  return result;
}

int count_occurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

std::string lint(const std::string& args) {
  return std::string(kLintBin) + " " + args;
}

std::string race(const std::string& args) {
  return std::string(kRaceBin) + " " + args;
}

TEST(LintDeterminism, FiresOncePerSeededViolation) {
  const RunResult r =
      run(lint("--rules determinism " + fixture("determinism_violation.cpp")));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_occurrences(r.output, "[determinism]"), 5) << r.output;
  EXPECT_NE(r.output.find("random_device"), std::string::npos);
  EXPECT_NE(r.output.find("steady_clock"), std::string::npos);
  EXPECT_NE(r.output.find("system_clock"), std::string::npos);
  EXPECT_NE(r.output.find("'time()'"), std::string::npos);
  EXPECT_NE(r.output.find("getenv"), std::string::npos);
}

TEST(LintDeterminism, QuietOnCleanFixture) {
  const RunResult r =
      run(lint("--rules determinism " + fixture("determinism_clean.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(LintDeterminism, AllowlistGatesTheFullTree) {
  // With the allowlist disabled the sanctioned wall-clock sites
  // (telemetry/timer.h, bench harnesses) must fire...
  const RunResult without = run(
      lint("--rules determinism --no-default-allowlist --root " +
           std::string(kRoot)));
  EXPECT_EQ(without.exit_code, 1) << without.output;
  EXPECT_NE(without.output.find("src/telemetry/timer.h"), std::string::npos)
      << without.output;
  EXPECT_NE(without.output.find("bench/"), std::string::npos)
      << without.output;
  // ...and with it the same scan is clean.
  const RunResult with_list =
      run(lint("--rules determinism --root " + std::string(kRoot)));
  EXPECT_EQ(with_list.exit_code, 0) << with_list.output;
}

TEST(LintDeterminism, AllowlistEntriesAreDocumented) {
  const RunResult entries = run(lint("--print-allowlist"));
  ASSERT_EQ(entries.exit_code, 0) << entries.output;
  ASSERT_FALSE(entries.output.empty());

  const RunResult doc =
      run("cat " + std::string(kRoot) + "/docs/STATIC_ANALYSIS.md");
  ASSERT_EQ(doc.exit_code, 0) << "docs/STATIC_ANALYSIS.md missing";

  std::size_t start = 0;
  while (start < entries.output.size()) {
    std::size_t end = entries.output.find('\n', start);
    if (end == std::string::npos) end = entries.output.size();
    const std::string line = entries.output.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    const std::string prefix = line.substr(0, line.find('\t'));
    EXPECT_NE(doc.output.find(prefix), std::string::npos)
        << "allowlist entry '" << prefix
        << "' is not documented in docs/STATIC_ANALYSIS.md";
  }
}

TEST(LintUnits, FiresOncePerSeededViolation) {
  const RunResult r =
      run(lint("--rules units " + fixture("units_violation.cpp")));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_occurrences(r.output, "[units]"), 3) << r.output;
  EXPECT_NE(r.output.find("vdd_v, freq_mhz"), std::string::npos);
  EXPECT_NE(r.output.find("nominal_v, load_step_mw"), std::string::npos);
  EXPECT_NE(r.output.find("interval_ms, throttle_temp_c"), std::string::npos);
}

TEST(LintUnits, QuietOnCleanFixture) {
  const RunResult r = run(lint("--rules units " + fixture("units_clean.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(LintTelemetry, DetectsCatalogDrift) {
  const RunResult r = run(lint("--rules telemetry --catalog " +
                               fixture("catalog.md") + " " +
                               fixture("telemetry_drift.cpp")));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("demo.undocumented_total"), std::string::npos);
  EXPECT_NE(r.output.find("demo.rogue_family."), std::string::npos);
  EXPECT_NE(r.output.find("'demo' / 'unlisted_event'"), std::string::npos);
  EXPECT_NE(r.output.find("not a string literal"), std::string::npos);
}

TEST(LintTelemetry, CleanAgainstMatchingCatalog) {
  const RunResult r = run(lint("--rules telemetry --catalog " +
                               fixture("catalog.md") + " " +
                               fixture("telemetry_clean.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(LintTelemetry, ReportsOrphanedCatalogRows) {
  const RunResult r = run(lint("--rules telemetry --catalog " +
                               fixture("catalog_orphan.md") + " " +
                               fixture("telemetry_clean.cpp")));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_occurrences(r.output, "is orphaned"), 3) << r.output;
  EXPECT_NE(r.output.find("demo.orphaned_total"), std::string::npos);
  EXPECT_NE(r.output.find("demo.dead_family."), std::string::npos);
  EXPECT_NE(r.output.find("demo/never_emitted"), std::string::npos);
}

TEST(LintFullTree, RealTreeIsClean) {
  const RunResult r = run(lint("--root " + std::string(kRoot)));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean"), std::string::npos) << r.output;
}

// -- stage 2: uniserver-race ------------------------------------------

TEST(RaceParallel, FiresOncePerSeededSharedWrite) {
  const RunResult r = run(
      race("--rules parallel " + fixture("race/parallel_shared_write.cpp")));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_occurrences(r.output, "[parallel]"), 3) << r.output;
  EXPECT_NE(r.output.find("'total' (assignment)"), std::string::npos);
  EXPECT_NE(r.output.find("'sum' (assignment)"), std::string::npos);
  EXPECT_NE(r.output.find("'rows' (mutating call)"), std::string::npos);
}

TEST(RaceParallel, QuietOnEverySanctionedClassification) {
  // Per-item indexed writes, atomics, telemetry handles, lock-guarded
  // blocks, body-locals and the serial parallel_reduce fold — all in
  // one fixture, none reportable.
  const RunResult r =
      run(race("--rules parallel,rng " + fixture("race/parallel_clean.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(RaceRng, FiresOnSharedStreamsInParallelBodies) {
  const RunResult r =
      run(race("--rules rng " + fixture("race/rng_violation.cpp")));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_occurrences(r.output, "[rng]"), 4) << r.output;
  EXPECT_NE(r.output.find("shared Rng 'rng'"), std::string::npos);
  EXPECT_NE(r.output.find("substream vector 'streams'"), std::string::npos);
  EXPECT_NE(r.output.find("shared Rng 'master'"), std::string::npos);
  EXPECT_NE(r.output.find("shared Rng 'local'"), std::string::npos);
}

TEST(RaceRng, QuietOnForkedSubstreamDiscipline) {
  const RunResult r =
      run(race("--rules rng,parallel " + fixture("race/rng_clean.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(RaceMessage, FiresOncePerSeededViolation) {
  const RunResult r =
      run(race("--rules message " + fixture("race/message_violation.cpp")));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_occurrences(r.output, "[message]"), 7) << r.output;
  EXPECT_NE(r.output.find("simulated time 'now_'"), std::string::npos);
  EXPECT_NE(r.output.find("'next_seq_' rewound"), std::string::npos);
  EXPECT_EQ(count_occurrences(r.output, "generation counter reset"), 2)
      << r.output;
  EXPECT_NE(r.output.find("heap push outside schedule()"), std::string::npos);
  EXPECT_NE(r.output.find("negative delay"), std::string::npos);
  EXPECT_EQ(count_occurrences(r.output, "timer_seq written outside schedule()"),
            1)
      << r.output;
}

TEST(RaceMessage, QuietOnDisciplinedControlPlane) {
  const RunResult r =
      run(race("--rules message " + fixture("race/message_clean.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(RaceGuarded, FiresOncePerSeededViolation) {
  const RunResult r =
      run(race("--rules guarded " + fixture("race/guarded_violation.cpp")));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_occurrences(r.output, "[guarded]"), 4) << r.output;
  EXPECT_NE(r.output.find("member 'items_'"), std::string::npos);
  EXPECT_NE(r.output.find("US_GUARDED_BY(lock_)"), std::string::npos);
  EXPECT_NE(r.output.find("US_NOT_GUARDED on 'scratch_'"), std::string::npos);
  EXPECT_NE(r.output.find("US_REQUIRES(giant_lock_)"), std::string::npos);
}

TEST(RaceGuarded, QuietOnAnnotatedClass) {
  const RunResult r =
      run(race("--rules guarded " + fixture("race/guarded_clean.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(RaceFullTree, RealTreeIsClean) {
  // The stage-2 clean gate: parallel, rng, message and guarded rules
  // over the whole tree. Every true positive found while building the
  // analyzer is fixed; there is no allowlist to hide behind.
  const RunResult r = run(race("--root " + std::string(kRoot)));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean"), std::string::npos) << r.output;
}

TEST(RaceMutation, SeededSharedWriteInRealCampaignIsCaught) {
  // Take the real fault-injection campaign — whose body only writes
  // its own per-object slot — and mutate that write into a shared
  // accumulation. The analyzer must catch the mutant statically.
  const std::string src =
      std::string(kRoot) + "/src/hypervisor/fault_injection.cpp";
  std::ifstream in(src);
  ASSERT_TRUE(in.good()) << src;
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();

  const std::string needle = "result.fatal_runs_per_object[index] = fatal_runs;";
  const std::string mutant = "result.total_fatal += fatal_runs;";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos)
      << "fault_injection.cpp changed; update the mutation anchor";
  text.replace(at, needle.size(), mutant);

  std::filesystem::create_directories(kScratch);
  const std::string mutated =
      std::string(kScratch) + "/fault_injection_mutated.cpp";
  std::ofstream(mutated) << text;

  const RunResult clean = run(race("--rules parallel " + src));
  EXPECT_EQ(clean.exit_code, 0) << clean.output;
  const RunResult caught = run(race("--rules parallel " + mutated));
  EXPECT_EQ(caught.exit_code, 1) << caught.output;
  EXPECT_EQ(count_occurrences(caught.output, "[parallel]"), 1)
      << caught.output;
  EXPECT_NE(caught.output.find("writes shared 'result'"), std::string::npos)
      << caught.output;
}

TEST(RaceChangedOnly, SubsetScanOfTheRealTree) {
  // --changed-only narrows the scan to git-modified files. The test
  // builds its own small work tree, so it holds whether this source
  // tree is a git checkout or an exported copy: one clean file is
  // committed unchanged, one clean file is modified after the commit,
  // and both tools must scan exactly the modified one.
  namespace fs = std::filesystem;
  const fs::path repo = fs::path(kScratch) / "changed-only-repo";
  fs::remove_all(repo);
  fs::create_directories(repo / "src");
  fs::create_directories(repo / "docs");
  std::ofstream(repo / "docs" / "OBSERVABILITY.md") << "# Metrics\n";
  std::ofstream(repo / "src" / "kept.cpp") << "int kept() { return 1; }\n";
  std::ofstream(repo / "src" / "edited.cpp") << "int edited() { return 2; }\n";
  const std::string git = "git -C '" + repo.string() + "' ";
  const RunResult init = run(
      git + "init -q && " + git + "add -A && " + git +
      "-c user.name=lint -c user.email=lint@example.invalid"
      " commit -q -m fixture");
  ASSERT_EQ(init.exit_code, 0) << init.output;
  std::ofstream(repo / "src" / "edited.cpp", std::ios::app)
      << "int edited_too() { return 3; }\n";

  const std::string expected = "changed-only, 1 file of 1 changed";
  const RunResult r = run(race("--changed-only --root " + repo.string()));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find(expected), std::string::npos) << r.output;
  const RunResult l = run(lint("--changed-only --root " + repo.string()));
  EXPECT_EQ(l.exit_code, 0) << l.output;
  EXPECT_NE(l.output.find(expected), std::string::npos) << l.output;
}

TEST(RaceFormat, GithubAnnotationsCarryFileLineAndRule) {
  const RunResult r = run(race("--format=github --rules guarded " +
                               fixture("race/guarded_violation.cpp")));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_occurrences(r.output, "::error file="), 4) << r.output;
  EXPECT_NE(r.output.find(",line="), std::string::npos);
  EXPECT_NE(r.output.find("title=uniserver-race [guarded]::"),
            std::string::npos)
      << r.output;
}

TEST(LintHeaders, IsolatedCompileFailsOnNonSelfContainedHeader) {
  const std::string flags = " -std=c++20 -fsyntax-only -x c++ ";
  const RunResult bad =
      run(std::string(kCxx) + flags + fixture("bad_header.h"));
  EXPECT_NE(bad.exit_code, 0)
      << "bad_header.h compiled in isolation; it must not";
  const RunResult good =
      run(std::string(kCxx) + flags + fixture("good_header.h"));
  EXPECT_EQ(good.exit_code, 0) << good.output;
}

}  // namespace
