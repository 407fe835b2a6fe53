// Scenario execution, shrinking, and campaign orchestration.
//
// `run_scenario` builds a fresh full stack (commissioned fleet + cloud
// + DES), schedules the materialized scenario events, and advances the
// DES one event at a time, running the full oracle battery after every
// step. Execution consumes no randomness (see scenario.h), so a run is
// a pure function of (config, events): the same pair always produces
// the same violations and the same outcome digest — for any `--jobs`.
//
// On a violation, `shrink_scenario` greedily ddmin-reduces the event
// list to a minimal subset that still violates an invariant, under a
// bounded re-execution budget; the result serializes to a replay file
// that `uniserver_ctl fuzz --replay` re-runs exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "fuzz/oracles.h"
#include "fuzz/scenario.h"

namespace uniserver::fuzz {

/// Stack knobs a scenario is executed under. The scenario itself is
/// engine- and policy-agnostic; the differential runner executes the
/// same (config, events) pair under different options and compares.
struct RunOptions {
  osk::SchedulerPolicy policy{osk::SchedulerPolicy::kReliabilityAware};
  osk::SchedulerEngine engine{osk::SchedulerEngine::kIndexed};
  /// Capture the full placement-decision log in the outcome.
  bool record_placements{false};
};

/// Deterministic result of executing one scenario.
struct RunOutcome {
  /// First checkpoint's violations (empty = clean run; execution stops
  /// at the first failing checkpoint so `at` pinpoints the step).
  std::vector<Violation> violations;
  /// DES steps executed before stopping.
  std::size_t steps{0};
  /// End-of-run cloud books (part of the digest).
  osk::CloudStats cloud_stats{};
  /// The orchestrator's books that CloudStats does not carry.
  std::uint64_t migrations_submitted{0};
  std::uint64_t postcopy_fallbacks{0};
  /// Rolling digest over every placement decision the cloud made
  /// (see Cloud::placement_digest) and, when record_placements was
  /// set, the decision log itself.
  std::uint64_t placement_digest{0};
  std::vector<osk::Cloud::PlacementDecision> placements;
  /// FNV-1a over the deterministic outcome (stats, placements, per-node
  /// hypervisor accounting, violations). Bit-identical across runs and
  /// `--jobs`.
  std::uint64_t digest{0};

  bool violated() const { return !violations.empty(); }
};

/// Executes one scenario against a freshly built stack.
RunOutcome run_scenario(const ScenarioConfig& config,
                        const std::vector<FuzzEvent>& events,
                        const RunOptions& options = {});

// -- differential execution --------------------------------------------

/// One policy's indexed-vs-reference comparison.
struct DifferentialResult {
  osk::SchedulerPolicy policy{osk::SchedulerPolicy::kFirstFit};
  RunOutcome indexed;
  RunOutcome reference;
  /// Empty when the engines agreed; else a description of the first
  /// divergence (placement sequence, stats field, or book).
  std::string mismatch;

  bool identical() const { return mismatch.empty(); }
};

struct DifferentialOutcome {
  std::vector<DifferentialResult> policies;
  bool identical{true};
};

/// Replays one scenario through the indexed and reference engines for
/// every SchedulerPolicy and compares: placement-decision sequences,
/// placement digests, end-of-run CloudStats, the orchestrator's
/// submitted and post-copy-fallback books and outcome digests must all
/// be bit-identical. Every `cloud.*` and `cloud.mig.*` counter outside
/// the engine-dependent `cloud.sched.*` namespace is a sum of those
/// books (Cloud::run publishes them), so the comparison reads no
/// registry and may run next to other cloud runs.
DifferentialOutcome run_differential(const ScenarioConfig& config,
                                     const std::vector<FuzzEvent>& events);

/// Greedy ddmin shrink: returns the smallest event subset found that
/// still violates an invariant, spending at most `max_runs`
/// re-executions. Returns `events` unchanged if they do not violate.
std::vector<FuzzEvent> shrink_scenario(const ScenarioConfig& config,
                                       const std::vector<FuzzEvent>& events,
                                       int max_runs = 200);

struct CampaignConfig {
  std::uint64_t seed{1};
  int cases{8};
  /// Template for every case; each case gets its own `stack_seed` and
  /// event list from a private forked substream.
  ScenarioConfig scenario{};
  /// Shrink budget (re-executions) per violating case.
  int shrink_budget{200};
};

struct CaseResult {
  int index{-1};
  ScenarioConfig config{};
  std::vector<FuzzEvent> events;
  /// Shrunk reproducer (violating cases only; empty otherwise).
  std::vector<FuzzEvent> reproducer;
  RunOutcome outcome{};
};

struct CampaignResult {
  std::vector<CaseResult> cases;
  /// Per-case digests folded in index order — the campaign's identity.
  std::uint64_t digest{0};
  int violated_cases{0};
};

/// Runs `cases` generated scenarios across the worker pool under the
/// PR-2 determinism contract: one private Rng substream per case,
/// forked in index order before any case runs.
CampaignResult run_campaign(const CampaignConfig& config);

}  // namespace uniserver::fuzz
