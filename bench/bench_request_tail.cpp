// Energy-vs-tail-latency Pareto frontier across EOP aggressiveness.
//
// Everything below the serving layer trades guardband reclamation
// against crash rate; this bench measures what the *users* pay. The
// same diurnal VM workload runs on the full stack (commissioned fleet
// + cloud + request serving layer) at several guard-band levels, with
// VM checkpointing on so survivable SDCs turn into checkpoint-restore
// dispatch stalls. Shaving guard digs deeper into the voltage margin:
// fleet energy falls monotonically while SDC hits and restores fatten
// the request latency tail — the energy-vs-p99 Pareto frontier the
// paper's ecosystem argument implies but never plots.
//
// Asserted on every build flavor (exit 1 on violation):
//   pareto_monotone  energy strictly decreases and p99 never improves
//                    materially (1% jitter allowance: two fault-free
//                    levels differ only by placement noise) as the
//                    guard band shrinks, and the most aggressive level
//                    has a much fatter tail than the most conservative
//                    one;
//   books            the serving-layer conservation equations hold at
//                    the end of every level's run;
//   identical        the sweep digest is bit-identical for --jobs 1
//                    and the requested worker count (PR-2 contract).
//
// Emits BENCH_request.json (requests/s throughput plus the per-level
// frontier) for the perfsmoke gate.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "common/parallel.h"
#include "common/table.h"
#include "core/ecosystem.h"
#include "fuzz/oracles.h"
#include "serve/serve.h"
#include "trace/arrivals.h"

using namespace uniserver;

namespace {

constexpr std::uint64_t kStackSeed = 20260809;
constexpr std::uint64_t kTraceSeed = 0x7A11E57ULL;

/// Guard-band sweep, most conservative first. Guard applies on top of
/// the characterized *suite-worst* crash point, and the deployed VMs
/// run lighter workloads that crash ~15 mV below that — so with the
/// ~3 mV SDC rolloff the rate only becomes visible once the guard
/// shrinks well under 1%. The ladder spans "no faults" to "restores
/// visibly fatten the tail".
const std::vector<double> kGuards{8.0, 0.4, 0.1};

struct Options {
  int nodes{12};
  double hours{8.0};
  unsigned jobs{4};
  std::string out{"BENCH_request.json"};
  bool smoke{false};
};

struct LevelResult {
  double guard{0.0};
  double energy_kwh{0.0};
  double p50_ms{0.0};
  double p99_ms{0.0};
  double p999_ms{0.0};
  serve::ServeStats stats{};
  std::size_t outstanding{0};
  bool books{false};
};

// FNV-1a over the deterministic per-level outcome.
std::uint64_t digest_level(std::uint64_t h, const LevelResult& level) {
  h = fnv::mix_double(h, level.energy_kwh);
  h = fnv::mix_double(h, level.p50_ms);
  h = fnv::mix_double(h, level.p99_ms);
  h = fnv::mix_double(h, level.p999_ms);
  const serve::ServeStats& s = level.stats;
  h = fnv::mix_u64(h, s.generated);
  h = fnv::mix_u64(h, s.admitted);
  h = fnv::mix_u64(h, s.completed);
  h = fnv::mix_u64(h, s.dropped_overload);
  h = fnv::mix_u64(h, s.dropped_unroutable);
  h = fnv::mix_u64(h, s.dropped_lost);
  h = fnv::mix_u64(h, s.slo_violations);
  h = fnv::mix_u64(h, s.slo_violations_critical);
  h = fnv::mix_u64(h, s.stalls);
  h = fnv::mix_double(h, s.latency_sum_s);
  h = fnv::mix_double(h, s.max_latency_s);
  return fnv::mix_u64(h, level.outstanding);
}

LevelResult run_level(double guard, const Options& options) {
  const Seconds horizon{options.hours * 3600.0};

  core::EcosystemConfig eco;
  eco.nodes = options.nodes;
  eco.enable_eop = true;
  eco.guard_percent = guard;
  eco.shmoo.runs = 1;
  // Checkpointing turns survivable SDC kills into restores — the 8 s
  // dispatch stall the tail measurement is about.
  eco.hv.vm_checkpointing = true;
  eco.cloud.tick = Seconds{60.0};
  eco.cloud.serve.enabled = true;
  eco.cloud.serve.seed = kStackSeed ^ 0x5E12F00DULL;

  // Identical seeds at every level: the workload, the fleet and the
  // characterized crash offsets are the same everywhere — only the
  // guard band (and everything downstream of it) differs.
  core::Ecosystem ecosystem(eco, kStackSeed);
  trace::ArrivalConfig arrivals;
  arrivals.arrivals_per_hour = options.nodes * 3.0;
  arrivals.mean_lifetime = Seconds{2.0 * 3600.0};
  trace::VmArrivalStream stream(arrivals, kTraceSeed);
  ecosystem.run(stream.generate(horizon), horizon);

  const osk::Cloud& cloud = ecosystem.cloud();
  const serve::ServeLayer& layer = *cloud.serving();
  LevelResult level;
  level.guard = guard;
  level.energy_kwh = cloud.stats().total_energy_kwh;
  level.p50_ms = layer.latency_percentile_ms(50.0);
  level.p99_ms = layer.latency_percentile_ms(99.0);
  level.p999_ms = layer.latency_percentile_ms(99.9);
  level.stats = layer.stats();
  level.outstanding = layer.outstanding();
  level.books = fuzz::serve_books_balance(level.stats, level.outstanding);
  return level;
}

struct SweepRun {
  std::vector<LevelResult> levels;
  std::uint64_t digest{fnv::kShortOffset};
  double wall_s{0.0};
};

SweepRun run_sweep(const Options& options, unsigned jobs) {
  par::set_default_jobs(jobs);
  SweepRun run;
  const auto start = std::chrono::steady_clock::now();
  run.levels = par::parallel_map<LevelResult>(
      kGuards.size(),
      [&options](std::size_t i) { return run_level(kGuards[i], options); });
  run.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  for (const LevelResult& level : run.levels) {
    run.digest = digest_level(run.digest, level);
  }
  par::set_default_jobs(0);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      options.nodes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--hours") == 0 && i + 1 < argc) {
      options.hours = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      const auto jobs = par::parse_jobs(argv[++i]);
      if (!jobs) {
        std::fprintf(stderr, "--jobs takes a worker count 0..%u\n",
                     par::kMaxJobs);
        return 2;
      }
      options.jobs = *jobs;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      options.out = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      options.smoke = true;
    }
  }
  if (options.smoke) {
    options.nodes = 8;
    options.hours = 6.0;
  }
  if (options.jobs == 0 || options.jobs == 1) options.jobs = 4;

  std::printf("request-tail sweep: %zu guard levels, %d nodes, %.1f h\n",
              kGuards.size(), options.nodes, options.hours);

  // Determinism first: the whole sweep, serial vs parallel.
  const SweepRun serial = run_sweep(options, 1);
  const SweepRun parallel = run_sweep(options, options.jobs);
  const bool identical = serial.digest == parallel.digest;

  bool books = true;
  std::uint64_t requests = 0;
  for (const LevelResult& level : parallel.levels) {
    books = books && level.books;
    requests += level.stats.completed;
  }
  // The Pareto clause: every extra percent of reclaimed guard must buy
  // energy (strictly) and may only cost tail latency — and across the
  // whole sweep the tail must actually move, or the bench is not
  // exercising the coupling it exists to measure. Adjacent fault-free
  // levels differ only by placement noise, so the pairwise check
  // tolerates 1% of p99 jitter; the sweep-wide check demands a 1.5x
  // fatter tail at the aggressive end.
  bool monotone = true;
  for (std::size_t i = 1; i < parallel.levels.size(); ++i) {
    monotone = monotone &&
               parallel.levels[i].energy_kwh <
                   parallel.levels[i - 1].energy_kwh &&
               parallel.levels[i].p99_ms >=
                   0.99 * parallel.levels[i - 1].p99_ms;
  }
  monotone = monotone && parallel.levels.back().p99_ms >
                             1.5 * parallel.levels.front().p99_ms;
  const double requests_per_s =
      parallel.wall_s > 0.0
          ? static_cast<double>(requests) / parallel.wall_s
          : 0.0;

  TextTable table("Energy vs tail latency, " +
                  std::to_string(options.nodes) + " nodes, " +
                  TextTable::num(options.hours, 1) + " h");
  table.set_header({"guard [%]", "energy [kWh]", "p50 [ms]", "p99 [ms]",
                    "p99.9 [ms]", "SLO viol", "restores+hits"});
  for (const LevelResult& level : parallel.levels) {
    table.add_row({TextTable::num(level.guard, 1),
                   TextTable::num(level.energy_kwh, 3),
                   TextTable::num(level.p50_ms, 1),
                   TextTable::num(level.p99_ms, 1),
                   TextTable::num(level.p999_ms, 1),
                   std::to_string(level.stats.slo_violations),
                   std::to_string(level.stats.stalls)});
  }
  table.print();
  std::printf("completed %llu requests in %.2f s (%.0f requests/s)\n",
              static_cast<unsigned long long>(requests), parallel.wall_s,
              requests_per_s);
  std::printf("pareto %s, books %s, jobs 1 vs %u digest %s\n",
              monotone ? "monotone" : "NON-MONOTONE",
              books ? "balanced" : "OUT OF BALANCE", options.jobs,
              identical ? "identical" : "DIVERGED");

  std::FILE* json = std::fopen(options.out.c_str(), "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"request_tail\",\n"
                 "  \"nodes\": %d,\n"
                 "  \"hours\": %.1f,\n"
                 "  \"levels\": %zu,\n"
                 "  \"smoke\": %s,\n"
                 "  \"wall_s\": %.3f,\n"
                 "  \"requests\": %llu,\n"
                 "  \"requests_per_s\": %.1f,\n"
                 "  \"pareto_monotone\": %s,\n"
                 "  \"books_balanced\": %s,\n"
                 "  \"identical\": %s",
                 options.nodes, options.hours, kGuards.size(),
                 options.smoke ? "true" : "false", parallel.wall_s,
                 static_cast<unsigned long long>(requests), requests_per_s,
                 monotone ? "true" : "false", books ? "true" : "false",
                 identical ? "true" : "false");
    for (std::size_t i = 0; i < parallel.levels.size(); ++i) {
      const LevelResult& level = parallel.levels[i];
      std::fprintf(json,
                   ",\n"
                   "  \"l%zu_guard\": %.1f,\n"
                   "  \"l%zu_energy_kwh\": %.6f,\n"
                   "  \"l%zu_p99_ms\": %.3f,\n"
                   "  \"l%zu_p999_ms\": %.3f,\n"
                   "  \"l%zu_slo_violations\": %llu",
                   i, level.guard, i, level.energy_kwh, i, level.p99_ms, i,
                   level.p999_ms, i,
                   static_cast<unsigned long long>(
                       level.stats.slo_violations));
    }
    std::fprintf(json, "\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", options.out.c_str());
  }

  if (!books) {
    std::printf("\nFAIL: serving-layer books out of balance\n");
    return 1;
  }
  if (!identical) {
    std::printf("\nFAIL: sweep digest diverged across --jobs\n");
    return 1;
  }
  if (!monotone) {
    std::printf("\nFAIL: energy-vs-p99 frontier is not monotone\n");
    return 1;
  }
  std::printf(
      "\nfrontier: %.3f kWh / p99 %.1f ms (guard %.0f%%) -> %.3f kWh / "
      "p99 %.1f ms (guard %.0f%%)\n",
      parallel.levels.front().energy_kwh, parallel.levels.front().p99_ms,
      parallel.levels.front().guard, parallel.levels.back().energy_kwh,
      parallel.levels.back().p99_ms, parallel.levels.back().guard);
  return 0;
}
