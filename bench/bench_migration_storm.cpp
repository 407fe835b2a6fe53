// Evacuation-storm throughput for the async migration control plane.
//
// Runs a storm-heavy fuzz campaign (64-node fleet, 8 racks, rack
// power-loss and mass-EOP-retreat events mixed into the arrival
// stream) through the full stack: every storm drains nodes through the
// migration orchestrator's per-link bandwidth queues, with the oracle
// battery checking conservation and energy closure after every DES
// step.
//
// Two properties are asserted on every build flavor:
//   oracles_green  no case tripped any invariant oracle;
//   identical      the campaign digest is bit-identical for --jobs 1
//                  and the requested worker count (the PR-2 contract).
//
// Emits BENCH_migration.json (migrations/s, completion/cancel/post-copy
// counts, copy traffic, mean downtime) for the perfsmoke gate.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/parallel.h"
#include "common/table.h"
#include "fuzz/harness.h"

using namespace uniserver;

namespace {

constexpr std::uint64_t kCampaignSeed = 20260809;

struct Options {
  int nodes{64};
  int cases{16};
  int events{96};
  unsigned jobs{4};
  std::string out{"BENCH_migration.json"};
  bool smoke{false};
};

struct StormRun {
  fuzz::CampaignResult campaign;
  double wall_s{0.0};
};

fuzz::CampaignConfig campaign_config(const Options& options) {
  fuzz::CampaignConfig config;
  config.seed = kCampaignSeed;
  config.cases = options.cases;
  config.scenario.nodes = options.nodes;
  config.scenario.events = options.events;
  config.scenario.horizon = Seconds{7200.0};
  // Two thirds arrivals fill the racks; a quarter of the event mass is
  // evacuation storms so the link queues actually contend.
  config.scenario.arrival_share = 0.65;
  config.scenario.storm_share = 0.25;
  return config;
}

StormRun run_storm(const Options& options, unsigned jobs) {
  par::set_default_jobs(jobs);
  StormRun run;
  const auto start = std::chrono::steady_clock::now();
  run.campaign = fuzz::run_campaign(campaign_config(options));
  run.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  par::set_default_jobs(0);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      options.nodes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--cases") == 0 && i + 1 < argc) {
      options.cases = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      options.events = std::atoi(argv[++i]);
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
    options.nodes = 64;
    options.cases = 6;
    options.events = 96;
  }
  if (options.jobs == 0 || options.jobs == 1) options.jobs = 4;

  std::printf("storm campaign: %d cases, %d nodes, %d events each\n",
              options.cases, options.nodes, options.events);

  // Determinism first: the whole campaign, serial vs parallel.
  const StormRun serial = run_storm(options, 1);
  const StormRun parallel = run_storm(options, options.jobs);
  const bool identical =
      serial.campaign.digest == parallel.campaign.digest;
  const bool oracles_green = parallel.campaign.violated_cases == 0 &&
                             serial.campaign.violated_cases == 0;

  std::uint64_t migrations = 0, started = 0, cancelled = 0, postcopy = 0;
  double transferred_mb = 0.0, downtime_s = 0.0;
  for (const fuzz::CaseResult& result : parallel.campaign.cases) {
    const osk::CloudStats& s = result.outcome.cloud_stats;
    migrations += s.migrations;
    started += s.migrations_started;
    cancelled += s.migrations_cancelled;
    postcopy += s.postcopy_migrations;
    transferred_mb += s.migration_transferred_mb;
    downtime_s += s.migration_downtime_s;
  }
  const double migrations_per_s =
      parallel.wall_s > 0.0
          ? static_cast<double>(migrations) / parallel.wall_s
          : 0.0;
  const double mean_downtime_ms =
      migrations > 0
          ? downtime_s * 1000.0 / static_cast<double>(migrations)
          : 0.0;

  TextTable table("Evacuation storm, " + std::to_string(options.nodes) +
                  " nodes / " + std::to_string(options.cases) + " cases");
  table.set_header({"metric", "value"});
  table.add_row({"migrations completed", std::to_string(migrations)});
  table.add_row({"migrations started", std::to_string(started)});
  table.add_row({"cancelled in flight", std::to_string(cancelled)});
  table.add_row({"post-copy fallbacks", std::to_string(postcopy)});
  table.add_row({"copy traffic [MB]", TextTable::num(transferred_mb, 0)});
  table.add_row({"mean downtime [ms]", TextTable::num(mean_downtime_ms, 2)});
  table.add_row({"campaign wall [s]", TextTable::num(parallel.wall_s, 2)});
  table.add_row({"migrations/s", TextTable::num(migrations_per_s, 1)});
  table.add_row({"oracles", oracles_green ? "green" : "VIOLATED"});
  table.add_row({"jobs 1 vs " + std::to_string(options.jobs) + " digest",
                 identical ? "identical" : "DIVERGED"});
  table.print();

  std::FILE* json = std::fopen(options.out.c_str(), "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"migration_storm\",\n"
                 "  \"nodes\": %d,\n"
                 "  \"cases\": %d,\n"
                 "  \"events\": %d,\n"
                 "  \"smoke\": %s,\n"
                 "  \"wall_s\": %.3f,\n"
                 "  \"migrations\": %llu,\n"
                 "  \"migrations_per_s\": %.1f,\n"
                 "  \"migrations_started\": %llu,\n"
                 "  \"migrations_cancelled\": %llu,\n"
                 "  \"postcopy_fallbacks\": %llu,\n"
                 "  \"transferred_mb\": %.1f,\n"
                 "  \"mean_downtime_ms\": %.3f,\n"
                 "  \"oracles_green\": %s,\n"
                 "  \"identical\": %s\n"
                 "}\n",
                 options.nodes, options.cases, options.events,
                 options.smoke ? "true" : "false", parallel.wall_s,
                 static_cast<unsigned long long>(migrations),
                 migrations_per_s,
                 static_cast<unsigned long long>(started),
                 static_cast<unsigned long long>(cancelled),
                 static_cast<unsigned long long>(postcopy),
                 transferred_mb, mean_downtime_ms,
                 oracles_green ? "true" : "false",
                 identical ? "true" : "false");
    std::fclose(json);
    std::printf("wrote %s\n", options.out.c_str());
  }

  if (!oracles_green) {
    std::printf("\nFAIL: invariant oracle violated during the storm\n");
    return 1;
  }
  if (!identical) {
    std::printf("\nFAIL: campaign digest diverged across --jobs\n");
    return 1;
  }
  std::printf("\n%llu migrations completed, oracles green, digest "
              "jobs-invariant\n",
              static_cast<unsigned long long>(migrations));
  return 0;
}
