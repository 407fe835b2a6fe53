// uniserver_ctl — operator CLI over the UniServer stack.
//
//   uniserver_ctl characterize [chip] [seed]   StressLog cycle -> safe V-F-R
//   uniserver_ctl surface      [chip] [seed]   V-F shmoo map
//   uniserver_ctl campaign     [seed]          hypervisor SDC campaign + plan
//   uniserver_ctl raidr        [seed]          refresh-binning frontier
//   uniserver_ctl tco          [cloud|edge]    yearly TCO breakdown
//   uniserver_ctl security     [chip] [offset%] threat assessment at an EOP
//   uniserver_ctl status       [chip] [seed]   one-line NodeStatus record
//   uniserver_ctl stack        [chip] [seed]   full Fig.2 stack run (DES-driven)
//   uniserver_ctl fuzz         [--seed S] [--cases N] [--events N]
//                              [--nodes N] [--horizon S] [--storm-share F]
//                              [--request-share F]
//                              [--seed-violation]
//                              [--replay <file>] [--replay-out <path>]
//                              [--differential]
//                              scenario fuzzer with invariant oracles
//                              (docs/TESTING.md); exit 1 on violation.
//                              --differential replays every case through
//                              the indexed AND reference placement
//                              engines for all policies and exits 1 on
//                              any divergence (the nightly CI gate)
//
// Chips: i5 | i7 | arm (default arm). Every subcommand is deterministic
// in its seed. Any subcommand accepts `--telemetry-out <path>` to dump
// the process telemetry snapshot (metrics + trace ring) as JSON on
// exit, and `--jobs N` to set the campaign worker count (N=1 serial,
// default: all hardware threads; results are bit-identical for any N).
// `stack` is the subcommand that populates all four namespaces
// (sim., daemon., hv., cloud.) in one run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/ecosystem.h"
#include "core/security.h"
#include "core/uniserver_node.h"
#include "fuzz/harness.h"
#include "fuzz/scenario.h"
#include "daemons/predictor.h"
#include "daemons/status_interface.h"
#include "daemons/stresslog.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/eop.h"
#include "hwmodel/platform.h"
#include "hwmodel/raidr.h"
#include "hypervisor/fault_injection.h"
#include "hypervisor/protection.h"
#include "sim/simulator.h"
#include "stress/profiles.h"
#include "stress/shmoo_surface.h"
#include "tco/tco.h"
#include "telemetry/telemetry.h"
#include "trace/arrivals.h"

using namespace uniserver;
using namespace uniserver::literals;

namespace {

int cmd_characterize(const std::string& chip_name, std::uint64_t seed) {
  hw::NodeSpec spec;
  spec.chip = hw::chip_spec_by_name(chip_name);
  hw::ServerNode node(spec, seed);
  daemons::StressLog stresslog(stress::ShmooConfig{.runs = 1}, seed);
  const auto margins = stresslog.run_cycle(
      node, daemons::default_stress_params(node), 0_s);
  std::printf("%s (seed %llu): safe V-F-R vector\n", spec.chip.name.c_str(),
              static_cast<unsigned long long>(seed));
  for (const auto& point : margins.points) {
    std::printf("  %5.0f MHz -> %.3f V (-%.1f%%, crash at -%.1f%%)\n",
                point.freq.value, point.safe_vdd.value,
                point.safe_offset_percent, point.crash_offset_percent);
  }
  std::printf("  refresh -> %.2f s (%llu ECC events observed during the "
              "cycle)\n",
              margins.safe_refresh.value,
              static_cast<unsigned long long>(margins.ecc_events_observed));
  return 0;
}

int cmd_surface(const std::string& chip_name, std::uint64_t seed) {
  hw::Chip chip(hw::chip_spec_by_name(chip_name), seed);
  Rng rng(seed);
  const auto surface = stress::characterize_surface(
      chip, *stress::spec_profile("h264ref"), stress::SurfaceConfig{}, rng);
  std::printf("%s V-F shmoo (h264ref; '.' pass, 'o' ECC canary, 'X' "
              "crash):\n%s",
              chip.spec().name.c_str(), surface.ascii().c_str());
  return 0;
}

int cmd_campaign(std::uint64_t seed) {
  hv::ObjectInventory inventory(seed);
  hv::FaultInjector injector(inventory);
  Rng rng(seed);
  const auto campaign = injector.run_campaign(
      {.runs_per_object = 5, .workload_loaded = true}, rng);
  TextTable table("SDC campaign (" + std::to_string(inventory.size()) +
                  " objects x 5 runs)");
  table.set_header({"category", "fatal"});
  for (const auto category : hv::kAllCategories) {
    table.add_row({to_string(category),
                   std::to_string(campaign.fatal_by_category.at(category))});
  }
  table.print();
  const auto plan = hv::ProtectionPolicy{}.plan_from_campaign(inventory,
                                                              campaign);
  std::printf("protection plan: %zu categories, coverage %.1f%%, %.2f%% "
              "CPU\n",
              plan.protected_categories.size(), plan.coverage * 100.0,
              plan.cpu_overhead * 100.0);
  return 0;
}

int cmd_raidr(std::uint64_t seed) {
  hw::DimmSpec spec;
  const hw::DimmModel dimm(spec, seed);
  const hw::RaidrBinning binning(dimm, hw::RaidrConfig{});
  TextTable table("refresh binning frontier (30 C)");
  table.set_header({"long interval", "fast-bin rows", "DIMM power saved"});
  for (const Seconds interval : {1_s, 2_s, 5_s, 10_s}) {
    const auto result = binning.evaluate(interval, Celsius{30.0});
    table.add_row({TextTable::num(interval.value, 0) + " s",
                   TextTable::num(result.weak_row_fraction * 100.0, 4) + "%",
                   TextTable::pct(result.dimm_power_saving * 100.0)});
  }
  table.print();
  return 0;
}

int cmd_tco(const std::string& site) {
  const tco::DatacenterSpec spec = site == "edge"
                                       ? tco::edge_datacenter_spec()
                                       : tco::cloud_datacenter_spec();
  const tco::TcoBreakdown breakdown = tco::TcoModel{}.compute(spec);
  std::printf("%s deployment, %d servers, yearly:\n", spec.name.c_str(),
              spec.servers);
  std::printf("  server capex (amortized)  $%10.0f\n",
              breakdown.server_capex.value);
  std::printf("  infra capex (amortized)   $%10.0f\n",
              breakdown.infra_capex.value);
  std::printf("  energy                    $%10.0f  (%.1f%% of TCO)\n",
              breakdown.energy_opex.value, breakdown.energy_share() * 100.0);
  std::printf("  maintenance               $%10.0f\n",
              breakdown.maintenance_opex.value);
  std::printf("  total                     $%10.0f\n",
              breakdown.total().value);
  std::printf("UniServer margins (1.5x EE) would save $%.0f/yr\n",
              breakdown.energy_opex.value / 3.0);
  return 0;
}

int cmd_status(const std::string& chip_name, std::uint64_t seed) {
  // Characterize, deploy, run an hour of an LDBC guest, then print the
  // one-line status record upper layers would scrape (innovation iv).
  core::UniServerConfig config;
  config.node_spec.chip = hw::chip_spec_by_name(chip_name);
  config.shmoo = stress::ShmooConfig{.runs = 1};
  core::UniServerNode node(config, seed);
  node.characterize();
  node.deploy();
  hv::Hypervisor& hypervisor = node.hypervisor();
  hv::Vm vm;
  vm.id = 1;
  vm.vcpus = hypervisor.usable_cores();
  vm.memory_mb = 4096.0;
  vm.workload = stress::ldbc_profile();
  hypervisor.create_vm(vm);
  for (int i = 0; i < 60; ++i) node.step(60_s);

  const auto status = daemons::collect_status(
      node.server(), hypervisor.healthlog(), node.predictor(),
      node.margins().current(), vm.workload, node.now(),
      hypervisor.retired_cores(), hypervisor.isolated_channels());
  std::printf("%s\n", daemons::serialize(status).c_str());
  std::printf("margin utilization %.0f%%, refresh utilization %.0f%%\n",
              status.margin_utilization * 100.0,
              status.refresh_utilization * 100.0);
  return 0;
}

int cmd_stack(const std::string& chip_name, std::uint64_t seed) {
  // The whole Figure-2 stack in one process: commission a small fleet
  // (StressLog characterization), then feed a VM arrival stream through
  // the cloud layer in 900 s chunks sequenced as discrete events on the
  // DES — so a single run populates every telemetry namespace: sim.*
  // (the event loop), daemon.* (StressLog/HealthLog/Predictor), hv.*
  // (per-tick error handling) and cloud.* (scheduling + migration).
  core::EcosystemConfig config;
  config.node_spec.chip = hw::chip_spec_by_name(chip_name);
  config.shmoo = stress::ShmooConfig{.runs = 1};
  config.nodes = 4;
  core::Ecosystem ecosystem(config, seed);
  ecosystem.commission();

  const Seconds horizon{7200.0};
  constexpr double kChunk = 900.0;
  trace::VmArrivalStream stream(trace::ArrivalConfig{}, seed);
  const auto requests = stream.generate(horizon);

  sim::Simulator des;
  for (double t = kChunk; t <= horizon.value + 1e-9; t += kChunk) {
    des.schedule_at(Seconds{t}, [&ecosystem, &requests, t] {
      // Cloud::run resubmits any request with arrival <= now, so each
      // chunk only gets the slice that arrives inside its window.
      std::vector<trace::VmRequest> slice;
      for (const auto& request : requests) {
        if (request.arrival.value > t - kChunk &&
            request.arrival.value <= t) {
          slice.push_back(request);
        }
      }
      ecosystem.cloud().run(slice, Seconds{t});
    });
  }
  des.run();

  const auto& stats = ecosystem.cloud().stats();
  std::printf("stack run: %d x %s, %.0f s horizon, %zu VM requests\n",
              config.nodes, config.node_spec.chip.name.c_str(),
              horizon.value, requests.size());
  std::printf("  accepted %llu / submitted %llu, completed %llu, "
              "lost %llu\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.lost_to_errors +
                                              stats.lost_to_node_crash));
  std::printf("  evacuations %llu, migrations %llu, node crashes %llu\n",
              static_cast<unsigned long long>(stats.evacuations),
              static_cast<unsigned long long>(stats.migrations),
              static_cast<unsigned long long>(stats.node_crash_events));
  std::printf("  energy %.3f kWh, VM survival %.4f, availability %.4f\n",
              stats.total_energy_kwh, stats.vm_survival_rate(),
              stats.mean_node_availability);
  const auto summary = ecosystem.summary(stress::ldbc_profile());
  std::printf("  mean undervolt %.1f%%, fleet power saving %.1f%%\n",
              summary.mean_undervolt_percent,
              summary.fleet_power_saving * 100.0);
  return 0;
}

void print_violations(const fuzz::RunOutcome& outcome) {
  for (const auto& violation : outcome.violations) {
    std::printf("  VIOLATION [%s] at t=%.0f s: %s\n",
                violation.oracle.c_str(), violation.at.value,
                violation.detail.c_str());
  }
}

int cmd_fuzz(const std::vector<std::string>& args) {
  fuzz::CampaignConfig config;
  std::string replay_path;
  std::string replay_out = "fuzz-repro.txt";
  bool differential = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool has_value = i + 1 < args.size();
    if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (arg == "--cases" && has_value) {
      config.cases = std::atoi(args[++i].c_str());
    } else if (arg == "--events" && has_value) {
      config.scenario.events = std::atoi(args[++i].c_str());
    } else if (arg == "--nodes" && has_value) {
      config.scenario.nodes = std::atoi(args[++i].c_str());
    } else if (arg == "--horizon" && has_value) {
      config.scenario.horizon = Seconds{std::atof(args[++i].c_str())};
    } else if (arg == "--storm-share" && has_value) {
      // Fraction of events that are evacuation storms (rack power loss
      // / mass EOP retreat); carved out of the fault budget.
      config.scenario.storm_share = std::atof(args[++i].c_str());
    } else if (arg == "--request-share" && has_value) {
      // Fraction of events that are request-burst flash crowds; >0
      // also enables the serving layer so the SLO oracle has books
      // to audit.
      config.scenario.request_share = std::atof(args[++i].c_str());
    } else if (arg == "--seed-violation") {
      config.scenario.seed_violation = true;
    } else if (arg == "--replay" && has_value) {
      replay_path = args[++i];
    } else if (arg == "--replay-out" && has_value) {
      replay_out = args[++i];
    } else if (arg == "--differential") {
      differential = true;
    } else {
      std::fprintf(stderr, "fuzz: unknown or incomplete option '%s'\n",
                   arg.c_str());
      return 2;
    }
  }

  // Both engines for every policy must make bit-identical decisions.
  auto report_differential = [](int index,
                                const fuzz::DifferentialOutcome& outcome) {
    std::printf("case %2d: %zu policies x 2 engines: %s\n", index,
                outcome.policies.size(),
                outcome.identical ? "identical" : "MISMATCH");
    for (const auto& result : outcome.policies) {
      if (!result.identical()) {
        std::printf("  MISMATCH [%s]: %s\n", osk::to_string(result.policy),
                    result.mismatch.c_str());
      }
    }
  };

  if (!replay_path.empty()) {
    // Replay mode: re-run one recorded scenario exactly.
    fuzz::ScenarioConfig scenario;
    std::vector<fuzz::FuzzEvent> events;
    std::string error;
    if (!fuzz::load_scenario(replay_path, scenario, events, error)) {
      std::fprintf(stderr, "fuzz: cannot replay %s: %s\n",
                   replay_path.c_str(), error.c_str());
      return 2;
    }
    if (differential) {
      const auto outcome = fuzz::run_differential(scenario, events);
      report_differential(0, outcome);
      return outcome.identical ? 0 : 1;
    }
    const fuzz::RunOutcome outcome = fuzz::run_scenario(scenario, events);
    std::printf("replay %s: %zu events, %zu steps, digest %016llx\n",
                replay_path.c_str(), events.size(), outcome.steps,
                static_cast<unsigned long long>(outcome.digest));
    print_violations(outcome);
    return outcome.violated() ? 1 : 0;
  }

  if (differential) {
    // Differential sweep over generated cases (each case gets its own
    // forked substream, same discipline as run_campaign).
    Rng root(config.seed);
    auto streams =
        par::fork_streams(root, static_cast<std::size_t>(config.cases));
    int mismatched = 0;
    for (int i = 0; i < config.cases; ++i) {
      fuzz::ScenarioConfig scenario = config.scenario;
      scenario.stack_seed = streams[static_cast<std::size_t>(i)].next();
      const auto events = fuzz::generate_scenario(
          scenario, streams[static_cast<std::size_t>(i)]);
      const auto outcome = fuzz::run_differential(scenario, events);
      report_differential(i, outcome);
      if (!outcome.identical) ++mismatched;
    }
    std::printf("differential: %d/%d cases identical across %zu policies\n",
                config.cases - mismatched, config.cases,
                osk::all_scheduler_policies().size());
    return mismatched == 0 ? 0 : 1;
  }

  const fuzz::CampaignResult campaign = fuzz::run_campaign(config);
  const fuzz::CaseResult* first_violating = nullptr;
  for (const auto& result : campaign.cases) {
    std::printf("case %2d: %zu events, %zu steps, digest %016llx%s\n",
                result.index, result.events.size(), result.outcome.steps,
                static_cast<unsigned long long>(result.outcome.digest),
                result.outcome.violated() ? "  << VIOLATED" : "");
    if (result.outcome.violated()) {
      print_violations(result.outcome);
      if (first_violating == nullptr) first_violating = &result;
    }
  }
  std::printf("campaign digest %016llx, %d/%zu cases violated\n",
              static_cast<unsigned long long>(campaign.digest),
              campaign.violated_cases, campaign.cases.size());

  if (first_violating != nullptr) {
    std::printf("shrunk case %d from %zu to %zu events\n",
                first_violating->index, first_violating->events.size(),
                first_violating->reproducer.size());
    if (fuzz::save_scenario(replay_out, first_violating->config,
                            first_violating->reproducer)) {
      std::printf("reproducer written to %s (re-run: uniserver_ctl fuzz "
                  "--replay %s)\n",
                  replay_out.c_str(), replay_out.c_str());
    } else {
      std::fprintf(stderr, "fuzz: failed to write reproducer to %s\n",
                   replay_out.c_str());
    }
    return 1;
  }
  return 0;
}

int cmd_security(const std::string& chip_name, double offset_percent) {
  const hw::ChipSpec chip = hw::chip_spec_by_name(chip_name);
  const hw::DimmSpec dimm;
  hw::Eop eop{hw::apply_undervolt_percent(chip.vdd_nominal, offset_percent),
              chip.freq_nominal, Seconds{1.5}};
  const auto assessment =
      core::SecurityAnalyzer{}.analyze(chip, dimm, eop, true);
  std::printf("%s at -%.1f%% / refresh 1.5 s:\n", chip.name.c_str(),
              offset_percent);
  for (const auto& threat : assessment.threats) {
    std::printf("  [%.2f] %-24s %s\n", threat.severity,
                to_string(threat.kind), threat.countermeasure.c_str());
  }
  std::printf("max severity %.2f -> residual %.3f with countermeasures\n",
              assessment.max_severity(), assessment.residual_risk());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // `--telemetry-out <path>` and `--jobs N` can appear anywhere; strip
  // them before the positional parse so every subcommand accepts them.
  std::string telemetry_out;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--telemetry-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--telemetry-out requires a path\n");
        return 2;
      }
      telemetry_out = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--jobs") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--jobs requires a worker count\n");
        return 2;
      }
      const auto jobs = par::parse_jobs(argv[++i]);
      if (!jobs) {
        std::fprintf(stderr, "--jobs takes a worker count 0..%u\n",
                     par::kMaxJobs);
        return 2;
      }
      par::set_default_jobs(*jobs);
      continue;
    }
    args.emplace_back(argv[i]);
  }
  const std::string command = !args.empty() ? args[0] : "characterize";
  const std::string arg2 = args.size() > 1 ? args[1] : "";
  const std::uint64_t seed =
      args.size() > 2 ? std::strtoull(args[2].c_str(), nullptr, 10) : 1;

  int status = 2;
  if (command == "characterize") {
    status = cmd_characterize(arg2, seed);
  } else if (command == "surface") {
    status = cmd_surface(arg2, seed);
  } else if (command == "campaign") {
    status = cmd_campaign(
        arg2.empty() ? 1 : std::strtoull(arg2.c_str(), nullptr, 10));
  } else if (command == "raidr") {
    status = cmd_raidr(
        arg2.empty() ? 1 : std::strtoull(arg2.c_str(), nullptr, 10));
  } else if (command == "tco") {
    status = cmd_tco(arg2.empty() ? "cloud" : arg2);
  } else if (command == "status") {
    status = cmd_status(arg2, seed);
  } else if (command == "stack") {
    status = cmd_stack(arg2, seed);
  } else if (command == "fuzz") {
    status = cmd_fuzz(args);
  } else if (command == "security") {
    status = cmd_security(
        arg2, args.size() > 2 ? std::atof(args[2].c_str()) : 12.0);
  } else {
    std::fprintf(stderr,
                 "usage: uniserver_ctl [--telemetry-out <path>] [--jobs N] "
                 "characterize|surface|campaign|raidr|tco|security|"
                 "status|stack|fuzz ...\n");
    return 2;
  }

  if (!telemetry_out.empty()) {
    if (telemetry::write_json_snapshot(telemetry_out,
                                       telemetry::MetricsRegistry::global(),
                                       &telemetry::TraceBuffer::global())) {
      std::printf("telemetry snapshot written to %s\n",
                  telemetry_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write telemetry snapshot to %s\n",
                   telemetry_out.c_str());
      return 1;
    }
  }
  return status;
}
