#include "fuzz/harness.h"

#include <algorithm>
#include <sstream>

#include "common/fnv.h"
#include "common/parallel.h"
#include "core/ecosystem.h"
#include "daemons/info_vector.h"
#include "hwmodel/chip_spec.h"
#include "sim/simulator.h"
#include "stress/shmoo.h"
#include "telemetry/telemetry.h"

namespace uniserver::fuzz {

namespace {

struct FuzzMetrics {
  telemetry::Counter& cases = telemetry::counter(
      "fuzz.cases", "scenarios", "Fuzz scenarios executed");
  telemetry::Counter& events_injected = telemetry::counter(
      "fuzz.events_injected", "events", "Scenario events applied to a stack");
  telemetry::Counter& violations = telemetry::counter(
      "fuzz.violations", "events", "Invariant violations detected");
  telemetry::Counter& shrink_runs = telemetry::counter(
      "fuzz.shrink_runs", "scenarios",
      "Scenario re-executions spent shrinking reproducers");
};

FuzzMetrics& metrics() {
  static FuzzMetrics m;
  return m;
}

// -- outcome digest ----------------------------------------------------

std::uint64_t digest_outcome(const RunOutcome& outcome,
                             const osk::Cloud& cloud) {
  std::uint64_t h = fnv::kShortOffset;
  h = fnv::mix_u64(h, outcome.steps);
  h = fnv::mix_u64(h, outcome.placement_digest);
  const osk::CloudStats& s = outcome.cloud_stats;
  h = fnv::mix_u64(h, s.submitted);
  h = fnv::mix_u64(h, s.accepted);
  h = fnv::mix_u64(h, s.rejected);
  h = fnv::mix_u64(h, s.completed);
  h = fnv::mix_u64(h, s.lost_to_errors);
  h = fnv::mix_u64(h, s.lost_to_node_crash);
  h = fnv::mix_u64(h, s.evacuations);
  h = fnv::mix_u64(h, s.migrations);
  h = fnv::mix_u64(h, s.migrations_started);
  h = fnv::mix_u64(h, s.migrations_cancelled);
  h = fnv::mix_u64(h, s.postcopy_migrations);
  h = fnv::mix_u64(h, s.migration_failures);
  h = fnv::mix_u64(h, s.node_crash_events);
  h = fnv::mix_u64(h, s.sla_violations);
  h = fnv::mix_double(h, s.total_energy_kwh);
  h = fnv::mix_double(h, s.migration_energy_kwh);
  h = fnv::mix_double(h, s.migration_transferred_mb);
  h = fnv::mix_double(h, s.migration_downtime_s);
  for (const osk::ComputeNode* node : cloud.node_views()) {
    const hv::HvStats& hv = node->hypervisor().stats();
    h = fnv::mix_u64(h, hv.ticks);
    h = fnv::mix_u64(h, hv.masked_errors());
    h = fnv::mix_u64(h, hv.vm_kills);
    h = fnv::mix_u64(h, hv.vm_restores);
    h = fnv::mix_u64(h, hv.hv_fatal_events);
    h = fnv::mix_u64(h, hv.node_crashes);
    h = fnv::mix_u64(h, hv.protection_saves);
    h = fnv::mix_u64(h, hv.uncorrected_seen);
    h = fnv::mix_u64(h, hv.uncorrected_resolved);
    h = fnv::mix_double(h, hv.energy.value);
  }
  // Serve books fold in only when the layer ran, so every pre-serve
  // campaign digest is unchanged (request_share == 0 -> no layer).
  if (const serve::ServeLayer* layer = cloud.serving()) {
    const serve::ServeStats& sv = layer->stats();
    h = fnv::mix_u64(h, sv.generated);
    h = fnv::mix_u64(h, sv.admitted);
    h = fnv::mix_u64(h, sv.completed);
    h = fnv::mix_u64(h, sv.dropped_overload);
    h = fnv::mix_u64(h, sv.dropped_unroutable);
    h = fnv::mix_u64(h, sv.dropped_lost);
    h = fnv::mix_u64(h, sv.slo_violations);
    h = fnv::mix_u64(h, sv.slo_violations_critical);
    h = fnv::mix_u64(h, sv.stalls);
    h = fnv::mix_double(h, sv.latency_sum_s);
    h = fnv::mix_double(h, sv.max_latency_s);
  }
  for (const Violation& v : outcome.violations) {
    h = fnv::mix_string(h, v.oracle);
    h = fnv::mix_string(h, v.detail);
    h = fnv::mix_double(h, v.at.value);
  }
  return h;
}

// -- event application -------------------------------------------------

osk::ComputeNode* node_at(osk::Cloud& cloud, int index) {
  auto ptrs = cloud.node_ptrs();
  if (ptrs.empty()) return nullptr;
  const auto i = static_cast<std::size_t>(std::clamp(
      index, 0, static_cast<int>(ptrs.size()) - 1));
  return ptrs[i];
}

void apply_event(osk::Cloud& cloud, std::vector<trace::VmRequest>& pending,
                 const FuzzEvent& event) {
  metrics().events_injected.add();
  switch (event.kind) {
    case EventKind::kVmArrival:
      // Queued for the next control-loop advance, which crosses the
      // arrival time (event times are tick-quantized).
      pending.push_back(event.vm);
      break;
    case EventKind::kVoltageExcursion: {
      osk::ComputeNode* node = node_at(cloud, event.node);
      if (node == nullptr) break;
      const Volt nominal = node->server().spec().chip.vdd_nominal;
      hw::Eop eop = node->server().eop();
      // Positive magnitude digs deeper into the margin. Clamp to a
      // physically plausible band so a storm of excursions cannot push
      // the model outside its calibrated range.
      eop.vdd = Volt{std::clamp(
          eop.vdd.value - nominal.value * event.magnitude / 100.0,
          nominal.value * 0.7, nominal.value * 1.05)};
      node->hypervisor().apply_eop(eop);
      break;
    }
    case EventKind::kRefreshExcursion: {
      osk::ComputeNode* node = node_at(cloud, event.node);
      if (node == nullptr) break;
      hw::Eop eop = node->server().eop();
      eop.refresh = Seconds{
          std::clamp(eop.refresh.value * event.magnitude, 0.008, 16.0)};
      node->hypervisor().apply_eop(eop);
      break;
    }
    case EventKind::kEccBurst: {
      osk::ComputeNode* node = node_at(cloud, event.node);
      if (node == nullptr) break;
      // A correctable storm: exactly what the HealthLog's rate
      // threshold and the cloud's failure predictor key on.
      for (std::uint64_t e = 0; e < event.count; ++e) {
        node->hypervisor().healthlog().record_error(daemons::ErrorEvent{
            event.at, daemons::Component::kCache,
            daemons::Severity::kCorrectable, 0});
      }
      break;
    }
    case EventKind::kNodeCrash:
      cloud.inject_node_crash(event.node);
      break;
    case EventKind::kDaemonRestart:
      cloud.inject_daemon_restart(event.node);
      break;
    case EventKind::kRackPowerLoss:
      cloud.inject_rack_power_loss(event.node);
      break;
    case EventKind::kRequestBurst:
      cloud.inject_request_burst(event.at, event.count);
      break;
    case EventKind::kMassEopRetreat: {
      // A retreat wave: `count` nodes starting at `node`, wrapping
      // around the fleet. Each drains through the migration queue, so
      // the wave contends for the same link budgets.
      const int fleet = static_cast<int>(cloud.node_views().size());
      if (fleet == 0) break;
      for (std::uint64_t k = 0; k < event.count; ++k) {
        cloud.inject_eop_retreat(
            (event.node + static_cast<int>(k)) % fleet);
      }
      break;
    }
    case EventKind::kRogueVmKill: {
      // TEST FIXTURE: destroy the lowest-id resident VM directly on its
      // hypervisor, bypassing the cloud's books. The vm-conservation
      // oracle must flag this at the next checkpoint.
      osk::ComputeNode* victim_node = nullptr;
      std::uint64_t victim_id = 0;
      for (osk::ComputeNode* node : cloud.node_ptrs()) {
        for (const auto& [id, vm] : node->hypervisor().vms()) {
          if (victim_node == nullptr || id < victim_id) {
            victim_node = node;
            victim_id = id;
          }
        }
      }
      if (victim_node != nullptr) {
        victim_node->hypervisor().destroy_vm(victim_id);
      }
      break;
    }
  }
}

}  // namespace

RunOutcome run_scenario(const ScenarioConfig& config,
                        const std::vector<FuzzEvent>& events,
                        const RunOptions& options) {
  RunOutcome outcome;
  metrics().cases.add();

  core::EcosystemConfig eco;
  eco.node_spec.chip = hw::chip_spec_by_name(config.chip);
  eco.shmoo = stress::ShmooConfig{.runs = 1};
  eco.nodes = config.nodes;
  eco.cloud.tick = config.tick;
  eco.cloud.policy = options.policy;
  eco.cloud.engine = options.engine;
  eco.cloud.record_placements = options.record_placements;
  if (config.request_share > 0.0) {
    // Request bursts only bite when the serving layer runs. The serve
    // seed derives from the stack seed so the whole run remains a pure
    // function of (config, events).
    eco.cloud.serve.enabled = true;
    eco.cloud.serve.seed = config.stack_seed ^ 0x5E12F00DULL;
  }
  core::Ecosystem ecosystem(eco, config.stack_seed);
  ecosystem.commission();
  osk::Cloud& cloud = ecosystem.cloud();

  sim::Simulator des;
  std::vector<trace::VmRequest> pending;

  // Scenario events are scheduled first, so they carry lower sequence
  // numbers than any firing of the periodic advance below — at equal
  // times an injection always lands before the control-loop step that
  // observes it (the DES orders same-time events FIFO by seq).
  for (const FuzzEvent& event : events) {
    des.schedule_at(event.at, [&cloud, &pending, &event] {
      apply_event(cloud, pending, event);
    });
  }

  sim::EventId advance_id = 0;
  advance_id = des.schedule_every(config.tick, [&] {
    std::vector<trace::VmRequest> batch;
    batch.swap(pending);
    cloud.run(batch, des.now());
    if (des.now().value + 1e-9 >= config.horizon.value) {
      des.cancel(advance_id);
    }
  });

  auto oracles = default_oracles();
  const StackView view{&cloud, &des, &telemetry::MetricsRegistry::global()};
  while (des.step()) {
    ++outcome.steps;
    for (const auto& oracle : oracles) {
      oracle->check(view, outcome.violations);
    }
    if (outcome.violated()) break;
  }

  if (outcome.violated()) {
    metrics().violations.add(outcome.violations.size());
  }
  outcome.cloud_stats = cloud.stats();
  outcome.migrations_submitted = cloud.migrations().stats().submitted;
  outcome.postcopy_fallbacks = cloud.migrations().stats().postcopy_fallbacks;
  outcome.placement_digest = cloud.placement_digest();
  outcome.placements = cloud.placements();
  outcome.digest = digest_outcome(outcome, cloud);
  return outcome;
}

namespace {

std::string compare_stats(const RunOutcome& one, const RunOutcome& two) {
  const osk::CloudStats& a = one.cloud_stats;
  const osk::CloudStats& b = two.cloud_stats;
  std::ostringstream out;
  const auto diff_u64 = [&](const char* field, std::uint64_t x,
                            std::uint64_t y) {
    if (out.tellp() == 0 && x != y) {
      out << "stats." << field << " " << x << " vs " << y;
    }
  };
  const auto diff_double = [&](const char* field, double x, double y) {
    if (out.tellp() == 0 && x != y) {
      out << "stats." << field << " " << x << " vs " << y;
    }
  };
  diff_u64("submitted", a.submitted, b.submitted);
  diff_u64("accepted", a.accepted, b.accepted);
  diff_u64("rejected", a.rejected, b.rejected);
  diff_u64("rejected_for_power", a.rejected_for_power, b.rejected_for_power);
  diff_u64("completed", a.completed, b.completed);
  diff_u64("lost_to_errors", a.lost_to_errors, b.lost_to_errors);
  diff_u64("lost_to_node_crash", a.lost_to_node_crash, b.lost_to_node_crash);
  diff_u64("evacuations", a.evacuations, b.evacuations);
  diff_u64("migrations", a.migrations, b.migrations);
  diff_u64("migrations_started", a.migrations_started,
           b.migrations_started);
  diff_u64("migrations_cancelled", a.migrations_cancelled,
           b.migrations_cancelled);
  diff_u64("postcopy_migrations", a.postcopy_migrations,
           b.postcopy_migrations);
  diff_u64("migration_failures", a.migration_failures, b.migration_failures);
  diff_u64("node_crash_events", a.node_crash_events, b.node_crash_events);
  diff_u64("sla_violations", a.sla_violations, b.sla_violations);
  diff_u64("migrations_submitted", one.migrations_submitted,
           two.migrations_submitted);
  diff_u64("postcopy_fallbacks", one.postcopy_fallbacks,
           two.postcopy_fallbacks);
  diff_double("total_energy_kwh", a.total_energy_kwh, b.total_energy_kwh);
  diff_double("migration_energy_kwh", a.migration_energy_kwh,
              b.migration_energy_kwh);
  diff_double("migration_transferred_mb", a.migration_transferred_mb,
              b.migration_transferred_mb);
  diff_double("migration_downtime_s", a.migration_downtime_s,
              b.migration_downtime_s);
  return out.str();
}

std::string compare_runs(const RunOutcome& indexed,
                         const RunOutcome& reference) {
  if (indexed.placements.size() != reference.placements.size()) {
    return "placement count " + std::to_string(indexed.placements.size()) +
           " vs " + std::to_string(reference.placements.size());
  }
  for (std::size_t i = 0; i < indexed.placements.size(); ++i) {
    const auto& x = indexed.placements[i];
    const auto& y = reference.placements[i];
    if (x.vm_id != y.vm_id || x.slot != y.slot ||
        x.evacuation != y.evacuation) {
      std::ostringstream out;
      out << "placement " << i << ": vm " << x.vm_id << "->slot " << x.slot
          << " vs vm " << y.vm_id << "->slot " << y.slot;
      return out.str();
    }
  }
  if (indexed.placement_digest != reference.placement_digest) {
    return "placement digest mismatch";
  }
  if (indexed.steps != reference.steps) {
    return "steps " + std::to_string(indexed.steps) + " vs " +
           std::to_string(reference.steps);
  }
  const std::string stats = compare_stats(indexed, reference);
  if (!stats.empty()) return stats;
  if (indexed.digest != reference.digest) return "outcome digest mismatch";
  return {};
}

}  // namespace

DifferentialOutcome run_differential(const ScenarioConfig& config,
                                     const std::vector<FuzzEvent>& events) {
  DifferentialOutcome outcome;
  for (osk::SchedulerPolicy policy : osk::all_scheduler_policies()) {
    DifferentialResult result;
    result.policy = policy;
    RunOptions run;
    run.policy = policy;
    run.record_placements = true;

    run.engine = osk::SchedulerEngine::kIndexed;
    result.indexed = run_scenario(config, events, run);
    run.engine = osk::SchedulerEngine::kReference;
    result.reference = run_scenario(config, events, run);
    result.mismatch = compare_runs(result.indexed, result.reference);
    if (!result.identical()) outcome.identical = false;
    outcome.policies.push_back(std::move(result));
  }
  return outcome;
}

std::vector<FuzzEvent> shrink_scenario(const ScenarioConfig& config,
                                       const std::vector<FuzzEvent>& events) {
  std::vector<FuzzEvent> current = events;
  int runs = 1;
  metrics().shrink_runs.add();
  if (!run_scenario(config, current).violated()) return current;

  std::size_t chunk = std::max<std::size_t>(1, current.size() / 2);
  while (runs < kShrinkBudget && !current.empty()) {
    bool removed = false;
    std::size_t start = 0;
    while (start < current.size() && runs < kShrinkBudget) {
      std::vector<FuzzEvent> candidate;
      candidate.reserve(current.size());
      for (std::size_t i = 0; i < current.size(); ++i) {
        if (i < start || i >= start + chunk) candidate.push_back(current[i]);
      }
      ++runs;
      metrics().shrink_runs.add();
      if (run_scenario(config, candidate).violated()) {
        current = std::move(candidate);
        removed = true;
        // The next chunk now occupies `start`; retry in place.
      } else {
        start += chunk;
      }
    }
    if (!removed) {
      if (chunk == 1) break;
      chunk = std::max<std::size_t>(1, chunk / 2);
    } else {
      chunk = std::clamp<std::size_t>(chunk, 1,
                                      std::max<std::size_t>(1,
                                                            current.size()));
    }
  }
  return current;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  const auto cases = static_cast<std::size_t>(std::max(0, config.cases));
  Rng rng(config.seed);
  std::vector<Rng> streams = par::fork_streams(rng, cases);

  std::vector<CaseResult> results = par::parallel_map<CaseResult>(
      cases, [&](std::size_t i) {
        Rng& stream = streams[i];
        ScenarioConfig scenario = config.scenario;
        scenario.stack_seed = stream.next();
        CaseResult result;
        result.index = static_cast<int>(i);
        result.config = scenario;
        result.events = generate_scenario(scenario, stream);
        result.outcome = run_scenario(scenario, result.events);
        if (result.outcome.violated()) {
          result.reproducer = shrink_scenario(scenario, result.events);
        }
        return result;
      });

  CampaignResult campaign;
  campaign.cases = std::move(results);
  std::uint64_t h = fnv::kShortOffset;
  for (const CaseResult& result : campaign.cases) {
    h = fnv::mix_u64(h, result.outcome.digest);
    if (result.outcome.violated()) ++campaign.violated_cases;
  }
  campaign.digest = h;
  return campaign;
}

}  // namespace uniserver::fuzz
