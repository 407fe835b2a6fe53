// Datacenter-scale placement throughput: the capacity-indexed engine
// against the linear-scan reference on the same fleet-scale diurnal
// workload (trace::FleetTraceGenerator; default 10k nodes, 1M VMs).
//
// Two phases:
//   identity    every SchedulerPolicy, both engines, a workload prefix:
//               the decision digests must match bit-for-bit;
//   throughput  first-fit at full scale; the reference runs a prefix of
//               the same stream and its decision digest must equal the
//               indexed run's digest at the same prefix mark.
//
// Fleet construction is parallel (--jobs) but seeded per node with
// par::fork_streams, so node state — and therefore every placement
// decision — is bit-identical for any worker count. Emits
// BENCH_scheduler.json (ops/s, p99 pick latency, speedup, identity)
// for the perfsmoke regression gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fnv.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/table.h"
#include "hwmodel/chip_spec.h"
#include "openstack/scheduler.h"
#include "openstack/scheduler_index.h"
#include "trace/fleet.h"

using namespace uniserver;

namespace {

constexpr std::uint64_t kFleetSeed = 20260806;

struct Options {
  int nodes{10000};
  std::uint64_t vms{1'000'000};
  unsigned jobs{0};  // 0 = hardware default
  std::string out{"BENCH_scheduler.json"};
  bool smoke{false};
};

std::vector<std::unique_ptr<osk::ComputeNode>> build_fleet(int count) {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  Rng rng(kFleetSeed);
  std::vector<Rng> streams =
      par::fork_streams(rng, static_cast<std::size_t>(count));
  auto nodes = par::parallel_map<std::unique_ptr<osk::ComputeNode>>(
      static_cast<std::size_t>(count), [&](std::size_t i) {
        auto node = std::make_unique<osk::ComputeNode>(
            "node-" + std::to_string(i), spec, hv::HvConfig{},
            streams[i].next());
        // Deterministic reliability spread in [0.90, 1.00] so the
        // reliability-aware policy has a real ordering to index and the
        // critical-VM floor (0.98) actually filters nodes.
        node->set_reliability(
            0.90 + 0.10 * Rng(streams[i].next()).uniform());
        return node;
      });
  return nodes;
}

void reset_fleet(std::vector<std::unique_ptr<osk::ComputeNode>>& fleet) {
  for (auto& node : fleet) {
    std::vector<std::uint64_t> ids;
    ids.reserve(node->hypervisor().vms().size());
    for (const auto& [id, vm] : node->hypervisor().vms()) ids.push_back(id);
    for (std::uint64_t id : ids) node->remove_vm(id);
  }
}

struct WorkloadRun {
  std::uint64_t picks{0};
  std::uint64_t accepted{0};
  /// Decision digest over the full run / at the prefix mark.
  std::uint64_t digest{fnv::kShortOffset};
  std::uint64_t digest_at_prefix{0};
  /// Time spent inside pick() calls.
  double pick_wall_s{0.0};
  double p99_us{0.0};

  double ops_per_s() const {
    return pick_wall_s > 0.0 ? static_cast<double>(picks) / pick_wall_s
                             : 0.0;
  }
};

struct Departure {
  double at{0.0};
  std::uint64_t id{0};
  osk::ComputeNode* node{nullptr};
  bool operator>(const Departure& other) const { return at > other.at; }
};

/// Replays the fleet-trace stream through one engine: tick-cadenced
/// weight refreshes, departures retired before each arrival, every
/// pick timed and folded into the decision digest.
WorkloadRun run_workload(osk::SchedulerEngine kind,
                         osk::SchedulerPolicy policy,
                         std::vector<std::unique_ptr<osk::ComputeNode>>& fleet,
                         const trace::FleetTraceConfig& trace_config,
                         std::uint64_t vms, std::uint64_t prefix_mark) {
  WorkloadRun out;
  std::vector<osk::ComputeNode*> ptrs;
  ptrs.reserve(fleet.size());
  for (auto& node : fleet) ptrs.push_back(node.get());

  auto engine = osk::make_placement_engine(kind, policy);
  engine->bind(ptrs);

  std::unordered_map<const osk::ComputeNode*, int> slot_of;
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    slot_of[ptrs[i]] = static_cast<int>(i);
  }

  trace::FleetTraceGenerator stream(trace_config, kFleetSeed + 1);
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>>
      departures;
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(vms));

  const double tick_s = 60.0;
  double next_refresh = tick_s;
  for (std::uint64_t i = 0; i < vms; ++i) {
    std::optional<trace::VmRequest> request = stream.next();
    if (!request.has_value()) break;
    while (!departures.empty() && departures.top().at <= request->arrival.value) {
      const Departure done = departures.top();
      departures.pop();
      done.node->remove_vm(done.id);
      engine->node_changed(done.node);
    }
    while (next_refresh <= request->arrival.value) {
      engine->refresh_weights();
      next_refresh += tick_s;
    }
    const hv::Vm vm = osk::vm_from_request(*request);

    const auto start = std::chrono::steady_clock::now();
    osk::ComputeNode* target =
        engine->pick(vm, vm.requirements.critical);
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    ++out.picks;
    out.pick_wall_s += us * 1e-6;
    latencies_us.push_back(us);

    int slot = -1;
    if (target != nullptr) {
      slot = slot_of[target];
      if (!target->place_vm(vm)) {
        std::fprintf(stderr, "pick promised capacity that placement "
                             "refused (vm %llu)\n",
                     static_cast<unsigned long long>(vm.id));
        std::exit(2);
      }
      engine->node_changed(target);
      ++out.accepted;
      departures.push(Departure{
          request->arrival.value + request->lifetime.value, vm.id, target});
    }
    out.digest = fnv::mix_u64(out.digest, vm.id);
    out.digest = fnv::mix_u64(out.digest, static_cast<std::uint64_t>(
                                         static_cast<std::int64_t>(slot)));
    if (out.picks == prefix_mark) out.digest_at_prefix = out.digest;
  }
  if (out.picks == prefix_mark) out.digest_at_prefix = out.digest;

  std::sort(latencies_us.begin(), latencies_us.end());
  if (!latencies_us.empty()) {
    const auto idx = static_cast<std::size_t>(
        0.99 * static_cast<double>(latencies_us.size() - 1));
    out.p99_us = latencies_us[idx];
  }
  reset_fleet(fleet);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      options.nodes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--vms") == 0 && i + 1 < argc) {
      options.vms = std::strtoull(argv[++i], nullptr, 10);
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
    options.nodes = 512;
    options.vms = 20'000;
  }
  par::set_default_jobs(options.jobs);

  trace::FleetTraceConfig trace_config;
  trace_config.nodes = options.nodes;
  trace_config.vms = options.vms;

  std::printf("building %d-node fleet (--jobs %u)...\n", options.nodes,
              options.jobs);
  auto fleet = build_fleet(options.nodes);

  // Phase 1: decision identity, every policy, both engines.
  const std::uint64_t identity_vms =
      std::min<std::uint64_t>(options.vms, options.smoke ? 4'000 : 50'000);
  bool identical = true;
  TextTable identity_table("Placement identity (indexed vs reference, " +
                           std::to_string(identity_vms) + " VMs)");
  identity_table.set_header({"policy", "accepted", "digest match"});
  for (osk::SchedulerPolicy policy : osk::all_scheduler_policies()) {
    const WorkloadRun indexed =
        run_workload(osk::SchedulerEngine::kIndexed, policy, fleet,
                     trace_config, identity_vms, identity_vms);
    const WorkloadRun reference =
        run_workload(osk::SchedulerEngine::kReference, policy, fleet,
                     trace_config, identity_vms, identity_vms);
    const bool same = indexed.digest == reference.digest &&
                      indexed.accepted == reference.accepted;
    identical = identical && same;
    identity_table.add_row({osk::to_string(policy),
                            std::to_string(indexed.accepted),
                            same ? "yes" : "NO"});
  }
  identity_table.print();

  // Phase 2: throughput at scale. The reference replays a prefix of the
  // same stream; its digest must equal the indexed digest at the mark.
  const std::uint64_t reference_vms =
      std::min<std::uint64_t>(options.vms, options.smoke ? 4'000 : 100'000);
  std::printf("\nthroughput: indexed %llu VMs, reference %llu VMs...\n",
              static_cast<unsigned long long>(options.vms),
              static_cast<unsigned long long>(reference_vms));
  const WorkloadRun indexed =
      run_workload(osk::SchedulerEngine::kIndexed,
                   osk::SchedulerPolicy::kFirstFit, fleet, trace_config,
                   options.vms, reference_vms);
  const WorkloadRun reference =
      run_workload(osk::SchedulerEngine::kReference,
                   osk::SchedulerPolicy::kFirstFit, fleet, trace_config,
                   reference_vms, reference_vms);
  const bool prefix_same =
      indexed.digest_at_prefix == reference.digest_at_prefix;
  identical = identical && prefix_same;
  const double speedup = reference.ops_per_s() > 0.0
                             ? indexed.ops_per_s() / reference.ops_per_s()
                             : 0.0;

  TextTable table("Placement throughput, " + std::to_string(options.nodes) +
                  " nodes");
  table.set_header({"engine", "picks", "ops/s", "p99 [us]", "speedup"});
  table.add_row({"reference", std::to_string(reference.picks),
                 TextTable::num(reference.ops_per_s(), 0),
                 TextTable::num(reference.p99_us, 2), "1.00x"});
  table.add_row({"indexed", std::to_string(indexed.picks),
                 TextTable::num(indexed.ops_per_s(), 0),
                 TextTable::num(indexed.p99_us, 2),
                 TextTable::num(speedup, 2) + "x"});
  table.print();
  std::printf("prefix decision digests: %s\n",
              prefix_same ? "identical" : "DIVERGED");

  std::FILE* json = std::fopen(options.out.c_str(), "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"scheduler_scale\",\n"
                 "  \"nodes\": %d,\n"
                 "  \"vms\": %llu,\n"
                 "  \"smoke\": %s,\n"
                 "  \"indexed_ops_per_s\": %.1f,\n"
                 "  \"reference_ops_per_s\": %.1f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"indexed_p99_us\": %.3f,\n"
                 "  \"reference_p99_us\": %.3f,\n"
                 "  \"identical\": %s\n"
                 "}\n",
                 options.nodes,
                 static_cast<unsigned long long>(options.vms),
                 options.smoke ? "true" : "false", indexed.ops_per_s(),
                 reference.ops_per_s(), speedup, indexed.p99_us,
                 reference.p99_us, identical ? "true" : "false");
    std::fclose(json);
    std::printf("wrote %s\n", options.out.c_str());
  }
  par::set_default_jobs(0);

  if (!identical) {
    std::printf("\nFAIL: engines diverged\n");
    return 1;
  }
  std::printf("\nindexed engine %.2fx reference at %d nodes, decisions "
              "bit-identical\n",
              speedup, options.nodes);
  return 0;
}
