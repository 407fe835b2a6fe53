// Golden-trace regression tests (ctest label `golden`).
//
// Each test recomputes a small, fixed-seed slice of a paper-facing
// pipeline — shmoo characterization (§6.A / Table 2), the DRAM
// retention/BER model (§6.B), the TCO design-space sweep (§6.D), the
// serving layer's counters and the cloud control plane's fault books
// (§4.B, §5.B) — and compares it cell-by-cell against a CSV checked in
// under tests/golden/. A refactor that silently shifts these numbers fails
// here with a pointer to the exact cell. The fuzz campaign's digests are
// 64-bit hashes, so they are pinned exactly, in hex, in the test itself.
//
// Every run also writes the freshly computed table into the build tree
// (UNISERVER_GOLDEN_ACTUAL_DIR). To regenerate a golden after an
// *intentional* model change, copy that file over the checked-in one —
// the failure message prints the exact `cp` command — and re-run.
//
// Comparator: text cells match exactly; numeric cells match within
// a relative tolerance of 1e-6 (abs 1e-12), so cosmetic formatting
// or last-ulp libm differences don't flake the suite.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/rng.h"
#include "common/units.h"
#include "fuzz/harness.h"
#include "hwmodel/chip.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/dram_model.h"
#include "hwmodel/eop.h"
#include "hwmodel/platform.h"
#include "hypervisor/hypervisor.h"
#include "openstack/cloud.h"
#include "serve/serve.h"
#include "stress/profiles.h"
#include "stress/shmoo.h"
#include "tco/explorer.h"
#include "tco/tco.h"
#include "trace/arrivals.h"

namespace uniserver {
namespace {

constexpr double kRelTolerance = 1e-6;
constexpr double kAbsTolerance = 1e-12;

struct Table {
  std::vector<std::vector<std::string>> rows;  // header is rows[0]
};

std::vector<std::string> split_csv_line(const std::string& line) {
  // The golden tables use only unquoted cells (no commas in names).
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream in(line);
  while (std::getline(in, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.push_back("");
  return cells;
}

Table parse_table(const std::string& text) {
  Table table;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    table.rows.push_back(split_csv_line(line));
  }
  return table;
}

bool parse_double(const std::string& cell, double& out) {
  if (cell.empty()) return false;
  char* end = nullptr;
  out = std::strtod(cell.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool cells_match(const std::string& expected, const std::string& actual,
                 std::string& why) {
  double e = 0.0;
  double a = 0.0;
  const bool e_num = parse_double(expected, e);
  const bool a_num = parse_double(actual, a);
  if (e_num != a_num) {
    why = "numeric/text kind mismatch";
    return false;
  }
  if (!e_num) {
    if (expected == actual) return true;
    why = "text differs";
    return false;
  }
  const double diff = std::abs(e - a);
  const double scale = std::max(std::abs(e), std::abs(a));
  if (diff <= kAbsTolerance + kRelTolerance * scale) return true;
  std::ostringstream os;
  os << "numeric drift: |" << e << " - " << a << "| = " << diff
     << " exceeds tolerance " << (kAbsTolerance + kRelTolerance * scale);
  why = os.str();
  return false;
}

/// Writes `actual` into the build tree, loads the checked-in golden,
/// and compares cell-by-cell. Regeneration is a `cp` away.
void expect_matches_golden(const std::string& file, const CsvWriter& actual) {
  namespace fs = std::filesystem;
  const std::string actual_dir = UNISERVER_GOLDEN_ACTUAL_DIR;
  const std::string golden_path =
      std::string(UNISERVER_GOLDEN_DIR) + "/" + file;
  const std::string actual_path = actual_dir + "/" + file;
  fs::create_directories(actual_dir);
  ASSERT_TRUE(actual.save(actual_path)) << "cannot write " << actual_path;

  const std::string regen_hint =
      "to accept the new numbers: cp " + actual_path + " " + golden_path;
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "golden file missing: " << golden_path << "\n  "
                         << regen_hint;
  std::ostringstream blob;
  blob << in.rdbuf();

  const Table golden = parse_table(blob.str());
  const Table fresh = parse_table(actual.str());
  ASSERT_EQ(golden.rows.size(), fresh.rows.size())
      << file << ": row count changed\n  " << regen_hint;
  for (std::size_t r = 0; r < golden.rows.size(); ++r) {
    ASSERT_EQ(golden.rows[r].size(), fresh.rows[r].size())
        << file << " row " << r << ": column count changed\n  "
        << regen_hint;
    for (std::size_t c = 0; c < golden.rows[r].size(); ++c) {
      std::string why;
      EXPECT_TRUE(cells_match(golden.rows[r][c], fresh.rows[r][c], why))
          << file << " row " << r << " col " << c << " ("
          << golden.rows[0][std::min(c, golden.rows[0].size() - 1)]
          << "): expected '" << golden.rows[r][c] << "' got '"
          << fresh.rows[r][c] << "' — " << why << "\n  " << regen_hint;
    }
  }
}

std::string fmt(double value, int precision = 9) {
  std::ostringstream os;
  os.precision(precision);
  os << value;
  return os.str();
}

TEST(GoldenTraces, ShmooCharacterization) {
  // Per-core crash offsets and ECC counts for the i5-like part under
  // mcf — the Table 2 pipeline with a small fixed budget (2 runs).
  const hw::Chip chip(hw::i5_4200u_spec(), 42);
  const auto w = *stress::spec_profile("mcf");
  stress::ShmooCharacterizer characterizer({.runs = 2});
  Rng rng(7);
  const auto summary = characterizer.characterize_chip(
      chip, w, chip.spec().freq_nominal, rng);

  CsvWriter csv({"core", "crash_offset_min", "crash_offset_max",
                 "crash_offset_mean", "ecc_errors_min", "ecc_errors_max"});
  for (const auto& core : summary.per_core) {
    csv.add_row({std::to_string(core.core), fmt(core.crash_offset_min),
                 fmt(core.crash_offset_max), fmt(core.crash_offset_mean),
                 std::to_string(core.ecc_errors_min),
                 std::to_string(core.ecc_errors_max)});
  }
  csv.add_row({"summary", fmt(summary.system_crash_offset),
               fmt(summary.core_to_core_variation), "", "", ""});
  expect_matches_golden("shmoo_characterization.csv", csv);
}

TEST(GoldenTraces, DramBerSweep) {
  // Bit-error probability of one sampled DIMM over the relaxed-refresh
  // grid the RAIDR/§6.B experiments sweep, at three temperatures.
  hw::DimmSpec spec;
  const hw::DimmModel dimm(spec, 7);
  const double refresh_s[] = {0.064, 0.256, 1.0, 2.0, 5.0, 10.0};
  const double temps_c[] = {30.0, 50.0, 70.0};

  CsvWriter csv({"refresh_s", "temp_c", "bit_error_probability"});
  for (const double refresh : refresh_s) {
    for (const double temp : temps_c) {
      const double ber =
          dimm.bit_error_probability(Seconds{refresh}, Celsius{temp});
      csv.add_row({fmt(refresh), fmt(temp), fmt(ber, 12)});
    }
  }
  expect_matches_golden("dram_ber_sweep.csv", csv);
}

TEST(GoldenTraces, TcoSweep) {
  // Full-factorial TCO sweep around the cloud profile (§6.D) at the
  // margins-only EE factor of Table 3.
  const tco::DatacenterSpec base = tco::cloud_datacenter_spec();
  const std::vector<tco::SweepDimension> dims = {
      tco::TcoExplorer::electricity_price_usd({0.08, 0.12, 0.16}),
      tco::TcoExplorer::pue({1.2, 1.5}),
      tco::TcoExplorer::server_power_w({100.0, 150.0}),
  };
  const tco::TcoExplorer explorer;
  const auto points = explorer.sweep(base, dims, 1.5);

  CsvWriter csv({"electricity_per_kwh", "pue", "server_power_w",
                 "server_capex", "infra_capex", "energy_opex",
                 "maintenance_opex", "total", "cost_per_server_year"});
  for (const auto& p : points) {
    csv.add_row({fmt(p.spec.electricity_per_kwh.value), fmt(p.spec.pue),
                 fmt(p.spec.server_avg_power.value),
                 fmt(p.breakdown.server_capex.value),
                 fmt(p.breakdown.infra_capex.value),
                 fmt(p.breakdown.energy_opex.value),
                 fmt(p.breakdown.maintenance_opex.value),
                 fmt(p.breakdown.total().value),
                 fmt(p.cost_per_server_year.value)});
  }
  const auto& cheapest = tco::TcoExplorer::cheapest(points);
  csv.add_row({"cheapest", fmt(cheapest.spec.electricity_per_kwh.value),
               fmt(cheapest.spec.pue), fmt(cheapest.spec.server_avg_power.value),
               fmt(cheapest.breakdown.total().value), "", "", "", ""});
  expect_matches_golden("tco_sweep.csv", csv);
}

TEST(GoldenTraces, ServeCounters) {
  // A fixed-seed serving-layer day: three VMs across two services, a
  // flash crowd, one restore stall and a mid-run VM loss. Pins every
  // ServeStats book (the serve.* counters' source) plus the latency
  // tail, so a refactor that shifts the Rng consumption order or the
  // queue arithmetic fails here with the exact counter named.
  const hw::ServerNode node(hw::NodeSpec{}, 77);
  serve::ServeConfig config;
  config.enabled = true;
  config.seed = 4242;
  config.requests_per_vcpu_hz = 1.5;
  config.replica_groups = 2;
  serve::ServeLayer layer(config);

  auto make_vm = [](std::uint64_t id, int vcpus, trace::SlaClass sla) {
    trace::VmRequest vm;
    vm.id = id;
    vm.vcpus = vcpus;
    vm.sla = sla;
    vm.workload = *stress::spec_profile("mcf");
    return vm;
  };
  layer.on_vm_placed(make_vm(1, 2, trace::SlaClass::kStandard), &node);
  layer.on_vm_placed(make_vm(2, 1, trace::SlaClass::kCritical), &node);
  layer.on_vm_placed(make_vm(3, 2, trace::SlaClass::kBestEffort), &node);
  layer.inject_burst(Seconds{300.0}, 200);
  for (int tick = 1; tick <= 20; ++tick) {
    if (tick == 5) layer.add_stall(1, Seconds{5 * 60.0}, Seconds{8.0});
    if (tick == 12) layer.on_vm_removed(2);
    layer.advance(Seconds{tick * 60.0}, Seconds{60.0});
  }

  const serve::ServeStats& s = layer.stats();
  CsvWriter csv({"metric", "value"});
  csv.add_row({"generated", std::to_string(s.generated)});
  csv.add_row({"admitted", std::to_string(s.admitted)});
  csv.add_row({"completed", std::to_string(s.completed)});
  csv.add_row({"dropped_overload", std::to_string(s.dropped_overload)});
  csv.add_row({"dropped_unroutable", std::to_string(s.dropped_unroutable)});
  csv.add_row({"dropped_lost", std::to_string(s.dropped_lost)});
  csv.add_row({"slo_violations", std::to_string(s.slo_violations)});
  csv.add_row({"slo_violations_critical",
               std::to_string(s.slo_violations_critical)});
  csv.add_row({"stalls", std::to_string(s.stalls)});
  csv.add_row({"outstanding", std::to_string(layer.outstanding())});
  csv.add_row({"latency_sum_s", fmt(s.latency_sum_s)});
  csv.add_row({"max_latency_s", fmt(s.max_latency_s)});
  csv.add_row({"p50_ms", fmt(layer.latency_percentile_ms(50.0))});
  csv.add_row({"p99_ms", fmt(layer.latency_percentile_ms(99.0))});
  csv.add_row({"p999_ms", fmt(layer.latency_percentile_ms(99.9))});
  expect_matches_golden("serve_counters.csv", csv);
}

/// One setting of the cloud fault-books golden.
struct FaultSetting {
  Watt rack_cap{Watt{0.0}};
  double undervolt_percent{0.0};
  double refresh_s{0.0};  ///< 0 keeps the nominal refresh
  bool checkpointing{false};
  bool reliable_domain{true};
  double hv_cpu_time_share{0.05};
  double dirty_rate{0.15};
};

/// One fixed-seed 16-node cloud run of six hours with the control
/// plane's fault paths exercised: the rack power cap, organic SDCs and
/// crashes from an aggressive operating point, and the three injectors.
/// Returns the books as (metric, value) rows.
std::vector<std::pair<std::string, std::string>> cloud_fault_books(
    const FaultSetting& setting) {
  osk::CloudConfig config;
  config.nodes_per_rack = 4;
  config.rack_power_cap = setting.rack_cap;
  config.migration.dirty_rate = setting.dirty_rate;
  hv::HvConfig hv_config;
  hv_config.vm_checkpointing = setting.checkpointing;
  hv_config.use_reliable_domain = setting.reliable_domain;
  hv_config.hv_cpu_time_share = setting.hv_cpu_time_share;
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  auto cloud = osk::Cloud::make_uniform(config, spec, hv_config, 16, 2024);
  for (osk::ComputeNode* node : cloud->node_ptrs()) {
    hw::Eop eop = node->server().eop();
    eop.vdd = hw::apply_undervolt_percent(spec.chip.vdd_nominal,
                                          setting.undervolt_percent);
    if (setting.refresh_s > 0.0) eop.refresh = Seconds{setting.refresh_s};
    node->hypervisor().apply_eop(eop);
  }

  const char* profiles[] = {"mcf", "milc", "namd", "h264ref"};
  Rng rng(99);
  std::vector<std::vector<trace::VmRequest>> hours(6);
  for (std::uint64_t id = 1; id <= 180; ++id) {
    trace::VmRequest request;
    request.id = id;
    const int hour = static_cast<int>((id - 1) / 30);
    request.arrival = Seconds{hour * 3600.0 + rng.uniform() * 3600.0};
    request.lifetime = Seconds{600.0 + rng.uniform() * 14400.0};
    request.vcpus = 1 + static_cast<int>(rng.uniform_u64(4));
    request.memory_mb = 512.0 * static_cast<double>(1 + rng.uniform_u64(6));
    request.sla = static_cast<trace::SlaClass>(rng.uniform_u64(3));
    request.workload = *stress::spec_profile(profiles[id % 4]);
    hours[static_cast<std::size_t>(hour)].push_back(request);
  }
  for (std::size_t hour = 0; hour < hours.size(); ++hour) {
    if (hour == 2) cloud->inject_node_crash(3);
    if (hour == 3) cloud->inject_rack_power_loss(5);
    if (hour == 4) cloud->inject_eop_retreat(9);
    cloud->run(hours[hour], Seconds{(static_cast<double>(hour) + 1) * 3600.0});
  }

  hv::HvStats hv;
  for (const osk::ComputeNode* node : cloud->node_views()) {
    const hv::HvStats& s = node->hypervisor().stats();
    hv.vm_kills += s.vm_kills;
    hv.vm_restores += s.vm_restores;
    hv.hv_fatal_events += s.hv_fatal_events;
    hv.node_crashes += s.node_crashes;
    hv.protection_saves += s.protection_saves;
    hv.uncorrected_seen += s.uncorrected_seen;
    hv.uncorrected_resolved += s.uncorrected_resolved;
  }
  const osk::CloudStats& c = cloud->stats();
  std::ostringstream digest;
  digest << std::hex << cloud->placement_digest();
  const auto n = [](std::uint64_t v) { return std::to_string(v); };
  return {
      {"submitted", n(c.submitted)},
      {"accepted", n(c.accepted)},
      {"rejected", n(c.rejected)},
      {"rejected_for_power", n(c.rejected_for_power)},
      {"completed", n(c.completed)},
      {"lost_to_errors", n(c.lost_to_errors)},
      {"lost_to_node_crash", n(c.lost_to_node_crash)},
      {"evacuations", n(c.evacuations)},
      {"migrations", n(c.migrations)},
      {"migrations_started", n(c.migrations_started)},
      {"migrations_cancelled", n(c.migrations_cancelled)},
      {"postcopy_migrations", n(c.postcopy_migrations)},
      {"migration_failures", n(c.migration_failures)},
      {"node_crash_events", n(c.node_crash_events)},
      {"sla_violations", n(c.sla_violations)},
      {"total_energy_kwh", fmt(c.total_energy_kwh, 17)},
      {"migration_energy_kwh", fmt(c.migration_energy_kwh, 17)},
      {"migration_transferred_mb", fmt(c.migration_transferred_mb, 17)},
      {"migration_downtime_s", fmt(c.migration_downtime_s, 17)},
      {"mean_node_availability", fmt(c.mean_node_availability, 17)},
      {"hv_vm_kills", n(hv.vm_kills)},
      {"hv_vm_restores", n(hv.vm_restores)},
      {"hv_fatal_events", n(hv.hv_fatal_events)},
      {"hv_node_crashes", n(hv.node_crashes)},
      {"hv_protection_saves", n(hv.protection_saves)},
      {"hv_uncorrected_seen", n(hv.uncorrected_seen)},
      {"hv_uncorrected_resolved", n(hv.uncorrected_resolved)},
      {"placement_digest", "0x" + digest.str()},
  };
}

TEST(GoldenTraces, CloudFaultBooks) {
  // Pins the cloud's books and placement digest under every fault path
  // of the control plane, one column per setting: a nominal fleet under
  // a rack power cap, a deep CPU undervolt (organic SDCs and crashes),
  // and an undervolted, refresh-relaxed fleet with VM checkpointing on
  // and off. Every setting also takes an injected node crash, rack
  // power loss and EOP retreat. The undervolt column also raises the
  // dirty rate so large guests fall back to post-copy, and widens the
  // hypervisor's CPU share so CPU SDCs reach hypervisor state.
  const auto cap = cloud_fault_books({.rack_cap = Watt{150.0}});
  const auto deep = cloud_fault_books({.undervolt_percent = 15.0,
                                       .hv_cpu_time_share = 0.5,
                                       .dirty_rate = 0.6});
  const FaultSetting relaxed{.undervolt_percent = 11.0,
                             .refresh_s = 5.0,
                             .reliable_domain = false};
  FaultSetting relaxed_ckpt = relaxed;
  relaxed_ckpt.checkpointing = true;
  const auto ckpt_on = cloud_fault_books(relaxed_ckpt);
  const auto ckpt_off = cloud_fault_books(relaxed);

  CsvWriter csv({"metric", "rack_cap", "undervolt", "ckpt_on", "ckpt_off"});
  for (std::size_t i = 0; i < cap.size(); ++i) {
    csv.add_row({cap[i].first, cap[i].second, deep[i].second,
                 ckpt_on[i].second, ckpt_off[i].second});
  }
  expect_matches_golden("cloud_fault_books.csv", csv);
}

std::string hex64(std::uint64_t value) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << value;
  return os.str();
}

TEST(GoldenTraces, FuzzCampaignDigests) {
  // Pins a storm- and request-heavy fuzz campaign: every case's outcome
  // digest (cloud books, placements, per-node hypervisor books, serve
  // books) and the campaign digest folded over them. Rack power losses
  // and EOP retreats put tickets in flight while crashes, departures
  // and SDC deaths cancel them, so the migration control plane's timer
  // handling is inside the pinned behaviour.
  fuzz::CampaignConfig config;
  config.seed = 7;
  config.cases = 16;
  config.scenario.storm_share = 0.2;
  config.scenario.request_share = 0.15;
  const fuzz::CampaignResult result = fuzz::run_campaign(config);

  constexpr std::uint64_t kCaseDigests[] = {
      0x8984c3774886c975ULL, 0xddde6f8cce7173a4ULL, 0x1a957663c0d448a4ULL,
      0x57c4c7a06d75f276ULL, 0x074a90f9f51a48fdULL, 0xc65e6cea5c7a314eULL,
      0x98665e204639b6d1ULL, 0x63af18579764182eULL, 0xd5d4df3e2d829ae4ULL,
      0x0d1a104ad2ee1702ULL, 0xeae8fef451bfd214ULL, 0xc71509256c7f9948ULL,
      0x0e7c795b6d401b30ULL, 0x07a1bb61a80b06d9ULL, 0xdab546d40b3e7ac4ULL,
      0x20b640f90e4dfe14ULL,
  };
  ASSERT_EQ(result.cases.size(), std::size(kCaseDigests));
  std::uint64_t cancelled = 0;
  for (std::size_t i = 0; i < result.cases.size(); ++i) {
    const fuzz::RunOutcome& outcome = result.cases[i].outcome;
    EXPECT_FALSE(outcome.violated()) << "case " << i;
    EXPECT_EQ(hex64(outcome.digest), hex64(kCaseDigests[i])) << "case " << i;
    cancelled += outcome.cloud_stats.migrations_cancelled;
  }
  EXPECT_EQ(hex64(result.digest), "dab48b1dd37fb868");
  // The campaign must cancel tickets, or it pins nothing about
  // cancellation racing a pending timer.
  EXPECT_GT(cancelled, 0u);
}

}  // namespace
}  // namespace uniserver
