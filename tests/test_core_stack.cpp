#include <gtest/gtest.h>

#include "core/ecosystem.h"
#include "core/margin_table.h"
#include "core/security.h"
#include "core/uniserver_node.h"
#include "hwmodel/chip_spec.h"
#include "stress/profiles.h"

namespace uniserver::core {
namespace {

using namespace uniserver::literals;

TEST(MarginTableTest, InvalidTableOffersOnlyNominal) {
  MarginTable table;
  EXPECT_FALSE(table.valid());
  const auto candidates =
      table.eop_candidates(Volt{1.0}, MegaHertz{2000.0}, 64_ms);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_DOUBLE_EQ(candidates[0].vdd.value, 1.0);
}

TEST(MarginTableTest, CandidatesIncludeBackoffLevels) {
  MarginTable table;
  daemons::SafeMargins margins;
  margins.points.push_back({MegaHertz{2000.0}, Volt{0.9}, 11.0, 10.0});
  margins.safe_refresh = 1500_ms;
  table.update(margins);
  ASSERT_TRUE(table.valid());
  const auto candidates =
      table.eop_candidates(Volt{1.0}, MegaHertz{2000.0}, 64_ms);
  // nominal + 3 backoff levels.
  ASSERT_EQ(candidates.size(), 4u);
  EXPECT_DOUBLE_EQ(candidates[0].vdd.value, 1.0);
  EXPECT_DOUBLE_EQ(candidates[0].refresh.value, 0.064);
  EXPECT_NEAR(candidates[1].vdd.value, 0.90, 1e-9);   // -10.0%
  EXPECT_NEAR(candidates[2].vdd.value, 0.905, 1e-9);  // -9.5%
  EXPECT_NEAR(candidates[3].vdd.value, 0.91, 1e-9);   // -9.0%
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_DOUBLE_EQ(candidates[i].refresh.value, 1.5);
  }
}

TEST(MarginTableTest, BackoffNeverOvershootsNominal) {
  MarginTable table;
  daemons::SafeMargins margins;
  margins.points.push_back({MegaHertz{2000.0}, Volt{0.997}, 1.3, 0.3});
  table.update(margins);
  for (const auto& eop :
       table.eop_candidates(Volt{1.0}, MegaHertz{2000.0}, 64_ms)) {
    EXPECT_LE(eop.vdd.value, 1.0 + 1e-12);
  }
}

UniServerConfig node_config() {
  UniServerConfig config;
  config.node_spec.chip = hw::arm_soc_spec();
  config.shmoo.runs = 1;
  return config;
}

TEST(UniServerNodeTest, CharacterizeThenDeployUndervolts) {
  UniServerNode node(node_config(), 31);
  EXPECT_FALSE(node.margins().valid());
  const auto& margins = node.characterize();
  EXPECT_TRUE(node.margins().valid());
  EXPECT_GT(margins.points.front().safe_offset_percent, 3.0);
  EXPECT_GT(margins.safe_refresh.value, 0.064);

  const auto advice = node.deploy();
  EXPECT_LT(advice.eop.vdd.value,
            node.server().spec().chip.vdd_nominal.value);
  EXPECT_DOUBLE_EQ(node.server().eop().vdd.value, advice.eop.vdd.value);
  EXPECT_EQ(node.characterization_cycles(), 1);
}

TEST(UniServerNodeTest, MinFreqRatioFiltersLowPowerPoints) {
  UniServerConfig config = node_config();
  config.min_freq_ratio = 1.0;
  UniServerNode node(config, 31);
  node.characterize();
  const auto advice = node.deploy();
  EXPECT_NEAR(advice.eop.freq.value,
              node.server().spec().chip.freq_nominal.value, 1e-9);
}

TEST(UniServerNodeTest, EnergyComparisonShowsSavings) {
  UniServerNode node(node_config(), 31);
  node.characterize();
  node.deploy();
  const auto comparison =
      node.energy_comparison(*stress::spec_profile("bzip2"), 8);
  EXPECT_GT(comparison.power_saving, 0.05);
  EXPECT_GT(comparison.memory_power_saving, 0.0);
  EXPECT_GT(comparison.energy_efficiency_factor, 1.05);
  EXPECT_LT(comparison.eop_power.value, comparison.nominal_power.value);
}

TEST(UniServerNodeTest, DeployNeverDiscardsGuaranteedMargins) {
  // Hot ambient makes the logistic model reject every undervolt
  // candidate; deploy must then fall back to the *shallowest
  // characterized* point (still guard-banded safe) instead of full
  // nominal — the margins are guaranteed by the stress test, not by
  // the model's confidence.
  UniServerConfig config = node_config();
  config.node_spec.ambient = Celsius{45.0};
  config.node_spec.chip.power.ambient = Celsius{45.0};
  UniServerNode node(config, 6107);
  node.characterize();
  const auto advice = node.deploy();
  EXPECT_LT(advice.eop.vdd.value,
            node.server().spec().chip.vdd_nominal.value - 1e-6);
  EXPECT_GT(advice.eop.refresh.value, 0.064);
}

TEST(UniServerNodeTest, WorstCaseTempShortensSafeRefresh) {
  UniServerConfig cool = node_config();
  cool.dram_worst_case_temp = Celsius{30.0};
  UniServerConfig hot = node_config();
  hot.dram_worst_case_temp = Celsius{55.0};
  UniServerNode cool_node(cool, 9);
  UniServerNode hot_node(hot, 9);
  const auto& cool_margins = cool_node.characterize();
  const auto& hot_margins = hot_node.characterize();
  EXPECT_GT(cool_margins.safe_refresh.value,
            hot_margins.safe_refresh.value);
}

TEST(UniServerNodeTest, StepAdvancesTimeAndLogs) {
  UniServerNode node(node_config(), 31);
  node.characterize();
  node.deploy();
  hv::Vm vm;
  vm.id = 1;
  vm.vcpus = 4;
  vm.memory_mb = 4096.0;
  vm.workload = stress::ldbc_profile();
  node.hypervisor().create_vm(vm);
  for (int i = 0; i < 10; ++i) node.step(60_s);
  EXPECT_NEAR(node.now().value, 600.0, 1e-9);
  EXPECT_EQ(node.hypervisor().healthlog().aggregate(Seconds{0.0}).vectors, 10u);
}

TEST(SecurityAnalyzerTest, NominalOperationHasNoThreats) {
  const SecurityAnalyzer analyzer;
  const auto spec = hw::arm_soc_spec();
  const hw::DimmSpec dimm;
  const hw::Eop nominal{spec.vdd_nominal, spec.freq_nominal, 64_ms};
  const auto assessment = analyzer.analyze(spec, dimm, nominal, true);
  EXPECT_TRUE(assessment.threats.empty());
  EXPECT_DOUBLE_EQ(assessment.max_severity(), 0.0);
}

TEST(SecurityAnalyzerTest, DeeperUndervoltRaisesSeverity) {
  const SecurityAnalyzer analyzer;
  const auto spec = hw::arm_soc_spec();
  const hw::DimmSpec dimm;
  const hw::Eop shallow{hw::apply_undervolt_percent(spec.vdd_nominal, 5.0),
                        spec.freq_nominal, 64_ms};
  const hw::Eop deep{hw::apply_undervolt_percent(spec.vdd_nominal, 20.0),
                     spec.freq_nominal, 64_ms};
  const auto a = analyzer.analyze(spec, dimm, shallow, true);
  const auto b = analyzer.analyze(spec, dimm, deep, true);
  EXPECT_GT(b.max_severity(), a.max_severity());
  EXPECT_FALSE(b.threats.empty());
}

TEST(SecurityAnalyzerTest, RefreshRelaxationAddsRetentionThreat) {
  const SecurityAnalyzer analyzer;
  const auto spec = hw::arm_soc_spec();
  const hw::DimmSpec dimm;
  const hw::Eop relaxed{spec.vdd_nominal, spec.freq_nominal, Seconds{1.5}};
  const auto with_domain = analyzer.analyze(spec, dimm, relaxed, true);
  const auto without_domain = analyzer.analyze(spec, dimm, relaxed, false);
  ASSERT_EQ(with_domain.threats.size(), 1u);
  EXPECT_EQ(with_domain.threats[0].kind, ThreatKind::kRetentionAttack);
  // The reliable domain halves the retention-attack severity.
  EXPECT_NEAR(with_domain.threats[0].severity * 2.0,
              without_domain.threats[0].severity, 1e-9);
}

TEST(SecurityAnalyzerTest, ResidualRiskBelowMaxSeverity) {
  const SecurityAnalyzer analyzer;
  const auto spec = hw::arm_soc_spec();
  const hw::DimmSpec dimm;
  const hw::Eop eop{hw::apply_undervolt_percent(spec.vdd_nominal, 15.0),
                    spec.freq_nominal, Seconds{1.5}};
  const auto assessment = analyzer.analyze(spec, dimm, eop, true);
  ASSERT_FALSE(assessment.threats.empty());
  EXPECT_LT(assessment.residual_risk(), assessment.max_severity());
}

EcosystemConfig ecosystem_config(bool enable_eop) {
  EcosystemConfig config;
  config.node_spec.chip = hw::arm_soc_spec();
  config.nodes = 2;
  config.enable_eop = enable_eop;
  config.shmoo.runs = 1;
  config.cloud.tick = 60_s;
  return config;
}

TEST(EcosystemTest, CommissionUndervoltsEveryNode) {
  Ecosystem ecosystem(ecosystem_config(true), 13);
  ecosystem.commission();
  for (osk::ComputeNode* node : ecosystem.cloud().node_ptrs()) {
    EXPECT_LT(node->server().eop().vdd.value,
              node->server().spec().chip.vdd_nominal.value);
    EXPECT_GT(node->server().eop().refresh.value, 0.064);
  }
  const auto summary = ecosystem.summary(stress::web_service_profile());
  EXPECT_GT(summary.mean_undervolt_percent, 5.0);
  EXPECT_GT(summary.fleet_power_saving, 0.05);
}

TEST(EcosystemTest, BaselineFleetStaysNominal) {
  Ecosystem ecosystem(ecosystem_config(false), 13);
  ecosystem.commission();
  for (osk::ComputeNode* node : ecosystem.cloud().node_ptrs()) {
    EXPECT_DOUBLE_EQ(node->server().eop().vdd.value,
                     node->server().spec().chip.vdd_nominal.value);
  }
  const auto summary = ecosystem.summary(stress::web_service_profile());
  EXPECT_NEAR(summary.mean_undervolt_percent, 0.0, 1e-9);
  EXPECT_NEAR(summary.fleet_power_saving, 0.0, 1e-9);
}

TEST(EcosystemTest, RunProcessesTraffic) {
  Ecosystem ecosystem(ecosystem_config(true), 13);
  trace::ArrivalConfig arrivals;
  arrivals.arrivals_per_hour = 8.0;
  trace::VmArrivalStream stream(arrivals, 13);
  const auto requests = stream.generate(Seconds{3600.0});
  ecosystem.run(requests, Seconds{3600.0});
  EXPECT_EQ(ecosystem.cloud().stats().submitted, requests.size());
  EXPECT_GT(ecosystem.cloud().stats().total_energy_kwh, 0.0);
}

}  // namespace
}  // namespace uniserver::core
