#include "edge/edge.h"

#include <gtest/gtest.h>

namespace uniserver::edge {
namespace {

TEST(LatencyModel, BudgetsFollowRtt) {
  LatencyModel latency;
  EXPECT_NEAR(latency.compute_budget_cloud().millis(), 100.0, 1e-9);
  EXPECT_NEAR(latency.compute_budget_edge().millis(), 195.0, 1e-9);
}

TEST(LatencyModel, PaperExampleHalfBudgetInNetwork) {
  EXPECT_NEAR(
      LatencyModel::kCloudRtt.value / LatencyModel::kTargetLatency.value, 0.5,
      1e-9);
}

TEST(LatencyModel, FreqRatioFromSlack) {
  LatencyModel latency;
  // 100 ms of work may stretch over 195 ms -> ~51% frequency.
  EXPECT_NEAR(latency.allowed_freq_ratio(), 100.0 / 195.0, 1e-9);
}

TEST(LatencyModel, FreqRatioClamps) {
  LatencyModel tight;
  tight.edge_rtt = LatencyModel::kCloudRtt;  // no slack
  EXPECT_DOUBLE_EQ(tight.allowed_freq_ratio(), 1.0);
  LatencyModel impossible;
  impossible.edge_rtt = Seconds::from_ms(250.0);  // over budget
  EXPECT_DOUBLE_EQ(impossible.allowed_freq_ratio(), 1.0);
}

TEST(VfCurveTest, PaperAnchor) {
  // 50% frequency -> 70% voltage ("30% less voltage").
  EXPECT_NEAR(voltage_ratio_for(0.5), 0.7, 1e-9);
  EXPECT_NEAR(voltage_ratio_for(1.0), 1.0, 1e-9);
}

TEST(DvfsSavingsTest, PaperQuote) {
  const DvfsSavings savings = savings_at(0.5, 0.7);
  // "50% less energy and 75% less power".
  EXPECT_NEAR(savings.power_saving(), 0.755, 1e-9);
  EXPECT_NEAR(savings.energy_saving(), 0.51, 1e-9);
}

TEST(DvfsSavingsTest, NominalIsZeroSaving) {
  const DvfsSavings savings = savings_at(1.0, 1.0);
  EXPECT_DOUBLE_EQ(savings.power_saving(), 0.0);
  EXPECT_DOUBLE_EQ(savings.energy_saving(), 0.0);
}

TEST(DvfsSavingsTest, SavingsMonotoneAlongCurve) {
  double prev_power = -1.0;
  double prev_energy = -1.0;
  for (double fr = 1.0; fr >= 0.3; fr -= 0.05) {
    const DvfsSavings savings = savings_at(fr, voltage_ratio_for(fr));
    EXPECT_GT(savings.power_saving(), prev_power);
    EXPECT_GT(savings.energy_saving(), prev_energy);
    prev_power = savings.power_saving();
    prev_energy = savings.energy_saving();
  }
}

TEST(EdgeSavingsTest, DerivedPointNearPaperExample) {
  const DvfsSavings savings = edge_savings(LatencyModel{});
  EXPECT_NEAR(savings.freq_ratio, 0.513, 0.01);
  EXPECT_NEAR(savings.power_saving(), 0.75, 0.03);
  EXPECT_NEAR(savings.energy_saving(), 0.50, 0.03);
}

}  // namespace
}  // namespace uniserver::edge
