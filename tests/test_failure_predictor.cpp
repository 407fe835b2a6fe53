#include "openstack/failure_predictor.h"

#include <gtest/gtest.h>

namespace uniserver::osk {
namespace {

daemons::ErrorEvent event_at(double t, daemons::Severity severity) {
  return daemons::ErrorEvent{Seconds{t}, daemons::Component::kDram, severity,
                             0};
}

// Nodes are fleet slots; a slot outside the sized fleet has no history.
constexpr std::size_t kGhost = 7;

TEST(LogFailurePredictor, UnknownNodeHasZeroRisk) {
  LogFailurePredictor predictor;
  predictor.resize(3);
  EXPECT_DOUBLE_EQ(predictor.score(kGhost, Seconds{100.0}), 0.0);
  EXPECT_DOUBLE_EQ(predictor.risk(kGhost, Seconds{100.0}), 0.0);
  EXPECT_FALSE(predictor.should_evacuate(kGhost, Seconds{100.0}));
  // A slot inside the fleet that never logged anything is unknown too.
  EXPECT_DOUBLE_EQ(predictor.score(2, Seconds{100.0}), 0.0);
  EXPECT_DOUBLE_EQ(predictor.risk(2, Seconds{100.0}), 0.0);
  EXPECT_FALSE(predictor.should_evacuate(2, Seconds{100.0}));
}

TEST(LogFailurePredictor, SeverityWeighting) {
  LogFailurePredictor predictor;
  predictor.resize(3);
  predictor.observe(0, event_at(0.0, daemons::Severity::kCorrectable));
  predictor.observe(1, event_at(0.0, daemons::Severity::kUncorrectable));
  predictor.observe(2, event_at(0.0, daemons::Severity::kCrash));
  EXPECT_NEAR(predictor.score(0, Seconds{0.0}),
              LogFailurePredictor::kWeightCorrectable, 1e-9);
  EXPECT_NEAR(predictor.score(1, Seconds{0.0}),
              LogFailurePredictor::kWeightUncorrectable, 1e-9);
  EXPECT_NEAR(predictor.score(2, Seconds{0.0}),
              LogFailurePredictor::kWeightCrash, 1e-9);
}

TEST(LogFailurePredictor, ScoreDecaysWithHalfLife) {
  const double half_life = LogFailurePredictor::kHalfLife.value;
  LogFailurePredictor predictor;
  predictor.resize(3);
  predictor.observe(0, event_at(0.0, daemons::Severity::kCrash));
  const double initial = predictor.score(0, Seconds{0.0});
  EXPECT_NEAR(predictor.score(0, Seconds{half_life}), initial / 2.0, 1e-9);
  EXPECT_NEAR(predictor.score(0, Seconds{3.0 * half_life}), initial / 8.0,
              1e-9);
}

TEST(LogFailurePredictor, AccumulatesAcrossEvents) {
  // Every event shares one stamp and the query is at that stamp, so
  // nothing decays.
  LogFailurePredictor predictor;
  predictor.resize(3);
  for (int i = 0; i < 10; ++i) {
    predictor.observe(0, event_at(10.0, daemons::Severity::kUncorrectable));
  }
  EXPECT_DOUBLE_EQ(predictor.score(0, Seconds{10.0}),
                   10.0 * LogFailurePredictor::kWeightUncorrectable);
}

TEST(LogFailurePredictor, EvacuationThreshold) {
  LogFailurePredictor::Config config;
  config.evacuation_score = 50.0;
  LogFailurePredictor predictor(config);
  predictor.resize(3);
  predictor.observe(0, event_at(0.0, daemons::Severity::kUncorrectable));
  EXPECT_FALSE(predictor.should_evacuate(0, Seconds{0.0}));
  predictor.observe(0, event_at(1.0, daemons::Severity::kUncorrectable));
  predictor.observe(0, event_at(2.0, daemons::Severity::kUncorrectable));
  EXPECT_TRUE(predictor.should_evacuate(0, Seconds{2.0}));
}

TEST(LogFailurePredictor, RiskIsBoundedAndMonotone) {
  LogFailurePredictor predictor;
  predictor.resize(3);
  double previous = 0.0;
  for (int i = 0; i < 50; ++i) {
    predictor.observe(0, event_at(0.0, daemons::Severity::kCrash));
    const double risk = predictor.risk(0, Seconds{0.0});
    EXPECT_GE(risk, previous);
    EXPECT_LE(risk, 1.0);
    previous = risk;
  }
  EXPECT_GT(previous, 0.9);
}

TEST(LogFailurePredictor, ResetForgetsHistory) {
  LogFailurePredictor predictor;
  predictor.resize(3);
  predictor.observe(0, event_at(0.0, daemons::Severity::kCrash));
  ASSERT_GT(predictor.score(0, Seconds{0.0}), 0.0);
  predictor.reset(0);
  EXPECT_DOUBLE_EQ(predictor.score(0, Seconds{0.0}), 0.0);
}

TEST(LogFailurePredictor, NodesAreIndependent) {
  LogFailurePredictor predictor;
  predictor.resize(3);
  predictor.observe(0, event_at(0.0, daemons::Severity::kCrash));
  EXPECT_DOUBLE_EQ(predictor.score(1, Seconds{0.0}), 0.0);
}

}  // namespace
}  // namespace uniserver::osk
