#include "ecc/scrubber.h"

#include <gtest/gtest.h>

namespace uniserver::ecc {
namespace {

TEST(Scrubber, ZeroRateIsPerfectlySafe) {
  ScrubConfig config;
  config.words = 1000;
  config.bit_flip_rate_per_s = 0.0;
  config.scrub_interval = Seconds{10.0};
  EXPECT_DOUBLE_EQ(word_uncorrectable_probability(config), 0.0);
}

TEST(Scrubber, ProbabilityMonotoneInRate) {
  ScrubConfig low;
  low.bit_flip_rate_per_s = 1e-8;
  low.scrub_interval = Seconds{1.0};
  ScrubConfig high = low;
  high.bit_flip_rate_per_s = 1e-4;
  EXPECT_LT(word_uncorrectable_probability(low),
            word_uncorrectable_probability(high));
}

TEST(Scrubber, ProbabilityMonotoneInInterval) {
  ScrubConfig fast;
  fast.bit_flip_rate_per_s = 1e-5;
  fast.scrub_interval = Seconds{1.0};
  ScrubConfig slow = fast;
  slow.scrub_interval = Seconds{100.0};
  EXPECT_LT(word_uncorrectable_probability(fast),
            word_uncorrectable_probability(slow));
}

TEST(Scrubber, SmallRateMatchesQuadraticApproximation) {
  // For m = rate * T << 1: P(>=2 flips) ~ C(72,2) m^2.
  ScrubConfig config;
  config.bit_flip_rate_per_s = 1e-6;
  config.scrub_interval = Seconds{1.0};
  const double m = 1e-6;
  const double approx = 72.0 * 71.0 / 2.0 * m * m;
  EXPECT_NEAR(word_uncorrectable_probability(config) / approx, 1.0, 0.01);
}

TEST(Scrubber, SimulationAgreesWithAnalyticEstimate) {
  ScrubConfig config;
  config.words = 2000;
  config.bit_flip_rate_per_s = 2e-4;  // m = 2e-3 per bit per interval
  config.scrub_interval = Seconds{10.0};
  Rng rng(33);
  const ScrubStats stats = simulate_scrubbing(config, 50, rng);
  EXPECT_EQ(stats.words_scrubbed, 100000u);
  const double expected_uncorrectable =
      word_uncorrectable_probability(config) *
      static_cast<double>(stats.words_scrubbed);
  EXPECT_NEAR(static_cast<double>(stats.uncorrectable),
              expected_uncorrectable, expected_uncorrectable * 0.35 + 5.0);
  // Single-flip corrections dominate: expected ~ 72 * m * words.
  const double expected_corrected =
      72.0 * 2e-3 * static_cast<double>(stats.words_scrubbed);
  EXPECT_NEAR(static_cast<double>(stats.corrected()), expected_corrected,
              expected_corrected * 0.15);
  // Triple flips can alias to a bogus single-bit "correction"; their
  // expected count is C(72,3) * m^3 per word.
  const double m = 2e-3;
  const double triple_rate = 72.0 * 71.0 * 70.0 / 6.0 * m * m * m;
  const double expected_triples =
      triple_rate * static_cast<double>(stats.words_scrubbed);
  EXPECT_LT(static_cast<double>(stats.silent_corruptions),
            3.0 * expected_triples + 10.0);
}

TEST(Scrubber, CleanSimulationSeesNoEvents) {
  ScrubConfig config;
  config.words = 100;
  config.bit_flip_rate_per_s = 0.0;
  Rng rng(1);
  const ScrubStats stats = simulate_scrubbing(config, 10, rng);
  EXPECT_EQ(stats.corrected(), 0u);
  EXPECT_EQ(stats.uncorrectable, 0u);
  EXPECT_EQ(stats.silent_corruptions, 0u);
}

}  // namespace
}  // namespace uniserver::ecc
