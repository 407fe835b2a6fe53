#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/stats.h"

namespace uniserver {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int identical = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++identical;
  }
  EXPECT_LT(identical, 3);
}

TEST(Rng, ZeroSeedStillWorks) {
  Rng rng(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng.next());
  EXPECT_GT(seen.size(), 95u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.fork(1);
  Rng parent2(7);
  Rng child2 = parent2.fork(1);
  // Deterministic: same parent + salt -> same child stream.
  for (int i = 0; i < 100; ++i) ASSERT_EQ(child.next(), child2.next());
  // Different salts -> different streams.
  Rng parent3(7);
  Rng other = parent3.fork(2);
  int identical = 0;
  Rng parent4(7);
  Rng child3 = parent4.fork(1);
  for (int i = 0; i < 100; ++i) {
    if (other.next() == child3.next()) ++identical;
  }
  EXPECT_LT(identical, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    ASSERT_GE(u, -2.5);
    ASSERT_LT(u, 7.5);
  }
}

class RngBoundedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundedTest, Uniform64StaysBelowBound) {
  const std::uint64_t n = GetParam();
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.uniform_u64(n);
    ASSERT_LT(v, n);
    seen.insert(v);
  }
  // Small bounds should be fully covered.
  if (n <= 16) {
    EXPECT_EQ(seen.size(), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundedTest,
                         ::testing::Values(1, 2, 3, 7, 16, 100, 12345,
                                           1ULL << 40));

TEST(Rng, Uniform64ZeroBoundIsDefined) {
  // Regression: n == 0 used to reach Lemire's `-n % n` (division by
  // zero) in release builds. It must now return 0 without consuming
  // generator state, so downstream streams stay replayable.
  Rng rng(5);
  Rng twin(5);
  EXPECT_EQ(rng.uniform_u64(0), 0u);
  EXPECT_EQ(rng.next(), twin.next());
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(6);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(8);
  int hits = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(acc.mean(), 5.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMoments) {
  Rng rng(10);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(rng.exponential(2.0));
  EXPECT_NEAR(acc.mean(), 0.5, 0.02);
  for (int i = 0; i < 1000; ++i) ASSERT_GE(rng.exponential(2.0), 0.0);
}

TEST(Rng, LognormalMedian) {
  Rng rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(rng.lognormal(1.0, 0.5));
  EXPECT_NEAR(median(samples), std::exp(1.0), 0.1);
}

class PoissonTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonTest, MeanAndVarianceMatchLambda) {
  const double lambda = GetParam();
  Rng rng(13);
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) {
    acc.add(static_cast<double>(rng.poisson(lambda)));
  }
  EXPECT_NEAR(acc.mean(), lambda, std::max(0.05, lambda * 0.05));
  EXPECT_NEAR(acc.variance(), lambda, std::max(0.2, lambda * 0.1));
}

INSTANTIATE_TEST_SUITE_P(Lambdas, PoissonTest,
                         ::testing::Values(0.1, 1.0, 5.0, 29.0, 100.0));

TEST(Rng, PoissonZeroLambda) {
  Rng rng(14);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

/// The two generators hold the same state: the same next raw draw and
/// the same Box-Muller spare.
void expect_same_state(Rng a, Rng b) {
  EXPECT_EQ(a.normal(), b.normal());
  EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, PoissonLimitFormsMatchPoisson) {
  // Tiny means, the Knuth range up to its last double below 30, the
  // normal approximation from 30 on; 0.5 recurs, so the memo both keeps
  // and replaces its limit.
  const std::vector<double> grid = {
      1e-300, 1e-12, 1e-6, 0.01, 0.5, 1.0, 7.3, 0.5, 29.0, 29.999,
      std::nextafter(Rng::kPoissonNormalFrom, 0.0), 30.0, 31.5, 100.0, 0.5};
  Rng plain(21);
  Rng knuth = plain;
  Rng memo = plain;
  PoissonLimit limit;
  std::uint64_t nonzero = 0;
  for (const double lambda : grid) {
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t want = plain.poisson(lambda);
      if (lambda < Rng::kPoissonNormalFrom) {
        EXPECT_EQ(knuth.poisson_knuth(std::exp(-lambda)), want) << lambda;
      } else {
        EXPECT_EQ(knuth.poisson(lambda), want) << lambda;
      }
      EXPECT_EQ(limit.draw(memo, lambda), want) << lambda;
      nonzero += want > 0 ? 1 : 0;
      expect_same_state(knuth, plain);
      expect_same_state(memo, plain);
      ASSERT_FALSE(HasFailure()) << "lambda " << lambda << " draw " << i;
    }
  }
  EXPECT_GT(nonzero, 1000u);
}

TEST(Rng, PoissonZeroMeanConsumesNoState) {
  Rng rng(14);
  PoissonLimit limit;
  for (const double lambda : {0.0, -0.0, 3.0, 0.0}) {
    const Rng before = rng;
    if (lambda == 0.0) {
      EXPECT_EQ(rng.poisson(lambda), 0u);
      expect_same_state(rng, before);
      EXPECT_EQ(limit.draw(rng, lambda), 0u);
      expect_same_state(rng, before);
    } else {
      // A non-zero mean between the zero draws fills the memo.
      limit.draw(rng, lambda);
    }
  }
}

class BinomialTest
    : public ::testing::TestWithParam<std::pair<std::uint64_t, double>> {};

TEST_P(BinomialTest, MeanMatchesNp) {
  const auto [n, p] = GetParam();
  Rng rng(15);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.binomial(n, p);
    ASSERT_LE(k, n);
    acc.add(static_cast<double>(k));
  }
  const double mean = static_cast<double>(n) * p;
  EXPECT_NEAR(acc.mean(), mean, std::max(0.05, mean * 0.05));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BinomialTest,
    ::testing::Values(std::pair<std::uint64_t, double>{10, 0.5},
                      std::pair<std::uint64_t, double>{64, 0.1},
                      std::pair<std::uint64_t, double>{1000, 0.001},
                      std::pair<std::uint64_t, double>{100000, 0.3},
                      std::pair<std::uint64_t, double>{1ULL << 36, 1e-9}));

TEST(Rng, BinomialEdgeCases) {
  Rng rng(16);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
}

TEST(Rng, WeightedPickDistribution) {
  Rng rng(17);
  std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    ++counts[rng.weighted_pick(weights)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kTrials), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kTrials), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(kTrials), 0.6, 0.01);
}

TEST(Rng, WeightedPickAllZeroFallsBackToUniform) {
  Rng rng(18);
  std::vector<double> weights{0.0, 0.0, 0.0};
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.weighted_pick(weights));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, WeightedPickEmptyThrows) {
  // Regression: an empty vector used to fall through to uniform_u64(0),
  // which was undefined; there is no index to return, so it must throw.
  Rng rng(21);
  EXPECT_THROW(rng.weighted_pick({}), std::invalid_argument);
}

TEST(Rng, WeightedPickNonFiniteTotalFallsBackToUniform) {
  Rng rng(22);
  const std::vector<double> weights{1.0,
                                    std::numeric_limits<double>::quiet_NaN(),
                                    2.0};
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::size_t pick = rng.weighted_pick(weights);
    ASSERT_LT(pick, weights.size());
    seen.insert(pick);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<int> original = v;
  rng.shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), original.begin()));
}

TEST(Rng, ShuffleMixes) {
  Rng rng(20);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = i;
  const std::vector<int> original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);
}

}  // namespace
}  // namespace uniserver
