#include "common/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace uniserver {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // Avoid the all-zero state (xoshiro fixpoint).
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::fork(std::uint64_t salt) {
  std::uint64_t mix = next() ^ (salt * 0x9E3779B97F4A7C15ULL);
  return Rng{mix};
}

double Rng::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_u64(std::uint64_t n) {
  // `-n % n` with n == 0 below would be a division by zero, so degrade
  // to the only representable value instead (no state is consumed,
  // keeping streams replayable).
  if (n == 0) return 0;
  // Lemire's nearly-divisionless bounded generation with rejection.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_u64(span));
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  spare_ = r * std::sin(theta);
  has_spare_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double lambda) {
  assert(lambda > 0.0);
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

std::uint64_t Rng::poisson(double lambda) {
  assert(lambda >= 0.0);
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    const double limit = std::exp(-lambda);
    double prod = uniform();
    std::uint64_t n = 0;
    while (prod > limit) {
      prod *= uniform();
      ++n;
    }
    return n;
  }
  // Normal approximation with continuity correction for large lambda.
  const double draw = normal(lambda, std::sqrt(lambda));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  if (p <= 0.0 || n == 0) return 0;
  if (p >= 1.0) return n;
  if (n <= 64) {
    std::uint64_t k = 0;
    for (std::uint64_t i = 0; i < n; ++i) k += bernoulli(p) ? 1 : 0;
    return k;
  }
  const double mean = static_cast<double>(n) * p;
  if (mean < 25.0) {
    // Poisson approximation for rare events over many trials.
    const std::uint64_t k = poisson(mean);
    return k > n ? n : k;
  }
  const double sd = std::sqrt(mean * (1.0 - p));
  const double draw = normal(mean, sd);
  if (draw <= 0.0) return 0;
  const auto k = static_cast<std::uint64_t>(draw + 0.5);
  return k > n ? n : k;
}

std::size_t Rng::weighted_pick(const std::vector<double>& weights) {
  if (weights.empty()) {
    throw std::invalid_argument("Rng::weighted_pick: empty weight vector");
  }
  double total = 0.0;
  for (double w : weights) total += w;
  // All-zero (or degenerate) weights: every index is equally (un)likely,
  // so fall back to a uniform pick rather than biasing toward the tail.
  if (!(total > 0.0) || !std::isfinite(total)) {
    return uniform_u64(weights.size());
  }
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace uniserver
