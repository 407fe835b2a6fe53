// Deterministic pseudo-random number generation for all stochastic models.
//
// Every model in the ecosystem draws randomness through an explicit Rng
// handle seeded by the caller, so whole-system experiments reproduce
// bit-identically. The generator is xoshiro256++ (Blackman & Vigna),
// seeded through SplitMix64. Rng::fork() derives statistically
// independent substreams so components can be given private streams
// without coordinating counters.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace uniserver {

/// SplitMix64 step; used for seeding and stream derivation.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ with distribution helpers. Copyable value type.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xC0FFEEULL);

  /// Raw 64 random bits.
  std::uint64_t next();

  /// UniformRandomBitGenerator interface (usable with <random> if needed).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

  /// Derives an independent child stream; `salt` distinguishes siblings.
  Rng fork(std::uint64_t salt);

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0 (asserts in debug;
  /// returns 0 without consuming state if n == 0 in release builds).
  std::uint64_t uniform_u64(std::uint64_t n);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);
  /// Standard normal via Box-Muller (cached spare).
  double normal();
  /// Normal with mean/stddev.
  double normal(double mean, double stddev);
  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);
  /// Exponential with rate lambda (> 0).
  double exponential(double lambda);
  /// Poisson with mean lambda (Knuth for small, normal approx for large).
  /// A zero mean draws nothing.
  std::uint64_t poisson(double lambda);
  /// Means at or above this take poisson's normal approximation.
  static constexpr double kPoissonNormalFrom = 30.0;
  /// Knuth's loop, poisson's path for 0 < lambda < kPoissonNormalFrom,
  /// given limit = exp(-lambda): the same draws and the same count.
  std::uint64_t poisson_knuth(double limit);
  /// Binomial(n, p) — exact summation for small n, normal approx otherwise.
  std::uint64_t binomial(std::uint64_t n, double p);
  /// Random index pick from a non-empty weight vector (weights >= 0).
  /// All-zero (or non-finite-total) weights degrade to a uniform pick;
  /// an empty vector throws std::invalid_argument.
  std::size_t weighted_pick(const std::vector<double>& weights);
  /// Fisher-Yates shuffle.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_u64(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_{};
  double spare_{0.0};
  bool has_spare_{false};
};

/// exp(-lambda) for the last Knuth-range mean drawn at, keyed on the
/// mean's bits, for a caller whose Poisson mean rarely changes between
/// draws. draw(rng, lambda) makes the draws and returns the count of
/// rng.poisson(lambda); only a new mean pays for std::exp.
class PoissonLimit {
 public:
  std::uint64_t draw(Rng& rng, double lambda);

 private:
  std::uint64_t lambda_bits_{0};  ///< +0.0, whose limit is exactly 1
  double limit_{1.0};
};

}  // namespace uniserver
