// Memory-scrubbing model over SECDED-protected words.
//
// Supports the paper's §6.B claim that classical ECC-SECDED can absorb
// raw bit error rates up to ~1e-6: a scrubber walks memory periodically,
// rewriting correctable words; a word is lost only if it accumulates two
// or more flips within one scrub interval. Both a closed-form estimate
// and a Monte-Carlo simulation (which exercises the real codec) are
// provided.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/units.h"
#include "ecc/secded.h"

namespace uniserver::ecc {

/// Parameters of a scrubbing configuration.
struct ScrubConfig {
  std::uint64_t words{1};            ///< number of protected 72-bit words
  double bit_flip_rate_per_s{0.0};   ///< Poisson flip rate per bit
  Seconds scrub_interval{Seconds{1.0}};
};

/// Counters from one scrub pass or simulation.
struct ScrubStats {
  std::uint64_t words_scrubbed{0};
  std::uint64_t corrected_data{0};
  std::uint64_t corrected_check{0};
  std::uint64_t uncorrectable{0};
  std::uint64_t silent_corruptions{0};  ///< decode "clean"/corrected to wrong data

  std::uint64_t corrected() const { return corrected_data + corrected_check; }
};

/// Closed-form probability that a single word suffers an uncorrectable
/// (>= 2 flips) event within one scrub interval.
double word_uncorrectable_probability(const ScrubConfig& config);

/// Monte-Carlo simulation of `intervals` scrub periods using the real
/// Secded72 codec: flips are drawn per word, decode is run, and a word
/// that decodes correctable is rewritten (flips cleared).
ScrubStats simulate_scrubbing(const ScrubConfig& config,
                              std::uint64_t intervals, Rng& rng);

}  // namespace uniserver::ecc
