#include "ecc/scrubber.h"

#include <cmath>

#include "telemetry/telemetry.h"

namespace uniserver::ecc {

namespace {
struct ScrubMetrics {
  telemetry::Counter& words = telemetry::counter(
      "ecc.scrub.words_scrubbed", "words",
      "SECDED words walked by the scrubber");
  telemetry::Counter& corrected = telemetry::counter(
      "ecc.scrub.corrected", "words",
      "Words rewritten after a correctable decode");
  telemetry::Counter& uncorrectable = telemetry::counter(
      "ecc.scrub.uncorrectable", "words",
      "Words lost to >= 2 flips within one scrub interval");
  telemetry::Counter& silent = telemetry::counter(
      "ecc.scrub.silent_corruptions", "words",
      "Decodes that returned wrong data as clean/corrected");
  telemetry::Histogram& pass_wall_us = telemetry::histogram(
      "ecc.scrub.pass_wall_us", 0.0, 100000.0, 200, "us",
      "Wall-clock latency of one scrub pass over the region");
};

ScrubMetrics& metrics() {
  static ScrubMetrics m;
  return m;
}
}  // namespace

double word_uncorrectable_probability(const ScrubConfig& config) {
  // Flips per bit within a scrub interval are Poisson(lambda * T); a
  // word has 72 independent bits. The word survives if at most one bit
  // flipped. P(bit clean) = exp(-m); with m = lambda * T:
  //   P(0 flips in word) = exp(-72 m)
  //   P(exactly 1 flipped bit) = 72 * (1 - exp(-m)) * exp(-71 m)
  const double m = config.bit_flip_rate_per_s * config.scrub_interval.value;
  if (m <= 0.0) return 0.0;
  const double p0 = std::exp(-72.0 * m);
  const double p1 = 72.0 * (1.0 - std::exp(-m)) * std::exp(-71.0 * m);
  const double p_ok = p0 + p1;
  return p_ok >= 1.0 ? 0.0 : 1.0 - p_ok;
}

ScrubStats simulate_scrubbing(const ScrubConfig& config,
                              std::uint64_t intervals, Rng& rng) {
  ScrubStats stats;
  const double m = config.bit_flip_rate_per_s * config.scrub_interval.value;
  const double p_bit_flipped =
      m <= 0.0 ? 0.0 : 1.0 - std::exp(-m);  // odd # of flips ~ at least one
  for (std::uint64_t interval = 0; interval < intervals; ++interval) {
    telemetry::ScopedTimer pass_timer(metrics().pass_wall_us);
    for (std::uint64_t w = 0; w < config.words; ++w) {
      const std::uint64_t payload = rng.next();
      Codeword72 word = Secded72::encode(payload);
      const std::uint64_t flips =
          rng.binomial(Secded72::kTotalBits, p_bit_flipped);
      // Choose distinct bit positions for the flips.
      std::uint64_t applied = 0;
      std::uint64_t flipped_mask_lo = 0;  // bits 0..63
      std::uint32_t flipped_mask_hi = 0;  // bits 64..71
      while (applied < flips) {
        const int bit = static_cast<int>(rng.uniform_u64(Secded72::kTotalBits));
        const bool seen = bit < 64
                              ? (flipped_mask_lo >> bit) & 1
                              : (flipped_mask_hi >> (bit - 64)) & 1;
        if (seen) continue;
        if (bit < 64) {
          flipped_mask_lo |= 1ULL << bit;
        } else {
          flipped_mask_hi |= 1u << (bit - 64);
        }
        Secded72::flip_bit(word, bit);
        ++applied;
      }
      const DecodeResult result = Secded72::decode(word);
      ++stats.words_scrubbed;
      switch (result.status) {
        case DecodeStatus::kClean:
          if (result.data != payload) ++stats.silent_corruptions;
          break;
        case DecodeStatus::kCorrectedData:
        case DecodeStatus::kCorrectedCheck:
          if (result.status == DecodeStatus::kCorrectedData) {
            ++stats.corrected_data;
          } else {
            ++stats.corrected_check;
          }
          if (result.data != payload) ++stats.silent_corruptions;
          break;
        case DecodeStatus::kUncorrectable:
          ++stats.uncorrectable;
          break;
      }
    }
  }
  metrics().words.add(stats.words_scrubbed);
  metrics().corrected.add(stats.corrected());
  metrics().uncorrectable.add(stats.uncorrectable);
  metrics().silent.add(stats.silent_corruptions);
  return stats;
}

}  // namespace uniserver::ecc
