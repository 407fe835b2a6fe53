#include "trace/ldbc.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/rng.h"
#include "stress/profiles.h"

namespace uniserver::trace {

LdbcWorkload::LdbcWorkload(std::uint64_t seed) {
  Rng rng(seed);
  phase_a_ = rng.uniform(0.0, 2.0 * std::numbers::pi);
  phase_b_ = rng.uniform(0.0, 2.0 * std::numbers::pi);
}

double LdbcWorkload::wobble(Seconds t) const {
  // Two incommensurate harmonics give a natural-looking, deterministic
  // fluctuation without storing a trace.
  return 0.6 * std::sin(t.value / 97.0 + phase_a_) +
         0.4 * std::sin(t.value / 31.0 + phase_b_);
}

double LdbcWorkload::memory_mb(Seconds t) const {
  const double progress = std::clamp(t.value / kWarmup.value, 0.0, 1.0);
  // Smoothstep ramp: the graph loads fast at first, then the page cache
  // fills asymptotically.
  const double ramp = progress * progress * (3.0 - 2.0 * progress);
  const double plateau =
      kBaseMemoryMb + (kPlateauMemoryMb - kBaseMemoryMb) * ramp;
  return plateau * (1.0 + kFluctuation * wobble(t) * ramp);
}

hw::WorkloadSignature LdbcWorkload::signature() const {
  return stress::ldbc_profile();
}

}  // namespace uniserver::trace
