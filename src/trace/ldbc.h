// Synthetic LDBC Social Network Benchmark trace.
//
// Paper §6.C measures the hypervisor memory footprint while four VMs
// each run the LDBC SNB interactive workload on a graph database
// (Sparksee). The real benchmark is a request mix over a social graph;
// what the footprint experiment consumes is each VM's memory
// time-series: a warm-up ramp while the graph loads, a plateau with
// request-driven fluctuation, and I/O bursts. This generator produces
// that series deterministically from a seed.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "hwmodel/workload_signature.h"

namespace uniserver::trace {

struct LdbcConfig {
  double base_memory_mb{512.0};    ///< guest OS + empty database
  double plateau_memory_mb{6144.0};///< graph fully loaded + page cache
  Seconds warmup{Seconds{600.0}};  ///< graph load / cache warm time
  double fluctuation{0.04};        ///< relative request-driven wobble
};

class LdbcWorkload {
 public:
  LdbcWorkload(const LdbcConfig& config, std::uint64_t seed);

  const LdbcConfig& config() const { return config_; }

  /// VM-resident memory at time t since the VM started (megabytes).
  /// Deterministic ramp/plateau plus seeded per-VM wobble.
  double memory_mb(Seconds t) const;

  /// The electrical signature the margin models see for this workload.
  hw::WorkloadSignature signature() const;

 private:
  /// Smooth deterministic wobble built from seeded harmonics.
  double wobble(Seconds t) const;

  LdbcConfig config_;
  double phase_a_;
  double phase_b_;
};

}  // namespace uniserver::trace
