// StressLog daemon (paper §3.D).
//
// Offline, on-demand stress testing: the machine is taken out of
// rotation, a workload suite (benchmarks + hand-coded stress kernels)
// is run through the shmoo protocol at each candidate frequency, the
// DRAM refresh interval is swept, and the output is a vector of new
// safe V-F-R margins handed to the higher layers, with the count of
// correctable events the cycle provoked.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "hwmodel/platform.h"
#include "stress/shmoo.h"

namespace uniserver::daemons {

/// "Input stress target parameters from the higher system layers."
struct StressTargetParams {
  std::vector<hw::WorkloadSignature> suite;
  /// Guard band subtracted from the observed crash offset (percent).
  double guard_percent{1.0};
  /// Candidate frequencies to characterize (empty: nominal only).
  std::vector<MegaHertz> freqs;
  /// Candidate refresh intervals, ascending.
  std::vector<Seconds> refresh_candidates;
  /// Accept a refresh interval only if the expected resident weak
  /// cells across the node stay below this (absorbed by the reliable
  /// domain / guest-level tolerance).
  double max_expected_dram_errors{2.0};
  /// Temperature the DRAM margin must hold at (DIMM sensor reading in
  /// an air-conditioned machine room, with headroom).
  Celsius dram_worst_case_temp{Celsius{30.0}};
};

/// "Output vector containing the new safe system V-F-R margins."
struct SafeMargins {
  struct FreqPoint {
    MegaHertz freq{MegaHertz{0.0}};
    Volt safe_vdd{Volt{0.0}};
    double crash_offset_percent{0.0};  ///< observed first-core crash
    double safe_offset_percent{0.0};   ///< crash minus guard band
  };
  std::vector<FreqPoint> points;
  Seconds safe_refresh{Seconds::from_ms(64.0)};
  Seconds characterized_at{Seconds{0.0}};
  std::uint64_t ecc_events_observed{0};

  /// The point characterized for `freq` (nearest match).
  const FreqPoint& point_for(MegaHertz freq) const;
};

class StressLog {
 public:
  StressLog(stress::ShmooConfig shmoo, std::uint64_t seed);

  /// Runs one full offline stress cycle on the node. The correctable
  /// events the sweep provokes are counted in the returned margins; they
  /// describe the sweep, not deployed operation, so no HealthLog sees
  /// them (they would trip its re-characterization threshold and feed
  /// the cloud's failure predictor).
  SafeMargins run_cycle(const hw::ServerNode& node,
                        const StressTargetParams& params, Seconds now);

  /// Picks the longest candidate refresh interval whose expected decay
  /// errors per pass stay under the budget at the worst-case temp.
  static Seconds safe_refresh_interval(const hw::ServerNode& node,
                                       const StressTargetParams& params);

  /// Number of cycles run so far (a real deployment would log these).
  int cycles() const { return cycles_; }

 private:
  stress::ShmooCharacterizer characterizer_;
  Rng rng_;
  int cycles_{0};
};

/// Default stress parameters: the SPEC suite plus the built-in viruses,
/// frequency ladder {100%, 85%, 70%, 50%} of nominal, refresh ladder
/// 64 ms .. 5 s.
StressTargetParams default_stress_params(const hw::ServerNode& node);

}  // namespace uniserver::daemons
