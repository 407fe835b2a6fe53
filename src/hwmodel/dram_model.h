// DRAM retention and refresh model.
//
// Reproduces the paper's §6.B experiment: the JEDEC 64 ms refresh
// interval is wildly conservative — random-pattern tests on 8 GB DDR3
// DIMMs showed no errors up to 1.5 s, and a cumulative BER of ~1e-9 even
// at 5 s (78x the nominal interval), within commercial DRAM targets and
// far below what ECC-SECDED can absorb (~1e-6, ArchShield [27]).
//
// Cell retention times follow a lognormal tail (the standard fit to the
// retention studies of Liu et al. [32]); retention roughly halves per
// +10 C. Refresh power is 9% of DIMM power at 2 Gb density, growing to
// >34% at 32 Gb (RAIDR [26]); relaxing the interval scales it away.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace uniserver::hw {

struct DimmSpec {
  std::string name{"DDR3-8GB"};
  /// Total bits (8 GB => 2^36 bits).
  std::uint64_t capacity_bits{1ULL << 36};
  /// Per-chip density in Gbit; drives the refresh-power fraction.
  double density_gbit{2.0};
  Seconds nominal_refresh{Seconds::from_ms(64.0)};
  /// Lognormal retention-time parameters at 25 C (seconds).
  /// Calibrated so that P(retention < 1.5 s) ~ 1e-12 (no errors in an
  /// 8 GB DIMM) and P(retention < 5 s) ~ 1e-9.
  double retention_log_mu{8.65};
  double retention_log_sigma{1.162};
  /// Retention halves every this many degrees above 25 C.
  double temp_halving_c{10.0};
  /// Per-DIMM lognormal spread of the retention scale (part variation).
  double dimm_scale_sigma{0.08};
  /// Non-refresh DIMM power at nominal conditions.
  Watt background_power{Watt{2.5}};
  /// Runtime impact model: a cell whose retention is below the refresh
  /// interval holds corrupt data essentially permanently; what matters
  /// is how often running software *consumes* such a location. This is
  /// the per-second consumption probability of one resident weak cell.
  double weak_cell_consume_rate_per_s{2e-4};
  /// ECC DIMM: SECDED over 72-bit words. A consumed weak cell is then
  /// corrected unless a second weak cell shares its word. The paper's
  /// characterization ran with ECC disabled; ArchShield [27] quotes
  /// SECDED as good to raw error rates of ~1e-6.
  bool ecc{false};
};

/// One DIMM with sampled part-specific retention scaling.
class DimmModel {
 public:
  DimmModel(const DimmSpec& spec, std::uint64_t seed);

  const DimmSpec& spec() const { return spec_; }

  /// Probability that one cell's data decays within `refresh_interval`
  /// at temperature `temp` (the per-bit error probability / BER).
  double bit_error_probability(Seconds refresh_interval, Celsius temp) const;

  /// Expected decayed cells across the whole DIMM per refresh pass.
  double expected_errors(Seconds refresh_interval, Celsius temp) const;

  /// Samples the number of decayed cells over one test pass.
  std::uint64_t sample_errors(Seconds refresh_interval, Celsius temp,
                              Rng& rng) const;

  /// Fraction of DIMM power spent on refresh at the *nominal* interval,
  /// as a function of density (RAIDR-calibrated: 9% @2 Gb, 34% @32 Gb).
  double refresh_power_fraction_nominal() const;

  /// DIMM power at the given refresh interval (refresh energy scales
  /// with refresh frequency, i.e. inversely with the interval).
  Watt power(Seconds refresh_interval) const;

  /// Power saved vs. nominal refresh, as a fraction of nominal power.
  double power_saving_fraction(Seconds refresh_interval) const;

  /// With ECC: probability that a consumed weak-cell corruption is
  /// uncorrectable, i.e. that another weak cell shares its 72-bit word
  /// (birthday bound W * 71 / N, clamped to [0, 1]). Callers must also
  /// check spec().ecc — without ECC every event is uncorrectable.
  double uncorrectable_fraction(Seconds refresh_interval,
                                Celsius temp) const;

 private:
  DimmSpec spec_;
  double retention_scale_;  ///< part-specific multiplier on retention
};

/// Density -> nominal-refresh power fraction (exposed for the bench).
double refresh_power_fraction_for_density(double density_gbit);

/// A channel-partitioned memory system whose refresh interval can be set
/// per channel — this is the paper's "memory domains" instrument that
/// lets critical kernel data live at nominal refresh while the rest of
/// memory relaxes.
class MemorySystem {
 public:
  MemorySystem(const DimmSpec& spec, int channels, int dimms_per_channel,
               std::uint64_t seed);

  int channels() const { return static_cast<int>(channels_.size()); }
  std::uint64_t total_bits() const;
  std::uint64_t channel_bits(int channel) const;

  void set_channel_refresh(int channel, Seconds interval);
  Seconds channel_refresh(int channel) const;

  /// Expected resident weak cells (retention below the channel's
  /// refresh interval) on a channel at `temp` — the paper's
  /// "cumulative" error count for one test pass.
  double expected_weak_cells(int channel, Celsius temp) const;

  /// Rate of *consumed* weak-cell corruptions per second on a channel:
  /// weak cells times the per-cell consumption rate. This is the error
  /// event stream a running system observes.
  double error_rate_per_s(int channel, Celsius temp) const;

  /// Samples consumed-corruption events on a channel over a window.
  std::uint64_t sample_errors(int channel, Seconds window, Celsius temp,
                              Rng& rng) const;

  /// Like sample_errors, but splits events into ECC-corrected (masked
  /// in hardware) and uncorrectable (reach software). Without ECC every
  /// event is uncorrectable. Non-const: it memoizes the channel's
  /// error_rate_per_s and uncorrectable_fraction at the last temperature
  /// (bitwise), and set_channel_refresh drops that memo; the channel's
  /// event draw keeps its Poisson limit for the last mean (bitwise).
  struct ErrorSplit {
    std::uint64_t corrected{0};
    std::uint64_t uncorrectable{0};
  };
  ErrorSplit sample_error_split(int channel, Seconds window, Celsius temp,
                                Rng& rng);

  /// Total memory power at the current per-channel refresh settings,
  /// kept as a member: dimm_power_sum() is re-run only when a channel's
  /// refresh interval changes (the constructor and set_channel_refresh).
  Watt power() const { return power_; }

  /// Sum of the per-DIMM powers at the current refresh settings,
  /// evaluated on every call (the reference power() caches).
  Watt dimm_power_sum() const;

  /// Power at all-nominal refresh (baseline for savings).
  Watt nominal_power() const;

  const DimmModel& dimm(int channel, int index) const;

 private:
  /// A channel's refresh interval and sample_error_split's memo.
  struct Channel {
    Seconds refresh;
    std::optional<std::uint64_t> memo_temp_bits;  ///< empty: no memo
    double memo_rate_per_s{0.0};
    double memo_uncorrectable{0.0};
    /// exp(-mean) of the last event draw; a function of the mean alone,
    /// so a refresh change leaves it valid.
    PoissonLimit poisson;
  };
  std::vector<std::vector<DimmModel>> per_channel_;
  std::vector<Channel> channels_;
  Watt power_{Watt{0.0}};
};

}  // namespace uniserver::hw
