#include "hwmodel/dram_model.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace uniserver::hw {

namespace {
/// Standard normal CDF.
double phi(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }
}  // namespace

DimmModel::DimmModel(const DimmSpec& spec, std::uint64_t seed) : spec_(spec) {
  Rng rng(seed);
  retention_scale_ = rng.lognormal(0.0, spec.dimm_scale_sigma);
}

double DimmModel::bit_error_probability(Seconds refresh_interval,
                                        Celsius temp) const {
  if (refresh_interval.value <= 0.0) return 0.0;
  // Retention halves every temp_halving_c above 25 C, so an interval t
  // at temperature T stresses cells like t * 2^((T-25)/halving) at 25 C.
  const double accel = std::exp2((temp.value - 25.0) / spec_.temp_halving_c);
  const double effective_t = refresh_interval.value * accel;
  const double mu_part = spec_.retention_log_mu + std::log(retention_scale_);
  const double z =
      (std::log(effective_t) - mu_part) / spec_.retention_log_sigma;
  return phi(z);
}

double DimmModel::expected_errors(Seconds refresh_interval,
                                  Celsius temp) const {
  return static_cast<double>(spec_.capacity_bits) *
         bit_error_probability(refresh_interval, temp);
}

std::uint64_t DimmModel::sample_errors(Seconds refresh_interval, Celsius temp,
                                       Rng& rng) const {
  const double p = bit_error_probability(refresh_interval, temp);
  return rng.binomial(spec_.capacity_bits, p);
}

double refresh_power_fraction_for_density(double density_gbit) {
  // RAIDR [26]: ~9% of DIMM power at 2 Gb, >34% at 32 Gb; linear in
  // log2(density) between those anchors and extrapolated outside.
  const double lg = std::log2(std::max(0.5, density_gbit) / 2.0);
  const double fraction = 0.09 + 0.0625 * lg;
  return std::clamp(fraction, 0.01, 0.60);
}

double DimmModel::refresh_power_fraction_nominal() const {
  return refresh_power_fraction_for_density(spec_.density_gbit);
}

Watt DimmModel::power(Seconds refresh_interval) const {
  const double f = refresh_power_fraction_nominal();
  // background = (1 - f) share, refresh = f share at nominal interval.
  const Watt nominal_total{spec_.background_power.value / (1.0 - f)};
  const Watt refresh_nominal = nominal_total * f;
  const double interval_ratio =
      refresh_interval.value <= 0.0
          ? 1.0
          : spec_.nominal_refresh.value / refresh_interval.value;
  return spec_.background_power + refresh_nominal * std::min(1.5, interval_ratio);
}

double DimmModel::power_saving_fraction(Seconds refresh_interval) const {
  const Watt nominal = power(spec_.nominal_refresh);
  const Watt now = power(refresh_interval);
  return (nominal.value - now.value) / nominal.value;
}

double DimmModel::uncorrectable_fraction(Seconds refresh_interval,
                                         Celsius temp) const {
  const double weak = expected_errors(refresh_interval, temp);
  if (weak <= 1.0) return 0.0;
  const double fraction =
      (weak - 1.0) * 71.0 / static_cast<double>(spec_.capacity_bits);
  return std::clamp(fraction, 0.0, 1.0);
}

MemorySystem::MemorySystem(const DimmSpec& spec, int channels,
                           int dimms_per_channel, std::uint64_t seed) {
  assert(channels > 0 && dimms_per_channel > 0);
  Rng rng(seed);
  per_channel_.resize(static_cast<std::size_t>(channels));
  for (auto& channel : per_channel_) {
    for (int d = 0; d < dimms_per_channel; ++d) {
      channel.emplace_back(spec, rng.next());
    }
  }
  channels_.resize(static_cast<std::size_t>(channels));
  for (Channel& channel : channels_) channel.refresh = spec.nominal_refresh;
  power_ = dimm_power_sum();
}

std::uint64_t MemorySystem::total_bits() const {
  std::uint64_t bits = 0;
  for (const auto& channel : per_channel_) {
    for (const auto& dimm : channel) bits += dimm.spec().capacity_bits;
  }
  return bits;
}

std::uint64_t MemorySystem::channel_bits(int channel) const {
  std::uint64_t bits = 0;
  for (const auto& dimm : per_channel_.at(static_cast<std::size_t>(channel))) {
    bits += dimm.spec().capacity_bits;
  }
  return bits;
}

void MemorySystem::set_channel_refresh(int channel, Seconds interval) {
  Channel& state = channels_.at(static_cast<std::size_t>(channel));
  if (std::bit_cast<std::uint64_t>(state.refresh.value) ==
      std::bit_cast<std::uint64_t>(interval.value)) {
    return;  // same interval: same sum, same rates
  }
  state.refresh = interval;
  state.memo_temp_bits.reset();
  power_ = dimm_power_sum();
}

Seconds MemorySystem::channel_refresh(int channel) const {
  return channels_.at(static_cast<std::size_t>(channel)).refresh;
}

double MemorySystem::expected_weak_cells(int channel, Celsius temp) const {
  const Seconds interval = channel_refresh(channel);
  if (interval.value <= 0.0) return 0.0;
  double weak = 0.0;
  for (const auto& dimm : per_channel_.at(static_cast<std::size_t>(channel))) {
    weak += dimm.expected_errors(interval, temp);
  }
  return weak;
}

double MemorySystem::error_rate_per_s(int channel, Celsius temp) const {
  double rate = 0.0;
  const Seconds interval = channel_refresh(channel);
  if (interval.value <= 0.0) return 0.0;
  for (const auto& dimm : per_channel_.at(static_cast<std::size_t>(channel))) {
    rate += dimm.expected_errors(interval, temp) *
            dimm.spec().weak_cell_consume_rate_per_s;
  }
  return rate;
}

std::uint64_t MemorySystem::sample_errors(int channel, Seconds window,
                                          Celsius temp, Rng& rng) const {
  const double rate = error_rate_per_s(channel, temp);
  if (rate <= 0.0 || window.value <= 0.0) return 0;
  return rng.poisson(rate * window.value);
}

MemorySystem::ErrorSplit MemorySystem::sample_error_split(int channel,
                                                          Seconds window,
                                                          Celsius temp,
                                                          Rng& rng) {
  Channel& state = channels_.at(static_cast<std::size_t>(channel));
  const auto& dimms = per_channel_[static_cast<std::size_t>(channel)];
  // All DIMMs on a channel share the spec; the first's decides ECC.
  const bool ecc = !dimms.empty() && dimms.front().spec().ecc;
  const auto temp_bits = std::bit_cast<std::uint64_t>(temp.value);
  if (state.memo_temp_bits != temp_bits) {
    state.memo_temp_bits = temp_bits;
    state.memo_rate_per_s = error_rate_per_s(channel, temp);
    state.memo_uncorrectable =
        ecc ? dimms.front().uncorrectable_fraction(state.refresh, temp) : 1.0;
  }
  ErrorSplit split;
  if (state.memo_rate_per_s <= 0.0 || window.value <= 0.0) return split;
  const std::uint64_t events =
      state.poisson.draw(rng, state.memo_rate_per_s * window.value);
  if (events == 0) return split;
  split.uncorrectable =
      ecc ? rng.binomial(events, state.memo_uncorrectable) : events;
  split.corrected = events - split.uncorrectable;
  return split;
}

Watt MemorySystem::dimm_power_sum() const {
  Watt total{0.0};
  for (std::size_t c = 0; c < per_channel_.size(); ++c) {
    for (const auto& dimm : per_channel_[c]) {
      total += dimm.power(channels_[c].refresh);
    }
  }
  return total;
}

Watt MemorySystem::nominal_power() const {
  Watt total{0.0};
  for (const auto& channel : per_channel_) {
    for (const auto& dimm : channel) {
      total += dimm.power(dimm.spec().nominal_refresh);
    }
  }
  return total;
}

const DimmModel& MemorySystem::dimm(int channel, int index) const {
  return per_channel_.at(static_cast<std::size_t>(channel))
      .at(static_cast<std::size_t>(index));
}

}  // namespace uniserver::hw
