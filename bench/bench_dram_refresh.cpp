// Reproduces the DRAM characterization of §6.B:
//   - random-pattern tests on an 8 GB DDR3 DIMM while relaxing the
//     refresh interval from the nominal 64 ms: no errors up to 1.5 s;
//   - at 5 s (78x nominal) the cumulative BER is ~1e-9, within
//     commercial DRAM targets and far below ECC-SECDED's ~1e-6;
//   - refresh power: ~9% of DIMM power at 2 Gb density, >34% at 32 Gb
//     (RAIDR projection), and what relaxation saves.
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/table.h"
#include "ecc/scrubber.h"
#include "hwmodel/dram_model.h"
#include "telemetry/export.h"

using namespace uniserver;
using namespace uniserver::literals;

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      const auto jobs = par::parse_jobs(argv[++i]);
      if (!jobs) {
        std::fprintf(stderr, "--jobs takes a worker count 0..%u\n",
                     par::kMaxJobs);
        return 2;
      }
      par::set_default_jobs(*jobs);
    }
  }
  hw::DimmSpec spec;  // 8 GB DDR3
  hw::DimmModel dimm(spec, 7);
  Rng rng(7);
  const Celsius room{28.0};  // air-conditioned server room

  TextTable sweep("DRAM refresh-interval sweep (8 GB DDR3, ECC off, 28 C)");
  sweep.set_header({"refresh interval", "x nominal", "errors (3 passes)",
                    "cumulative BER", "refresh power saved"});
  const double nominal_ms = spec.nominal_refresh.millis();
  const std::vector<Seconds> intervals{
      64_ms,   128_ms,  256_ms,  512_ms, 1000_ms,
      1500_ms, 2000_ms, 3000_ms, Seconds{5.0}};
  // One stream per interval: the sweep fans out across the pool and
  // stays bit-identical for any --jobs value.
  std::vector<Rng> streams = par::fork_streams(rng, intervals.size());
  const std::vector<std::uint64_t> errors_per_interval =
      par::parallel_map<std::uint64_t>(intervals.size(), [&](std::size_t i) {
        std::uint64_t errors = 0;
        for (int pass = 0; pass < 3; ++pass) {
          errors += dimm.sample_errors(intervals[i], room, streams[i]);
        }
        return errors;
      });
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const Seconds interval = intervals[i];
    const double ber = dimm.bit_error_probability(interval, room);
    sweep.add_row(
        {interval.value >= 1.0 ? TextTable::num(interval.value, 1) + " s"
                               : TextTable::num(interval.millis(), 0) + " ms",
         TextTable::num(interval.millis() / nominal_ms, 0) + "x",
         std::to_string(errors_per_interval[i]),
         ber < 1e-15 ? "~0" : TextTable::num(ber * 1e9, 2) + "e-9",
         TextTable::pct(dimm.power_saving_fraction(interval) * 100.0)});
  }
  sweep.print();

  // Plot-ready BER curve (deterministic, so plain indexed map).
  {
    std::vector<double> ts;
    for (double t = 0.064; t <= 10.0; t *= 1.25) ts.push_back(t);
    const auto curve = par::parallel_map<std::vector<double>>(
        ts.size(), [&](std::size_t i) {
          return std::vector<double>{
              ts[i], dimm.bit_error_probability(Seconds{ts[i]}, room)};
        });
    telemetry::save_series_csv("dram_ber_curve.csv", {"refresh_s", "ber"},
                               curve);
    std::printf("\n");
  }

  std::printf(
      "\npaper: no errors up to 1.5 s; BER ~1e-9 at 5 s (78x nominal); "
      "ECC-SECDED handles up to 1e-6 [27]\n\n");

  TextTable power("Refresh share of DRAM power vs density (RAIDR [26])");
  power.set_header({"density", "refresh power share", "paper"});
  for (const double density : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    const double fraction = hw::refresh_power_fraction_for_density(density);
    std::string paper = density == 2.0 ? "9%" : density == 32.0 ? ">34%" : "";
    power.add_row({TextTable::num(density, 0) + " Gb",
                   TextTable::pct(fraction * 100.0), paper});
  }
  power.print();

  // ECC-SECDED absorbing a relaxed-refresh error rate: the scrubber
  // model at a raw BER of 1e-6 per pass.
  ecc::ScrubConfig scrub;
  scrub.words = 1u << 20;  // 8 MiB protected region
  scrub.scrub_interval = Seconds{5.0};
  scrub.bit_flip_rate_per_s = 1e-6 / 5.0;  // 1e-6 per bit per pass
  std::printf(
      "\nECC-SECDED at raw BER 1e-6 per scrub pass: P(word uncorrectable) "
      "= %.2e (expected %.4f words lost per pass over %llu words)\n",
      ecc::word_uncorrectable_probability(scrub),
      ecc::word_uncorrectable_probability(scrub) *
          static_cast<double>(scrub.words),
      static_cast<unsigned long long>(scrub.words));
  return 0;
}
