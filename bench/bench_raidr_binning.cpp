// Extension bench: retention-aware refresh binning (RAIDR [26], the
// paper's reference for refresh-power numbers) vs uniform relaxation.
//
// Uniform relaxation rides the BER curve: power savings come with weak
// cells exposed. Two-bin RAIDR profiling pins the weak tail at the
// nominal interval and relaxes everything else — the frontier below
// shows it harvesting essentially the whole refresh-power saving at the
// nominal error level.
#include <cstdio>
#include <vector>

#include "common/table.h"
#include "hwmodel/dram_model.h"
#include "hwmodel/raidr.h"
#include "telemetry/export.h"

using namespace uniserver;
using namespace uniserver::literals;

int main() {
  hw::DimmSpec spec;
  spec.dimm_scale_sigma = 0.0;  // population-average part
  const hw::DimmModel dimm(spec, 1);
  const hw::RaidrBinning binning(dimm);
  const Celsius temp{30.0};

  TextTable table(
      "Uniform relaxation vs RAIDR two-bin refresh (8 GB DIMM, 30 C)");
  table.set_header({"long interval", "uniform: weak cells", "uniform: saving",
                    "RAIDR: fast-bin rows", "RAIDR: weak cells",
                    "RAIDR: saving"});
  for (const Seconds interval : {256_ms, 1_s, 1500_ms, 3_s, 5_s, 10_s}) {
    const double uniform_errors = dimm.expected_errors(interval, temp);
    const double uniform_saving = dimm.power_saving_fraction(interval);
    const hw::RaidrResult raidr = binning.evaluate(interval, temp);
    table.add_row(
        {interval.value >= 1.0 ? TextTable::num(interval.value, 1) + " s"
                               : TextTable::num(interval.millis(), 0) + " ms",
         TextTable::num(uniform_errors, 3),
         TextTable::pct(uniform_saving * 100.0),
         TextTable::num(raidr.weak_row_fraction * 100.0, 5) + "%",
         TextTable::num(raidr.expected_errors, 6),
         TextTable::pct(raidr.dimm_power_saving * 100.0)});
  }
  table.print();

  // Plot-ready frontier: uniform vs RAIDR saving at each interval.
  std::vector<std::vector<double>> frontier;
  for (const Seconds interval : {256_ms, 1_s, 1500_ms, 3_s, 5_s, 10_s}) {
    const hw::RaidrResult raidr = binning.evaluate(interval, temp);
    frontier.push_back({interval.value,
                        dimm.expected_errors(interval, temp),
                        dimm.power_saving_fraction(interval),
                        raidr.weak_row_fraction, raidr.expected_errors,
                        raidr.dimm_power_saving});
  }
  telemetry::save_series_csv(
      "raidr_frontier.csv",
      {"interval_s", "uniform_errors", "uniform_saving", "raidr_weak_rows",
       "raidr_errors", "raidr_saving"},
      frontier);

  const auto at_ten = binning.evaluate(10_s, temp);
  std::printf(
      "\nat a 10 s long bin only %.4f%% of rows need nominal refresh: "
      "%.1f%% of DIMM power saved (the full refresh share is %.1f%%) with "
      "the error rate still at the nominal level — refresh binning turns "
      "the paper's margin into pure savings. At future 32 Gb densities "
      "the same binning would save up to %.0f%% of DRAM power.\n",
      at_ten.weak_row_fraction * 100.0, at_ten.dimm_power_saving * 100.0,
      dimm.refresh_power_fraction_nominal() * 100.0,
      hw::refresh_power_fraction_for_density(32.0) * 100.0);
  return 0;
}
