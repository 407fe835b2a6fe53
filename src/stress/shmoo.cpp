#include "stress/shmoo.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "hwmodel/eop.h"

namespace uniserver::stress {

CoreWorkloadResult ShmooCharacterizer::characterize_core(
    const hw::Chip& chip, int core, const hw::WorkloadSignature& w,
    MegaHertz freq, Rng& rng) const {
  CoreWorkloadResult result;
  result.core = core;
  result.workload = w.name;

  const Volt vnom = chip.spec().vdd_nominal;
  const auto& core_model = chip.core(core);

  for (int run = 0; run < config_.runs; ++run) {
    // One run has a single realized crash voltage (repetition noise is
    // drawn per run, not per step — the silicon does not re-roll between
    // steps of the same sweep).
    const Volt vcrash = core_model.crash_voltage_run(w, freq, rng);

    ShmooRun shmoo;
    double offset = kStepPercent;
    for (; offset <= kMaxOffsetPercent; offset += kStepPercent) {
      const Volt v = hw::apply_undervolt_percent(vnom, offset);
      if (v <= vcrash) break;  // this step crashes
      const std::uint64_t errors =
          chip.cache().sample_errors(v, vcrash, w, kStepDuration, rng);
      if (errors > 0 && shmoo.ecc_onset_offset_percent < 0.0) {
        shmoo.ecc_onset_offset_percent = offset;
      }
      shmoo.ecc_errors += errors;
    }
    shmoo.crash_offset_percent = std::min(offset, kMaxOffsetPercent);
    result.runs.push_back(shmoo);
  }

  double sum = 0.0;
  result.crash_offset_min = std::numeric_limits<double>::infinity();
  result.crash_offset_max = 0.0;
  result.ecc_errors_min = std::numeric_limits<std::uint64_t>::max();
  result.ecc_errors_max = 0;
  for (const auto& run : result.runs) {
    sum += run.crash_offset_percent;
    result.crash_offset_min =
        std::min(result.crash_offset_min, run.crash_offset_percent);
    result.crash_offset_max =
        std::max(result.crash_offset_max, run.crash_offset_percent);
    result.ecc_errors_min = std::min(result.ecc_errors_min, run.ecc_errors);
    result.ecc_errors_max = std::max(result.ecc_errors_max, run.ecc_errors);
  }
  result.crash_offset_mean =
      result.runs.empty() ? 0.0 : sum / static_cast<double>(result.runs.size());
  return result;
}

WorkloadSummary ShmooCharacterizer::characterize_chip(
    const hw::Chip& chip, const hw::WorkloadSignature& w, MegaHertz freq,
    Rng& rng) const {
  WorkloadSummary summary;
  summary.workload = w.name;
  const auto cores = static_cast<std::size_t>(chip.num_cores());

  // One private stream per core, forked in core order on this thread,
  // so the per-core sweeps parallelize bit-identically for any worker
  // count (common/parallel.h).
  std::vector<Rng> streams = par::fork_streams(rng, cores);
  summary.per_core.resize(cores);
  par::parallel_for_each(cores, [&](std::size_t core) {
    summary.per_core[core] = characterize_core(
        chip, static_cast<int>(core), w, freq, streams[core]);
  });

  double min_offset = std::numeric_limits<double>::infinity();
  double max_offset = 0.0;
  for (const auto& result : summary.per_core) {
    min_offset = std::min(min_offset, result.crash_offset_mean);
    max_offset = std::max(max_offset, result.crash_offset_mean);
  }
  summary.system_crash_offset = min_offset;
  summary.core_to_core_variation = max_offset - min_offset;
  return summary;
}

std::vector<WorkloadSummary> ShmooCharacterizer::campaign(
    const hw::Chip& chip, const std::vector<hw::WorkloadSignature>& suite,
    MegaHertz freq, Rng& rng) const {
  // Workloads fan out across the pool; the nested per-core region in
  // characterize_chip runs inline on whichever worker it lands on.
  std::vector<Rng> streams = par::fork_streams(rng, suite.size());
  std::vector<WorkloadSummary> summaries(suite.size());
  par::parallel_for_each(suite.size(), [&](std::size_t i) {
    summaries[i] = characterize_chip(chip, suite[i], freq, streams[i]);
  });
  return summaries;
}

double safe_undervolt_percent(const std::vector<WorkloadSummary>& campaign,
                              double guard_percent) {
  double min_offset = std::numeric_limits<double>::infinity();
  for (const auto& summary : campaign) {
    min_offset = std::min(min_offset, summary.system_crash_offset);
  }
  if (!std::isfinite(min_offset)) return 0.0;
  return std::max(0.0, min_offset - guard_percent);
}

}  // namespace uniserver::stress
