#include "hypervisor/fault_injection.h"

#include <algorithm>
#include <string>

#include "common/parallel.h"
#include "telemetry/telemetry.h"

namespace uniserver::hv {

std::size_t CampaignResult::objects_marked_crucial() const {
  std::size_t count = 0;
  for (auto runs : fatal_runs_per_object) {
    if (runs > 0) ++count;
  }
  return count;
}

CampaignResult FaultInjector::run_campaign(const CampaignConfig& config,
                                           Rng& rng) const {
  CampaignResult result;
  result.config = config;
  for (ObjectCategory category : kAllCategories) {
    result.fatal_by_category[category] = 0;
  }
  result.fatal_runs_per_object.assign(inventory_.size(), 0);

  // One private stream per object: injections parallelize across the
  // inventory with bit-identical tallies for any worker count. Each
  // worker only writes its own object's slot; the category/total
  // aggregation below runs on this thread after the joins.
  std::vector<Rng> streams = par::fork_streams(rng, inventory_.size());
  par::parallel_for_each(inventory_.size(), [&](std::size_t index) {
    const HvObject& object = inventory_.objects()[index];
    const CategoryProfile& profile = inventory_.profile(object.category);
    const double consumption = config.workload_loaded
                                   ? profile.consumption_loaded
                                   : profile.consumption_unloaded;
    std::uint8_t fatal_runs = 0;
    for (int run = 0; run < config.runs_per_object; ++run) {
      // The SDC is fatal iff the object matters and the corrupted value
      // is actually read back before being overwritten.
      if (object.crucial && streams[index].bernoulli(consumption)) {
        ++fatal_runs;
      }
    }
    result.fatal_runs_per_object[index] = fatal_runs;
  });

  result.total_injections =
      inventory_.size() * static_cast<std::uint64_t>(
                              std::max(0, config.runs_per_object));
  for (std::size_t index = 0; index < inventory_.size(); ++index) {
    const std::uint8_t fatal = result.fatal_runs_per_object[index];
    result.total_fatal += fatal;
    result.fatal_by_category[inventory_.objects()[index].category] += fatal;
  }

  telemetry::counter("hv.campaign.injections", "runs",
                     "Fault injections executed across campaigns")
      .add(result.total_injections);
  telemetry::counter("hv.campaign.fatal", "runs",
                     "Injections that killed the hypervisor")
      .add(result.total_fatal);
  // Figure-4 breakdown: one counter per object category.
  for (const auto& [category, fatal] : result.fatal_by_category) {
    telemetry::counter(
        std::string("hv.campaign.fatal.") + to_string(category), "runs",
        "Fatal injections into this object category")
        .add(fatal);
  }
  telemetry::trace(
      Seconds{0.0}, "hv", "campaign_complete",
      {{"injections", std::to_string(result.total_injections)},
       {"fatal", std::to_string(result.total_fatal)},
       {"crucial_objects",
        std::to_string(result.objects_marked_crucial())},
       {"loaded", config.workload_loaded ? "true" : "false"}});
  return result;
}

}  // namespace uniserver::hv
