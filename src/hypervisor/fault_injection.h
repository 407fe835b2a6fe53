// SDC fault-injection campaign over the hypervisor object inventory —
// the QEMU-based experiment of paper §6.C, Figure 4.
//
// For each statically allocated object the campaign performs N
// independent executions in which the object's value is corrupted and
// the hypervisor is observed: a run is fatal iff the object is crucial
// AND the corrupted value is consumed during the observation window
// (consumption probability depends on whether VMs are loaded on top).
// The campaign also produces the crucial/non-crucial classification the
// UniServer hypervisor uses for selective protection.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "hypervisor/objects.h"

namespace uniserver::hv {

struct CampaignConfig {
  int runs_per_object{5};
  bool workload_loaded{true};
};

struct CampaignResult {
  CampaignConfig config{};
  /// Fatal injections per category (Figure 4 bars).
  std::map<ObjectCategory, std::uint64_t> fatal_by_category;
  /// Per-object fatal tallies (index aligned with the inventory).
  std::vector<std::uint8_t> fatal_runs_per_object;
  std::uint64_t total_injections{0};
  std::uint64_t total_fatal{0};

  /// Objects marked crucial by the campaign: any fatal run observed.
  std::size_t objects_marked_crucial() const;
};

class FaultInjector {
 public:
  explicit FaultInjector(const ObjectInventory& inventory)
      : inventory_(inventory) {}

  /// Runs the full campaign (inventory x runs_per_object injections).
  CampaignResult run_campaign(const CampaignConfig& config, Rng& rng) const;

 private:
  const ObjectInventory& inventory_;
};

}  // namespace uniserver::hv
