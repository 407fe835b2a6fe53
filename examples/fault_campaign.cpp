// Example: planning selective protection from a fault-injection
// campaign (the workflow behind paper §6.C / Figure 4).
//
// Runs the SDC campaign over the hypervisor object inventory, ranks
// categories by fatality, then sizes a protection set: cover the most
// dangerous categories first until the residual fatality rate is below
// target, and report the memory/CPU cost of that choice.
//
// Build & run:  ./build/examples/fault_campaign
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "hypervisor/fault_injection.h"
#include "hypervisor/objects.h"
#include "hypervisor/protection.h"

using namespace uniserver;

int main() {
  hv::ObjectInventory inventory(2718);
  hv::FaultInjector injector(inventory);
  Rng rng(2718);
  const hv::CampaignResult campaign =
      injector.run_campaign({.runs_per_object = 5, .workload_loaded = true},
                            rng);

  // Rank categories by fatal injections.
  struct Ranked {
    hv::ObjectCategory category;
    std::uint64_t fatal;
    double size_mb;
  };
  std::vector<Ranked> ranked;
  for (const auto category : hv::kAllCategories) {
    const auto& profile = inventory.profile(category);
    ranked.push_back({category, campaign.fatal_by_category.at(category),
                      profile.mean_size_bytes * profile.object_count /
                          (1024.0 * 1024.0)});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) { return a.fatal > b.fatal; });

  const auto total_fatal = static_cast<double>(campaign.total_fatal);
  std::printf("campaign: %llu injections, %llu fatal (%.2f%%)\n\n",
              static_cast<unsigned long long>(campaign.total_injections),
              static_cast<unsigned long long>(campaign.total_fatal),
              total_fatal /
                  static_cast<double>(campaign.total_injections) * 100.0);

  TextTable table("protection plan: protect categories in fatality order");
  table.set_header({"protect up to", "covered fatality", "residual",
                    "protected MB", "est. CPU overhead"});
  // Checkpoint/checksum cost model of the plans the hypervisor installs:
  // a share of a core per protected MB, saturating at a ceiling.
  const hv::ProtectionPolicy::Config cost;
  double covered = 0.0;
  double mb = 0.0;
  for (const auto& entry : ranked) {
    covered += static_cast<double>(entry.fatal);
    mb += entry.size_mb;
    const double overhead = std::min(cost.cpu_ceiling, cost.cpu_per_mb * mb);
    table.add_row({to_string(entry.category),
                   TextTable::pct(covered / total_fatal * 100.0),
                   TextTable::pct((1.0 - covered / total_fatal) * 100.0),
                   TextTable::num(mb, 2),
                   TextTable::pct(overhead * 100.0, 2)});
  }
  table.print();

  // The break-even point the paper's argument rests on: protecting the
  // top 3-4 categories covers most of the fatality at a trivial cost.
  double top3 = 0.0;
  for (int i = 0; i < 3; ++i) top3 += static_cast<double>(ranked[
      static_cast<std::size_t>(i)].fatal);
  std::printf("\nprotecting just {%s, %s, %s} covers %.1f%% of fatal "
              "injections\n",
              to_string(ranked[0].category), to_string(ranked[1].category),
              to_string(ranked[2].category), top3 / total_fatal * 100.0);

  // The policy object the hypervisor actually consumes.
  hv::ProtectionPolicy policy({.residual_target = 0.10});
  const hv::ProtectionPlan plan =
      policy.plan_from_campaign(inventory, campaign);
  std::printf("\nProtectionPolicy(residual <= 10%%) selects %zu categories "
              "-> coverage %.1f%%, %.2f MB checkpointed, %.2f%% CPU "
              "overhead; install with Hypervisor::apply_protection_plan()\n",
              plan.protected_categories.size(), plan.coverage * 100.0,
              plan.protected_mb, plan.cpu_overhead * 100.0);
  return 0;
}
