// Example: interactive margin exploration for one part.
//
//   ./build/examples/margin_explorer [i5|i7|arm] [seed]
//
// Prints the per-core, per-workload crash-offset table (the raw data
// behind Table 2), the GA-evolved worst-case virus, the StressLog's
// safe V-F-R vector and the Predictor's accuracy on held-out shmoo
// outcomes — everything an operator would look at before trusting an
// Extended Operating Point.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/rng.h"
#include "common/table.h"
#include "daemons/predictor.h"
#include "daemons/stresslog.h"
#include "hwmodel/chip.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/eop.h"
#include "hwmodel/platform.h"
#include "stress/genetic.h"
#include "stress/profiles.h"
#include "stress/shmoo.h"
#include "stress/shmoo_surface.h"

using namespace uniserver;

int main(int argc, char** argv) {
  const std::string part = argc > 1 ? argv[1] : "arm";
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;

  hw::NodeSpec node_spec;
  if (part == "i5") {
    node_spec.chip = hw::i5_4200u_spec();
  } else if (part == "i7") {
    node_spec.chip = hw::i7_3970x_spec();
  } else {
    node_spec.chip = hw::arm_soc_spec();
  }
  hw::ServerNode node(node_spec, seed);
  const hw::Chip& chip = node.chip();
  const auto& spec = node_spec.chip;
  std::printf("part: %s (seed %llu), nominal %.3f V @ %.0f MHz, %d cores\n\n",
              spec.name.c_str(), static_cast<unsigned long long>(seed),
              spec.vdd_nominal.value, spec.freq_nominal.value, spec.cores);

  // Per-core crash offsets per workload (part-stable values).
  TextTable table("crash offset [% below nominal VID] per core");
  std::vector<std::string> header{"workload"};
  for (int c = 0; c < chip.num_cores(); ++c) {
    header.push_back("core" + std::to_string(c));
  }
  header.push_back("c2c spread");
  table.set_header(header);
  for (const auto& w : stress::spec2006_profiles()) {
    std::vector<std::string> row{w.name};
    for (int c = 0; c < chip.num_cores(); ++c) {
      row.push_back(TextTable::num(
          hw::undervolt_percent(
              spec.vdd_nominal,
              chip.core(c).crash_voltage(w, spec.freq_nominal)),
          1));
    }
    row.push_back(TextTable::pct(
        chip.core_to_core_variation_percent(w, spec.freq_nominal)));
    table.add_row(row);
  }
  table.print();

  // The V-F shmoo surface under the noisiest benchmark: '.' pass,
  // 'o' marginal (ECC canary firing), 'X' crash.
  stress::SurfaceConfig surface_config;
  surface_config.offset_step = 2.0;
  Rng surface_rng(seed ^ 0x5F);
  const auto surface = stress::characterize_surface(
      chip, *stress::spec_profile("h264ref"), surface_config, surface_rng);
  std::printf("\nV-F shmoo surface (h264ref):\n%s", surface.ascii().c_str());

  // Worst-case virus via the genetic search.
  stress::GeneticVirusSearch search(chip);
  Rng ga_rng(seed ^ 0x6A);
  const stress::GaResult virus = search.run(ga_rng);
  std::printf("\nGA virus: activity %.2f, dI/dt %.2f -> crashes the part at "
              "-%.1f%%\n",
              virus.best.activity, virus.best.didt_stress,
              hw::undervolt_percent(
                  spec.vdd_nominal,
                  chip.system_crash_voltage(virus.best, spec.freq_nominal)));

  // StressLog safe margins.
  daemons::StressLog stresslog(stress::ShmooConfig{}, seed ^ 0x51);
  const auto params = daemons::default_stress_params(node);
  const auto margins = stresslog.run_cycle(node, params, Seconds{0.0});
  std::printf("\nsafe V-F-R vector (guard %.1f%%):\n", params.guard_percent);
  for (const auto& point : margins.points) {
    std::printf("  %5.0f MHz -> %.3f V (-%.1f%%)\n", point.freq.value,
                point.safe_vdd.value, point.safe_offset_percent);
  }
  std::printf("  refresh -> %.2f s\n", margins.safe_refresh.value);

  // Predictor trained on one campaign, validated on a re-run.
  stress::ShmooCharacterizer characterizer{stress::ShmooConfig{}};
  Rng campaign_rng(seed ^ 0xA11);
  const auto train_campaign = characterizer.campaign(
      chip, params.suite, spec.freq_nominal, campaign_rng);
  auto train = daemons::Predictor::samples_from_campaign(
      train_campaign, spec.freq_nominal, spec.freq_nominal, params.suite);
  const auto test_campaign = characterizer.campaign(
      chip, params.suite, spec.freq_nominal, campaign_rng);
  const auto test = daemons::Predictor::samples_from_campaign(
      test_campaign, spec.freq_nominal, spec.freq_nominal, params.suite);

  daemons::Predictor predictor;
  Rng train_rng(seed ^ 0x7121);
  predictor.train(train, 40, 0.2, train_rng);
  std::printf("\npredictor: %.1f%% accuracy on %zu held-out shmoo samples\n",
              predictor.accuracy(test) * 100.0, test.size());
  return 0;
}
