// Genetic-algorithm stress-virus generation (paper §3.B, after AUDIT).
//
// Evolves workload signatures that maximize the stress a specific chip
// experiences — i.e. that raise the system crash voltage as high as
// possible. The fittest virus defines the pathogenic worst case; safe
// margins derived from it upper-bound every real workload, which is the
// property the pre-deployment characterization relies on.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "hwmodel/chip.h"
#include "hwmodel/workload_signature.h"

namespace uniserver::stress {

struct GaConfig {
  int population{32};
  int generations{40};
  int elites{2};
};

struct GaResult {
  hw::WorkloadSignature best;
  /// Crash voltage of the chip under the best virus (volts).
  double best_fitness{0.0};
  /// Best fitness per generation (monotone non-decreasing with elitism).
  std::vector<double> history;
};

class GeneticVirusSearch {
 public:
  /// Chance that a child takes a one-point crossover with a second
  /// parent.
  static constexpr double kCrossoverRate = 0.8;
  /// Per-gene mutation chance, and the sigma of its normal step.
  static constexpr double kMutationRate = 0.15;
  static constexpr double kMutationSigma = 0.12;
  /// Genomes drawn per tournament selection.
  static constexpr int kTournament = 3;

  GeneticVirusSearch(const hw::Chip& chip, GaConfig config = {});

  /// Fitness of a candidate: the chip's system crash voltage under the
  /// candidate at frequency f (higher = more stressful virus), with a
  /// small bonus for error-rate pressure (cache activity).
  double fitness(const hw::WorkloadSignature& candidate) const;

  /// Runs the evolutionary search.
  GaResult run(Rng& rng) const;

 private:
  hw::WorkloadSignature decode(const std::vector<double>& genome,
                               int index) const;

  const hw::Chip& chip_;
  GaConfig config_;
};

}  // namespace uniserver::stress
