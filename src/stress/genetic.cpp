#include "stress/genetic.h"

#include <algorithm>
#include <string>

namespace uniserver::stress {

namespace {
constexpr int kGenes = 4;  // activity, didt, mem, cache-pressure

std::vector<double> random_genome(Rng& rng) {
  std::vector<double> genome(kGenes);
  for (auto& gene : genome) gene = rng.uniform();
  return genome;
}
}  // namespace

GeneticVirusSearch::GeneticVirusSearch(const hw::Chip& chip, GaConfig config)
    : chip_(chip), config_(config) {}

hw::WorkloadSignature GeneticVirusSearch::decode(
    const std::vector<double>& genome, int index) const {
  hw::WorkloadSignature signature;
  signature.name = "ga-virus-" + std::to_string(index);
  signature.activity = genome[0];
  signature.didt_stress = genome[1];
  signature.mem_intensity = genome[2];
  signature.cache_pressure = genome[3];
  signature.ipc = 0.4 + 2.2 * genome[0];  // throughput tracks activity
  return signature;
}

double GeneticVirusSearch::fitness(
    const hw::WorkloadSignature& candidate) const {
  const Volt crash = chip_.system_crash_voltage(
      candidate, chip_.spec().freq_nominal);
  // Crash voltage dominates; cache pressure earns a small bonus because
  // viruses should also provoke error events, not just crashes.
  return crash.value + 0.002 * candidate.cache_pressure;
}

GaResult GeneticVirusSearch::run(Rng& rng) const {
  std::vector<std::vector<double>> population;
  population.reserve(static_cast<std::size_t>(config_.population));
  for (int i = 0; i < config_.population; ++i) {
    population.push_back(random_genome(rng));
  }
  // Seed with the hand-coded kernels' genome region (all-high stress).
  population[0] = {0.95, 0.95, 0.3, 0.5};

  auto evaluate = [this](const std::vector<double>& genome) {
    return fitness(decode(genome, 0));
  };

  std::vector<double> scores(population.size());
  for (std::size_t i = 0; i < population.size(); ++i) {
    scores[i] = evaluate(population[i]);
  }

  GaResult result;
  auto record_best = [&]() {
    const auto best_it = std::max_element(scores.begin(), scores.end());
    const auto best_index =
        static_cast<std::size_t>(best_it - scores.begin());
    if (*best_it > result.best_fitness) {
      result.best_fitness = *best_it;
      result.best = decode(population[best_index],
                           static_cast<int>(result.history.size()));
    }
    result.history.push_back(result.best_fitness);
  };
  record_best();

  auto tournament_pick = [&](Rng& r) -> const std::vector<double>& {
    std::size_t winner = r.uniform_u64(population.size());
    for (int k = 1; k < kTournament; ++k) {
      const std::size_t challenger = r.uniform_u64(population.size());
      if (scores[challenger] > scores[winner]) winner = challenger;
    }
    return population[winner];
  };

  for (int gen = 1; gen < config_.generations; ++gen) {
    std::vector<std::vector<double>> next;
    next.reserve(population.size());

    // Elitism: carry the best genomes unchanged.
    std::vector<std::size_t> order(population.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return scores[a] > scores[b];
    });
    for (int e = 0; e < config_.elites &&
                    e < static_cast<int>(population.size());
         ++e) {
      next.push_back(population[order[static_cast<std::size_t>(e)]]);
    }

    while (next.size() < population.size()) {
      std::vector<double> child = tournament_pick(rng);
      if (rng.bernoulli(kCrossoverRate)) {
        const auto& other = tournament_pick(rng);
        const auto cut = static_cast<std::size_t>(
            rng.uniform_u64(kGenes - 1) + 1);
        for (std::size_t g = cut; g < child.size(); ++g) child[g] = other[g];
      }
      for (auto& gene : child) {
        if (rng.bernoulli(kMutationRate)) {
          gene = std::clamp(gene + rng.normal(0.0, kMutationSigma), 0.0, 1.0);
        }
      }
      next.push_back(std::move(child));
    }

    population = std::move(next);
    for (std::size_t i = 0; i < population.size(); ++i) {
      scores[i] = evaluate(population[i]);
    }
    record_best();
  }

  return result;
}

}  // namespace uniserver::stress
