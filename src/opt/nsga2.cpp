#include "src/opt/nsga2.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace dovado::opt {

namespace {

/// Genome-level duplicate detection set.
using GenomeSet = std::set<Genome>;

/// Apply the configured mutation operator to one genome.
void mutate_genome(const Problem& problem, const Nsga2Config& config, Genome& g,
                   util::Rng& rng) {
  switch (config.mutation) {
    case MutationKind::kGaussianProbability:
      gaussian_mutation(problem, g, config.mutation_gaussian_mean,
                        config.mutation_gaussian_sigma, config.mutation_step_fraction, rng);
      break;
    case MutationKind::kPolynomial: {
      const double prob =
          config.mutation_polynomial_prob > 0.0
              ? config.mutation_polynomial_prob
              : 1.0 / static_cast<double>(std::max<std::size_t>(1, problem.n_vars()));
      polynomial_mutation(problem, g, config.mutation_polynomial_eta, prob, rng);
      break;
    }
  }
}

/// Initial candidate genomes: seeded genomes first (repaired, deduplicated),
/// then integer random sampling with duplicate elimination. A space smaller
/// than the population cannot fill it with uniques, so sampling gives up
/// after 200 consecutive duplicates or once the whole volume is seen.
/// `seen` accumulates every genome produced.
std::vector<Genome> sample_initial(const Problem& problem, const Nsga2Config& config,
                                   util::Rng& rng, GenomeSet& seen) {
  std::vector<Genome> initial;
  initial.reserve(config.population_size);
  for (Genome g : config.initial_genomes) {
    if (initial.size() >= config.population_size) break;
    g.resize(problem.n_vars(), 0);
    problem.repair(g);
    if (config.eliminate_duplicates && !seen.insert(g).second) continue;
    initial.push_back(std::move(g));
  }
  const std::int64_t volume = problem.volume();
  int stale = 0;
  while (initial.size() < config.population_size) {
    Genome g = random_genome(problem, rng);
    if (config.eliminate_duplicates && !seen.insert(g).second) {
      if (++stale > 200 || static_cast<std::int64_t>(seen.size()) >= volume) break;
      continue;
    }
    stale = 0;
    initial.push_back(std::move(g));
  }
  return initial;
}

}  // namespace

void assign_rank_crowding(std::vector<Individual>& population) {
  std::vector<Objectives> objs;
  objs.reserve(population.size());
  for (const auto& ind : population) objs.push_back(ind.objectives);
  const auto fronts = fast_non_dominated_sort(objs);
  for (std::size_t f = 0; f < fronts.size(); ++f) {
    const auto crowding = crowding_distance(objs, fronts[f]);
    for (std::size_t i = 0; i < fronts[f].size(); ++i) {
      population[fronts[f][i]].rank = static_cast<int>(f);
      population[fronts[f][i]].crowding = crowding[i];
    }
  }
}

GenerationalNsga2::GenerationalNsga2(Nsga2Config config, const Problem& problem)
    : config_(std::move(config)), problem_(problem), rng_(config_.seed) {
  GenomeSet seen;
  for (Genome& g : sample_initial(problem_, config_, rng_, seen)) {
    Individual ind;
    ind.genome = std::move(g);
    generation_.push_back(std::move(ind));
  }
}

std::vector<Genome> GenerationalNsga2::ask() {
  if (untold_ != 0) {
    throw std::logic_error("GenerationalNsga2::ask: the previous generation is not fully told");
  }
  if (done()) throw std::logic_error("GenerationalNsga2::ask: the run is complete");
  std::vector<Genome> genomes;
  genomes.reserve(generation_.size());
  for (const auto& ind : generation_) genomes.push_back(ind.genome);
  untold_ = generation_.size();
  if (untold_ == 0) close_generation();  // empty population: nothing to wait for
  return genomes;
}

void GenerationalNsga2::tell(const Genome& genome, const Objectives& objectives) {
  // untold_ == 0 means generation_ holds the next, not yet asked, one.
  for (auto& ind : generation_) {
    if (untold_ == 0) break;
    if (ind.evaluated || ind.genome != genome) continue;
    ind.objectives = objectives;
    ind.evaluated = true;
    if (--untold_ == 0) close_generation();
    return;
  }
  throw std::logic_error("GenerationalNsga2::tell: genome was not asked or is already told");
}

void GenerationalNsga2::close_generation() {
  if (!initialized_) {
    population_ = std::move(generation_);
    initialized_ = true;
  } else {
    // (mu + lambda) elitist survival.
    std::vector<Individual> merged;
    merged.reserve(population_.size() + generation_.size());
    for (auto& ind : population_) merged.push_back(std::move(ind));
    for (auto& ind : generation_) merged.push_back(std::move(ind));

    std::vector<Objectives> objs;
    objs.reserve(merged.size());
    for (const auto& ind : merged) objs.push_back(ind.objectives);
    const auto fronts = fast_non_dominated_sort(objs);
    population_ = survive(merged, objs, fronts);
    ++generations_;
  }
  assign_rank_crowding(population_);
  generation_.clear();
  if (!done()) generation_ = make_offspring();
}

std::vector<Individual> GenerationalNsga2::make_offspring() {
  GenomeSet existing;
  if (config_.eliminate_duplicates) {
    for (const auto& ind : population_) existing.insert(ind.genome);
  }

  const std::size_t n = population_.size();
  std::vector<Individual> offspring;
  offspring.reserve(config_.population_size);

  auto mutate = [&](Genome& g) { mutate_genome(problem_, config_, g, rng_); };

  while (offspring.size() < config_.population_size) {
    const std::size_t before = offspring.size();
    Genome child_a;
    Genome child_b;
    bool accepted = false;
    for (int attempt = 0; attempt < std::max(1, config_.duplicate_retries); ++attempt) {
      const std::size_t p1 =
          tournament(population_, rng_.index(n), rng_.index(n), rng_);
      const std::size_t p2 =
          tournament(population_, rng_.index(n), rng_.index(n), rng_);
      sbx_integer(problem_, population_[p1].genome, population_[p2].genome,
                  config_.crossover_eta, config_.crossover_prob_var, rng_, child_a, child_b);
      mutate(child_a);
      mutate(child_b);
      if (!config_.eliminate_duplicates) {
        accepted = true;
        break;
      }
      if (existing.count(child_a) == 0 || existing.count(child_b) == 0) {
        accepted = true;
        break;
      }
    }
    if (!accepted) {
      // Mating keeps producing known genomes: inject a random immigrant to
      // preserve diversity instead of spinning.
      child_a = random_genome(problem_, rng_);
      child_b = random_genome(problem_, rng_);
    }
    for (Genome* g : {&child_a, &child_b}) {
      if (offspring.size() >= config_.population_size) break;
      if (config_.eliminate_duplicates && existing.count(*g) != 0) continue;
      Individual ind;
      ind.genome = *g;
      if (config_.eliminate_duplicates) existing.insert(*g);
      offspring.push_back(std::move(ind));
    }
    // Tiny/exhausted spaces: every remaining genome is a duplicate. Accept
    // one duplicate to guarantee forward progress (pymoo pads the offspring
    // the same way when elimination cannot fill the population).
    if (offspring.size() == before) {
      Individual ind;
      ind.genome = std::move(child_a);
      offspring.push_back(std::move(ind));
    }
  }
  return offspring;
}

std::vector<Individual> GenerationalNsga2::survive(
    std::vector<Individual>& merged, const std::vector<Objectives>& objs,
    const std::vector<std::vector<std::size_t>>& fronts) const {
  const std::size_t capacity = config_.population_size;
  std::vector<Individual> next;
  next.reserve(capacity);

  // Per-front crowding, and per-front orders by decreasing crowding.
  std::vector<std::vector<double>> crowding(fronts.size());
  std::vector<std::vector<std::size_t>> order(fronts.size());
  for (std::size_t f = 0; f < fronts.size(); ++f) {
    crowding[f] = crowding_distance(objs, fronts[f]);
    order[f].resize(fronts[f].size());
    for (std::size_t i = 0; i < order[f].size(); ++i) order[f][i] = i;
    std::sort(order[f].begin(), order[f].end(), [&](std::size_t a, std::size_t b) {
      return crowding[f][a] > crowding[f][b];
    });
  }

  // Allowance per front: everything (standard NSGA-II) or the geometric
  // schedule n_f = N (1-r) r^f / (1 - r^K) of controlled elitism.
  std::vector<std::size_t> allowance(fronts.size());
  const double r = config_.controlled_elitism_r;
  if (r > 0.0 && r < 1.0 && fronts.size() > 1) {
    const double k = static_cast<double>(fronts.size());
    double geometric = (1.0 - r) / (1.0 - std::pow(r, k));
    for (std::size_t f = 0; f < fronts.size(); ++f) {
      allowance[f] = static_cast<std::size_t>(std::llround(
          static_cast<double>(capacity) * geometric * std::pow(r, static_cast<double>(f))));
    }
  } else {
    for (std::size_t f = 0; f < fronts.size(); ++f) allowance[f] = capacity;
  }

  // First pass: each front contributes up to its allowance, best-crowded
  // first. Second pass: remaining capacity is filled front by front from
  // the members passed over (Deb & Goel's overflow rule).
  std::vector<std::vector<std::size_t>> leftovers(fronts.size());
  for (std::size_t f = 0; f < fronts.size() && next.size() < capacity; ++f) {
    std::size_t taken = 0;
    for (std::size_t i : order[f]) {
      if (taken >= allowance[f] || next.size() >= capacity) {
        leftovers[f].push_back(i);
        continue;
      }
      merged[fronts[f][i]].crowding = crowding[f][i];
      next.push_back(merged[fronts[f][i]]);
      ++taken;
    }
  }
  for (std::size_t f = 0; f < fronts.size() && next.size() < capacity; ++f) {
    for (std::size_t i : leftovers[f]) {
      if (next.size() >= capacity) break;
      merged[fronts[f][i]].crowding = crowding[f][i];
      next.push_back(merged[fronts[f][i]]);
    }
  }
  return next;
}

Nsga2Result Nsga2::run(Problem& problem) {
  GenerationalNsga2 ga(config_, problem);
  Nsga2Result result;
  while (true) {
    const std::vector<Genome> generation = ga.ask();
    for (const Genome& genome : generation) ga.tell(genome, problem.evaluate(genome));
    result.evaluations += generation.size();
    if (ga.generations() > 0 && config_.on_generation) {
      config_.on_generation(ga.generations() - 1, ga.population());
    }
    if (ga.done() || (config_.should_stop && config_.should_stop())) break;
  }
  result.generations_run = ga.generations();
  result.population = ga.population();
  result.pareto_front = pareto_subset(result.population);
  return result;
}

SteadyStateNsga2::SteadyStateNsga2(Nsga2Config config, Problem& problem)
    : config_(std::move(config)), problem_(problem), rng_(config_.seed) {
  initial_ = sample_initial(problem_, config_, rng_, seen_);
  population_.reserve(config_.population_size + 1);
}

const OptimizerInfo& SteadyStateNsga2::info() const {
  static const OptimizerInfo kInfo{/*name=*/"nsga2", /*elitist=*/true,
                                   /*uses_seeds=*/true, /*uses_surrogate=*/false,
                                   /*composite=*/false};
  return kInfo;
}

Genome SteadyStateNsga2::make_one_offspring() {
  // Mating needs parents; until at least two individuals have been told
  // back (e.g. while the initial candidates are still inflight), fall back
  // to random immigrants so ask() never blocks on completions.
  if (population_.size() < 2) {
    for (int attempt = 0; attempt < std::max(1, config_.duplicate_retries); ++attempt) {
      Genome g = random_genome(problem_, rng_);
      if (!config_.eliminate_duplicates || seen_.count(g) == 0) return g;
    }
    return random_genome(problem_, rng_);
  }

  const std::size_t n = population_.size();
  Genome child_a;
  Genome child_b;
  for (int attempt = 0; attempt < std::max(1, config_.duplicate_retries); ++attempt) {
    const std::size_t p1 = tournament(population_, rng_.index(n), rng_.index(n), rng_);
    const std::size_t p2 = tournament(population_, rng_.index(n), rng_.index(n), rng_);
    sbx_integer(problem_, population_[p1].genome, population_[p2].genome,
                config_.crossover_eta, config_.crossover_prob_var, rng_, child_a, child_b);
    mutate_genome(problem_, config_, child_a, rng_);
    mutate_genome(problem_, config_, child_b, rng_);
    if (!config_.eliminate_duplicates) return child_a;
    const bool a_fresh = seen_.count(child_a) == 0;
    const bool b_fresh = seen_.count(child_b) == 0;
    if (a_fresh && b_fresh) {
      // Queue the sibling instead of discarding half of every mating.
      pending_.push_back(child_b);
      return child_a;
    }
    if (a_fresh) return child_a;
    if (b_fresh) return child_b;
  }
  // Mating keeps producing known genomes: random immigrant, and if even
  // those are exhausted (tiny space) accept the duplicate child to
  // guarantee forward progress, mirroring GenerationalNsga2.
  for (int attempt = 0; attempt < std::max(1, config_.duplicate_retries); ++attempt) {
    Genome g = random_genome(problem_, rng_);
    if (seen_.count(g) == 0) return g;
  }
  return child_a;
}

Genome SteadyStateNsga2::ask() {
  // Initial candidates are pre-inserted into seen_ at sampling time, so a
  // separate reserved_ check keeps replayed points from being re-asked.
  while (initial_next_ < initial_.size()) {
    Genome g = initial_[initial_next_++];
    if (reserved_.count(g) != 0) continue;
    return g;
  }
  while (!pending_.empty()) {
    Genome g = std::move(pending_.front());
    pending_.pop_front();
    // A queued sibling may have been asked or reserved since it was mated.
    if ((!config_.eliminate_duplicates || seen_.count(g) == 0) &&
        reserved_.count(g) == 0) {
      seen_.insert(g);
      return g;
    }
  }
  Genome g = make_one_offspring();
  seen_.insert(g);
  return g;
}

void SteadyStateNsga2::reserve(const Genome& genome) {
  seen_.insert(genome);
  reserved_.insert(genome);
}

void SteadyStateNsga2::tell(const Genome& genome, const Objectives& objectives,
                            double /*cost_seconds*/) {
  ++told_;
  Individual ind;
  ind.genome = genome;
  ind.objectives = objectives;
  ind.evaluated = true;
  population_.push_back(std::move(ind));

  if (population_.size() > config_.population_size) {
    // (mu+1) survival: drop the single worst member — last non-dominated
    // front, minimum crowding (first such index for determinism).
    std::vector<Objectives> objs;
    objs.reserve(population_.size());
    for (const auto& member : population_) objs.push_back(member.objectives);
    const auto fronts = fast_non_dominated_sort(objs);
    const auto& last = fronts.back();
    const auto crowding = crowding_distance(objs, last);
    std::size_t worst = 0;
    for (std::size_t i = 1; i < last.size(); ++i) {
      if (crowding[i] < crowding[worst]) worst = i;
    }
    population_.erase(population_.begin() + static_cast<std::ptrdiff_t>(last[worst]));
  }
  assign_rank_crowding(population_);
}

}  // namespace dovado::opt
