// Baseline explorers: uniform random search and exhaustive enumeration.
//
// The paper positions NSGA-II against naive alternatives (exhaustive
// evaluation is "prohibitive" for non-trivial modules, Sec. I). These
// baselines share the Problem interface so the micro benches can compare
// front quality at equal tool-call budgets, and exhaustive search provides
// ground-truth Pareto fronts for small spaces in tests.
//
// Both are thin synchronous drivers over the ask/tell adapters in
// opt/optimizer.hpp ("random" / "exhaustive" in the registry); the
// engine's steady release policy runs the same searchers asynchronously.
#pragma once

#include "src/opt/problem.hpp"
#include "src/util/rng.hpp"

namespace dovado::opt {

/// Result of a baseline run: every evaluated individual plus the
/// duplicate-free non-dominated subset.
struct BaselineResult {
  std::vector<Individual> evaluated;
  std::vector<Individual> pareto_front;
  std::size_t evaluations = 0;
};

/// Evaluate `budget` distinct uniform-random genomes (fewer if the space is
/// smaller than the budget).
[[nodiscard]] BaselineResult random_search(Problem& problem, std::size_t budget,
                                           std::uint64_t seed);

/// Evaluate the entire design space. `max_points` guards against accidental
/// explosion (returns an empty result when the volume exceeds it).
[[nodiscard]] BaselineResult exhaustive_search(Problem& problem,
                                               std::int64_t max_points = 1 << 20);

}  // namespace dovado::opt
