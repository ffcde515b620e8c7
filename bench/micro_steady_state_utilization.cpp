// Evaluator-fleet utilization: barrier vs steady release policy (see
// DESIGN.md "One loop, two release policies"). Both policies run the FIFO
// design space on 4 virtual lanes under a heavy-tailed fault plan (25% of
// runs hang 10x longer, then complete) with the SAME simulated tool-second
// budget.
// The barrier policy closes every generation — all lanes idle until the
// slowest run lands — while the steady policy keeps submitting as lanes
// free up. Prints a JSON summary; the committed artifact
// bench/steady_state_utilization.json is this program's output and the
// trajectory entry is appended to BENCH_utilization.json per PR.
//
// Acceptance bar (exit code 1 when missed): steady utilization > 90%,
// batch utilization < 70%, steady hypervolume >= batch hypervolume at the
// shared budget.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/dse.hpp"
#include "src/opt/indicators.hpp"

namespace {

using namespace dovado;

core::ProjectConfig fifo_project() {
  core::ProjectConfig config;
  config.sources.push_back({std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv",
                            hdl::HdlLanguage::kSystemVerilog, "work", false});
  config.top_module = "cv32e40p_fifo";
  config.part = "xc7k70tfbv676-1";
  config.target_period_ns = 1.0;
  return config;
}

core::DseConfig base_config() {
  core::DseConfig config;
  config.space.params.push_back({"DEPTH", core::ParamDomain::range(8, 200)});
  config.objectives = {{"lut", false}, {"fmax_mhz", true}};
  config.ga.population_size = 12;
  config.ga.max_generations = 8;
  config.ga.seed = 7;
  config.workers = 0;        // inline: the virtual schedule replays exactly
  config.virtual_lanes = 4;  // the modeled evaluator fleet
  // Heavy tails without failures: 25% of runs take 10x longer, then return
  // a clean answer. No retries fire, no breaker trips — the only effect is
  // the one the barrier turns into fleet-wide idle time.
  std::string error;
  config.fault_plan =
      edatool::FaultPlan::parse("seed=7,hang=0.25,hang_factor=10", error)
          .value_or(edatool::FaultPlan{});
  return config;
}

/// Minimized objective vectors of a front: {lut, -fmax_mhz}.
std::vector<opt::Objectives> front_objectives(const core::DseResult& result) {
  std::vector<opt::Objectives> objs;
  for (const auto& p : result.pareto) {
    objs.push_back({p.metrics.get("lut"), -p.metrics.get("fmax_mhz")});
  }
  return objs;
}

}  // namespace

int main() {
  // The batch engine's full campaign defines the shared tool-second budget.
  core::DseConfig batch_config = base_config();
  core::DseEngine batch(fifo_project(), batch_config);
  const core::DseResult batch_result = batch.run();
  const double budget_seconds = batch_result.stats.simulated_tool_seconds;

  // Same budget, steady engine: submission stops at the deadline, so it
  // spends the same tool seconds — just with no lane ever parked at a
  // barrier (the evaluation cap is set far above what the budget admits).
  core::DseConfig steady_config = base_config();
  steady_config.steady_state = true;
  steady_config.steady_state_evaluations = 100000;
  steady_config.deadline_tool_seconds = budget_seconds;
  core::DseEngine steady(fifo_project(), steady_config);
  const core::DseResult steady_result = steady.run();

  const auto batch_front = front_objectives(batch_result);
  const auto steady_front = front_objectives(steady_result);
  opt::Objectives reference = {0.0, 0.0};
  for (const auto* front : {&batch_front, &steady_front}) {
    for (const auto& o : *front) {
      reference[0] = std::max(reference[0], o[0] + 1.0);
      reference[1] = std::max(reference[1], o[1] + 1.0);
    }
  }
  const double batch_hv = opt::hypervolume(batch_front, reference);
  const double steady_hv = opt::hypervolume(steady_front, reference);

  const double batch_util = batch_result.stats.tool_seconds_utilization;
  const double steady_util = steady_result.stats.tool_seconds_utilization;
  const bool ok = steady_util > 0.90 && batch_util < 0.70 &&
                  steady_hv >= batch_hv * (1.0 - 1e-9);

  std::printf("{\n");
  std::printf("  \"benchmark\": \"micro_steady_state_utilization\",\n");
  std::printf("  \"virtual_lanes\": %zu, \"fault_plan\": \"seed=7,hang=0.25,hang_factor=10\",\n",
              batch_result.stats.virtual_lanes);
  std::printf("  \"budget_tool_seconds\": %.0f,\n", budget_seconds);
  std::printf("  \"batch\": {\"utilization\": %.4f, \"hypervolume\": %.1f, "
              "\"evaluations\": %zu, \"tool_seconds\": %.0f, \"busy\": %.0f, "
              "\"makespan\": %.0f, \"faults\": %zu},\n",
              batch_util, batch_hv, batch_result.stats.ga_evaluations,
              batch_result.stats.simulated_tool_seconds,
              batch_result.stats.busy_tool_seconds,
              batch_result.stats.virtual_makespan_seconds,
              batch_result.stats.faults_injected);
  std::printf("  \"steady\": {\"utilization\": %.4f, \"hypervolume\": %.1f, "
              "\"evaluations\": %zu, \"tool_seconds\": %.0f, \"busy\": %.0f, "
              "\"makespan\": %.0f, \"faults\": %zu},\n",
              steady_util, steady_hv, steady_result.stats.ga_evaluations,
              steady_result.stats.simulated_tool_seconds,
              steady_result.stats.busy_tool_seconds,
              steady_result.stats.virtual_makespan_seconds,
              steady_result.stats.faults_injected);
  std::printf("  \"bar\": \"steady > 0.90, batch < 0.70, steady_hv >= batch_hv\",\n");
  std::printf("  \"within_budget\": %s\n", ok ? "true" : "false");
  std::printf("}\n");
  return ok ? 0 : 1;
}
