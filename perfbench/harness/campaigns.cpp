// The two campaign workloads.
//
//   fifo-nwm     the paper's Sec. IV-A setup: cv32e40p FIFO, DEPTH 8..507,
//                lut/ff/fmax, NWM approximation with 200 pre-training runs,
//                generational NSGA-II (pop 48, 60 generations), inline.
//                The model layer does almost all the work.
//   exact-sweep  one Corundum (Verilog) and one TiReX (VHDL) campaign per
//                unit of work, with ranges widened so nearly every
//                evaluation is a fresh tool run; exact evaluation,
//                steady-state NSGA-II, 3 workers. The hdl, boxing, tcl,
//                edatool and broker layers do the work; the model layer
//                does nothing.
//
// Untraced runs report the end-to-end metrics. Traced runs first repeat a
// few campaigns untraced (the overhead baseline), then install the registry
// decorators and rerun the same seeds traced, then replay single layers on
// the inputs those campaigns produced.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <set>
#include <thread>

#include "perfbench/harness/bench.hpp"
#include "src/boxing/box.hpp"
#include "src/core/dse.hpp"
#include "src/hdl/frontend.hpp"
#include "src/model/control.hpp"
#include "src/opt/indicators.hpp"
#include "src/opt/nds.hpp"
#include "src/tcl/frames.hpp"

namespace perfbench {

namespace {

namespace core = dovado::core;

/// One case study with its fixed hypervolume box: per objective the
/// metric's best and worst bound (metric direction, not negated).
struct Design {
  std::string name;
  core::ProjectConfig project;
  core::DesignSpace space;
  std::vector<core::Objective> objectives;
  std::vector<std::pair<double, double>> box;  ///< {best, worst} per objective
};

Design fifo_design(const std::string& rtl) {
  Design d;
  d.name = "fifo";
  d.project = fifo_project(rtl);
  d.space.params.push_back({"DEPTH", core::ParamDomain::range(8, 507)});
  d.objectives = {{"lut", false}, {"ff", false}, {"fmax_mhz", true}};
  d.box = {{0.0, 6000.0}, {0.0, 18000.0}, {600.0, 250.0}};
  return d;
}

Design corundum_design(const std::string& rtl) {
  Design d;
  d.name = "corundum";
  d.project.sources.push_back({rtl + "/corundum_cq_manager.v", dovado::hdl::HdlLanguage::kVerilog,
                               "work", false});
  d.project.top_module = "cpl_queue_manager";
  d.project.part = kPart;
  d.space.params.push_back({"OP_TABLE_SIZE", core::ParamDomain::range(8, 64)});
  d.space.params.push_back({"QUEUE_INDEX_WIDTH", core::ParamDomain::range(4, 10)});
  d.space.params.push_back({"PIPELINE", core::ParamDomain::range(2, 5)});
  d.objectives = {{"lut", false}, {"ff", false}, {"bram", false}, {"fmax_mhz", true}};
  d.box = {{0.0, 1000.0}, {0.0, 3000.0}, {0.0, 8.0}, {400.0, 150.0}};
  return d;
}

Design tirex_design(const std::string& rtl) {
  Design d;
  d.name = "tirex";
  d.project.sources.push_back({rtl + "/tirex_top.vhd", dovado::hdl::HdlLanguage::kVhdl, "work",
                               false});
  d.project.top_module = "tirex_top";
  d.project.part = kPart;
  d.space.params.push_back({"NCLUSTER", core::ParamDomain::range(1, 16)});
  d.space.params.push_back({"STACK_SIZE", core::ParamDomain::range(8, 64)});
  d.space.params.push_back({"INSTR_MEM_SIZE", core::ParamDomain::range(4, 64)});
  d.space.params.push_back({"DATA_MEM_SIZE", core::ParamDomain::range(8, 64)});
  d.objectives = {{"lut", false}, {"bram", false}, {"fmax_mhz", true}};
  d.box = {{0.0, 8000.0}, {0.0, 150.0}, {250.0, 100.0}};
  return d;
}

enum class Kind { kFifoNwm, kExactSweep };

/// setup_s: engine construction is sub-millisecond, so it is timed
/// kSetupRepeats times before each unit of work, and the median over the
/// run is reported. Spreading the samples over the run averages the host's
/// speed drift.
constexpr int kSetupRepeats = 25;

/// The CPU clock that sees all of a campaign's work: an inline engine runs
/// on the calling thread, beside the other lanes; an engine with workers
/// runs alone in the process.
double campaign_cpu_s(const core::DseConfig& config) {
  return config.workers == 0 ? thread_cpu_s() : process_cpu_s();
}

core::DseConfig campaign_config(const Design& design, Kind kind, std::uint64_t seed) {
  core::DseConfig c;
  c.space = design.space;
  c.objectives = design.objectives;
  c.ga.population_size = 48;
  c.ga.max_generations = 60;
  c.ga.seed = seed;
  c.supervise.seed = seed;
  c.breaker.seed = seed;
  if (kind == Kind::kFifoNwm) {
    c.use_approximation = true;
    c.pretrain_samples = 200;
    c.workers = 0;
  } else {
    c.steady_state = true;
    c.optimizer = "nsga2";
    c.workers = 3;
  }
  return c;
}

/// Normalized hypervolume of a front inside the design's fixed box
/// (reference = the box's worst corner).
double normalized_hv(const Design& design, const std::vector<core::ExploredPoint>& front) {
  std::vector<dovado::opt::Objectives> points;
  for (const auto& p : front) {
    if (p.failed) continue;
    dovado::opt::Objectives o;
    for (std::size_t i = 0; i < design.objectives.size(); ++i) {
      const auto [best, worst] = design.box[i];
      o.push_back((p.metrics.get(design.objectives[i].metric) - best) / (worst - best));
    }
    points.push_back(std::move(o));
  }
  return dovado::opt::hypervolume(points,
                                  dovado::opt::Objectives(design.objectives.size(), 1.0));
}


/// One finished campaign with what the oracle and the replays need.
struct Campaign {
  const Design* design = nullptr;
  double run_s = 0.0;
  double cpu_s = 0.0;  ///< CPU time of run(), steal excluded
  double hv = 0.0;
  std::uint64_t span = 0;  ///< root span id (traced runs only)
  core::DseResult result;
  std::vector<dovado::model::Point> model_points;  ///< NWM dataset, insertion order
  std::vector<dovado::model::Values> model_values;
};

/// Engine constructions timed on the host clock and on the CPU clock.
struct Setups {
  std::vector<double> wall_s, cpu_s;
};

/// One unit of work: a fifo-nwm campaign, or an exact-sweep pair.
struct Unit {
  std::uint64_t seed = 0;
  double kernel_s = 0.0;  ///< calibration kernel CPU time just before the unit
  std::vector<Campaign> campaigns;

  [[nodiscard]] double sum(double Campaign::*field) const {
    double total = 0.0;
    for (const auto& c : campaigns) total += c.*field;
    return total;
  }
  template <typename F>
  [[nodiscard]] double sum_stat(F f) const {
    double total = 0.0;
    for (const auto& c : campaigns) total += static_cast<double>(f(c.result.stats));
    return total;
  }
};

class Workload {
 public:
  Workload(Kind kind, const std::string& rtl) : kind_(kind) {
    if (kind == Kind::kFifoNwm) {
      designs_.push_back(fifo_design(rtl));
    } else {
      designs_.push_back(corundum_design(rtl));
      designs_.push_back(tirex_design(rtl));
    }
  }

  [[nodiscard]] const std::vector<Design>& designs() const { return designs_; }

  /// A run cycles through a fixed list of unit seeds, so every run of a
  /// seed, on any host and at any speed, takes its medians over the same
  /// campaigns. A run completes at least one full cycle.
  [[nodiscard]] std::size_t unit_seeds() const { return kind_ == Kind::kFifoNwm ? 6 : 8; }
  [[nodiscard]] std::uint64_t unit_seed(std::uint64_t seed, std::size_t unit) const {
    return mix(seed, unit % unit_seeds());
  }

  /// Untraced fifo-nwm runs three lanes (threads) side by side; lane l of
  /// L runs seeds l, l+L, l+2L, ... in turn. The host's per-core speed
  /// differs between cores and drifts by up to ±20% over seconds, so one
  /// inline campaign at a time samples a single core's luck; three lanes
  /// sample three cores at once. exact-sweep's 3 workers already spread
  /// each campaign over the cores. unit_seeds() is a multiple of lanes(),
  /// so the lanes' first unit_seeds() / lanes units together cover every
  /// seed.
  [[nodiscard]] std::size_t lanes() const { return kind_ == Kind::kFifoNwm ? 3 : 1; }

  /// Campaign seed `i` of the unit seeded `unit_seed`.
  [[nodiscard]] static std::uint64_t campaign_seed(std::uint64_t unit_seed, std::size_t i) {
    return mix(unit_seed, i) % 1000003 + 1;
  }

  /// The config of campaign `i` of the unit seeded `unit_seed`.
  [[nodiscard]] core::DseConfig config(std::uint64_t unit_seed, std::size_t i) const {
    return campaign_config(designs_[i], kind_, campaign_seed(unit_seed, i));
  }

  /// Digest of the generated inputs: the workload definition plus the
  /// configs of every unit seed.
  [[nodiscard]] std::string digest(std::uint64_t seed) const {
    Digest d;
    for (const auto& design : designs_) {
      d.add(design.name);
      d.add(design.project.top_module);
      d.add(design.project.part);
      for (const auto& p : design.space.params) {
        d.add(p.name);
        d.add(p.domain.describe());
      }
      for (const auto& o : design.objectives) d.add(o.metric + (o.maximize ? "+" : "-"));
    }
    for (std::size_t u = 0; u < unit_seeds(); ++u) {
      for (std::size_t i = 0; i < designs_.size(); ++i) {
        const auto c = config(unit_seed(seed, u), i);
        d.add(static_cast<std::int64_t>(c.ga.seed));
        d.add(static_cast<std::int64_t>(c.ga.population_size));
        d.add(static_cast<std::int64_t>(c.ga.max_generations));
        d.add(static_cast<std::int64_t>(c.pretrain_samples * c.use_approximation));
        d.add(static_cast<std::int64_t>(c.workers + 100 * c.steady_state));
      }
    }
    return d.hex();
  }

  /// Threads the calibration kernel runs on before each unit, as many as
  /// the unit keeps busy: the lane's own thread for an inline fifo-nwm
  /// campaign, one per worker for exact-sweep.
  [[nodiscard]] std::size_t calibration_threads() const { return kind_ == Kind::kFifoNwm ? 1 : 3; }

  /// Runs one unit of work. With `setups`, first times kSetupRepeats
  /// constructions of the unit's engines, on the host clock and the CPU
  /// clock (summed over its designs; the engine is destroyed after the
  /// clocks stop). Then times the calibration kernel, then runs the
  /// campaigns.
  [[nodiscard]] Unit run_unit(std::uint64_t unit_seed, Setups* setups = nullptr) const {
    for (int r = 0; setups != nullptr && r < kSetupRepeats; ++r) {
      double wall_s = 0.0, cpu_s = 0.0;
      for (std::size_t i = 0; i < designs_.size(); ++i) {
        const core::DseConfig c = config(unit_seed, i);
        const double t0 = now_s();
        const double cpu0 = campaign_cpu_s(c);
        const core::DseEngine probe(designs_[i].project, c);
        cpu_s += campaign_cpu_s(c) - cpu0;
        wall_s += now_s() - t0;
      }
      setups->wall_s.push_back(wall_s);
      setups->cpu_s.push_back(cpu_s);
    }
    Unit unit;
    unit.seed = unit_seed;
    unit.kernel_s = calibrate(calibration_threads(), 5);
    for (std::size_t i = 0; i < designs_.size(); ++i) {
      unit.campaigns.push_back(run_campaign(designs_[i], config(unit_seed, i)));
    }
    return unit;
  }

 private:
  [[nodiscard]] static Campaign run_campaign(const Design& design, const core::DseConfig& config) {
    Campaign c;
    c.design = &design;
    Tracer& tracer = Tracer::get();
    core::DseEngine engine(design.project, config);
    const double cpu1 = campaign_cpu_s(config);
    const double t1 = now_s();
    if (tracer.on()) {
      c.span = tracer.next_id();
      tracer.set_root(c.span);
    }
    c.result = engine.run();
    const double t2 = now_s();
    c.cpu_s = campaign_cpu_s(config) - cpu1;
    if (tracer.on()) {
      tracer.set_root(0);
      tracer.record(Span{"core.campaign", c.span, 0, t1, t2, thread_index()});
    }
    c.run_s = t2 - t1;
    c.hv = normalized_hv(design, c.result.pareto);
    if (const auto* control = engine.control_model()) {
      c.model_points = control->dataset().points();
      c.model_values = control->dataset().values();
    }
    return c;
  }

  Kind kind_;
  std::vector<Design> designs_;
};

/// The correctness oracle: every front member is re-evaluated on a private
/// reference (outside any timed window) and must match the campaign's
/// answer exactly.
class Oracle {
 public:
  explicit Oracle(const std::vector<Design>& designs) {
    for (const auto& d : designs) references_.emplace(d.name, Reference(d.project));
  }

  Reference& reference(const Design& design) { return references_.at(design.name); }

  void check(const Campaign& c, Report& report) {
    for (const auto& p : c.result.pareto) {
      ++report.attempted;
      const core::EvalResult& ref = reference(*c.design).get(p.params);
      const bool match = p.failed ? !ref.ok
                                  : ref.ok && !p.estimated && p.metrics.values == ref.metrics.values;
      if (!match) {
        std::string where = c.design->name + " front member";
        for (const auto& [k, v] : p.params) where += " " + k + "=" + std::to_string(v);
        report.fail(where + (p.estimated ? " (estimated)" : "") + " differs from the reference");
      }
    }
  }

 private:
  std::map<std::string, Reference> references_;
};

/// Mean over the run's unit seeds of each seed's median of `f`: every seed
/// weighs the same however often the run repeated it.
double per_seed(const std::vector<Unit>& units, const std::function<double(const Unit&)>& f) {
  std::map<std::uint64_t, std::vector<double>> by_seed;
  for (const auto& u : units) by_seed[u.seed].push_back(f(u));
  double total = 0.0;
  for (const auto& [seed, values] : by_seed) total += median(values);
  return total / static_cast<double>(std::max<std::size_t>(1, by_seed.size()));
}

template <typename F>
double time_us(F&& f) {
  const double t0 = now_s();
  f();
  return (now_s() - t0) * 1e6;
}

/// Tool-evaluated (not estimated, not failed) distinct points of a design's
/// campaigns, in exploration order, at most `cap`.
std::vector<core::DesignPoint> tool_points(const std::vector<Unit>& units, const Design* design,
                                           std::size_t cap) {
  std::vector<core::DesignPoint> out;
  std::set<core::DesignPoint> seen;
  for (const auto& u : units) {
    for (const auto& c : u.campaigns) {
      if (c.design != design) continue;
      for (const auto& p : c.result.explored) {
        if (p.estimated || p.failed || !seen.insert(p.params).second) continue;
        out.push_back(p.params);
        if (out.size() >= cap) return out;
      }
    }
  }
  return out;
}

/// Replays the NWM control model on a campaign's dataset, in insertion
/// order, then times decide()/estimate() on the campaign's explored points.
void replay_model(const Campaign& c, Report& report) {
  dovado::model::ControlModel model;
  std::vector<double> add_ms;
  for (std::size_t i = 0; i < c.model_points.size(); ++i) {
    add_ms.push_back(time_us([&] { model.add_sample(c.model_points[i], c.model_values[i]); }) /
                     1e3);
  }
  std::vector<double> decide, estimate;
  for (const auto& p : c.result.explored) {
    dovado::model::Point x;
    for (const auto& spec : c.design->space.params) {
      x.push_back(static_cast<double>(p.params.at(spec.name)));
    }
    decide.push_back(time_us([&] { (void)model.decide(x); }));
    estimate.push_back(time_us([&] { (void)model.estimate(x); }));
  }
  double busy = 0.0;
  for (double v : add_ms) busy += v;
  const std::string replay = "replay of ControlModel on the campaign's dataset";
  put(report.per_layer, "model.add_sample.calls", static_cast<double>(add_ms.size()), "count", 1,
      replay);
  put(report.per_layer, "model.add_sample.busy_ms", busy, "ms", add_ms.size(), replay);
  put(report.per_layer, "model.add_sample.p99_ms", quantile(add_ms, 0.99), "ms", add_ms.size(),
      replay);
  put(report.per_layer, "model.decide_us", median(decide), "us", decide.size(), replay);
  put(report.per_layer, "model.estimate_us", median(estimate), "us", estimate.size(), replay);
  put(report.per_layer, "model.dataset_n", static_cast<double>(c.model_points.size()), "count", 1);
}

/// NWM estimate versus a private tool evaluation for the campaign's
/// estimated points (outside any timed window): mean relative error over
/// the objective metrics.
void verify_estimates(const Campaign& c, Oracle& oracle, Report& report) {
  std::vector<double> errors;
  for (const auto& p : c.result.explored) {
    if (!p.estimated || errors.size() >= 300) continue;
    const core::EvalResult& ref = oracle.reference(*c.design).get(p.params);
    if (!ref.ok) continue;
    for (const auto& o : c.design->objectives) {
      const double truth = ref.metrics.get(o.metric);
      if (truth != 0.0) errors.push_back(std::fabs(p.metrics.get(o.metric) - truth) / std::fabs(truth));
    }
  }
  double mean = 0.0;
  for (double e : errors) mean += e;
  if (!errors.empty()) mean /= static_cast<double>(errors.size());
  put(report.per_layer, "model.verify_abs_err", mean, "ratio", errors.size(),
      "mean |estimate - tool| / |tool| over estimated points and objectives");
}

/// Replays survival (non-dominated sort + crowding) on 2*pop windows of
/// the campaign's objective vectors, and hypervolume on its final front.
void replay_opt(const std::vector<Unit>& units, Report& report) {
  std::vector<double> survival, hv;
  for (const auto& u : units) {
    for (const auto& c : u.campaigns) {
      std::vector<dovado::opt::Objectives> objs;
      for (const auto& p : c.result.explored) {
        if (p.failed) continue;
        dovado::opt::Objectives o;
        for (const auto& obj : c.design->objectives) {
          o.push_back(obj.maximize ? -p.metrics.get(obj.metric) : p.metrics.get(obj.metric));
        }
        objs.push_back(std::move(o));
      }
      for (std::size_t start = 0; start + 96 <= objs.size() && survival.size() < 60; start += 96) {
        const std::vector<dovado::opt::Objectives> window(objs.begin() + start,
                                                          objs.begin() + start + 96);
        survival.push_back(time_us([&] {
          for (const auto& front : dovado::opt::fast_non_dominated_sort(window)) {
            (void)dovado::opt::crowding_distance(window, front);
          }
        }));
      }
      for (int i = 0; i < 5; ++i) {
        hv.push_back(time_us([&] { (void)normalized_hv(*c.design, c.result.pareto); }) / 1e3);
      }
    }
  }
  const std::string replay = "replay on the campaigns' own objective vectors";
  put(report.per_layer, "opt.survival_us", median(survival), "us", survival.size(), replay);
  put(report.per_layer, "opt.hypervolume_ms", median(hv), "ms", hv.size(), replay);
}

/// In-run spans: run_flow / ask / tell, campaign self time and coverage.
void span_metrics(const std::vector<Unit>& units, double overhead_pct, Report& report) {
  const std::vector<Span> spans = Tracer::get().spans();
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  std::vector<double> flow;
  double flow_busy = 0.0, ask_busy = 0.0, tell_busy = 0.0;
  for (const auto& s : spans) {
    const std::string name = s.name;
    if (name == "core.campaign") continue;
    children[s.parent].emplace_back(s.t0, s.t1);
    if (name == "edatool.run_flow") {
      flow.push_back((s.t1 - s.t0) * 1e6);
      flow_busy += (s.t1 - s.t0) * 1e3;
    } else if (name == "opt.ask") {
      ask_busy += (s.t1 - s.t0) * 1e3;
    } else if (name == "opt.tell") {
      tell_busy += (s.t1 - s.t0) * 1e3;
    }
  }
  std::vector<double> self_ms;
  double covered = 0.0, total = 0.0;
  for (const auto& s : spans) {
    if (std::string(s.name) != "core.campaign") continue;
    const double child = union_length(children[s.id]);
    self_ms.push_back((s.t1 - s.t0 - child) * 1e3);
    covered += child;
    total += s.t1 - s.t0;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, units.size()));
  const std::string in_run = "in-run decorator, per unit of work";
  put(report.per_layer, "edatool.run_flow.calls", static_cast<double>(flow.size()) / n, "count",
      flow.size(), in_run);
  put(report.per_layer, "edatool.run_flow.busy_ms", flow_busy / n, "ms", flow.size(), in_run);
  put(report.per_layer, "edatool.run_flow.p50_us", quantile(flow, 0.5), "us", flow.size());
  put(report.per_layer, "edatool.run_flow.p99_us", quantile(flow, 0.99), "us", flow.size());
  put(report.per_layer, "edatool.run_flow.failed",
      static_cast<double>(decorated_flow_failures()) / n, "count", flow.size(),
      "failed tool runs (over-utilized points), per unit of work");
  put(report.per_layer, "opt.ask.busy_ms", ask_busy / n, "ms", units.size(),
      ask_busy > 0 ? in_run : "the generational engine does not use the optimizer registry");
  put(report.per_layer, "opt.tell.busy_ms", tell_busy / n, "ms", units.size(),
      tell_busy > 0 ? in_run : "the generational engine does not use the optimizer registry");
  put(report.per_layer, "core.campaign_self_ms", median(self_ms), "ms", self_ms.size(),
      "campaign span minus the union of its in-run child spans");
  put(report.per_layer, "trace.coverage", total > 0 ? covered / total : 0.0, "ratio",
      self_ms.size(), "share of campaign wall time inside in-run child spans");
  put(report.per_layer, "trace.overhead_pct", overhead_pct, "%", units.size(),
      "traced vs untraced campaign wall time, same seeds");
}

void counter_metrics(const std::vector<Unit>& units, Report& report) {
  auto med = [&](auto f) { return per_seed(units, [&](const Unit& u) { return u.sum_stat(f); }); };
  const std::size_t n = units.size();
  const std::string per_unit = "DseStats per unit of work, mean of the per-seed medians";
  put(report.per_layer, "core.lease_waits", med([](const core::DseStats& s) { return s.lease_waits; }),
      "count", n, per_unit);
  put(report.per_layer, "core.fresh_runs", med([](const core::DseStats& s) { return s.tool_runs; }),
      "count", n, per_unit);
  put(report.per_layer, "core.cache_hits", med([](const core::DseStats& s) { return s.cache_hits; }),
      "count", n, per_unit);
  put(report.per_layer, "core.utilization",
      med([](const core::DseStats& s) { return s.tool_seconds_utilization; }) /
          static_cast<double>(units.front().campaigns.size()),
      "ratio", n, "virtual-lane utilization, mean over the unit's campaigns");
  put(report.per_layer, "analysis.preflight_ms",
      med([](const core::DseStats& s) { return s.preflight_ms; }), "ms", n, per_unit);
  put(report.per_layer, "model.estimate_share",
      med([](const core::DseStats& s) { return s.estimates; }) /
          std::max(1.0, med([](const core::DseStats& s) { return s.ga_evaluations; })),
      "ratio", n, "NWM estimates / GA evaluations");
}

void run_campaign_workload(Kind kind, const RunOptions& options, Report& report) {
  const Workload workload(kind, options.rtl_dir);
  report.digest = workload.digest(options.seed);
  Oracle oracle(workload.designs());

  // The traced run's untraced baseline uses one lane, like its traced rerun.
  const std::size_t lanes = options.trace ? 1 : workload.lanes();
  const std::size_t min_units = workload.unit_seeds() / lanes;
  std::vector<std::vector<Unit>> lane_units(lanes);
  std::vector<Setups> lane_setups(lanes);
  std::vector<std::exception_ptr> lane_errors(lanes);
  const double start = now_s();
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  auto run_lane = [&](std::size_t lane) {
    try {
      auto& units = lane_units[lane];
      while (units.size() < min_units || now_s() - start < budget) {
        units.push_back(workload.run_unit(workload.unit_seed(options.seed, lane + lanes * units.size()),
                                          options.trace ? nullptr : &lane_setups[lane]));
        if (!options.trace) {
          // Only the fronts are checked afterwards; dropping the explored
          // sets keeps peak_rss_mb independent of how many units fit.
          for (auto& c : units.back().campaigns) {
            c.result.explored = {};
            c.model_points = {};
            c.model_values = {};
          }
        }
      }
    } catch (...) {
      lane_errors[lane] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t lane = 1; lane < lanes; ++lane) threads.emplace_back(run_lane, lane);
  run_lane(0);
  for (auto& t : threads) t.join();
  for (const auto& e : lane_errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<Unit> units;
  Setups setups;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    for (auto& u : lane_units[lane]) units.push_back(std::move(u));
    const Setups& s = lane_setups[lane];
    setups.wall_s.insert(setups.wall_s.end(), s.wall_s.begin(), s.wall_s.end());
    setups.cpu_s.insert(setups.cpu_s.end(), s.cpu_s.begin(), s.cpu_s.end());
  }
  const double rss = peak_rss_mb();

  if (!options.trace) {
    for (const auto& u : units) {
      for (const auto& c : u.campaigns) oracle.check(c, report);
    }
    const std::size_t n = units.size();
    const std::string unit_note =
        (kind == Kind::kFifoNwm ? "per campaign" : "per Corundum+TiReX campaign pair") +
        std::string(", mean over the ") + std::to_string(workload.unit_seeds()) +
        " unit seeds of each one's median";
    std::vector<double> kernel_s;
    for (const auto& u : units) kernel_s.push_back(u.kernel_s);
    const double kernel = median(kernel_s);
    const std::string setup_note = "DseEngine construction per unit of work, " +
                                   std::to_string(kSetupRepeats) +
                                   " timed before each unit, median over the run";
    put(report.end_to_end, "setup_s", at_reference_speed(median(setups.cpu_s), kernel), "s",
        setups.cpu_s.size(), "CPU time (steal excluded) at the reference host speed; " + setup_note);
    put(report.end_to_end, "setup_wall_s", median(setups.wall_s), "s", setups.wall_s.size(),
        "host; " + setup_note);
    const double run_p50 = per_seed(units, [](const Unit& u) { return u.sum(&Campaign::run_s); });
    put(report.end_to_end, "campaign_s", run_p50, "s", n, "host; DseEngine::run() " + unit_note);
    put(report.end_to_end, "lat_p50_ms", run_p50 * 1e3, "ms", n,
        "host; latency of one unit of work " + unit_note);
    const double cpu_s = per_seed(units, [](const Unit& u) { return u.sum(&Campaign::cpu_s); });
    put(report.end_to_end, "cpu_ms", at_reference_speed(cpu_s, kernel) * 1e3, "ms", n,
        "CPU time (steal excluded) of DseEngine::run() at the reference host speed " + unit_note);
    put(report.end_to_end, "cpu_raw_ms", cpu_s * 1e3, "ms", n,
        "CPU time (steal excluded) of DseEngine::run() as measured " + unit_note);
    put(report.end_to_end, "kernel_ms", kernel * 1e3, "ms", kernel_s.size(),
        "CPU time of the calibration kernel, median over the run (reference " +
            std::to_string(kReferenceKernelS * 1e3) + " ms)");
    put(report.end_to_end, "tool_s", per_seed(units, [](const Unit& u) {
          return u.sum_stat([](const core::DseStats& s) { return s.simulated_tool_seconds; });
        }), "s", n, "simulated tool-seconds paid " + unit_note);
    put(report.end_to_end, "hypervolume",
        per_seed(units, [](const Unit& u) {
          return u.sum(&Campaign::hv) / static_cast<double>(u.campaigns.size());
        }),
        "ratio", n, "normalized HV in the fixed per-design box, mean over a unit's campaigns");
    std::map<std::uint64_t, std::string> walls;
    for (const auto& u : units) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " %.3f", u.sum(&Campaign::run_s));
      walls[u.seed] += buf;
    }
    std::string by_seed = "unit wall seconds by unit seed:";
    for (const auto& [seed, text] : walls) by_seed += " [" + text.substr(1) + "]";
    report.notes.push_back(by_seed);
    put(report.end_to_end, "peak_rss_mb", rss, "MB", 1, "peak resident set after the timed loop");
    return;
  }

  // Traced run: the untraced units above are the overhead baseline; rerun
  // their seeds traced, then replay single layers.
  std::vector<double> untraced;
  for (const auto& u : units) untraced.push_back(u.sum(&Campaign::run_s));
  install_decorators();
  Tracer::get().enable();
  std::vector<Unit> traced;
  for (const auto& u : units) traced.push_back(workload.run_unit(u.seed));
  Tracer::get().disable();
  std::vector<double> traced_s;
  for (const auto& u : traced) traced_s.push_back(u.sum(&Campaign::run_s));
  const double overhead = (median(traced_s) / median(untraced) - 1.0) * 100.0;
  for (const auto& u : traced) {
    for (const auto& c : u.campaigns) oracle.check(c, report);
  }
  span_metrics(traced, overhead, report);
  counter_metrics(traced, report);
  PipelineSamples pipeline;
  for (const auto& design : workload.designs()) {
    pipeline.add(design.project, tool_points(traced, &design, 200));
  }
  pipeline.report(report);
  replay_opt(traced, report);
  const Campaign& last = traced.back().campaigns.front();
  if (kind == Kind::kFifoNwm) {
    replay_model(last, report);
    verify_estimates(last, oracle, report);
  }
  const std::string path = options.work_dir + "/trace-" + options.workload + ".json";
  if (Tracer::get().write_chrome(path)) report.notes.push_back("chrome trace: " + path);
}

}  // namespace

void PipelineSamples::add(const core::ProjectConfig& project,
                          const std::vector<core::DesignPoint>& points) {
  core::PointEvaluator evaluator(project);
  for (const auto& p : points) cold.push_back(time_us([&] { (void)evaluator.evaluate(p); }));
  for (const auto& p : points) hit.push_back(time_us([&] { (void)evaluator.evaluate(p); }));
  for (int i = 0; i < 40; ++i) {
    parse.push_back(time_us([&] { (void)dovado::hdl::parse_file(project.sources.front().path); }));
  }
  for (const auto& p : points) {
    dovado::boxing::BoxConfig cfg;
    cfg.parameters = p;
    cfg.target_period_ns = project.target_period_ns;
    dovado::boxing::BoxResult result;
    box.push_back(time_us([&] { result = dovado::boxing::generate_box(evaluator.module(), cfg); }));
    dovado::tcl::FrameConfig frame;
    frame.sources = project.sources;
    frame.box_path =
        result.language == dovado::hdl::HdlLanguage::kVhdl ? "dovado_box.vhd" : "dovado_box.v";
    frame.box_language = result.language;
    frame.top = result.top_name;
    frame.part = project.part;
    script.push_back(time_us([&] { (void)dovado::tcl::generate_flow_script(frame); }));
  }
}

void PipelineSamples::report(Report& report) const {
  const std::string replay = "replay on the workload's own points";
  put(report.per_layer, "core.evaluate_cold_us", median(cold), "us", cold.size(),
      replay + "; new cache, every call a miss");
  put(report.per_layer, "core.evaluate_hit_us", median(hit), "us", hit.size(), replay);
  put(report.per_layer, "hdl.parse_file_us", median(parse), "us", parse.size(), replay);
  put(report.per_layer, "boxing.generate_box_us", median(box), "us", box.size(), replay);
  put(report.per_layer, "tcl.flow_script_us", median(script), "us", script.size(), replay);
}

void run_fifo_nwm(const RunOptions& options, Report& report) {
  run_campaign_workload(Kind::kFifoNwm, options, report);
}

void run_exact_sweep(const RunOptions& options, Report& report) {
  run_campaign_workload(Kind::kExactSweep, options, report);
}

}  // namespace perfbench

namespace perfbench {

void selftest_campaigns(const RunOptions& options, Checks& checks) {
  // Two short fifo-nwm campaigns of one seed, from two independent
  // workloads, must agree bit for bit: configs, fronts and tool-seconds.
  const Workload nwm(Kind::kFifoNwm, options.rtl_dir);
  auto short_nwm = [&](const Workload& workload) {
    core::DseConfig config = workload.config(workload.unit_seed(7, 0), 0);
    config.ga.population_size = 12;
    config.ga.max_generations = 6;
    config.pretrain_samples = 20;
    return std::make_pair(config.ga.seed,
                          core::DseEngine(workload.designs().front().project, config).run());
  };
  auto same = [](const core::DseResult& a, const core::DseResult& b) {
    if (a.pareto.size() != b.pareto.size() ||
        a.stats.simulated_tool_seconds != b.stats.simulated_tool_seconds) {
      return false;
    }
    for (std::size_t i = 0; i < a.pareto.size(); ++i) {
      if (a.pareto[i].params != b.pareto[i].params ||
          a.pareto[i].metrics.values != b.pareto[i].metrics.values ||
          a.pareto[i].estimated != b.pareto[i].estimated) {
        return false;
      }
    }
    return true;
  };
  const auto [seed_a, first] = short_nwm(nwm);
  const auto [seed_b, second] = short_nwm(Workload(Kind::kFifoNwm, options.rtl_dir));
  checks.expect(seed_a == seed_b && !first.pareto.empty() && same(first, second),
                "same seed gives a bit-identical fifo-nwm campaign");
  const Workload sweep(Kind::kExactSweep, options.rtl_dir);
  checks.expect(sweep.digest(7) != sweep.digest(8) && nwm.digest(7) != nwm.digest(8) &&
                    nwm.config(nwm.unit_seed(8, 0), 0).ga.seed != seed_a,
                "another seed gives other campaign configs");

  // A short exact Corundum campaign: the oracle must accept its front, then
  // catch a corrupted reference answer.
  const Design& design = sweep.designs().front();
  core::DseConfig config = campaign_config(design, Kind::kExactSweep, 5);
  config.ga.population_size = 8;
  config.ga.max_generations = 3;
  Campaign c;
  c.design = &design;
  c.result = core::DseEngine(design.project, config).run();
  Oracle oracle(sweep.designs());
  Report clean;
  oracle.check(c, clean);
  checks.expect(clean.attempted > 0 && clean.failed == 0, "oracle accepts a correct front");
  oracle.reference(design).corrupt(c.result.pareto.front().params);
  Report corrupted;
  oracle.check(c, corrupted);
  checks.expect(corrupted.failed == 1, "oracle catches one corrupted reference answer");
}

}  // namespace perfbench
