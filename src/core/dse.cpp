#include "src/core/dse.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <numeric>
#include <set>
#include <stdexcept>

#include "src/analysis/analyzer.hpp"
#include "src/analysis/render.hpp"

#include "src/opt/nds.hpp"
#include "src/opt/optimizer.hpp"
#include "src/util/logging.hpp"
#include "src/util/strings.hpp"

namespace dovado::core {

namespace {

/// Objectives of a point that has no usable score (failed, unhedged or
/// cut by a stop): worse than anything a real design reports.
opt::Objectives failure_penalty(std::size_t n_objectives) {
  return opt::Objectives(n_objectives, 1e18);
}

/// The design space as the searchers' index-space Problem. Genomes are
/// scored by the engine's submit/complete loop, never through evaluate().
class SpaceProblem final : public opt::Problem {
 public:
  SpaceProblem(const DesignSpace& space, std::size_t n_obj) : space_(space), n_obj_(n_obj) {}

  [[nodiscard]] std::size_t n_vars() const override { return space_.size(); }
  [[nodiscard]] std::size_t n_objectives() const override { return n_obj_; }
  [[nodiscard]] std::int64_t cardinality(std::size_t var) const override {
    return space_.params[var].domain.size();
  }
  [[nodiscard]] opt::Objectives evaluate(const opt::Genome& /*genome*/) override {
    throw std::logic_error("design points are scored by DseEngine's submit/complete loop");
  }

 private:
  const DesignSpace& space_;
  std::size_t n_obj_;
};

/// The one rule for what a prior answer (session point) is: a tool answer,
/// neither an estimate nor an approximate score standing in for one.
bool exact(const ExploredPoint& point) { return !point.estimated && !point.approximate; }

/// The engine's one way to pay a broker: evaluations are submitted onto the
/// broker's pool (run at submit time when it has no workers) and their
/// answers popped in (virtual_finish, seq) order. Inline, that pop order
/// exactly replays the virtual fleet's completion schedule; under real
/// threads it is the closest deterministic-given-completion-order
/// approximation. Control-thread only, apart from the pool tasks' publish.
class Dispatcher {
 public:
  /// One submitted evaluation. `result` (or `error`) is written by the
  /// pool task and read by the caller only after next() handed it out.
  struct Flight {
    std::size_t seq = 0;
    std::size_t slot = 0;  ///< the caller's index (generation slot, batch index)
    opt::Genome genome;
    DesignPoint point;
    EvalResult result;
    std::exception_ptr error;  ///< what tool_evaluate threw, if anything
  };

  explicit Dispatcher(EvaluationBroker& broker) : broker_(broker) {}
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;
  /// Pool tasks touch this object until they publish, so let every one
  /// land (also when the caller is unwinding from an exception).
  ~Dispatcher() {
    util::MutexLock lock(mu_);
    while (ready_.size() != inflight_) cv_.wait(mu_);
  }

  [[nodiscard]] std::size_t inflight() const { return inflight_; }

  void submit(opt::Genome genome, DesignPoint point, std::size_t slot) {
    auto flight = std::make_shared<Flight>();
    flight->seq = seq_++;
    flight->slot = slot;
    flight->genome = std::move(genome);
    flight->point = std::move(point);
    ++inflight_;
    broker_.async([this, flight] {
      try {
        flight->result = broker_.tool_evaluate(flight->point);
      } catch (...) {
        flight->error = std::current_exception();  // rethrown by next()
      }
      // Notify while holding the lock: the control thread cannot pop this
      // completion (and then destroy the dispatcher) until this task has
      // released the mutex — by which point it no longer touches either.
      util::MutexLock lock(mu_);
      ready_.push_back(flight);
      cv_.notify_one();
    });
  }

  /// The earliest virtual finish among the landed answers (sequence number
  /// breaks ties and orders zero-cost answers); blocks until one lands.
  /// Rethrows what the evaluation threw, on the caller's thread.
  [[nodiscard]] Flight next() {
    util::MutexLock lock(mu_);
    while (ready_.empty()) cv_.wait(mu_);
    auto best = ready_.begin();
    for (auto it = std::next(ready_.begin()); it != ready_.end(); ++it) {
      if ((*it)->result.virtual_finish < (*best)->result.virtual_finish ||
          ((*it)->result.virtual_finish == (*best)->result.virtual_finish &&
           (*it)->seq < (*best)->seq)) {
        best = it;
      }
    }
    Flight done = std::move(**best);
    ready_.erase(best);
    --inflight_;
    if (done.error) std::rethrow_exception(done.error);
    return done;
  }

 private:
  EvaluationBroker& broker_;
  util::Mutex mu_{"DseEngine.dispatch"};
  util::CondVar cv_;
  std::vector<std::shared_ptr<Flight>> ready_ DOVADO_GUARDED_BY(mu_);
  std::size_t inflight_ = 0;
  std::size_t seq_ = 0;
};

/// Evaluate `points` on `broker` through a Dispatcher: submitted in index
/// order with at most one per virtual lane in flight. With
/// `check_deadline` the tool deadline is checked before every submission,
/// as the search loop does: nothing is submitted after the crossing (the
/// broker flags the hit), and answers already in flight still land.
/// Returns the answers by index for the submitted prefix of `points`.
std::vector<EvalResult> dispatch_batch(EvaluationBroker& broker,
                                       const std::vector<DesignPoint>& points,
                                       bool check_deadline) {
  Dispatcher dispatcher(broker);
  const std::size_t lanes = std::max<std::size_t>(1, broker.virtual_lane_count());
  std::vector<EvalResult> answers;
  answers.reserve(points.size());
  bool cut = false;
  while (true) {
    while (!cut && answers.size() < points.size() && dispatcher.inflight() < lanes) {
      if (check_deadline && broker.deadline_exceeded()) {
        broker.mark_deadline_hit();
        cut = true;
        break;
      }
      dispatcher.submit({}, points[answers.size()], answers.size());
      answers.emplace_back();
    }
    if (dispatcher.inflight() == 0) return answers;
    Dispatcher::Flight done = dispatcher.next();
    answers[done.slot] = std::move(done.result);
  }
}

}  // namespace

DseEngine::DseEngine(ProjectConfig project, DseConfig config)
    : project_(std::move(project)), config_(std::move(config)) {
  if (config_.space.params.empty()) {
    throw std::runtime_error("design space has no parameters");
  }
  if (config_.objectives.empty()) {
    throw std::runtime_error("at least one objective is required");
  }
  for (const auto& derived : config_.derived_metrics) {
    if (derived.name.empty() || !derived.compute) {
      throw std::runtime_error("derived metric needs a name and a compute function");
    }
  }
  if (!(config_.screen_keep_ratio > 0.0) || config_.screen_keep_ratio > 1.0) {
    throw std::runtime_error("screen_keep_ratio must be in (0, 1]");
  }
  // Mirrors the CLI's parse-time check: a max_inflight bound only governs
  // the steady policy, so setting it under the barrier policy (one run per
  // virtual lane) would be silently ignored — fail loudly instead.
  if (config_.max_inflight != 0 && !config_.steady_state) {
    throw std::runtime_error(
        "max_inflight bounds the steady-state submit loop; enable "
        "steady_state or leave max_inflight at 0");
  }
  // Optimizer selection fails loudly at construction, mirroring the
  // backend/objective-metric validation below (did-you-mean included).
  opt::OptimizerRegistry::ensure_known(config_.optimizer);
  if (config_.optimizer != "nsga2" && !config_.steady_state) {
    throw std::runtime_error("optimizer '" + config_.optimizer +
                             "' requires the steady-state engine (--steady-state); the "
                             "generational path is NSGA-II-specific");
  }
  if (!config_.portfolio_members.empty() && config_.optimizer != "portfolio") {
    throw std::runtime_error(
        "portfolio_members is only valid with optimizer \"portfolio\" (got '" +
        config_.optimizer + "')");
  }
  {
    std::set<std::string> member_names;
    for (const auto& member : config_.portfolio_members) {
      opt::OptimizerRegistry::ensure_known(member);
      if (member == "portfolio") {
        throw std::runtime_error("portfolio members cannot nest another portfolio");
      }
      if (!member_names.insert(member).second) {
        throw std::runtime_error("duplicate portfolio member '" + member +
                                 "' (resume attribution is by member name)");
      }
    }
  }
  if (!config_.backend.empty()) project_.backend = config_.backend;

  // Cross-campaign evaluation store: opened before the brokers so every
  // tier shares one handle. Single-writer: when another live campaign
  // holds the lock this run degrades to a read-only snapshot (store hits
  // still work; its own evaluations are simply not persisted) — readers
  // always proceed.
  if (!config_.store_path.empty()) {
    auto opened = store::EvalStore::open_writer(config_.store_path);
    if (!opened.store && opened.lock_busy) {
      util::Log::warn(opened.error);
      opened = store::EvalStore::open_reader(config_.store_path);
    }
    if (!opened.store) throw std::runtime_error(opened.error);
    store_ = std::move(opened.store);
    const store::StoreStats store_stats = store_->stats();
    if (store_stats.torn_tail) {
      util::Log::warn("evaluation store '" + config_.store_path +
                      "' had a torn final record (crash mid-append); dropped");
    }
    if (store_stats.quarantined > 0) {
      util::Log::warn("evaluation store '" + config_.store_path + "': quarantined " +
                      std::to_string(store_stats.quarantined) + " corrupt region(s)");
    }
    stats_.store_quarantined_records = store_stats.quarantined;
    util::Log::info("evaluation store '" + config_.store_path + "': " +
                    std::to_string(store_stats.live) + " known evaluations" +
                    (store_->writable() ? "" : " (read-only)"));
  }

  // The high-fidelity broker: cache, evaluator pool, supervisor, fault
  // injector, journal and deadline accounting (see core/broker.hpp).
  BrokerConfig broker_config;
  broker_config.workers = config_.workers;
  broker_config.virtual_lanes = config_.virtual_lanes;
  broker_config.supervise = config_.supervise;
  broker_config.fault_plan = config_.fault_plan;
  broker_config.derived_metrics = config_.derived_metrics;
  broker_config.deadline_tool_seconds = config_.deadline_tool_seconds;
  broker_config.journal_path = config_.journal_path;
  broker_config.resume_from_journal = config_.resume_from_journal;
  broker_config.store = store_;
  broker_config.store_tier = store::EvalStore::kTierHifi;
  broker_config.campaign_id = config_.campaign_id;
  broker_ = std::make_unique<EvaluationBroker>(project_, broker_config);
  if (config_.max_inflight > broker_->virtual_lane_count()) {
    util::Log::warn("max_inflight " + std::to_string(config_.max_inflight) +
                    " exceeds the " +
                    std::to_string(broker_->virtual_lane_count()) +
                    " virtual lane(s); the extra in-flight slots only queue "
                    "behind busy lanes");
  }

  // Validate metric names against what the backend actually reports, with
  // a did-you-mean suggestion — a typo'd objective must fail loudly at
  // construction, not silently optimize a metric that is always zero.
  const std::vector<std::string>& backend_metrics = broker_->metric_names();
  const auto is_backend_metric = [&](const std::string& name) {
    return std::find(backend_metrics.begin(), backend_metrics.end(), name) !=
           backend_metrics.end();
  };
  std::vector<std::string> known = backend_metrics;
  for (const auto& derived : config_.derived_metrics) {
    if (is_backend_metric(derived.name)) {
      throw std::runtime_error("derived metric '" + derived.name +
                               "' shadows a tool metric");
    }
    known.push_back(derived.name);
  }
  for (const auto& obj : config_.objectives) {
    if (std::find(known.begin(), known.end(), obj.metric) != known.end()) continue;
    std::string message = "unknown objective metric '" + obj.metric + "'";
    const std::string suggestion = util::closest_match(obj.metric, known);
    if (!suggestion.empty()) message += " (did you mean '" + suggestion + "'?)";
    message += "; backend '" + broker_->backend_info().name +
               "' reports: " + util::join(known, ", ");
    throw std::runtime_error(message);
  }

  // Validate that every space parameter exists on the module and is free.
  const hdl::Module& module = broker_->module();
  for (const auto& spec : config_.space.params) {
    bool found = false;
    for (const auto& p : module.free_parameters()) {
      const bool match = module.language == hdl::HdlLanguage::kVhdl
                             ? util::iequals(p.name, spec.name)
                             : p.name == spec.name;
      if (match) {
        found = true;
        break;
      }
    }
    if (!found) {
      throw std::runtime_error("design-space parameter '" + spec.name +
                               "' is not a free parameter of module '" + module.name + "'");
    }
  }

  // Multi-fidelity screening: a second broker on the low-fidelity backend.
  if (config_.screen_keep_ratio < 1.0) screen_broker_ = make_low_fidelity_broker();

  // Backend health management (see core/health/): a circuit breaker on the
  // high-fidelity backend drives the degradation ladder. Pointless when the
  // hi-fi backend *is* the hedge tier — there is nothing to degrade to.
  if (config_.breaker.enabled &&
      broker_->backend_info().name != config_.screen_backend) {
    health_ = std::make_shared<BackendHealthManager>(config_.breaker);
    health_->set_event_sink([this](const HealthEvent& event) {
      util::Log::warn("backend '" + event.backend + "' breaker: " +
                      health_event_kind_name(event.kind) +
                      (event.cause.empty() ? "" : " (" + event.cause + ")"));
      broker_->append_health_event(event);
    });
    broker_->set_health_manager(health_);
  }

  if (config_.use_approximation) {
    control_ = std::make_unique<model::ControlModel>(config_.control);
  }

  // Warm start: exact answers from a previous session pre-populate the
  // shared evaluation cache (and the approximation dataset), so the resumed
  // exploration treats them as already-paid-for tool runs.
  for (const auto& point : config_.warm_start) {
    if (!exact(point)) continue;
    EvalResult seeded;
    seeded.ok = !point.failed;
    seeded.metrics = point.metrics;
    if (point.failed) seeded.error = "failed in a previous session";
    broker_->seed_cache(point.params, seeded);
    absorb(point.params, point.metrics, !point.failed);
  }

  // Crash recovery: the broker seeds its cache from the journal (skipping
  // warm-started points); the engine absorbs the seeded records the way
  // the original run grew its state, so a resumed model-guided exploration
  // makes the same decisions. Journaled breaker transitions restore the
  // health state (an open breaker stays open — a resumed run must not
  // re-pay the failure window of a known outage).
  for (const auto& rec : broker_->replay_journal()) absorb(rec.params, rec.metrics, rec.ok);
  if (health_) health_->restore(broker_->replayed_health_events());
}

EvaluationBroker* DseEngine::hedge_broker() {
  // With screening enabled the low-fidelity broker already exists and its
  // cache likely holds the hedged points (screen_batch saw them first).
  if (screen_broker_) return screen_broker_.get();
  util::MutexLock lock(hedge_mutex_);
  if (!owned_hedge_broker_) owned_hedge_broker_ = make_low_fidelity_broker();
  return owned_hedge_broker_.get();
}

std::unique_ptr<EvaluationBroker> DseEngine::make_low_fidelity_broker() const {
  // No fault plan, no journal, no deadline: low-fidelity answers are cheap,
  // disposable estimates; only high-fidelity spend is budgeted. They are
  // persisted under the "screen" store tier, so they can only ever be
  // served back to a screen-tier broker, never as hi-fi answers.
  ProjectConfig lofi_project = project_;
  lofi_project.backend = config_.screen_backend;
  BrokerConfig lofi;
  lofi.workers = config_.workers;
  lofi.supervise = config_.supervise;
  lofi.derived_metrics = config_.derived_metrics;
  lofi.store = store_;
  lofi.store_tier = store::EvalStore::kTierScreen;
  lofi.campaign_id = config_.campaign_id;
  return std::make_unique<EvaluationBroker>(std::move(lofi_project), std::move(lofi));
}

void DseEngine::enqueue_probe(const DesignPoint& point) {
  if (!health_) return;
  util::MutexLock lock(probe_mutex_);
  // Bounded and deduplicated: a handful of representative fast-failed
  // points is enough to diagnose recovery; queueing every one would turn
  // the queue into a shadow of the whole search.
  const std::size_t cap = std::max<std::size_t>(config_.breaker.probe_budget * 4, 8);
  if (probe_queue_.size() >= cap) return;
  if (!probe_seen_.insert(point).second) return;
  probe_queue_.push_back(point);
}

void DseEngine::run_probe_queue() {
  if (!health_) return;
  const std::string& backend = broker_->backend_info().name;
  while (health_->probe_wanted(backend)) {
    DesignPoint point;
    {
      util::MutexLock lock(probe_mutex_);
      if (probe_queue_.empty()) return;
      point = probe_queue_.front();
      probe_queue_.pop_front();
    }
    const EvalResult r = broker_->tool_evaluate(point, /*probe=*/true);
    if (r.fast_failed) {
      // The cooldown is still counting (or the budget is spent); keep the
      // point for the next batch's probe round.
      util::MutexLock lock(probe_mutex_);
      probe_queue_.push_front(std::move(point));
      return;
    }
    count_answer(r);
    if (!r.ok) continue;  // breaker handles the re-trip; the point is not recorded
    // A probe success is a paid-for exact answer: record it (superseding
    // any hedged estimate for the point) and, when fresh, grow the dataset.
    if (r.cache_hit || r.joined) record(point, r.metrics, false, false);
    else absorb(point, r.metrics, true);
  }
}

DseStats DseEngine::stats() const {
  DseStats snapshot;
  {
    util::MutexLock lock(stats_mutex_);
    snapshot = stats_;
  }
  const BrokerStats hifi = broker_->stats();
  snapshot.simulated_tool_seconds = hifi.tool_seconds;
  snapshot.deadline_hit = hifi.deadline_hit;
  snapshot.lease_waits = hifi.lease_waits;
  snapshot.batches = hifi.batches;
  snapshot.last_batch_tool_seconds = hifi.last_batch_tool_seconds;
  snapshot.max_batch_tool_seconds = hifi.max_batch_tool_seconds;
  snapshot.retries = hifi.retries;
  snapshot.transient_failures = hifi.transient_failures;
  snapshot.deterministic_failures = hifi.deterministic_failures;
  snapshot.timeouts = hifi.timeouts;
  snapshot.quarantined = hifi.quarantined;
  snapshot.backoff_tool_seconds = hifi.backoff_tool_seconds;
  snapshot.journal_replays = hifi.journal_replays;
  snapshot.journal_skipped_records = hifi.journal_skipped_records;
  snapshot.store_hits = hifi.store_hits;
  snapshot.store_appends = hifi.store_appends;
  snapshot.faults_injected = hifi.faults_injected;
  snapshot.tool_seconds_utilization = hifi.utilization;
  snapshot.busy_tool_seconds = hifi.busy_tool_seconds;
  snapshot.virtual_makespan_seconds = hifi.virtual_makespan_seconds;
  snapshot.virtual_lanes = hifi.virtual_lanes;
  snapshot.backend_runs[broker_->backend_info().name] += hifi.fresh_runs;
  if (screen_broker_) {
    const BrokerStats lofi = screen_broker_->stats();
    snapshot.screen_runs = lofi.fresh_runs;
    snapshot.screen_tool_seconds = lofi.tool_seconds;
    snapshot.backend_runs[screen_broker_->backend_info().name] += lofi.fresh_runs;
    snapshot.store_hits += lofi.store_hits;
    snapshot.store_appends += lofi.store_appends;
  }
  {
    // The lazily-built hedge broker (only exists once a breaker opened
    // without screening enabled).
    util::MutexLock lock(hedge_mutex_);
    if (owned_hedge_broker_) {
      const BrokerStats hedge = owned_hedge_broker_->stats();
      snapshot.backend_runs[owned_hedge_broker_->backend_info().name] += hedge.fresh_runs;
      snapshot.store_hits += hedge.store_hits;
      snapshot.store_appends += hedge.store_appends;
    }
  }
  if (health_) {
    const HealthStats health = health_->stats();
    snapshot.breaker_trips = health.trips;
    snapshot.breaker_recoveries = health.recoveries;
    snapshot.breaker_fast_fails = health.fast_fails;
    snapshot.probe_runs = health.probe_runs;
  }
  return snapshot;
}

opt::Objectives DseEngine::to_objectives(const EvalMetrics& metrics) const {
  opt::Objectives objs;
  objs.reserve(config_.objectives.size());
  for (const auto& obj : config_.objectives) {
    const double v = metrics.get(obj.metric);
    objs.push_back(obj.maximize ? -v : v);
  }
  return objs;
}

model::Point DseEngine::to_model_point(const DesignPoint& point) const {
  model::Point p;
  p.reserve(config_.space.size());
  for (const auto& spec : config_.space.params) {
    p.push_back(static_cast<double>(point.at(spec.name)));
  }
  return p;
}

std::optional<model::Values> DseEngine::objective_values(const DesignPoint& point,
                                                         const EvalMetrics& metrics) const {
  for (const auto& spec : config_.space.params) {
    if (point.count(spec.name) == 0) return std::nullopt;
  }
  model::Values values;
  values.reserve(config_.objectives.size());
  for (const auto& obj : config_.objectives) {
    if (metrics.values.count(obj.metric) == 0) return std::nullopt;
    values.push_back(metrics.get(obj.metric));
  }
  return values;
}

void DseEngine::absorb(const DesignPoint& point, const EvalMetrics& metrics, bool ok) {
  record(point, metrics, false, !ok);
  if (!control_ || !ok) return;
  auto values = objective_values(point, metrics);
  if (!values) return;
  model::Point coords = to_model_point(point);
  if (!control_->dataset().find_exact(coords)) {
    control_->add_sample(std::move(coords), std::move(*values));
  }
}

EvalMetrics DseEngine::estimate_metrics(const DesignPoint& point) const {
  const model::Values est = control_->estimate(to_model_point(point));
  EvalMetrics metrics;
  for (std::size_t k = 0; k < config_.objectives.size(); ++k) {
    metrics.values[config_.objectives[k].metric] = est[k];
  }
  return metrics;
}

void DseEngine::bump(std::size_t DseStats::*counter) {
  util::MutexLock lock(stats_mutex_);
  ++(stats_.*counter);
}

void DseEngine::count_answer(const EvalResult& r) {
  util::MutexLock lock(stats_mutex_);
  if (r.cache_hit) ++stats_.cache_hits;
  else if (r.joined) ++stats_.single_flight_joins;
  else if (!r.store_hit) ++stats_.tool_runs;  // store hits counted by the broker
  if (!r.ok) ++stats_.failures;
}

void DseEngine::record(const DesignPoint& point, const EvalMetrics& metrics, bool estimated,
                       bool failed, bool approximate) {
  util::MutexLock lock(record_mutex_);
  auto it = explored_index_.find(point);
  if (it != explored_index_.end()) {
    // A tool-backed answer supersedes an earlier estimate for the same point.
    if (explored_[it->second].estimated && !estimated) {
      explored_[it->second].metrics = metrics;
      explored_[it->second].estimated = false;
      explored_[it->second].failed = failed;
      explored_[it->second].approximate = approximate;
    }
    // An NWM fallback score supersedes the bare failure it degrades.
    if (explored_[it->second].failed && approximate) {
      explored_[it->second].metrics = metrics;
      explored_[it->second].failed = false;
      explored_[it->second].approximate = true;
    }
    return;
  }
  explored_index_[point] = explored_.size();
  explored_.push_back(ExploredPoint{point, metrics, estimated, failed, approximate});
}

void DseEngine::pretrain() {
  if (!control_ || config_.pretrain_samples == 0) return;

  // M *distinct* randomly sampled design points (Sec. III-C). Samples
  // contributed by a warm-started session count toward the budget.
  const std::size_t already = control_->dataset().size();
  if (already >= config_.pretrain_samples) return;
  util::Rng rng(config_.ga.seed ^ 0x9e3779b97f4a7c15ULL);
  std::set<DesignPoint> chosen;
  const std::int64_t volume = config_.space.volume();
  const std::size_t target =
      std::min<std::size_t>(config_.pretrain_samples - already,
                            static_cast<std::size_t>(std::min<std::int64_t>(
                                volume, std::numeric_limits<std::int64_t>::max())));
  int stale = 0;
  while (chosen.size() < target && stale < 10000) {
    std::vector<std::int64_t> genome(config_.space.size());
    for (std::size_t i = 0; i < genome.size(); ++i) {
      genome[i] = rng.uniform_int(0, config_.space.params[i].domain.size() - 1);
    }
    if (chosen.insert(config_.space.decode(genome)).second) stale = 0;
    else ++stale;
  }

  // The deadline is checked before every submission, as in the search.
  const std::vector<DesignPoint> points(chosen.begin(), chosen.end());
  const double start_seconds = broker_->tool_seconds();
  const std::vector<EvalResult> answers = dispatch_batch(*broker_, points, true);
  broker_->close_batch(start_seconds);
  broker_->lane_barrier();  // pretraining completes before the search starts

  for (std::size_t i = 0; i < answers.size(); ++i) {
    // A fast-failed pretrain sample never ran: it is neither a pretrain
    // run nor a statement about the point.
    if (answers[i].fast_failed) continue;
    bump(&DseStats::pretrain_runs);
    if (!answers[i].ok) bump(&DseStats::failures);
    absorb(points[i], answers[i].metrics, answers[i].ok);
  }
}

std::vector<std::optional<EvalResult>> DseEngine::screen_batch(
    const std::vector<DesignPoint>& unique_points) {
  std::vector<std::optional<EvalResult>> settled(unique_points.size());
  // Only uncached points are screened: anything the high-fidelity cache
  // already answers is forwarded (the hit is free and exact).
  std::vector<std::size_t> fresh;
  for (std::size_t ui = 0; ui < unique_points.size(); ++ui) {
    if (!broker_->cached(unique_points[ui])) fresh.push_back(ui);
  }
  if (fresh.empty()) return settled;

  // Screen-out decisions are sticky: a point that already holds a cached
  // screen answer lost the forwarding lottery in an earlier batch, and
  // re-entering it every time the GA resamples the point would leak most
  // of the screening savings (attractive points get re-proposed for
  // generations, and each re-ranking is another chance to be forwarded).
  // Such points settle from the cached estimate; only first-seen points
  // compete for the high-fidelity slots.
  std::vector<char> sticky(fresh.size(), 0);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    sticky[i] = screen_broker_->cached(unique_points[fresh[i]]) ? 1 : 0;
  }

  std::vector<DesignPoint> candidates;
  candidates.reserve(fresh.size());
  for (std::size_t ui : fresh) candidates.push_back(unique_points[ui]);
  std::vector<EvalResult> screens = dispatch_batch(*screen_broker_, candidates, false);

  // Rank the successful first-seen screens; failures are always forwarded
  // — the high-fidelity tool has the authoritative verdict on buildability.
  std::vector<std::size_t> ok_local;
  std::vector<opt::Objectives> objs;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (!screens[i].ok) continue;
    if (sticky[i]) {
      settled[fresh[i]] = screens[i];
      continue;
    }
    ok_local.push_back(i);
    objs.push_back(to_objectives(screens[i].metrics));
  }
  if (ok_local.empty()) return settled;
  const std::size_t keep = std::min<std::size_t>(
      ok_local.size(),
      static_cast<std::size_t>(std::ceil(config_.screen_keep_ratio *
                                         static_cast<double>(ok_local.size()))));
  if (keep >= ok_local.size()) return settled;  // nothing to screen out

  // Non-dominated fronts in order; the boundary front is thinned by
  // crowding distance so the kept subset stays spread along the front
  // (the NSGA-II survival rule, applied to the screen estimates).
  std::vector<char> kept(ok_local.size(), 0);
  std::size_t taken = 0;
  for (const auto& front : opt::fast_non_dominated_sort(objs)) {
    if (taken >= keep) break;
    if (taken + front.size() <= keep) {
      for (std::size_t member : front) kept[member] = 1;
      taken += front.size();
      continue;
    }
    const std::vector<double> crowd = opt::crowding_distance(objs, front);
    std::vector<std::size_t> order(front.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return crowd[a] > crowd[b]; });
    for (std::size_t k = 0; k < order.size() && taken < keep; ++k, ++taken) {
      kept[front[order[k]]] = 1;
    }
    break;
  }
  for (std::size_t j = 0; j < ok_local.size(); ++j) {
    if (!kept[j]) settled[fresh[ok_local[j]]] = std::move(screens[ok_local[j]]);
  }
  return settled;
}

opt::Objectives DseEngine::settle(const DesignPoint& point, const EvalResult& screen) {
  // Sticky screen-outs re-settle every time the search resamples the
  // point; only the first settle counts.
  bool first_settle;
  {
    util::MutexLock lock(record_mutex_);
    first_settle = explored_index_.find(point) == explored_index_.end();
  }
  if (first_settle) bump(&DseStats::screened_out);
  // The screen backend reports the same metric names, so objectives and
  // derived metrics line up.
  record(point, screen.metrics, true, false);
  return to_objectives(screen.metrics);
}

DseEngine::Scored DseEngine::resolve(const DesignPoint& point, const EvalResult& r) {
  if (r.fast_failed) {
    // Degraded rung of the availability ladder: the open breaker never
    // touched the hi-fi backend. Hedge on the analytic tier right away and
    // remember the point as a probe candidate, so recovery is tested on
    // points the search actually wants. The hedge is recorded estimated +
    // approximate, so front verification re-verifies it hi-fi once the
    // backend recovers. Hedged answers cost no hi-fi tool seconds: the
    // searcher is not billed for a fast-fail it did not cause.
    const EvalResult hedge = hedge_broker()->tool_evaluate(point);
    enqueue_probe(point);
    if (!hedge.ok) {
      // No hedge answer either: penalize, but do not record — nothing
      // ever evaluated the point.
      bump(&DseStats::failures);
      return {failure_penalty(config_.objectives.size()), 0.0};
    }
    if (!r.joined) bump(&DseStats::degraded_evals);  // once per point, not per duplicate
    record(point, hedge.metrics, /*estimated=*/true, /*failed=*/false, /*approximate=*/true);
    return {to_objectives(hedge.metrics), 0.0};
  }
  count_answer(r);
  // Graceful degradation: a quarantined point (the tool kept failing, not
  // a property of the design) is scored with an NWM estimate when the
  // dataset can support one, instead of the penalty that would punch a
  // hole in the front.
  if (!r.ok && r.quarantined && control_ && config_.approx_fallback_min_samples > 0 &&
      control_->dataset().size() >= config_.approx_fallback_min_samples) {
    const EvalMetrics metrics = estimate_metrics(point);
    bump(&DseStats::approx_fallbacks);
    record(point, metrics, false, false, /*approximate=*/true);
    return {to_objectives(metrics), r.tool_seconds};
  }
  // A fresh answer grows the dataset; hits and joins were absorbed when
  // their leader's answer landed.
  const bool fresh = !r.cache_hit && !r.joined;
  if (fresh) absorb(point, r.metrics, r.ok);
  else record(point, r.metrics, false, !r.ok);
  if (!r.ok) return {failure_penalty(config_.objectives.size()), r.tool_seconds};
  // Fresh runs bill their tool seconds to the searcher that asked; cache
  // and store hits were already paid for.
  return {to_objectives(r.metrics), fresh && !r.store_hit ? r.tool_seconds : 0.0};
}

std::vector<ExploredPoint> DseEngine::evaluate_set(const std::vector<DesignPoint>& points) {
  const double start_seconds = broker_->tool_seconds();
  const std::vector<EvalResult> results = dispatch_batch(*broker_, points, true);
  broker_->close_batch(start_seconds);
  broker_->lane_barrier();  // a one-shot batch API: the set closes together
  std::vector<ExploredPoint> out;
  out.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ExploredPoint ep;
    ep.params = points[i];
    if (i >= results.size()) {
      // Cut by the deadline: reported as failed, not recorded.
      ep.failed = true;
      out.push_back(std::move(ep));
      bump(&DseStats::deadline_skips);
      continue;
    }
    if (results[i].fast_failed) {
      // Breaker open: reported as failed, but not recorded as explored —
      // nothing ever evaluated the point.
      ep.failed = true;
      ep.metrics = results[i].metrics;
      out.push_back(std::move(ep));
      continue;
    }
    ep.metrics = results[i].metrics;
    ep.failed = !results[i].ok;
    out.push_back(std::move(ep));
    record(points[i], results[i].metrics, false, !results[i].ok);
  }
  return out;
}

void DseEngine::run_preflight() {
  if (!config_.preflight) return;
  const auto start = std::chrono::steady_clock::now();
  const analysis::LintReport report = analysis::preflight(project_, config_);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  {
    util::MutexLock lock(stats_mutex_);
    stats_.preflight_ms = elapsed_ms;
  }
  if (report.count(analysis::Severity::kError) > 0) {
    throw std::runtime_error("pre-flight lint found " +
                             std::to_string(report.count(analysis::Severity::kError)) +
                             " error(s):\n" + analysis::render_text(report) +
                             "(use --no-preflight to bypass the gate)");
  }
}

void DseEngine::search(opt::Problem& problem, const opt::Nsga2Config& ga) {
  // The searcher. The barrier policy runs the paper's generational
  // NSGA-II; the steady policy resolves any registered ask/tell optimizer
  // (nsga2, random, local, surrogate, exhaustive, or the bandit portfolio)
  // by name, so new searchers plug in without touching this loop.
  const bool barrier = !config_.steady_state;
  std::optional<opt::GenerationalNsga2> generational;
  std::unique_ptr<opt::Optimizer> searcher;
  if (barrier) {
    generational.emplace(ga, problem);
  } else {
    opt::OptimizerContext opt_ctx;
    opt_ctx.problem = &problem;
    opt_ctx.ga = ga;
    opt_ctx.portfolio_members = config_.portfolio_members;
    opt_ctx.surrogate = [this](const opt::Genome& genome) -> std::optional<opt::Objectives> {
      // NWM estimates back the surrogate-guided sampler; without enough
      // samples the model has nothing to say and the sampler degrades to
      // random search.
      if (!control_ || control_->dataset().size() < 2) return std::nullopt;
      return to_objectives(estimate_metrics(config_.space.decode(genome)));
    };
    searcher = opt::OptimizerRegistry::create(config_.optimizer, opt_ctx);
  }
  auto tell = [&](const opt::Genome& genome, const opt::Objectives& objectives,
                  double cost_seconds) {
    if (barrier) generational->tell(genome, objectives);
    else searcher->tell(genome, objectives, cost_seconds);
  };

  auto user_stop = config_.ga.should_stop;
  auto should_stop = [&] {
    if (broker_->deadline_exceeded()) {
      broker_->mark_deadline_hit();
      return true;
    }
    return user_stop ? user_stop() : false;
  };

  // NWM rung of the admission ladder, shared by both policies: when the
  // control model answers for the point, the estimate is recorded and told
  // back at once and the point never reaches a broker.
  auto estimated = [&](const opt::Genome& genome, const DesignPoint& point) {
    if (!control_ ||
        control_->decide_and_count(to_model_point(point)) != model::Decision::kEstimate) {
      return false;  // kCachedTool and kToolAndAdd both go to the tool
    }
    const EvalMetrics metrics = estimate_metrics(point);
    bump(&DseStats::estimates);
    record(point, metrics, true, false);
    tell(genome, to_objectives(metrics), 0.0);
    return true;
  };

  Dispatcher dispatcher(*broker_);

  // ---- Barrier policy ----------------------------------------------------
  // A generation is admitted whole (NWM decisions for every member, then
  // screening of its unique points), dispatched with at most one run per
  // virtual lane, and resolved in submission order once its last answer
  // lands, so dataset growth and the explored set see a sequential run's
  // order. Closing it is the generational barrier: lane_barrier() makes
  // idle virtual lanes wait for the slowest run, then probes run. It
  // journals no inflight markers: a fixed-seed resume regenerates the same
  // generation and repays nothing the journal already holds.
  struct Member {
    std::size_t genome;  ///< index into Generation::genomes
    std::size_t point;   ///< index into Generation::points
  };
  struct Generation {
    bool open = false;
    std::vector<opt::Genome> genomes;  ///< as asked
    std::vector<Member> pending;       ///< members not answered at admission, in ask order
    std::vector<DesignPoint> points;   ///< unique points of `pending`
    std::vector<std::optional<EvalResult>> settled;  ///< per point: settling screen answer
    std::vector<std::size_t> slot;     ///< per point: dispatch slot (if not settled)
    std::vector<std::size_t> forward;  ///< points sent to high fidelity, by slot
    std::vector<EvalResult> answers;   ///< per slot
    std::size_t submitted = 0;         ///< slots submitted so far
    bool cut = false;                  ///< should_stop() ended dispatch early
    double start_seconds = 0.0;        ///< hi-fi tool seconds at admission
  } gen;
  const std::size_t lanes = std::max<std::size_t>(1, broker_->virtual_lane_count());
  bool initial_generation = true;

  auto open_generation = [&] {
    gen = Generation{};
    gen.open = true;
    gen.genomes = generational->ask();
    // Identical genomes collapse onto one submission (deterministic
    // single-flight); the duplicates join their leader at resolution.
    std::map<DesignPoint, std::size_t> unique;
    for (std::size_t i = 0; i < gen.genomes.size(); ++i) {
      bump(&DseStats::ga_evaluations);
      DesignPoint point = config_.space.decode(gen.genomes[i]);
      if (estimated(gen.genomes[i], point)) continue;
      const auto [it, inserted] = unique.try_emplace(point, gen.points.size());
      if (inserted) gen.points.push_back(std::move(point));
      gen.pending.push_back({i, it->second});
    }
    // Multi-fidelity screening pre-ranks the generation's fresh points on
    // the low-fidelity broker; unpromising ones settle with their
    // screening answer and never reach the high-fidelity tool. Skipped
    // once the deadline passed: dispatch is about to be cut anyway.
    gen.settled.assign(gen.points.size(), std::nullopt);
    if (screen_broker_ && !broker_->deadline_exceeded()) gen.settled = screen_batch(gen.points);
    gen.slot.assign(gen.points.size(), 0);
    for (std::size_t p = 0; p < gen.points.size(); ++p) {
      if (gen.settled[p]) continue;
      gen.slot[p] = gen.forward.size();
      gen.forward.push_back(p);
    }
    gen.answers.resize(gen.forward.size());
    gen.start_seconds = broker_->tool_seconds();
  };

  auto close_generation = [&] {
    std::vector<char> led(gen.points.size(), 0);
    for (const Member& member : gen.pending) {
      const opt::Genome& genome = gen.genomes[member.genome];
      const DesignPoint& point = gen.points[member.point];
      if (gen.settled[member.point]) {
        tell(genome, settle(point, *gen.settled[member.point]), 0.0);
        continue;
      }
      const std::size_t slot = gen.slot[member.point];
      if (slot >= gen.submitted) {
        // should_stop() ended dispatch before this point ran. The failure
        // penalty lets the generation close; the point stays out of the
        // explored set, since nothing evaluated it.
        bump(&DseStats::deadline_skips);
        tell(genome, failure_penalty(config_.objectives.size()), 0.0);
        continue;
      }
      EvalResult r = gen.answers[slot];
      if (led[member.point] && !r.cache_hit) {
        // A duplicate of an earlier member joins the leader's run instead
        // of paying for the tool again.
        r.joined = true;
        r.tool_seconds = 0.0;
      }
      led[member.point] = 1;
      const Scored scored = resolve(point, r);
      tell(genome, scored.objectives, scored.cost_seconds);
    }
    broker_->close_batch(gen.start_seconds);
    broker_->lane_barrier();
    // Recovery rung: after every generation the probe queue re-tries a
    // bounded number of fast-failed points against the hi-fi tier (once
    // the breaker's cooldown admits probes).
    run_probe_queue();
    gen.open = false;
  };

  // Returns false once no generation is left to release.
  auto release_generation = [&] {
    while (true) {
      if (!gen.open) {
        // Between generations the GA polls its stop condition, as in the
        // paper's solver; the initial population is always released.
        if (generational->done() || (!initial_generation && should_stop())) return false;
        initial_generation = false;
        open_generation();
      }
      while (!gen.cut && gen.submitted < gen.forward.size() && dispatcher.inflight() < lanes) {
        if (should_stop()) {
          gen.cut = true;
          break;
        }
        dispatcher.submit({}, gen.points[gen.forward[gen.submitted]], gen.submitted);
        ++gen.submitted;
      }
      if (dispatcher.inflight() != 0) return true;
      close_generation();  // every dispatched answer has landed
    }
  };

  // ---- Steady policy -----------------------------------------------------
  // Up to max_inflight evaluations stay in the air; each completion is
  // resolved at once in (virtual_finish, seq) order, followed by (mu+1)
  // survival inside the searcher and a probe round — no barrier anywhere.
  // The budget counts completions (estimates and screen settles included):
  // 0 = population * (generations + 1), the barrier policy's budget.
  const std::size_t budget = config_.steady_state_evaluations != 0
                                 ? config_.steady_state_evaluations
                                 : ga.population_size * (ga.max_generations + 1);
  const std::size_t max_inflight = config_.max_inflight != 0 ? config_.max_inflight : lanes;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  bool stop_submission = false;

  // Per-completion sticky screening. With no generation to rank, each
  // screen answer is compared against a sliding window of recent ones and
  // forwarded iff fewer than keep_ratio of them dominate it — the barrier
  // policy's top-fraction intent, thresholded on domination count.
  // Screen-outs stay sticky through the screen broker's cache.
  std::deque<opt::Objectives> screen_window;
  const std::size_t window_cap = std::max<std::size_t>(4 * ga.population_size, 16);

  // Admit one asked genome; returns true when it went to the broker (it
  // occupies an inflight slot). `direct` bypasses the estimate/screen
  // ladder: replayed inflight points were already committed to high
  // fidelity by the crashed campaign.
  auto admit = [&](opt::Genome genome, bool direct) {
    bump(&DseStats::ga_evaluations);
    DesignPoint point = config_.space.decode(genome);
    if (!direct && estimated(genome, point)) return false;

    const bool hifi_cached = broker_->cached(point).has_value();
    if (screen_broker_ && !direct && !hifi_cached && !broker_->deadline_exceeded()) {
      // Sticky screen-outs: a cached screen answer means the point already
      // lost the forwarding lottery; it settles again without re-entering.
      const auto prior = screen_broker_->cached(point);
      EvalResult screen;
      bool settle_now = false;
      if (prior && prior->ok) {
        screen = *prior;
        settle_now = true;
      } else if (!prior) {
        screen = screen_broker_->tool_evaluate(point);
        if (screen.ok) {
          const opt::Objectives sobj = to_objectives(screen.metrics);
          if (screen_window.size() >= 4) {
            std::size_t dominating = 0;
            for (const auto& w : screen_window) {
              if (opt::dominates(w, sobj)) ++dominating;
            }
            settle_now = static_cast<double>(dominating) >=
                         config_.screen_keep_ratio *
                             static_cast<double>(screen_window.size());
          }
          screen_window.push_back(sobj);
          if (screen_window.size() > window_cap) screen_window.pop_front();
        }
        // Screen failures always forward — the high-fidelity tool has the
        // authoritative verdict on buildability.
      }
      if (settle_now) {
        tell(genome, settle(point, screen), 0.0);
        return false;
      }
    }

    // Forwarded to the high-fidelity broker. The inflight marker makes the
    // submission crash-safe: a campaign that dies here re-submits the
    // point exactly once on resume (the eval record supersedes it), and the
    // optimizer attribution routes the replayed answer back to the member
    // that asked for it.
    if (!hifi_cached) broker_->journal_inflight(point, searcher->attributed_to(genome));
    dispatcher.submit(std::move(genome), std::move(point), 0);
    return true;
  };

  // Resume: inflight points journaled by a crashed campaign are submitted
  // first, exactly once (reserve() keeps ask() from regenerating them).
  // reserve_for restores the recorded attribution so the eventual tell()
  // lands on the portfolio member that originally asked.
  std::deque<opt::Genome> replay;
  if (!barrier) {
    for (const InflightMark& mark : broker_->replayed_inflight()) {
      auto genome = config_.space.encode(mark.params);
      if (!genome) continue;  // the space changed; the point is unreachable now
      searcher->reserve_for(*genome, mark.optimizer);
      replay.push_back(std::move(*genome));
    }
    util::MutexLock lock(stats_mutex_);
    stats_.inflight_replayed += replay.size();
  }

  // Returns false once submission has stopped for good.
  auto release_steady = [&] {
    while (!stop_submission && dispatcher.inflight() < max_inflight && submitted < budget) {
      if (should_stop()) {
        stop_submission = true;
        break;
      }
      const bool direct = !replay.empty();
      opt::Genome genome;
      if (direct) {
        genome = std::move(replay.front());
        replay.pop_front();
      } else {
        genome = searcher->ask();
      }
      ++submitted;
      if (!admit(std::move(genome), direct)) {
        ++completed;
        bump(&DseStats::steady_completions);
      }
    }
    return !stop_submission && submitted < budget;
  };

  // ---- The submit/complete loop ------------------------------------------
  while (true) {
    const bool more = barrier ? release_generation() : release_steady();
    if (dispatcher.inflight() == 0) {
      if (!more) break;
      continue;  // everything so far resolved synchronously; release more
    }
    Dispatcher::Flight done = dispatcher.next();
    if (barrier) {
      gen.answers[done.slot] = std::move(done.result);
      continue;
    }
    const Scored scored = resolve(done.point, done.result);
    tell(done.genome, scored.objectives, scored.cost_seconds);
    ++completed;
    bump(&DseStats::steady_completions);
    // Per-completion probe scheduling: breaker recovery is tested
    // continuously instead of once per generation.
    run_probe_queue();
  }

  util::MutexLock lock(stats_mutex_);
  // Survival rounds after the initial population: closed offspring
  // generations, or (mu+1) completions beyond the first population_size
  // counted in whole populations.
  const std::size_t pop = ga.population_size;
  stats_.generations = barrier ? generational->generations()
                               : (pop != 0 && completed > pop ? (completed - pop) / pop : 0);
  if (!barrier) {
    stats_.optimizer_name = config_.optimizer;
    stats_.optimizer_members = searcher->member_stats();
  }
}

std::vector<opt::Genome> DseEngine::seed_genomes() {
  // One seed source: the warm-start session when it holds usable points,
  // otherwise the store's prior front. Either way the initial population
  // is the non-dominated subset of the candidates that still encode into
  // the current design space.
  std::vector<opt::Genome> genomes;
  std::vector<opt::Objectives> objs;
  auto offer = [&](const DesignPoint& params, const EvalMetrics& metrics) {
    auto genome = config_.space.encode(params);
    if (!genome) return;  // spaces differ across sessions and campaigns
    genomes.push_back(std::move(*genome));
    objs.push_back(to_objectives(metrics));
  };
  auto front = [&] {
    std::vector<opt::Genome> seeds;
    for (std::size_t i : opt::non_dominated_indices(objs)) seeds.push_back(genomes[i]);
    return seeds;
  };

  for (const auto& point : config_.warm_start) {
    if (exact(point) && !point.failed) offer(point.params, point.metrics);
  }
  if (!genomes.empty() || !store_ || !config_.store_warm_start) return front();

  // Only exact hi-fi answers for *this* backend with every objective
  // present count — screen estimates and approximate scores never steer
  // the initial population.
  for (const auto& rec : store_->live_records()) {
    if (rec.tier != store::EvalStore::kTierHifi) continue;
    if (rec.backend != broker_->backend_info().name) continue;
    if (!rec.ok || rec.approximate) continue;
    EvalMetrics metrics;
    metrics.values = rec.metrics;
    if (objective_values(rec.params, metrics)) offer(rec.params, metrics);
  }
  std::vector<opt::Genome> seeds = front();
  if (!seeds.empty()) {
    {
      util::MutexLock lock(stats_mutex_);
      stats_.store_seeded_points = seeds.size();
    }
    util::Log::info("seeded initial population with " + std::to_string(seeds.size()) +
                    " non-dominated point(s) from the evaluation store");
  }
  return seeds;
}

DseResult DseEngine::run() {
  run_preflight();
  pretrain();

  SpaceProblem problem(config_.space, config_.objectives.size());
  opt::Nsga2Config ga = config_.ga;
  if (ga.initial_genomes.empty()) ga.initial_genomes = seed_genomes();
  search(problem, ga);

  // Assemble the non-dominated set over everything explored (tool results
  // and surviving estimates), excluding failures.
  auto build_front = [this]() {
    std::vector<std::size_t> candidate_indices;
    std::vector<opt::Objectives> objs;
    for (std::size_t i = 0; i < explored_.size(); ++i) {
      if (explored_[i].failed) continue;
      candidate_indices.push_back(i);
      objs.push_back(to_objectives(explored_[i].metrics));
    }
    std::vector<std::size_t> front;
    for (std::size_t local : opt::non_dominated_indices(objs)) {
      front.push_back(candidate_indices[local]);
    }
    return front;
  };

  std::vector<std::size_t> front = build_front();

  if ((control_ || screen_broker_ || health_) && config_.verify_estimated_front) {
    // Estimated points that made the front — NWM estimates, screened-out
    // survivors and hedged (breaker-degraded) members alike — get an exact
    // tool evaluation, then the front is recomputed. Verified answers are
    // recorded but not learned: the search they could steer is over.
    // Correcting an optimistic estimate can let a previously-dominated
    // *estimated* point back into the front, so iterate until the front is
    // fully exact. With an open breaker a whole pass can fast-fail without
    // converting anything; such zero-progress passes get a bounded number
    // of probe-driven recovery attempts, after which the remaining front
    // members stay estimated (and flagged approximate) — a degraded-but-
    // complete answer beats hammering a dead backend forever.
    std::size_t zero_progress_passes = 0;
    while (zero_progress_passes < 4) {
      std::vector<DesignPoint> to_verify;
      for (std::size_t i : front) {
        if (explored_[i].estimated) to_verify.push_back(explored_[i].params);
      }
      if (to_verify.empty()) break;
      // Verification runs even past the deadline: the returned front must
      // be exact (estimated members re-evaluated by the tool, Sec. III-C).
      const std::vector<EvalResult> results = dispatch_batch(*broker_, to_verify, false);
      std::size_t converted = 0;
      for (std::size_t i = 0; i < to_verify.size(); ++i) {
        if (results[i].fast_failed) {
          // Breaker still open: the hi-fi tier was never consulted, so the
          // hedged estimate stands (neither converted nor failed).
          continue;
        }
        ++converted;
        count_answer(results[i]);
        if (!results[i].ok) {
          record(to_verify[i], results[i].metrics, false, true);
          continue;
        }
        // The tool answer supersedes the estimate (see record()).
        bool was_approximate;
        {
          util::MutexLock lock(record_mutex_);
          was_approximate = explored_[explored_index_.at(to_verify[i])].approximate;
        }
        record(to_verify[i], results[i].metrics, false, false);
        if (was_approximate) bump(&DseStats::reverified_points);
      }
      if (converted == 0) {
        // Give recovery one more chance per zero-progress pass: a probe
        // success closes the breaker and the next pass verifies for real.
        ++zero_progress_passes;
        run_probe_queue();
        continue;
      }
      zero_progress_passes = 0;
      front = build_front();
    }
  }

  DseResult result;
  for (std::size_t i : front) result.pareto.push_back(explored_[i]);
  // Stable presentation order: sort by the first objective (minimized view).
  std::sort(result.pareto.begin(), result.pareto.end(),
            [this](const ExploredPoint& a, const ExploredPoint& b) {
              return to_objectives(a.metrics) < to_objectives(b.metrics);
            });
  result.explored = explored_;
  result.stats = stats();
  return result;
}

}  // namespace dovado::core
